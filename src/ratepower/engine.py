"""The solver: the bounded best response and the one fixed-point loop.

Holds ``ConvergenceConfig``, the one home of a solve's settings (stopping
rule, boundary policy, update schedule, rate ladder, history), the trace
types, the bounded best response under its two boundary policies ("clamp"
projects the unconstrained response onto the strategy box, "kkt"
re-optimizes the free coordinate from the boundary stationarity quadratics)
as one array kernel, and the fixed-point iteration every solve runs:
single-cell, multi-cell with base-station assignment, runs with arriving
users, and lockstep batches of independent networks. The single-cell game
is the one-station case of the joint one. The scalar statements of the
formulas it runs, the step metric's among them, live in ``oracle``, which
this module does not import.

The loop steps a fixed set of networks from a given state. Each iterate's
station totals come from one ``p @ g`` per network, and its (users x
stations) effective-interference matrix from them; the matrix feeds that
iterate's trace row and the next synchronous sweep, which assigns every
user at once and takes every best response from the array kernel behind
``bounded_step_array``. The sequential sweep visits users in order, on
plain floats, and keeps the same totals current as each user moves. The
array kernel and the sequential sweep evaluate the floating-point
operations of the scalar best response in ``oracle`` in its order, so all
agree exactly; the public ``bounded_step`` is the array kernel on a
one-user table.

The trace is its ``Segment``s, each a run of iterations on one fixed
network held as (rows x users) columns, user k in column k; one loop call
makes one segment per network. ``iterate_to_convergence`` plays arrivals
as windows: a call plays the iterations before an arrival, its last row
starts the grown network, which the run's ``PricingRule`` prices again,
and a last call runs under the stop rule. ``ConvergenceConfig.history``
sets which rows a segment keeps: under "last", the default, only its
last, which is all the equilibrium, the summaries and the admission loops
read; under "full" every iteration's, which the CSV trace writes. SINR and
utility for the kept rows come from one vectorised pass; both are
elementwise, so a kept last row has the same bits either way.

A solve takes its users as a ``UserTable`` (a list of ``UserParams`` is
converted once) and starts at each user's own initial strategy (the
``p_init`` and ``r_init`` columns, checked against its box when the table
is built). Its config is checked once, when it is built; a user whose rate
box holds no rung of the config's ladder is refused at entry
(``RateSet.gap``). With a rate ladder the loop, not the sweeps, snaps the
rates with ``RateSet.snap``: every iteration's, or only the converged
row's. Rates never enter the power update or the station rule, so both
placements give the powers and stations of the continuous game.

``iterate_batch`` steps the independent networks of one station count in
lockstep, whatever their user counts: one (2 x users) state over their
concatenated table, each network owning a span of its columns, with each
network's station totals from its own ``p @ g`` over its span (a stacked
product rounds differently) and its own step metric, so each network's
trace equals its solve alone, bit for bit. Every network steps to the
batch's end and keeps its rows up to its own convergence: each is its own
fixed-point iteration, so stepping a converged network on changes no
other. A batch that raises is solved again one network at a time, so each
network gets its own trace or error. The sequential sweep, a per-user loop
that lockstep does not speed up, runs one network at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, PricingRule, RateSet, Strategy, UserParams, UserTable, priced_users
from .core import _require_count, _require_finite

__all__ = [
    "CLAMP",
    "KKT",
    "POLICIES",
    "SYNCHRONOUS",
    "SEQUENTIAL",
    "SCHEDULES",
    "METRIC_RELATIVE",
    "METRIC_ABSOLUTE",
    "HISTORY_LAST",
    "HISTORY_FULL",
    "ConvergenceConfig",
    "IterationRecord",
    "IterationTrace",
    "Segment",
    "bounded_step",
    "bounded_step_array",
    "iterate_batch",
    "iterate_to_convergence",
]

CLAMP = "clamp"
KKT = "kkt"
POLICIES = (CLAMP, KKT)

SYNCHRONOUS = "synchronous"
SEQUENTIAL = "sequential"
SCHEDULES = (SYNCHRONOUS, SEQUENTIAL)

METRIC_RELATIVE = "relative"
METRIC_ABSOLUTE = "absolute"
METRICS = (METRIC_RELATIVE, METRIC_ABSOLUTE)

HISTORY_LAST = "last"
HISTORY_FULL = "full"
HISTORIES = (HISTORY_LAST, HISTORY_FULL)

_EPS = 1e-30


def _inf_clamps(function):
    """``function`` run in the floating-point state of the loop and the array kernel.

    A price so small that a best response overflows to inf, or divides by a
    product that underflowed to 0, asks for more than the box holds: the
    clamp takes an infinite response to its upper bound, which is the exact
    bounded response, so overflow and division by zero pass silently. NaN
    has no such meaning: constants so large that the model's products reach
    inf - inf or inf / inf are refused as a ValueError.
    """
    clamped = np.errstate(over="ignore", divide="ignore", invalid="raise")(function)

    @functools.wraps(function)
    def refusing_nan(*args, **kwargs):
        try:
            return clamped(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValueError(f"the network's numbers leave the range of floats ({exc})") from None

    return refusing_nan


# Stations whose effective interference is within this relative band of the
# minimum count as tied; ties keep the current station so a user does not
# flap at a geometrically symmetric crossing.
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class ConvergenceConfig:
    """One solve's settings: its stopping rule, boundary policy, schedule, rate ladder and history.

    The "relative" metric normalizes each coordinate by its current magnitude
    so watts and bps weigh equally; "absolute" is the literal |dp| + |dr| sum
    and needs a delta chosen for the scenario's scales. With a ``rate_set``
    the loop snaps every iteration's rates onto it, or with
    ``quantize_at_convergence``, which needs a ladder, only the converged
    row's. ``history`` is "last" (each segment keeps only its last row) or
    "full" (every iteration's row, as the CSV trace needs); it changes no
    number of the solve. Every choice is checked here, once, when the config
    is built.
    """

    delta: float = 1e-9
    max_iterations: int = 500
    metric: str = METRIC_RELATIVE
    policy: str = CLAMP
    schedule: str = SYNCHRONOUS
    rate_set: RateSet | None = None
    quantize_at_convergence: bool = False
    history: str = HISTORY_LAST

    def __post_init__(self) -> None:
        _require_finite(delta=self.delta)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        count = _require_count("max_iterations", self.max_iterations)
        object.__setattr__(self, "max_iterations", count)
        _check_choice("metric", self.metric, METRICS)
        _check_choice("policy", self.policy, POLICIES)
        _check_choice("schedule", self.schedule, SCHEDULES)
        _check_choice("history", self.history, HISTORIES)
        if self.quantize_at_convergence and self.rate_set is None:
            raise ValueError("quantize_at_convergence needs a rate_set")


@dataclass(frozen=True)
class IterationRecord:
    """Row view of one iteration: the network at its end, user k in column k."""

    iteration: int
    step: int
    assignment: np.ndarray
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    metric: float


@dataclass
class Segment:
    """A run of iterations on one fixed network, as (rows x users) columns.

    ``iterations`` and ``metrics`` hold every iteration of the segment; the
    five row columns hold a row for each of them under "full" history, and
    under "last" for the last one only. Row s is iteration ``iterations[s]``
    of solver step ``step``; column k is user k of that network, so user
    ids are implicit. An arrival or a move step closes a segment.
    """

    step: int
    iterations: np.ndarray
    assignment: np.ndarray
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    metrics: np.ndarray

    @property
    def complete(self) -> bool:
        """Whether the row columns hold every iteration, not only the last."""
        return len(self.powers) == len(self.iterations)

    def row(self, s: int) -> IterationRecord:
        """Row view of the segment's s-th iteration; a dropped row raises IndexError."""
        s = range(len(self.iterations))[s]
        kept = s - len(self.iterations) + len(self.powers)
        if kept < 0:
            raise IndexError(
                f"row {s} of {len(self.iterations)} was dropped: the segment keeps "
                f"only its last {len(self.powers)}"
            )
        columns = (self.assignment, self.powers, self.rates, self.sinrs, self.utilities)
        row = (c[kept] for c in columns)
        return IterationRecord(int(self.iterations[s]), self.step, *row, float(self.metrics[s]))


@dataclass
class IterationTrace:
    """A run's history, as its segments, plus its terminal convergence flag.

    Every segment holds every iteration's metric, and its rows as the
    config's ``history`` kept them; ``final`` and the ``final_*`` views work
    under either. ``channel`` and ``users`` are the network the run ended
    on: every arrival is included, and ``users`` carry the pricing the last
    iteration played.
    """

    segments: list[Segment]
    converged: bool
    iterations_used: int
    channel: ChannelModel | None = None
    users: UserTable | None = None

    @property
    def final(self) -> IterationRecord:
        if not self.segments:
            raise ValueError("trace is empty")
        return self.segments[-1].row(-1)

    @property
    def final_powers(self) -> np.ndarray:
        return self.final.powers

    @property
    def final_rates(self) -> np.ndarray:
        return self.final.rates

    @property
    def final_sinrs(self) -> np.ndarray:
        return self.final.sinrs

    @property
    def final_assignment(self) -> np.ndarray:
        return self.final.assignment


def bounded_step(user: UserParams, r_eff: float, policy: str = CLAMP) -> Strategy:
    """One user's constrained update against effective interference r_eff.

    The unconstrained best response is computed first. Under "clamp" both
    coordinates are projected onto the strategy box independently. Under
    "kkt" a single violated coordinate is pinned to its bound and the other
    coordinate is re-optimized from the matching stationarity quadratic (then
    projected too, in case the re-optimized value leaves the box); when both
    coordinates violate, both are projected. The result always lies in the
    box. This is ``bounded_step_array`` on a one-user table.
    """
    (p,), (r,) = bounded_step_array(UserTable.from_users([user]), [r_eff], policy)
    return Strategy(float(p), float(r))


@_inf_clamps
def bounded_step_array(
    users: UserTable, r_eff, policy: str = CLAMP
) -> tuple[np.ndarray, np.ndarray]:
    """``bounded_step`` for every user of the table at once; returns (powers, rates).

    Evaluates the operations of ``oracle.unconstrained_best_response`` and
    the two boundary updates there in their order, so the results equal that
    scalar statement, not merely come close. Under "kkt" a coordinate that
    leaves its box is clamped onto the violated bound, which is exactly the
    value a scalar pin gives, and the other coordinate is re-optimized from
    it only when it alone violates. The two arrays are the rows of one
    (2, n) stack.
    """
    _check_choice("policy", policy, POLICIES)
    return tuple(_bounded_step_stack(users, np.asarray(r_eff, dtype=float), policy == KKT))


def _bounded_step_stack(t: UserTable, r_eff: np.ndarray, kkt: bool) -> np.ndarray:
    # bounded_step_array as one fresh (2, n) stack [powers; rates].
    if not (r_eff > 0).all():
        raise ValueError("effective interference must be positive")
    lam = t.lam
    q = np.empty((2, lam.shape[0]))
    np.sqrt(t.half_a2_a1 * r_eff / lam, out=q[0])
    np.sqrt(t.half_a1_a2 / (lam * r_eff), out=q[1])
    box = np.minimum(np.maximum(q, t.lo), t.hi)
    if not kkt:
        return box
    # Equal to the in-box test, since every box has lo <= hi.
    ok = box == q
    a1, a2 = t.alpha1, t.alpha2
    disc = 4.0 * a1 * a2 * lam * r_eff
    b = a2 * lam * r_eff * box[1]
    q[0] = (-b + np.sqrt(b * b + disc)) / (2.0 * a1 * lam)
    b = a1 * lam * box[0]
    q[1] = (-b + np.sqrt(b * b + disc)) / (2.0 * a2 * lam * r_eff)
    # Row 0 re-optimizes the power where only the rate left its box, row 1
    # the rate where only the power did.
    return np.where(ok & ~ok[::-1], np.minimum(np.maximum(q, t.lo), t.hi), box)


def _step_metric(prev: np.ndarray, new: np.ndarray, kind: str, starts=(0,)) -> np.ndarray:
    # oracle.convergence_metric of two (2, n) states [powers; rates], for a
    # valid kind, over each network's columns from its start to the next; a
    # maximum does not round, so the batch's equals each network's alone.
    d = np.abs(new - prev)
    if kind != METRIC_ABSOLUTE:
        d /= np.maximum(np.abs(new), _EPS)
    return np.maximum.reduceat(d[0] + d[1], starts)


def iterate_to_convergence(
    channel: ChannelModel,
    users: UserTable | list[UserParams],
    config: ConvergenceConfig | None = None,
    initial_assignment=None,
    arrivals=(),
    pricing: PricingRule | None = None,
) -> IterationTrace:
    """Run the joint station and rate/power loop until the step metric drops below delta.

    Each iteration every user first moves to the station where its effective
    interference is least (ties keep the current station), then takes its
    bounded best response there; with one station this is the single-cell
    game. ``config`` (default ``ConvergenceConfig()``) holds every setting of
    the solve. The synchronous schedule evaluates every user against the
    previous iterate; the sequential schedule updates users in order against
    the freshest powers. Users start at their initial strategies on station 0
    (or ``initial_assignment``).

    With a ``config.rate_set``, every iteration's rates are snapped down to
    the ladder after its sweep (or only once at convergence with
    ``config.quantize_at_convergence``, in the last iteration's row before its
    segment is built; the converged powers are identical either way because
    rates never enter the power update).

    ``arrivals`` are events with ``iteration``, ``distances_m`` and ``user``
    attributes. Each adds its user, at its initial strategy on station 0,
    just before that iteration's sweep; with a ``pricing`` rule every user
    of the grown network is then priced by it (``core.priced_users``), so
    pricing that depends on the user count or the gains sees the newcomer.
    The users given are played as they are: a caller prices them. The
    iterations before an arrival play whole, as one window and one segment,
    and the run stops only after the last arrival. Every arrival's iteration
    and distances are checked before the first iteration; an arrival after
    ``config.max_iterations`` could never fire. Non-convergence within
    max_iterations is reported on the trace, not raised.
    """
    config = config if config is not None else ConvergenceConfig()
    users = UserTable.from_users(users)
    error = _network_error(channel, users, config)
    if error is not None:
        raise error
    assignment = _initial_assignment(initial_assignment, len(users), channel.n_stations)
    pending = sorted(arrivals, key=lambda ev: ev.iteration)
    if pending and pending[0].iteration < 1:
        raise ValueError("arrival iterations must be at least 1")
    if pending and pending[-1].iteration > config.max_iterations:
        raise ValueError(
            f"arrival at iteration {pending[-1].iteration} comes after "
            f"max_iterations = {config.max_iterations} and would never fire"
        )
    for ev in pending:
        # Grow a throwaway channel so a bad row fails here, not when it fires.
        channel.with_user(ev.distances_m)
    if pending:
        # Arrivals join in iteration order, after the users already there.
        error = _ladder_error(config, UserTable.concat([users, [ev.user for ev in pending]]))
        if error is not None:
            raise error
    state, segments, done = users.initial, [], 0
    for t, group in itertools.groupby(pending, key=lambda ev: ev.iteration):
        if t > done + 1:
            # No run converges while an arrival is pending: the window plays whole.
            (window,) = _loop([(channel, users)], config, assignment, state, done + 1, t - 1)
            segments += window.segments
            end = window.final
            state, assignment = np.array([end.powers, end.rates]), end.assignment
        for ev in group:
            channel = channel.with_user(ev.distances_m)
            users = users.with_user(ev.user)
            state = np.append(state, [[ev.user.initial_power], [ev.user.initial_rate]], axis=1)
            assignment = np.append(assignment, 0)
        users = priced_users(pricing, channel, users)
        done = t - 1
    (trace,) = _loop([(channel, users)], config, assignment, state, done + 1)
    trace.segments[:0] = segments
    return trace


def iterate_batch(networks, config: ConvergenceConfig | None = None) -> list:
    """Solve independent networks in lockstep; one outcome per network.

    ``networks`` holds (channel, users) pairs; their user and station counts
    may differ. Network k's outcome is the trace
    ``iterate_to_convergence(channel, users, config)`` returns, bit for bit,
    or the exception that call raises; the caller raises the first one that
    its serial order would have reached. The networks on one station count
    step in lockstep as one batch: every network steps to the batch's last
    iteration and keeps its rows up to its own convergence, so a network
    that never converges keeps its batch-mates stepping until
    ``config.max_iterations``, their extra rows dropped. A batch whose loop
    raises is solved again one network at a time, so on that rare path a
    batch is solved twice. The sequential schedule's sweep is a per-user
    loop that lockstep does not speed up, so under it the networks are
    solved one after another.
    """
    config = config if config is not None else ConvergenceConfig()
    networks = [(channel, UserTable.from_users(users)) for channel, users in networks]
    outcomes = [_network_error(channel, users, config) for channel, users in networks]
    lockstep = config.schedule == SYNCHRONOUS
    groups: dict[int, list[int]] = {}  # by station count, or one network each
    for k, (channel, _) in enumerate(networks):
        if outcomes[k] is None:
            groups.setdefault(channel.n_stations if lockstep else k, []).append(k)
    for group in groups.values():
        batch = [networks[k] for k in group]
        start = np.zeros(sum(channel.n_users for channel, _ in batch), dtype=int)
        try:
            solved = _loop(batch, config, start)
        except ValueError as exc:
            # Each network alone gets its own trace or error.
            solved = [exc] if len(batch) == 1 else [iterate_batch([net], config)[0] for net in batch]
        for k, outcome in zip(group, solved):
            outcomes[k] = outcome
    return outcomes


@_inf_clamps
def _loop(networks, config, assignment, state=None, first=1, last=None) -> list:
    """The fixed-point loop, stepping K fixed networks in lockstep; one trace each.

    The state is one fresh (2 x users) stack [powers; rates] per iteration
    over the networks' concatenated table, from ``state`` (default the
    table's initial strategies); network k owns the columns ``spans[k]``,
    its station totals come from its own ``p @ g`` and its step metric from
    one ``np.maximum.reduceat`` over the span starts. The loop plays
    iterations ``first`` to ``last`` whole, or with no ``last`` until every
    network has met delta or ``config.max_iterations``; network k's one
    segment is cut at ``ends[k]``, the first iteration at which it met
    delta. Stepping a converged network on changes no other, as each is its
    own fixed-point iteration.

    Under "full" history each iteration appends the batch's row (assignment,
    state and assigned r_eff), stacked once into columns at the end; under
    "last" the loop holds only the latest iterate and takes network k's row
    from it at ``ends[k]`` or at the end. Whatever a step, the final snap or
    a segment raises, the loop raises. The sequential schedule only ever
    comes with one network.
    """
    channels, users = zip(*networks)
    table = users[0] if len(users) == 1 else UserTable.concat(users)
    state = table.initial if state is None else state
    blocks = len(networks)
    sizes, starts, spans = _spans([len(us) for us in users])
    kkt = config.policy == KKT
    snap_each = None if config.quantize_at_convergence else config.rate_set
    full = config.history == HISTORY_FULL
    converging = last is None
    last = config.max_iterations if converging else last

    gains = [channel.gains for channel in channels]
    g, noise = gains[0], channels[0].noise_w
    if blocks > 1:
        g = np.concatenate(gains)
        noise = np.array([channel.noise_w for channel in channels]).repeat(sizes)[:, None]
    ids = np.arange(state.shape[1])
    plain = None if config.schedule == SYNCHRONOUS else _plain(g, table, kkt)
    # Every iteration's per-network metrics, and under full history the
    # batch's (assignment, state, assigned r_eff) rows.
    series: list[list[float]] = []
    history: list[tuple] = []
    ends: list[int | None] = [None] * blocks
    kept: list[tuple | None] = [None] * blocks  # under "last", network k's row at ends[k]
    # The station totals of the current iterate, and its (users x stations)
    # r_eff matrix, formed only when a sweep or a row reads it: the
    # sequential sweep reads the totals alone.
    totals, reffs = _totals(state[0], gains, spans, sizes), None

    def current_reffs():
        nonlocal reffs
        if reffs is None:
            reffs = _station_reffs(g, noise, state[0], totals)
        return reffs

    iteration = first - 1
    while iteration < last:
        iteration += 1
        if config.schedule == SYNCHRONOUS:
            new, assignment = _synchronous_sweep(table, current_reffs(), assignment, kkt)
        else:
            new, assignment = _sequential_sweep(
                g, noise, table, state[0], totals, assignment, kkt, plain
            )
        if snap_each is not None:
            new[1] = snap_each.snap(new[1])
        metrics = _step_metric(state, new, config.metric, starts).tolist()
        state = new
        # One set of station totals per iterate serves its row and the next sweep.
        totals, reffs = _totals(state[0], gains, spans, sizes), None
        series.append(metrics)
        if full:
            history.append((assignment, state, current_reffs()[ids, assignment]))
        if converging and min(metrics) <= config.delta:
            for k, metric in enumerate(metrics):
                if metric <= config.delta and ends[k] is None:
                    ends[k] = iteration
                    if not full:
                        kept[k] = _row(assignment, state, current_reffs(), spans[k])
            if None not in ends:
                break

    traces = []
    iterations, metrics = np.arange(first, iteration + 1), np.array(series, dtype=float)
    stacked = _columns(history, spans) if full else None
    for k, cols in enumerate(spans):
        converged, end = ends[k] is not None, ends[k] or iteration
        rows = end - first + 1
        if full:
            a, states, r = (c[:rows] for c in stacked[k])
        else:
            a, states, r = kept[k] or _row(assignment, state, current_reffs(), cols)
        if converged and config.quantize_at_convergence:
            # Quantizing at convergence snaps the converged row's rates.
            states[-1, 1] = config.rate_set.snap(states[-1, 1])
        seg = _segment(channels[k], table, cols, iterations[:rows], metrics[:rows, k], a, states, r)
        traces.append(IterationTrace([seg], converged, end, channels[k], users[k]))
    return traces


# Internals.


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _initial_assignment(override, n_users: int, n_stations: int) -> np.ndarray:
    if override is None:
        return np.zeros(n_users, dtype=int)
    a = np.asarray(override)
    if a.shape != (n_users,) or not np.issubdtype(a.dtype, np.integer):
        raise ValueError("initial assignment must hold one station index per user")
    if np.any(a < 0) or np.any(a >= n_stations):
        raise ValueError("assignment references a missing station")
    return a.astype(int)


def _station_reffs(g: np.ndarray, noise, powers: np.ndarray, totals: np.ndarray):
    # Every user's effective interference at every station (users x stations),
    # from the stations' received totals, which hold one row per user or one
    # for all. Every caller passes a fresh ``powers @ g``, and a sum of
    # nonnegative terms never rounds below one of its terms, so the
    # difference is never negative and needs no clip.
    return (totals - g * powers[:, None] + noise) / g


def _totals(powers: np.ndarray, gains: list, spans: list, sizes: np.ndarray) -> np.ndarray:
    # The station totals each user sees: its own network's ``p @ g`` over
    # its span, one product per network, since a stacked product rounds
    # differently. One network's totals broadcast over its users as they are.
    if len(gains) == 1:
        return powers @ gains[0]
    per_network = [powers[span] @ g for span, g in zip(spans, gains)]
    return np.array(per_network).repeat(sizes, axis=0)


def _spans(sizes: list) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    # Networks of ``sizes`` users laid side by side: their sizes, each one's
    # first column in the batch, and each one's span of columns.
    sizes = np.array(sizes)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    return sizes, starts, [slice(a, b) for a, b in zip(starts.tolist(), stops.tolist())]


def _network_error(channel: ChannelModel, users: UserTable, config) -> ValueError | None:
    # What a solve of these users on this channel refuses at entry, if anything.
    n = len(users)
    # A channel has at least one row, so this also refuses a solve of no users.
    if n != channel.n_users:
        return ValueError(f"{n} users but channel has {channel.n_users} rows")
    if n == 1 and channel.noise_w == 0:
        return ValueError("a lone user with zero noise has no positive fixed point")
    return _ladder_error(config, users)


def _ladder_error(config, users: UserTable) -> ValueError | None:
    # A user whose rate box holds no rung of the config's ladder, if any.
    gap = None if config.rate_set is None else config.rate_set.gap(users)
    return None if gap is None else ValueError("user {}: {}".format(*gap))


def _synchronous_sweep(table, reffs, assignment, kkt):
    """Every user against the previous iterate's interference; returns (state, stations)."""
    if reffs.shape[1] == 1:
        # One station: every user stays on it.
        r_eff = reffs[:, 0]
    else:
        best = reffs.min(axis=1)
        tied = reffs <= (best * (1.0 + TIE_REL_TOL))[:, None]
        rows = np.arange(assignment.shape[0])
        assignment = np.where(tied[rows, assignment], assignment, tied.argmax(axis=1))
        r_eff = reffs[rows, assignment]
    return _bounded_step_stack(table, r_eff, kkt), assignment


def _plain(g, table, kkt) -> tuple:
    """The sequential sweep's inputs as plain floats, converted once per table.

    Each user's gain row, or on one station each user's gain as one flat
    list, then the table columns the power step reads, then under "kkt"
    those the rate step reads.
    """
    columns = [table.half_a2_a1, table.lam, table.p_min, table.p_max]
    if kkt:
        columns += [table.half_a1_a2, table.alpha1, table.alpha2, table.r_min, table.r_max]
    rows = g[:, 0] if g.shape[1] == 1 else g
    return (rows.tolist(), *(c.tolist() for c in columns))


def _sequential_sweep(g, noise, table, powers, totals, assignment, kkt, plain=None):
    """Users in order against the freshest powers; returns (state, stations).

    ``plain`` is ``_plain(g, table, kkt)``, the gains and the table's
    constants as plain floats; the loop converts them once per table, and a
    sweep called without them converts them itself. ``totals`` are the
    stations' received totals ``powers @ g``, as the loop formed them; kept
    current as each user moves, they make a user cost O(stations) rather
    than a fresh O(users x stations) product. The per-user loop runs on
    plain floats and moves only stations and powers: each user takes the
    least-interference station (ties keep the current one) and the power of
    the bounded best response there, computed inline with the table's
    constants. On one station (``g`` has one column) the station rule has
    nothing to choose, so the loop skips it: it keeps the one running total,
    takes each user's interference there directly with the same operations,
    and returns ``assignment`` itself. Under "kkt" the rate is evaluated
    only to decide whether the power is re-optimized. The sweep's rates, and
    its powers again, come from one ``_bounded_step_stack`` on the
    interference each user saw; it evaluates the same operations, so the
    powers equal the loop's.
    """
    sqrt = math.sqrt
    band = 1.0 + TIE_REL_TOL
    single = g.shape[1] == 1
    totals = totals.tolist()
    t = totals[0]  # on one station, its running total
    p = powers.tolist()
    a = assignment.tolist()
    seen = []
    rows, c_p, lams, p_lo, p_hi, *rate_columns = plain or _plain(g, table, kkt)
    if kkt:
        c_r, a1s, a2s, r_lo, r_hi = rate_columns
    for i, g_i in enumerate(rows):
        p_i = p[i]
        if single:
            # g_i is the user's one gain, and it has no station to choose.
            d = t - g_i * p_i
            x = ((0.0 if d < 0.0 else d) + noise) / g_i
        else:
            reffs = []
            for t_k, g_k in zip(totals, g_i):
                d = t_k - g_k * p_i
                reffs.append(((0.0 if d < 0.0 else d) + noise) / g_k)
            a_i = a[i]
            x = reffs[a_i]
            least = min(reffs) * band
            if x > least:
                a_i = 0
                while reffs[a_i] > least:
                    a_i += 1
                x = reffs[a_i]
                a[i] = a_i
        if x <= 0:
            raise ValueError(f"effective interference must be positive, got {x}")
        lam, lo, hi = lams[i], p_lo[i], p_hi[i]
        q = sqrt(c_p[i] * x / lam)
        new = lo if q < lo else hi if q > hi else q
        if kkt and new == q:
            r = sqrt(c_r[i] / (lam * x))
            r_box = r_lo[i] if r < r_lo[i] else r_hi[i] if r > r_hi[i] else r
            if r_box != r:
                # The rate is pinned: re-optimize the power from it.
                a1, a2 = a1s[i], a2s[i]
                b = a2 * lam * x * r_box
                q = (-b + sqrt(b * b + 4.0 * a1 * a2 * lam * x)) / (2.0 * a1 * lam)
                new = lo if q < lo else hi if q > hi else q
        if new != p_i:
            step = new - p_i
            if single:
                t += g_i * step
            else:
                k = 0
                for g_k in g_i:
                    totals[k] += g_k * step
                    k += 1
            p[i] = new
        seen.append(x)
    stations = assignment if single else np.array(a)
    return _bounded_step_stack(table, np.array(seen), kkt), stations


def _segment(channel, table, cols, iterations, metrics, assignment, states, reffs) -> Segment:
    """One segment of step 1: iterations played on ``channel`` by columns ``cols`` of ``table``.

    Every iteration's number and metric arrive as vectors; the kept rows'
    assignment and assigned r_eff as columns, their states as a (rows x 2 x
    users) stack, and SINR and utility come from one vectorised pass over
    those rows.
    """
    powers, rates = states[:, 0], states[:, 1]
    if not (reffs > 0).all():
        raise ValueError("effective interference must be positive")
    sinrs = (channel.bandwidth_hz / rates) * (powers / reffs)
    a1, a2, lam = table.alpha1[cols], table.alpha2[cols], table.lam[cols]
    price = 0.5 * lam * ((a2 / a1) * reffs * rates**2 + (a1 / a2) * powers**2 / reffs)
    utilities = np.log(a2 * reffs * rates + a1 * powers) - price
    return Segment(1, iterations, assignment, powers, rates, sinrs, utilities, metrics)


def _row(assignment, state, reffs, cols) -> tuple:
    """The iterate of the network in columns ``cols`` as one-row columns.

    Its stations, its (1 x 2 x users) state and each user's r_eff at its
    station, all fresh arrays, so a kept row holds no batch array alive.
    """
    a = assignment[cols]
    return (
        np.array([a], dtype=int),
        np.array([state[:, cols]], dtype=float),
        reffs[cols][np.arange(len(a)), a][None],
    )


def _columns(history, spans) -> list[tuple]:
    """The batch's rows stacked once into columns, cut into its networks' ``spans``.

    Each row is (assignment, (2 x users) state, assigned r_eff). Network
    k's tuple holds the same fields as columns of the users in ``spans[k]``,
    states as an (iterations x 2 x users) stack.
    """
    assignment, states, reffs = zip(*history)
    assignment = np.array(assignment, dtype=int)
    states = np.array(states, dtype=float)
    reffs = np.array(reffs, dtype=float)
    return [(assignment[:, span], states[:, :, span], reffs[:, span]) for span in spans]
