"""The solver: the bounded best response and the one fixed-point loop.

Holds ``ConvergenceConfig``, the one home of a solve's settings (stopping
rule, boundary policy, update schedule, rate ladder), the trace types, the
bounded best response under its two boundary policies ("clamp" projects the
unconstrained response onto the strategy box, "kkt" re-optimizes the free
coordinate from the boundary stationarity quadratics) as one array kernel,
and ``iterate_to_convergence``, the fixed-point iteration every solve runs:
single-cell, multi-cell with base-station assignment, runs with arriving
users, and lockstep batches of independent networks. The single-cell game
is the one-station case of the joint one. The scalar statements of the
formulas it runs, the step metric's among them, live in ``oracle``, which
this module does not import.

Each iterate's station totals come from one ``p @ g`` per network, and its
(users x stations) effective-interference matrix from them; the matrix feeds that
iterate's trace row and the next synchronous sweep, which assigns every user
at once and takes every best response from the array kernel behind
``bounded_step_array``. The sequential sweep visits users in order and keeps
the same totals current as each user moves. Its per-user loop moves
only stations and powers, on plain floats with the table's constants hoisted
and no function call per user; the sweep's rates then come from one call of
the array kernel on the interference each user saw. The array kernel and
the sequential loop evaluate the floating-point operations of the scalar
best response in ``oracle`` in its order, so all agree exactly; the public
``bounded_step`` is the array kernel on a one-user table.

The loop carries powers and rates as one fresh (2 x users) state per
iteration and keeps each iteration's state and step metric. The trace is
its ``Segment``s, each a run of iterations on one fixed network held as
(iterations x users) columns, user k in column k: an arrival closes a
segment before the network grows and the users are re-priced, and the end
of the run closes the last one. SINR and utility for a whole segment come
from one vectorised pass over the channel and users it played.

A solve starts at each user's own initial strategy (``UserParams.p_init``
and ``r_init``, checked against its box when the user is built). Its config
is checked once, when it is built, not on every solve. With a rate ladder
the loop, not the sweeps, snaps the rates: every iteration's, or only the
converged row's. Rates never enter the power update or the station rule,
so both placements give the powers and stations of the continuous game.

Within one iteration the per-user updates are pure; the loop itself is
sequential. Independent runs of one shape step in lockstep through the same
loop: ``iterate_batch`` carries K networks as one (2 x K*users) state over
their concatenated table, forms each network's station totals from its own
``p @ g`` (a stacked product rounds differently) and its own step metric,
so each network's trace equals its solve alone, bit for bit.
``iterate_to_convergence`` is the batch of one. Every network steps to the
batch's end and keeps its rows up to its own convergence: each is its own
fixed-point iteration, so stepping a converged network on changes no other.
A batch that raises is solved again one network at a time, so each network
gets its own trace or error. Arrivals and the sequential sweep, a per-user
loop that lockstep does not speed up, run one network at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, Strategy, UserParams, UserTable, _require_count, _require_finite
from .rates import RateSet

__all__ = [
    "CLAMP",
    "KKT",
    "POLICIES",
    "SYNCHRONOUS",
    "SEQUENTIAL",
    "SCHEDULES",
    "METRIC_RELATIVE",
    "METRIC_ABSOLUTE",
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

_EPS = 1e-30

# Stations whose effective interference is within this relative band of the
# minimum count as tied; ties keep the current station so a user does not
# flap at a geometrically symmetric crossing.
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class ConvergenceConfig:
    """One solve's settings: its stopping rule, boundary policy, schedule and rate ladder.

    The "relative" metric normalizes each coordinate by its current magnitude
    so watts and bps weigh equally; "absolute" is the literal |dp| + |dr| sum
    and needs a delta chosen for the scenario's scales. With a ``rate_set``
    the loop snaps every iteration's rates onto it, or with
    ``quantize_at_convergence``, which needs a ladder, only the converged
    row's. Every choice is checked here, once, when the config is built.
    """

    delta: float = 1e-9
    max_iterations: int = 500
    metric: str = METRIC_RELATIVE
    policy: str = CLAMP
    schedule: str = SYNCHRONOUS
    rate_set: RateSet | None = None
    quantize_at_convergence: bool = False

    def __post_init__(self) -> None:
        _require_finite(delta=self.delta)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        count = _require_count("max_iterations", self.max_iterations)
        object.__setattr__(self, "max_iterations", count)
        _check_choice("metric", self.metric, METRICS)
        _check_choice("policy", self.policy, POLICIES)
        _check_choice("schedule", self.schedule, SCHEDULES)
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
    """A run of iterations on one fixed network, as (iterations x users) columns.

    Row s is iteration ``iterations[s]`` of solver step ``step``; column k is
    user k of that network, so user ids are implicit. An arrival or a move
    step closes a segment.
    """

    step: int
    iterations: np.ndarray
    assignment: np.ndarray
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    metrics: np.ndarray

    def row(self, s: int) -> IterationRecord:
        """Row view of the segment's s-th iteration."""
        columns = (self.assignment, self.powers, self.rates, self.sinrs, self.utilities)
        row = (c[s] for c in columns)
        return IterationRecord(int(self.iterations[s]), self.step, *row, float(self.metrics[s]))


@dataclass
class IterationTrace:
    """Full history of a run, as its segments, plus its terminal convergence flag.

    ``channel`` and ``users`` are the network the run ended on: the users
    that arrived before it stopped are included, and ``users`` carry the
    pricing the last iteration played.
    """

    segments: list[Segment]
    converged: bool
    iterations_used: int
    channel: ChannelModel | None = None
    users: list[UserParams] | None = None

    @property
    def records(self) -> list[IterationRecord]:
        """Every iteration's row view, in order, for tests and oracles."""
        return [seg.row(s) for seg in self.segments for s in range(len(seg.iterations))]

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


def _step_metric(prev: np.ndarray, new: np.ndarray, kind: str, networks: int = 1) -> np.ndarray:
    # oracle.convergence_metric of each of ``networks`` equal blocks of two
    # (2, n) states [powers; rates], for a valid kind.
    d = np.abs(new - prev)
    if kind != METRIC_ABSOLUTE:
        d /= np.maximum(np.abs(new), _EPS)
    return np.maximum.reduce((d[0] + d[1]).reshape(networks, -1), axis=1)


def iterate_to_convergence(
    channel: ChannelModel,
    users: list[UserParams],
    config: ConvergenceConfig | None = None,
    initial_assignment=None,
    arrivals=(),
    reprice=None,
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
    just before that iteration's sweep; ``reprice(channel, users)``, when
    given, then returns the users to play on the grown network, so pricing
    that depends on the user count or the gains sees the newcomer. The run
    only converges once no arrival is pending. Every arrival's iteration and
    distances are checked before the first iteration; an arrival after
    ``config.max_iterations`` could never fire. Non-convergence within
    max_iterations is reported on the trace, not raised.

    This is the batch of one: ``iterate_batch`` runs the same loop.
    """
    config = config if config is not None else ConvergenceConfig()
    users = list(users)
    error = _network_error(channel, users)
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
    (trace,) = _loop([(channel, users)], config, assignment, pending, reprice)
    return trace


def iterate_batch(networks, config: ConvergenceConfig | None = None) -> list:
    """Solve independent networks of one shape in lockstep; one outcome per network.

    ``networks`` holds (channel, users) pairs, every channel with the same
    number of users and stations. Network k's outcome is the trace
    ``iterate_to_convergence(channel, users, config)`` returns, bit for bit,
    or the exception that call raises; the caller raises the first one that
    its serial order would have reached. Every network steps to the batch's
    last iteration and keeps its rows up to its own convergence, so a network
    that never converges keeps its batch-mates stepping until
    ``config.max_iterations``, their extra rows dropped. A batch whose loop
    raises is solved again one network at a time, so on that rare path a
    batch is solved twice. The sequential schedule's sweep is a per-user loop
    that lockstep does not speed up, so under it the networks are solved one
    after another.
    """
    config = config if config is not None else ConvergenceConfig()
    networks = [(channel, list(users)) for channel, users in networks]
    if len({channel.distances_m.shape for channel, _ in networks}) > 1:
        raise ValueError("batched networks must share one users x stations shape")
    outcomes = [_network_error(channel, users) for channel, users in networks]
    ready = [k for k, error in enumerate(outcomes) if error is None]
    groups = [ready] if config.schedule == SYNCHRONOUS else [[k] for k in ready]
    for group in filter(None, groups):
        batch = [networks[k] for k in group]
        start = np.zeros(len(batch) * batch[0][0].n_users, dtype=int)
        try:
            solved = _loop(batch, config, start)
        except ValueError as exc:
            # Each network alone gets its own trace or error.
            solved = [exc] if len(batch) == 1 else [iterate_batch([net], config)[0] for net in batch]
        for k, outcome in zip(group, solved):
            outcomes[k] = outcome
    return outcomes


def _loop(networks, config, assignment, pending=(), reprice=None) -> list:
    """The fixed-point loop, stepping K networks of N users in lockstep; one trace each.

    The state is one fresh (2 x K*N) stack [powers; rates] per iteration over
    the networks' concatenated user table, and the gains are their (K*N x
    stations) rows. Each network's station totals come from its own ``p @
    g``. The K networks step as one fixed block from the first iteration
    until every one has converged or ``config.max_iterations``; each
    iteration appends one row of the whole batch, and ``ends[k]`` keeps the
    first iteration at which network k met delta with no arrival pending.
    The rows are then stacked once into columns, and network k's trace cut
    from them up to its own end; its rows after it are dropped. Stepping a
    converged network on changes no other network, as each is its own
    fixed-point iteration. Whatever a step, the final snap or a segment
    raises, the loop raises. Arrivals (``pending``) and the sequential
    schedule only ever come with one network.
    """
    channels = [channel for channel, _ in networks]
    users = [list(us) for _, us in networks]
    everyone = [u for us in users for u in us]
    initial = [[u.initial_power for u in everyone], [u.initial_rate for u in everyone]]
    state = np.array(initial, dtype=float)
    blocks, n = len(networks), channels[0].n_users
    pending = list(pending)
    kkt = config.policy == KKT
    snap_each = None if config.quantize_at_convergence else config.rate_set

    table = UserTable.from_users(everyone)
    gains = [channel.gains for channel in channels]
    g, noise = gains[0], channels[0].noise_w
    if blocks > 1:
        g = np.concatenate(gains)
        noise = np.array([channel.noise_w for channel in channels]).repeat(n)[:, None]
    segments: list[Segment] = []  # the closed segments of a run with arrivals
    # The batch's (iteration, assignment, state, metrics, assigned r_eff) rows
    # since the last arrival.
    rows: list[tuple] = []
    ends: list[int | None] = [None] * blocks
    reffs = None  # formed from the state whenever the table changes
    iteration = 0
    while iteration < config.max_iterations:
        iteration += 1
        if pending and pending[0].iteration == iteration:
            (channel,), (us,) = channels, users
            if rows:
                segments.append(_segment(channel, table, slice(None), *_columns(rows, 1, n)[0]))
                rows = []
            while pending and pending[0].iteration == iteration:
                ev = pending.pop(0)
                channel = channel.with_user(ev.distances_m)
                us.append(ev.user)
                state = np.append(state, [[ev.user.initial_power], [ev.user.initial_rate]], axis=1)
                assignment = np.append(assignment, 0)
            if reprice is not None:
                us = list(reprice(channel, us))
            channels, users, n = [channel], [us], len(us)
            table, g, reffs = UserTable.from_users(us), channel.gains, None
            gains = [g]
        if reffs is None:
            totals = _totals(state[0], gains)
            reffs = _station_reffs(g, noise, state[0], totals)
            ids = np.arange(state.shape[1])
        if config.schedule == SYNCHRONOUS:
            new, assignment = _synchronous_sweep(table, reffs, assignment, kkt)
        else:
            new, assignment = _sequential_sweep(g, noise, table, state[0], totals, assignment, kkt)
        if snap_each is not None:
            new[1] = _snap(snap_each, new[1])
        metrics = _step_metric(state, new, config.metric, blocks).tolist()
        state = new
        # One set of station totals per iterate serves its row and the next sweep.
        totals = _totals(state[0], gains)
        reffs = _station_reffs(g, noise, state[0], totals)
        rows.append((iteration, assignment, state, metrics, reffs[ids, assignment]))
        if not pending and min(metrics) <= config.delta:
            for k, metric in enumerate(metrics):
                if metric <= config.delta and ends[k] is None:
                    ends[k] = iteration
            if None not in ends:
                break

    traces = []
    first = rows[0][0]  # the iteration of the open rows' row 0
    for k, columns in enumerate(_columns(rows, blocks, n)):
        converged, end = ends[k] is not None, ends[k] or iteration
        iterations, assignment, states, metrics, reffs = (c[: end - first + 1] for c in columns)
        if converged and config.quantize_at_convergence:
            # Quantizing at convergence snaps the converged row's rates.
            states[-1, 1] = _snap(config.rate_set, states[-1, 1])
        cols = slice(k * n, (k + 1) * n)
        last = _segment(channels[k], table, cols, iterations, assignment, states, metrics, reffs)
        traces.append(IterationTrace(segments + [last], converged, end, channels[k], users[k]))
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


def _totals(powers: np.ndarray, gains: list) -> np.ndarray:
    # The station totals each user sees: its own network's ``p @ g``, one
    # product per network, since a stacked product rounds differently. One
    # network's totals broadcast over its users as they are.
    if len(gains) == 1:
        return powers @ gains[0]
    n = len(powers) // len(gains)
    per_network = [p @ g for p, g in zip(powers.reshape(len(gains), n), gains)]
    return np.array(per_network).repeat(n, axis=0)


def _network_error(channel: ChannelModel, users: list) -> ValueError | None:
    # What a solve of these users on this channel refuses at entry, if anything.
    if len(users) != channel.n_users:
        return ValueError(f"{len(users)} users but channel has {channel.n_users} rows")
    if not users:
        return ValueError("need at least one user")
    if len(users) == 1 and channel.noise_w == 0:
        return ValueError("a lone user with zero noise has no positive fixed point")
    return None


def _snap(rate_set: RateSet, rates: np.ndarray) -> np.ndarray:
    # Each rate down to the ladder's largest rung at or below it, as RateSet.floor
    # takes it; index -1 is below the ladder, where the first such rate raises.
    ladder = np.asarray(rate_set.rates)
    idx = np.searchsorted(ladder, rates, side="right") - 1
    if idx.min() < 0:
        rate_set.floor(rates[idx.argmin()])
    return ladder[idx]


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


def _sequential_sweep(g, noise, table, powers, totals, assignment, kkt):
    """Users in order against the freshest powers; returns (state, stations).

    ``totals`` are the stations' received totals ``powers @ g``, as the loop
    formed them; kept current as each user moves, they make a user cost
    O(stations) rather than a fresh O(users x stations) product. The per-user
    loop runs on plain floats and moves only stations and powers: each user
    takes the least-interference station (ties keep the current one) and the
    power of the bounded best response there, computed inline with the
    table's constants. Under "kkt" the rate is evaluated only to decide
    whether the power is re-optimized. The sweep's rates, and its powers
    again, come from one ``_bounded_step_stack`` on the interference each
    user saw; it evaluates the same operations, so the powers equal the
    loop's.
    """
    sqrt = math.sqrt
    band = 1.0 + TIE_REL_TOL
    totals = totals.tolist()
    p = powers.tolist()
    a = assignment.tolist()
    seen = []
    t = table
    c_p, lams, p_lo, p_hi = (c.tolist() for c in (t.half_a2_a1, t.lam, t.p_min, t.p_max))
    if kkt:
        c_r, a1s, a2s, r_lo, r_hi = (
            c.tolist() for c in (t.half_a1_a2, t.alpha1, t.alpha2, t.r_min, t.r_max)
        )
    for i, g_i in enumerate(g.tolist()):
        p_i = p[i]
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
            k = 0
            for g_k in g_i:
                totals[k] += g_k * step
                k += 1
            p[i] = new
        seen.append(x)
    return _bounded_step_stack(table, np.array(seen), kkt), np.array(a)


def _segment(channel, table, cols, iterations, assignment, states, metrics, reffs) -> Segment:
    """One segment of step 1: iterations played on ``channel`` by columns ``cols`` of ``table``.

    The iterations' assignment, metric and assigned r_eff arrive as columns,
    their states as an (iterations x 2 x users) stack, and SINR and utility
    come from one vectorised pass over them.
    """
    powers, rates = states[:, 0], states[:, 1]
    if not (reffs > 0).all():
        raise ValueError("effective interference must be positive")
    sinrs = (channel.bandwidth_hz / rates) * (powers / reffs)
    a1, a2, lam = table.alpha1[cols], table.alpha2[cols], table.lam[cols]
    price = 0.5 * lam * ((a2 / a1) * reffs * rates**2 + (a1 / a2) * powers**2 / reffs)
    utilities = np.log(a2 * reffs * rates + a1 * powers) - price
    return Segment(1, iterations, assignment, powers, rates, sinrs, utilities, metrics)


def _columns(rows, blocks, n) -> list[tuple]:
    """The batch's rows stacked once into columns, cut into its ``blocks`` networks.

    Each row is (iteration, assignment, (2 x blocks*n) state, per-block
    metrics, assigned r_eff). Block k's tuple holds the same fields as
    columns of its n users, states as an (iterations x 2 x n) stack.
    """
    iterations, assignment, states, metrics, reffs = zip(*rows)
    s = len(rows)
    iterations = np.array(iterations)
    assignment = np.array(assignment, dtype=int).reshape(s, blocks, n)
    states = np.array(states, dtype=float).reshape(s, 2, blocks, n)
    metrics = np.array(metrics, dtype=float)
    reffs = np.array(reffs, dtype=float).reshape(s, blocks, n)
    return [
        (iterations, assignment[:, k], states[:, :, k], metrics[:, k], reffs[:, k])
        for k in range(blocks)
    ]
