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
station totals come from each network's own ``p @ g``, the networks of one
size stacked into one product, and its (users x stations)
effective-interference matrix from them; the matrix feeds that
iterate's trace row and the next synchronous sweep, which assigns every
user at once and takes every best response from the array kernel behind
``bounded_step_array``. The sequential sweep visits users in order, on
plain floats, and keeps the same totals current as each user moves. The
array kernel and the sequential sweep evaluate the floating-point
operations of the scalar best response in ``oracle`` in its order, so all
agree exactly; ``bounded_step``, one ``UserParams``' step, is the array
kernel on a one-user table.

The trace is its ``Segment``s, each a run of iterations on one fixed
network held as (rows x users) columns, user k in column k; one loop call
makes one segment per network. ``ConvergenceConfig.history`` sets which
rows a segment keeps: under "last", the default, only its last, which is
all the equilibrium, the summaries and the admission loops read; under
"full" every iteration's, which the CSV trace writes. SINR and utility for
the kept rows of every network of a loop come from one vectorised pass;
both are elementwise, so a kept last row has the same bits either way, and
in any batch.

A solve takes a ``Network``: a channel, its users as a ``UserTable``, their
``PricingRule`` and its arrivals, each arriving user a table of one. One
entry step refuses users in any other form, checks the row count, prices
the users, and refuses a lone user with zero noise, an arrival that could
not fire and a user whose rate box holds no rung of the config's ladder
(``RateSet.gap``). A network with arrivals plays as a chain of legs
(``_play``), each a fixed network with its start state, start assignment
and iteration range: a window plays the iterations before an arrival whole,
its last row starts the grown network, which the rule prices again, and a
last leg runs under the stop rule. Each user starts at its own initial
strategy (the ``p_init`` and ``r_init`` columns). With a rate ladder the
loop, not the sweeps, snaps the rates with ``RateSet.snap``: every
iteration's, or only the converged row's. Rates never enter the power
update or the station rule, so both placements give the powers and stations
of the continuous game.

``iterate_batch`` steps the networks of one station count in lockstep,
whatever their user counts: one (2 x users) state over their concatenated
table, each network owning a span of its columns. The station totals of the
K networks of one size come from one stacked (K x 1 x n) @
(K x n x stations) product, which makes for each network the BLAS call its
own ``p @ g`` makes, on the same C-ordered gains (``ChannelModel`` stores
them so), and each network has its own step metric, so each network's
trace equals its solve alone, bit for bit. Every network steps to the
batch's end and keeps its rows up to its own convergence: each is its own
fixed-point iteration, so stepping a converged network on changes no
other. The loop takes each network's first iteration, window end,
``delta`` and ``max_iterations``, so a batch groups its networks by
station count and by their config less that stop rule, and each window of
a network with arrivals steps in the lockstep round of its turn. Only
under the sequential sweep, a per-user loop that lockstep does not speed
up, does each network play alone.

Solves that depend on earlier ones (escalation windows, removal rounds, a
scenario's steps) are written as chains, generators that yield each round's
(network, config) pairs and are sent their outcomes; ``_drive`` steps
several chains together, plays each of their requests as a chain of legs,
solves every round's legs with one ``_batch``, and raises the error running
them one after another meets first. A round may be an ordered ``_Window``
with a test of a converged row's SINRs: the loop applies it when a member
first meets delta, and once a member passes, the members after it are not
waited for.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import ChannelModel, PricingRule, RateSet, Strategy, UserParams, UserTable, priced_users
from .core import _require_count, _require_finite, _require_newcomer, _require_table

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
    "Network",
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


@dataclass(frozen=True)
class Network:
    """One network to solve: a channel, its users, their pricing rule and its arrivals.

    ``users`` is a ``UserTable``. A ``pricing`` rule prices every user, at
    entry and after each arrival group; with none each user plays at its own
    factor. ``arrivals`` are events with ``iteration``, ``distances_m`` and
    ``user``, a table of one, joined in iteration order.
    """

    channel: ChannelModel
    users: UserTable
    pricing: PricingRule | None = None
    arrivals: tuple = ()


def bounded_step(user: UserParams, r_eff: float, policy: str = CLAMP) -> Strategy:
    """One user's constrained update against effective interference r_eff.

    The unconstrained best response is computed first. Under "clamp" both
    coordinates are projected onto the strategy box independently. Under
    "kkt" a single violated coordinate is pinned to its bound and the other
    coordinate is re-optimized from the matching stationarity quadratic (then
    projected too, in case the re-optimized value leaves the box); when both
    coordinates violate, both are projected. The result always lies in the
    box. This is ``bounded_step_array`` on a one-user table;
    ``perfbench/workloads.py`` calls it by name to certify a fixed point.
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
    users: UserTable,
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
    (or ``initial_assignment``). ``config.rate_set`` snaps the rates as
    ``ConvergenceConfig`` says; rates never enter the power update.

    This is the solve of one ``Network(channel, users, pricing, arrivals)``,
    raising the error ``iterate_batch`` would return for it. A ``pricing``
    rule prices every user at entry and after each arrival group, so a rule
    on the user count or the gains sees the newcomers. Each arrival adds its
    user, at its initial strategy on station 0, just before that iteration's
    sweep; the iterations before it play whole, as one segment, and every
    arrival is checked before the first iteration. Non-convergence within
    max_iterations is reported on the trace, not raised.
    """
    config = config if config is not None else ConvergenceConfig()
    network = Network(channel, users, pricing, arrivals)
    (outcome,) = _solve([(network, config, initial_assignment)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def iterate_batch(networks, config: ConvergenceConfig | None = None) -> list:
    """Solve independent ``Network``s; one outcome per network.

    Network k's outcome is the trace its ``iterate_to_convergence`` returns,
    bit for bit, or the ``ValueError`` that call raises, a pricing error
    included; the caller raises the first one its serial order would reach.
    The networks of one station count step in lockstep, each keeping its
    rows up to its own convergence, so one that never converges keeps its
    batch-mates stepping to ``config.max_iterations``. A network with
    arrivals steps each of its windows in the lockstep round of its turn.
    A group whose loop raises is solved again one network at a time.
    """
    config = config if config is not None else ConvergenceConfig()
    return _solve([(network, config) for network in networks])


def _solve(requests) -> list:
    # Each request's outcome, errors included, from ``_drive`` of one chain
    # that asks for them all in one round.
    def one_round():
        return (yield requests)

    (outcomes,) = _drive([one_round()])
    return outcomes


def _attempt(function, *args, **kwargs):
    # What ``function(*args, **kwargs)`` returns, or the ValueError it raises.
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        return exc


def _enter(network: Network, config: ConvergenceConfig) -> Network:
    # The network as the loop plays it, its users a priced table and its
    # arrivals in order; raises what a solve refuses at entry. The row count
    # comes first, as pricing reads one gain row per user.
    channel, users = network.channel, _require_table(network.users)
    n = len(users)
    # A channel has at least one row, so this also refuses a solve of no users.
    if n != channel.n_users:
        raise ValueError(f"{n} users but channel has {channel.n_users} rows")
    users = priced_users(network.pricing, channel, users)
    if n == 1 and channel.noise_w == 0:
        raise ValueError("a lone user with zero noise has no positive fixed point")
    arrivals = sorted(network.arrivals, key=lambda ev: ev.iteration)
    if arrivals and arrivals[0].iteration < 1:
        raise ValueError("arrival iterations must be at least 1")
    if arrivals and arrivals[-1].iteration > config.max_iterations:
        raise ValueError(
            f"arrival at iteration {arrivals[-1].iteration} comes after "
            f"max_iterations = {config.max_iterations} and would never fire"
        )
    for ev in arrivals:
        _require_newcomer(ev.user)
        # Grow a throwaway channel so a bad row fails here, not when it fires.
        channel.with_user(ev.distances_m)
    # Arrivals join in iteration order, after the users already there.
    everyone = UserTable.concat([users, *(ev.user for ev in arrivals)]) if arrivals else users
    gap = None if config.rate_set is None else config.rate_set.gap(everyone)
    if gap is not None:
        raise ValueError("user {}: {}".format(*gap))
    return Network(channel, users, network.pricing, tuple(arrivals))


@dataclass
class _Leg:
    """One network's share of one loop call: a fixed network, its start and its iterations.

    ``state`` (2 x users) and ``assignment`` start it; None stands for the
    users' initial strategies on station 0. It plays iterations ``first`` to
    ``last`` whole, as the window before an arrival, or with no ``last``
    until it meets ``config.delta`` or reaches ``config.max_iterations``.
    """

    channel: ChannelModel
    users: UserTable
    config: ConvergenceConfig
    state: np.ndarray | None = None
    assignment: np.ndarray | None = None
    first: int = 1
    last: int | None = None


def _play(network: Network, config, initial_assignment=None):
    """One network's run as a chain of legs; returns its trace or the error it met.

    The chain yields a ``_Leg`` for the window before each arrival group,
    then one under the stop rule, and is sent each leg's outcome: a trace,
    the ValueError its loop raised, or None past a ``_Window``'s answer,
    which ends the run with that outcome. Between windows it grows the
    network: the window's last row, with the newcomers appended at their
    initial strategies on station 0, starts the grown network, which the
    rule prices again. Entry refusals and pricing errors are returned too.
    """
    try:
        network = _enter(network, config)
        if initial_assignment is not None:
            initial_assignment = _initial_assignment(initial_assignment, network.channel)
    except ValueError as exc:
        return exc
    channel, users = network.channel, network.users
    state, assignment, segments, done = None, initial_assignment, [], 0
    for t, group in itertools.groupby(network.arrivals, key=lambda ev: ev.iteration):
        if t > done + 1:
            # No run converges while an arrival is pending: the window plays whole.
            window = yield _Leg(channel, users, config, state, assignment, done + 1, t - 1)
            if not isinstance(window, IterationTrace):
                return window
            segments += window.segments
            end = window.final
            state, assignment = np.array([end.powers, end.rates]), end.assignment
        elif state is None:
            # Arrivals at iteration 1 join the users' initial strategies.
            state, assignment = users.initial, _initial_assignment(assignment, channel)
        for ev in group:
            channel, users = channel.with_user(ev.distances_m), UserTable.concat([users, ev.user])
            state = np.append(state, ev.user.initial, axis=1)
            assignment = np.append(assignment, 0)
        try:
            users = priced_users(network.pricing, channel, users)
        except ValueError as exc:
            return exc
        done = t - 1
    trace = yield _Leg(channel, users, config, state, assignment, done + 1)
    if segments and isinstance(trace, IterationTrace):
        trace.segments[:0] = segments
    return trace


class _Window(list):
    """A chain's round of (network, config) requests, read in order up to its answer.

    The answer is the first outcome that ends the reading: an error, a run
    that did not converge, or a converged run whose reported row passes
    ``accept``, which is given the request's position in the window and that
    row's SINRs (rates snapped first under ``quantize_at_convergence``). The
    requests after an accepted one are not awaited: they stop holding their
    lockstep loop open once it meets delta, and their outcomes, which the
    chain does not read, may be None.
    """

    def __init__(self, requests, accept):
        super().__init__(requests)
        self.accept = accept


def _drive(chains) -> list:
    """Step chains of dependent solves together; each chain's result, in order.

    A chain is a generator: it yields the requests one of its rounds needs,
    each the arguments of ``_play`` (a network, a config and optionally an
    initial assignment), or a ``_Window`` of them, is sent their outcomes in
    order (each the trace or the exception ``iterate_batch`` gives, or None
    past a window's answer), and returns its result. Each request plays as
    a ``_play`` chain of legs, and each round the legs of every play still
    running are solved together by one ``_batch``: a network with arrivals
    plays a window a round, so its chain is sent its round's outcomes when
    its last leg is done, while the other chains step on. An error a chain
    raises is held until every chain before it has finished, and chains
    after it are not stepped again; then the first held error is raised,
    which is the error running the chains one after another meets first.
    """
    chains = list(chains)
    results: list = [None] * len(chains)
    failed, error = len(chains), None  # the first chain that raised, and its error
    sent: list = [None] * len(chains)  # each chain's outcomes of its round
    left = [0] * len(chains)  # each chain's plays still running
    ready = list(range(len(chains)))  # the chains whose round is done
    plays: dict = {}  # (chain, request) -> (its play, its window tag)
    legs: dict = {}  # (chain, request) -> the leg its play asks for

    def send(key, outcome):
        # Send a play its leg's outcome; a play that returns fills its slot.
        try:
            legs[key] = plays[key][0].send(outcome)
        except StopIteration as stop:
            del plays[key]
            i, p = key
            sent[i][p] = stop.value
            left[i] -= 1
            if not left[i]:
                ready.append(i)

    while ready or legs:
        stepping, ready = sorted(ready), []
        for i in stepping:
            if i > failed:
                break
            try:
                round_ = chains[i].send(sent[i])
            except StopIteration as stop:
                results[i] = stop.value
                continue
            except Exception as exc:  # held for the serial order
                failed, error = i, exc
                continue
            window = isinstance(round_, _Window)
            sent[i], left[i] = [None] * len(round_), len(round_)
            if not round_:
                ready.append(i)
            for p, request in enumerate(round_):
                plays[i, p] = (_play(*request), (round_, p) if window else None)
                send((i, p), None)
        # The plays of a chain after the failed one are not stepped again.
        keys = [key for key in legs if key[0] < failed]
        outcomes = _batch([legs[key] for key in keys], [plays[key][1] for key in keys])
        legs.clear()
        for key, outcome in zip(keys, outcomes):
            send(key, outcome)
    if error is not None:
        raise error
    return results


# A loop's settings: its config less the stop rule, which it takes per network.
_LOOP_SETTINGS = operator.attrgetter(
    *(f.name for f in fields(ConvergenceConfig) if f.name not in ("delta", "max_iterations"))
)


def _batch(legs, tags) -> list:
    """Each leg's trace, or the ValueError its loop raises; ``tags`` are ``_drive``'s.

    Legs whose configs agree but for ``delta`` and ``max_iterations``, and
    whose networks have one station count, step in one lockstep loop; a
    sequential leg plays alone, as the per-user sweep gains nothing from
    lockstep. A group whose loop raises is solved again one leg at a time,
    each through the same per-network arguments, so each gets its own trace
    or error.
    """
    groups: dict = {}
    for k, leg in enumerate(legs):
        config = leg.config
        alone = config.schedule != SYNCHRONOUS
        key = k if alone else (_LOOP_SETTINGS(config), leg.channel.n_stations)
        groups.setdefault(key, []).append(k)
    outcomes: list = [None] * len(legs)
    for ks in groups.values():
        solved = None
        if len(ks) > 1:
            # By user count, so each size's networks lie side by side (``_totals``).
            ks.sort(key=lambda k: len(legs[k].users))
            solved = _attempt(_loop, [legs[k] for k in ks], [tags[k] for k in ks])
        if not isinstance(solved, list):
            # Alone, a leg has no window-mates to stop waiting for.
            solved = [_attempt(_loop, [legs[k]]) for k in ks]
            solved = [s[0] if isinstance(s, list) else s for s in solved]
        for k, outcome in zip(ks, solved):
            outcomes[k] = outcome
    return outcomes


@_inf_clamps
def _loop(legs, tags=None) -> list:
    """The fixed-point loop, stepping K legs in lockstep; one trace each.

    Every leg's config agrees but for its stop rule, which the loop reads
    per network: each leg plays from its own ``first`` iteration to the end
    of its window, or until it meets its own ``delta`` or reaches its own
    ``max_iterations``. The state is one fresh (2 x users) stack [powers;
    rates] per step over the legs' concatenated table, from each leg's
    start; network k owns the columns ``spans[k]``, its station totals come
    from its own ``p @ g``, stacked with those of the networks of its size
    (``_totals``), and its step metric from one ``np.maximum.reduceat`` over
    the span starts. Network k's one segment is cut at ``ends[k]``, the step
    at which it met delta or its range ended; only the first counts as
    converged, and delta is not tested inside a window. The loop steps until
    no network holds it open; stepping a finished network on changes no
    other, as each is its own fixed-point iteration. ``tags`` holds each
    network's window and its position there, or None: when a window member
    first meets delta, its row's SINRs go to the window's test, and once one
    passes, the members after it no longer hold the loop open; their traces
    are None.

    Under "full" history each step appends the batch's row (assignment,
    state and assigned r_eff), stacked once into columns at the end; under
    "last" the loop holds the latest iterate and one batch row that keeps
    each network's columns from ``ends[k]`` while the others step on. SINR
    and utility come from one vectorised pass over the kept rows of every
    network, and each network's segment is its span of them. Whatever a
    step, the final snap or that pass raises, the loop raises. The
    sequential schedule only ever comes with one network.
    """
    channels = [leg.channel for leg in legs]
    users = [leg.users for leg in legs]
    config = legs[0].config  # every setting but the stop rule is the batch's
    table = users[0] if len(users) == 1 else UserTable.concat(users)
    blocks = len(legs)
    sizes, starts, spans = _spans([len(us) for us in users])
    state, assignment = table.initial, np.zeros(len(table), dtype=int)
    for leg, span in zip(legs, spans):
        if leg.state is not None:
            state[:, span] = leg.state
        if leg.assignment is not None:
            assignment[span] = leg.assignment
    kkt = config.policy == KKT
    snap_each = None if config.quantize_at_convergence else config.rate_set
    full = config.history == HISTORY_FULL
    # Each network's delta, which a window's -inf keeps any metric from
    # meeting, and the networks whose range ends at each step.
    deltas: list[float] = []
    stops: dict[int, list[int]] = {}
    for k, leg in enumerate(legs):
        deltas.append(leg.config.delta if leg.last is None else -math.inf)
        last = leg.config.max_iterations if leg.last is None else leg.last
        stops.setdefault(last - leg.first + 1, []).append(k)

    gains = [channel.gains for channel in channels]
    g, noise, bandwidth = gains[0], channels[0].noise_w, channels[0].bandwidth_hz
    groups = owner = None  # only a batch groups its products and merges kept rows
    if blocks > 1:
        g = np.concatenate(gains)
        noise = np.array([channel.noise_w for channel in channels]).repeat(sizes)[:, None]
        bandwidth = np.array([channel.bandwidth_hz for channel in channels]).repeat(sizes)
        groups = _size_groups(gains, starts, sizes)
        owner = groups[2]  # each column's network
    ids = np.arange(state.shape[1])
    plain = None if config.schedule == SYNCHRONOUS else _plain(g, table, kkt)
    # Every step's per-network metrics, and under full history the batch's
    # (assignment, state, assigned r_eff) rows.
    series: list[list[float]] = []
    history: list[tuple] = []
    ends: list[int | None] = [None] * blocks  # the step each network's segment ends at
    converged = [False] * blocks
    waiting = list(range(blocks))  # the networks holding the loop open
    tags = tags or [None] * blocks
    answers: list = []  # the tag of each accepted window member
    kept = None  # under "last", a batch row holding network k's row at ends[k]
    # The station totals of the current iterate, and its (users x stations)
    # r_eff matrix, formed only when a sweep or a row reads it: the
    # sequential sweep reads the totals alone.
    totals, reffs = _totals(state[0], gains, groups), None

    def current_reffs():
        nonlocal reffs
        if reffs is None:
            reffs = _station_reffs(g, noise, state[0], totals)
        return reffs

    def current_row():
        return assignment, state, current_reffs()[ids, assignment]

    def answered(tag):
        # Whether the tag is a window member after its window's accepted one.
        return tag is not None and any(tag[0] is w and tag[1] > p for w, p in answers)

    def accepted(k):
        # Whether network k's window accepts its current row, the row its
        # trace would report; only a member before its window's answer asks.
        if tags[k] is None or answered(tags[k]):
            return False
        span = spans[k]
        rates = state[1, span]
        if config.quantize_at_convergence:
            rates = config.rate_set.snap(rates)
        reffs = current_reffs()[ids[span], assignment[span]]
        b = bandwidth[span] if blocks > 1 else bandwidth
        return tags[k][0].accept(tags[k][1], _sinrs(b, rates, state[0, span], reffs))

    step = 0
    while waiting:
        step += 1
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
        totals, reffs = _totals(state[0], gains, groups), None
        series.append(metrics)
        if full:
            history.append(current_row())
        met = [k for k in waiting if metrics[k] <= deltas[k]]
        due = stops.get(step, ())
        if met or due:
            for k in met:
                converged[k] = True
            leaving = met + [k for k in due if k in waiting and not converged[k]]
            for k in leaving:
                ends[k] = step
            waiting = [k for k in waiting if ends[k] is None]
            for k in met:
                if accepted(k):
                    answers.append(tags[k])
                    waiting = [j for j in waiting if not answered(tags[j])]
            if not waiting:
                break
            if not full:
                now = np.zeros(blocks, dtype=bool)
                now[leaving] = True
                kept = current_row() if kept is None else _pick(now[owner], current_row(), kept)

    metrics = np.array(series, dtype=float)
    if full:
        a, states, r = _columns(history)
    else:
        a, states, r = current_row()
        if kept is not None:
            earlier = np.array([e is not None and e < step for e in ends])[owner]
            a, states, r = _pick(earlier, kept, (a, states, r))
        a, states, r = a[None], states[None], r[None]
    dropped = [answered(tag) for tag in tags]
    if config.quantize_at_convergence:
        # Quantizing at convergence snaps each converged row's rates.
        for k, span in enumerate(spans):
            if converged[k] and not dropped[k]:
                s = ends[k] - 1 if full else 0
                states[s, 1, span] = config.rate_set.snap(states[s, 1, span])
    sinrs, utilities = _sinrs_utilities(table, bandwidth, states, r)
    columns = (a, states[:, 0], states[:, 1], sinrs, utilities)
    traces = []
    for k, (leg, span) in enumerate(zip(legs, spans)):
        if dropped[k]:
            traces.append(None)
            continue
        n = ends[k]
        rows = slice(n) if full else slice(None)
        iterations = np.arange(leg.first, leg.first + n)
        seg = Segment(1, iterations, *[c[rows, span] for c in columns], metrics[:n, k])
        traces.append(IterationTrace([seg], converged[k], leg.first + n - 1, channels[k], users[k]))
    return traces


# Internals.


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _initial_assignment(override, channel: ChannelModel) -> np.ndarray:
    if override is None:
        return np.zeros(channel.n_users, dtype=int)
    a = np.asarray(override)
    if a.shape != (channel.n_users,) or not np.issubdtype(a.dtype, np.integer):
        raise ValueError("initial assignment must hold one station index per user")
    if np.any(a < 0) or np.any(a >= channel.n_stations):
        raise ValueError("assignment references a missing station")
    return a.astype(int)


def _station_reffs(g: np.ndarray, noise, powers: np.ndarray, totals: np.ndarray):
    # Every user's effective interference at every station (users x stations),
    # from the stations' received totals, which hold one row per user or one
    # for all. Every caller passes a fresh ``powers @ g``, and a sum of
    # nonnegative terms never rounds below one of its terms, so the
    # difference is never negative and needs no clip.
    return (totals - g * powers[:, None] + noise) / g


def _size_groups(gains: list, starts: np.ndarray, sizes: np.ndarray) -> tuple:
    # The batch's networks in runs of equal user count, for ``_totals``;
    # ``_batch`` orders a loop's legs by user count, so each size is one
    # run. A run's K networks of n users own one slice of the state's
    # columns, which reshapes to a (K x 1 x n) view, and one slice of a
    # (networks x 1 x stations) buffer, which its stacked product is
    # written into (``out=``); then each user's network picks its totals.
    runs, k = [], 0
    buf = np.empty((len(sizes), 1, gains[0].shape[1]))
    for n, run in itertools.groupby(sizes.tolist()):
        m = len(list(run))
        cols = slice(int(starts[k]), int(starts[k]) + m * n)
        runs.append((cols, (m, 1, n), np.stack(gains[k : k + m]), buf[k : k + m]))
        k += m
    return runs, buf, np.arange(len(sizes)).repeat(sizes)


def _totals(powers: np.ndarray, gains: list, groups) -> np.ndarray:
    # The station totals each user sees: its own network's ``p @ g``. A run
    # of networks of one size forms one stacked (K x 1 x n) @ (K x n x
    # stations) product into its buffer rows, which makes for each network
    # the BLAS call its product alone makes, on C-ordered gains and
    # C-ordered views, so each network's totals keep its bits. One network
    # (``groups`` None) has its totals broadcast over its users as they are.
    if groups is None:
        return powers @ gains[0]
    runs, buf, owner = groups
    for cols, shape, g, out in runs:
        np.matmul(powers[cols].reshape(shape), g, out=out)
    return buf[owner, 0]


def _spans(sizes: list) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    # Networks of ``sizes`` users laid side by side: their sizes, each one's
    # first column in the batch, and each one's span of columns.
    sizes = np.array(sizes)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    return sizes, starts, [slice(a, b) for a, b in zip(starts.tolist(), stops.tolist())]


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


def _sinrs_utilities(table, bandwidth, states, reffs) -> tuple[np.ndarray, np.ndarray]:
    """SINR and utility of (rows x 2 x users) states, in one vectorised pass.

    Column k is user k of ``table``, ``reffs`` holds each user's r_eff at
    its station in each row, and ``bandwidth`` is one number or one per
    user. Both are elementwise, so a row has the same bits in any batch.
    """
    powers, rates = states[:, 0], states[:, 1]
    if not (reffs > 0).all():
        raise ValueError("effective interference must be positive")
    sinrs = _sinrs(bandwidth, rates, powers, reffs)
    a1, a2, lam = table.alpha1, table.alpha2, table.lam
    price = 0.5 * lam * ((a2 / a1) * reffs * rates**2 + (a1 / a2) * powers**2 / reffs)
    utilities = np.log(a2 * reffs * rates + a1 * powers) - price
    return sinrs, utilities


def _sinrs(bandwidth, rates, powers, reffs):
    # The SINR, elementwise; the window test and the trace both read this.
    return (bandwidth / rates) * (powers / reffs)


def _pick(mask, chosen: tuple, other: tuple) -> tuple:
    # Two batch rows (assignment, state, assigned r_eff) merged: each user's
    # column from ``chosen`` where ``mask`` holds, else from ``other``.
    return tuple(np.where(mask, x, y) for x, y in zip(chosen, other))


def _columns(history) -> tuple:
    """The batch's rows stacked once into columns.

    Each row is (assignment, (2 x users) state, assigned r_eff); so is the
    result, as (iterations x users) columns and an (iterations x 2 x users)
    stack of states.
    """
    assignment, states, reffs = zip(*history)
    return (
        np.array(assignment, dtype=int),
        np.array(states, dtype=float),
        np.array(reffs, dtype=float),
    )
