"""Game solvers and the one fixed-point loop.

Holds the trivial unpriced equilibrium, the closed-form priced best response,
the two boundary policies ("clamp" projects the unconstrained response onto
the strategy box, "kkt" re-optimizes the free coordinate from the boundary
stationarity quadratics), and ``iterate_to_convergence``, the fixed-point
iteration every solve runs: single-cell, multi-cell with base-station
assignment, and runs with arriving users. The single-cell game is the
one-station case of the joint one.

Each iterate's (users x stations) effective-interference matrix comes from
one ``p @ g``; it feeds that iterate's trace record and the next synchronous
sweep, which assigns every user at once and, with more than one station,
takes every best response from ``bounded_step_array``. The sequential sweep
visits users in order and keeps running per-station totals. The scalar
``bounded_step`` serves one user; ``bounded_step_array`` serves a whole
``UserTable`` with the same floating-point operations, so both give equal
results.

Within one iteration the per-user updates are pure; the loop itself is
sequential. A trace belongs to one run; independent runs can execute in
parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, Strategy, UserParams, UserTable, _require_finite
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
    "njrpcg_equilibrium",
    "unconstrained_best_response",
    "power_update_rate_bounded",
    "rate_update_power_bounded",
    "bounded_step",
    "bounded_step_array",
    "make_record",
    "iterate_to_convergence",
    "symmetric_fixed_point",
    "convergence_metric",
    "power_update_map",
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


@dataclass
class ConvergenceConfig:
    """Stopping rule for the iteration loop.

    The "relative" metric normalizes each coordinate by its current magnitude
    so watts and bps weigh equally; "absolute" is the literal |dp| + |dr| sum
    and needs a delta chosen for the scenario's scales.
    """

    delta: float = 1e-9
    max_iterations: int = 500
    metric: str = METRIC_RELATIVE

    def __post_init__(self) -> None:
        _require_finite(delta=self.delta)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass
class IterationRecord:
    """Snapshot of the network at the end of one iteration."""

    iteration: int
    step: int
    user_ids: np.ndarray
    assignment: np.ndarray
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    metric: float


@dataclass
class IterationTrace:
    """Full history of a run plus its terminal convergence flag."""

    records: list[IterationRecord]
    converged: bool
    iterations_used: int

    @property
    def final(self) -> IterationRecord:
        if not self.records:
            raise ValueError("trace is empty")
        return self.records[-1]

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

    @property
    def final_user_ids(self) -> np.ndarray:
        return self.final.user_ids


def njrpcg_equilibrium(users: list[UserParams]) -> list[Strategy]:
    """Equilibrium of the unpriced game: every user at (p_max, r_max).

    The unpriced utility increases in both coordinates, so the top corner of
    each box is reached no matter the gains or the pricing of anyone else.
    """
    return [Strategy(u.p_max, u.r_max) for u in users]


def unconstrained_best_response(
    r_eff: float, alpha1: float, alpha2: float, lam: float
) -> Strategy:
    """Interior maximizer of the priced utility at effective interference r_eff.

    p = sqrt(0.5 * (a2/a1) * R / lam),  r = sqrt(0.5 * (a1/a2) / (lam * R)).
    The pair always satisfies p / (r * R) = a2 / a1.
    """
    if r_eff <= 0:
        raise ValueError(f"effective interference must be positive, got {r_eff}")
    if alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("alpha1, alpha2 and lam must be positive")
    p = math.sqrt(0.5 * (alpha2 / alpha1) * r_eff / lam)
    r = math.sqrt(0.5 * (alpha1 / alpha2) / (lam * r_eff))
    return Strategy(p, r)


def power_update_rate_bounded(
    r_eff: float, r_bound: float, alpha1: float, alpha2: float, lam: float
) -> float:
    """Stationary power when the rate sits at a box bound.

    Positive root of a1*lam*p**2 + a2*lam*R*r_bound*p - a2*R = 0; the
    discriminant is always positive so the root exists for any r_bound >= 0.
    """
    if r_eff <= 0 or alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("r_eff, alpha1, alpha2 and lam must be positive")
    if r_bound < 0:
        raise ValueError("r_bound must be non-negative")
    b = alpha2 * lam * r_eff * r_bound
    return (-b + math.sqrt(b * b + 4.0 * alpha1 * alpha2 * lam * r_eff)) / (2.0 * alpha1 * lam)


def rate_update_power_bounded(
    r_eff: float, p_bound: float, alpha1: float, alpha2: float, lam: float
) -> float:
    """Stationary rate when the power sits at a box bound.

    Positive root of a2*lam*R*r**2 + a1*lam*p_bound*r - a1 = 0.
    """
    if r_eff <= 0 or alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("r_eff, alpha1, alpha2 and lam must be positive")
    if p_bound < 0:
        raise ValueError("p_bound must be non-negative")
    b = alpha1 * lam * p_bound
    return (-b + math.sqrt(b * b + 4.0 * alpha1 * alpha2 * lam * r_eff)) / (
        2.0 * alpha2 * lam * r_eff
    )


def bounded_step(user: UserParams, r_eff: float, policy: str = CLAMP) -> Strategy:
    """One user's constrained update against effective interference r_eff.

    The unconstrained best response is computed first. Under "clamp" both
    coordinates are projected onto the strategy box independently. Under
    "kkt" a single violated coordinate is pinned to its bound and the other
    coordinate is re-optimized from the matching stationarity quadratic (then
    projected too, in case the re-optimized value leaves the box); when both
    coordinates violate, both are projected. The result always lies in the
    box.
    """
    _check_policy(policy)
    cand = unconstrained_best_response(r_eff, user.alpha1, user.alpha2, user.lam)
    if policy == CLAMP:
        return Strategy(
            min(max(cand.power, user.p_min), user.p_max),
            min(max(cand.rate, user.r_min), user.r_max),
        )
    p_ok = user.p_min <= cand.power <= user.p_max
    r_ok = user.r_min <= cand.rate <= user.r_max
    if p_ok and r_ok:
        return cand
    if p_ok and not r_ok:
        r = user.r_min if cand.rate < user.r_min else user.r_max
        p = power_update_rate_bounded(r_eff, r, user.alpha1, user.alpha2, user.lam)
        return Strategy(min(max(p, user.p_min), user.p_max), r)
    if r_ok and not p_ok:
        p = user.p_min if cand.power < user.p_min else user.p_max
        r = rate_update_power_bounded(r_eff, p, user.alpha1, user.alpha2, user.lam)
        return Strategy(p, min(max(r, user.r_min), user.r_max))
    return Strategy(
        min(max(cand.power, user.p_min), user.p_max),
        min(max(cand.rate, user.r_min), user.r_max),
    )


def bounded_step_array(
    users: UserTable, r_eff, policy: str = CLAMP
) -> tuple[np.ndarray, np.ndarray]:
    """``bounded_step`` for every user of the table at once; returns (powers, rates).

    Evaluates the same expressions in the same order as the scalar path, so
    the results are equal, not merely close. Under "kkt" a coordinate that
    leaves its box is clamped onto the violated bound, which is exactly the
    value the scalar path pins, and the other coordinate is re-optimized from
    it only when it alone violates.
    """
    _check_policy(policy)
    r_eff = np.asarray(r_eff, dtype=float)
    if not np.all(r_eff > 0):
        raise ValueError("effective interference must be positive")
    a1, a2, lam = users.alpha1, users.alpha2, users.lam
    p = np.sqrt(0.5 * (a2 / a1) * r_eff / lam)
    r = np.sqrt(0.5 * (a1 / a2) / (lam * r_eff))
    p_box = np.minimum(np.maximum(p, users.p_min), users.p_max)
    r_box = np.minimum(np.maximum(r, users.r_min), users.r_max)
    if policy == CLAMP:
        return p_box, r_box
    p_ok = (users.p_min <= p) & (p <= users.p_max)
    r_ok = (users.r_min <= r) & (r <= users.r_max)
    disc = 4.0 * a1 * a2 * lam * r_eff
    b = a2 * lam * r_eff * r_box
    p_at_r = (-b + np.sqrt(b * b + disc)) / (2.0 * a1 * lam)
    b = a1 * lam * p_box
    r_at_p = (-b + np.sqrt(b * b + disc)) / (2.0 * a2 * lam * r_eff)
    powers = np.where(p_ok & ~r_ok, np.minimum(np.maximum(p_at_r, users.p_min), users.p_max), p_box)
    rates = np.where(r_ok & ~p_ok, np.minimum(np.maximum(r_at_p, users.r_min), users.r_max), r_box)
    return powers, rates


def convergence_metric(
    prev_powers, prev_rates, powers, rates, kind: str = METRIC_RELATIVE
) -> float:
    """Largest per-user step between consecutive iterates."""
    if kind not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {kind!r}")
    dp = np.abs(np.asarray(powers) - np.asarray(prev_powers))
    dr = np.abs(np.asarray(rates) - np.asarray(prev_rates))
    if kind == METRIC_ABSOLUTE:
        return float(np.max(dp + dr))
    rel = dp / np.maximum(np.abs(powers), _EPS) + dr / np.maximum(np.abs(rates), _EPS)
    return float(np.max(rel))


def iterate_to_convergence(
    channel: ChannelModel,
    users: list[UserParams],
    policy: str = CLAMP,
    config: ConvergenceConfig | None = None,
    schedule: str = SYNCHRONOUS,
    rate_set: RateSet | None = None,
    quantize_at_convergence: bool = False,
    initial_powers=None,
    initial_rates=None,
    initial_assignment=None,
    arrivals=(),
    reprice=None,
) -> IterationTrace:
    """Run the joint station and rate/power loop until the step metric drops below delta.

    Each iteration every user first moves to the station where its effective
    interference is least (ties keep the current station), then takes its
    bounded best response there; with one station this is the single-cell
    game. The synchronous schedule evaluates every user against the previous
    iterate; the sequential schedule updates users in order against the
    freshest powers. Users start at their initial strategies (or the given
    ``initial_powers`` and ``initial_rates``) on station 0 (or
    ``initial_assignment``).

    When ``rate_set`` is given, each user's updated rate is snapped down to
    the ladder after its step (or only once at convergence with
    ``quantize_at_convergence=True``; the converged powers are identical
    either way because rates never enter the power update).

    ``arrivals`` are events with ``iteration``, ``distances_m`` and ``user``
    attributes. Each adds its user, at its initial strategy on station 0,
    just before that iteration's sweep; ``reprice(channel, users)``, when
    given, then returns the users to play on the grown network, so pricing
    that depends on the user count or the gains sees the newcomer. The run
    only converges once no arrival is pending. Non-convergence within
    max_iterations is reported on the trace, not raised.
    """
    _check_policy(policy)
    _check_schedule(schedule)
    config = config if config is not None else ConvergenceConfig()
    users = list(users)
    if len(users) != channel.n_users:
        raise ValueError(f"{len(users)} users but channel has {channel.n_users} rows")
    if not users:
        raise ValueError("need at least one user")
    if len(users) == 1 and channel.noise_w == 0:
        raise ValueError("a lone user with zero noise has no positive fixed point")
    powers = _initial_vector(users, initial_powers, "power")
    rates = _initial_vector(users, initial_rates, "rate")
    assignment = _initial_assignment(initial_assignment, len(users), channel.n_stations)
    pending = sorted(arrivals, key=lambda ev: ev.iteration)
    if pending and pending[0].iteration < 1:
        raise ValueError("arrival iterations must be at least 1")

    table = UserTable.from_users(users)
    step_set = None if quantize_at_convergence else rate_set
    reffs = _station_reffs(channel, powers)
    records: list[IterationRecord] = []
    converged = False
    iteration = 0
    while iteration < config.max_iterations:
        iteration += 1
        if pending and pending[0].iteration == iteration:
            while pending and pending[0].iteration == iteration:
                ev = pending.pop(0)
                channel = channel.with_user(ev.distances_m)
                users.append(ev.user)
                powers = np.append(powers, ev.user.initial_power)
                rates = np.append(rates, ev.user.initial_rate)
                assignment = np.append(assignment, 0)
            if reprice is not None:
                users = list(reprice(channel, users))
            table = UserTable.from_users(users)
            reffs = _station_reffs(channel, powers)
        if schedule == SYNCHRONOUS:
            new_p, new_r, assignment = _synchronous_sweep(
                users, table, reffs, assignment, policy, step_set
            )
        else:
            new_p, new_r, assignment = _sequential_sweep(
                channel, users, powers, assignment, policy, step_set
            )
        metric = convergence_metric(powers, rates, new_p, new_r, config.metric)
        powers, rates = new_p, new_r
        # One interference matrix per iterate serves its record and the next sweep.
        reffs = _station_reffs(channel, powers)
        records.append(
            make_record(
                channel,
                table,
                iteration,
                1,
                np.arange(len(users)),
                assignment,
                powers,
                rates,
                metric,
                reffs=reffs,
            )
        )
        if metric <= config.delta and not pending:
            converged = True
            break

    trace = IterationTrace(records, converged, iteration)
    if quantize_at_convergence:
        _quantize_final_record(trace, channel, table, rate_set)
    return trace


def symmetric_fixed_point(
    n_users: int, target_ratio: float, lam: float, noise_w: float, gain: float
) -> Strategy:
    """Closed-form converged strategy when all users share one gain and target.

    Solves p = sqrt((rho / (2 lam)) * ((M - 1) p + N0 / g)) directly, then
    reads the rate off the interior stationarity pair at that interference.
    Serves as an analytic oracle for the iteration on symmetric scenarios.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if target_ratio <= 0 or lam <= 0 or gain <= 0:
        raise ValueError("target_ratio, lam and gain must be positive")
    if noise_w < 0:
        raise ValueError("noise must be non-negative")
    if n_users == 1 and noise_w == 0:
        raise ValueError("a lone user with zero noise has no positive fixed point")
    b = target_ratio * (n_users - 1) / (2.0 * lam)
    c = target_ratio * noise_w / (2.0 * lam * gain)
    p = 0.5 * (b + math.sqrt(b * b + 4.0 * c))
    r_eff = (n_users - 1) * p + noise_w / gain
    r = math.sqrt(0.5 / (target_ratio * lam * r_eff))
    return Strategy(p, r)


def power_update_map(channel: ChannelModel, users: list[UserParams], clamped: bool = False):
    """Vector power-update map as a callable p -> I(p), for property checks.

    With ``clamped=True`` the output is projected onto each user's power box.
    """
    if channel.n_stations != 1:
        raise ValueError("single-cell map; see multicell.min_power_update_map")
    half_ratio = np.array([0.5 * u.alpha2 / (u.alpha1 * u.lam) for u in users])
    lo = np.array([u.p_min for u in users])
    hi = np.array([u.p_max for u in users])

    def apply(powers) -> np.ndarray:
        reffs = _station_reffs(channel, np.asarray(powers, dtype=float))[:, 0]
        out = np.sqrt(half_ratio * reffs)
        if clamped:
            out = np.clip(out, lo, hi)
        return out

    return apply


# Internals.


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")


def _check_schedule(schedule: str) -> None:
    if schedule not in SCHEDULES:
        raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")


def _initial_vector(users: list[UserParams], override, which: str) -> np.ndarray:
    if override is None:
        if which == "power":
            return np.array([u.initial_power for u in users], dtype=float)
        return np.array([u.initial_rate for u in users], dtype=float)
    v = np.asarray(override, dtype=float).copy()
    if v.shape != (len(users),):
        raise ValueError(f"initial {which}s must have one entry per user")
    for u, x in zip(users, v):
        lo, hi = (u.p_min, u.p_max) if which == "power" else (u.r_min, u.r_max)
        if not lo <= x <= hi:
            raise ValueError(f"initial {which} {x} outside [{lo}, {hi}]")
    return v


def _initial_assignment(override, n_users: int, n_stations: int) -> np.ndarray:
    if override is None:
        return np.zeros(n_users, dtype=int)
    a = np.asarray(override)
    if a.shape != (n_users,) or not np.issubdtype(a.dtype, np.integer):
        raise ValueError("initial assignment must hold one station index per user")
    if np.any(a < 0) or np.any(a >= n_stations):
        raise ValueError("assignment references a missing station")
    return a.astype(int)


def _station_reffs(channel: ChannelModel, powers: np.ndarray) -> np.ndarray:
    # Every user's effective interference at every station (users x stations).
    g = channel.gains
    return (np.maximum(powers @ g - g * powers[:, None], 0.0) + channel.noise_w) / g


def _least_station(values: list[float], current: int) -> int:
    # The station rule of multicell.assign_base_station on one user's plain floats.
    bound = min(values) * (1.0 + TIE_REL_TOL)
    if values[current] <= bound:
        return current
    return next(k for k, v in enumerate(values) if v <= bound)


def _synchronous_sweep(users, table, reffs, assignment, policy, rate_set):
    """Every user against the previous iterate's interference; returns (p, r, stations)."""
    if reffs.shape[1] == 1:
        # One station: each best response stays a scalar bounded_step call,
        # because perfbench's `cell` wiring check counts one per user per
        # iteration. Move it to bounded_step_array when that check accepts it.
        steps = [bounded_step(u, r, policy) for u, r in zip(users, reffs[:, 0].tolist())]
        new_p = np.array([s.power for s in steps])
        new_r = np.array([s.rate for s in steps])
    else:
        best = reffs.min(axis=1)
        tied = reffs <= (best * (1.0 + TIE_REL_TOL))[:, None]
        rows = np.arange(assignment.shape[0])
        assignment = np.where(tied[rows, assignment], assignment, tied.argmax(axis=1))
        new_p, new_r = bounded_step_array(table, reffs[rows, assignment], policy)
    if rate_set is not None:
        new_r = np.array([rate_set.floor(r) for r in new_r])
    return new_p, new_r, assignment


def _sequential_sweep(channel, users, powers, assignment, policy, rate_set):
    """Users in order against the freshest powers; returns (p, r, stations).

    The received total at every station is kept current as each user moves,
    so a user costs O(stations) rather than a fresh O(users x stations)
    product. Plain floats: for one user's few stations they beat array calls.
    """
    g = channel.gains.tolist()
    noise = channel.noise_w
    totals = (powers @ channel.gains).tolist()
    p = powers.tolist()
    a = assignment.tolist()
    r = []
    for i, user in enumerate(users):
        g_i = g[i]
        p_i = p[i]
        reffs = [(max(t - gk * p_i, 0.0) + noise) / gk for t, gk in zip(totals, g_i)]
        a[i] = _least_station(reffs, a[i])
        s = bounded_step(user, reffs[a[i]], policy)
        step = s.power - p_i
        totals = [t + gk * step for t, gk in zip(totals, g_i)]
        p[i] = s.power
        r.append(s.rate if rate_set is None else rate_set.floor(s.rate))
    return np.array(p), np.array(r), np.array(a)


def make_record(
    channel: ChannelModel,
    users: list[UserParams] | UserTable,
    iteration: int,
    step: int,
    user_ids: np.ndarray,
    assignment: np.ndarray,
    powers: np.ndarray,
    rates: np.ndarray,
    metric: float,
    reffs: np.ndarray | None = None,
) -> IterationRecord:
    """Build a trace record; SINR and utility are evaluated at the given state.

    The utilities are ``core.utility_priced`` evaluated for all users at once.
    ``reffs`` is the users x stations effective interference at ``powers``,
    for a caller that already has it.
    """
    table = UserTable.from_users(users)
    assignment = np.asarray(assignment, dtype=int)
    if reffs is None:
        reffs = _station_reffs(channel, powers)
    reffs = reffs[np.arange(assignment.shape[0]), assignment]
    if not np.all(reffs > 0):
        raise ValueError("effective interference must be positive")
    sinrs = (channel.bandwidth_hz / rates) * (powers / reffs)
    a1, a2, lam = table.alpha1, table.alpha2, table.lam
    price = 0.5 * lam * ((a2 / a1) * reffs * rates**2 + (a1 / a2) * powers**2 / reffs)
    utilities = np.log(a2 * reffs * rates + a1 * powers) - price
    return IterationRecord(
        iteration,
        step,
        np.asarray(user_ids, dtype=int).copy(),
        assignment.copy(),
        powers.copy(),
        rates.copy(),
        sinrs,
        utilities,
        metric,
    )


def _quantize_final_record(trace, channel, users, rate_set) -> None:
    """Snap a converged trace's final rates down onto ``rate_set``, in place."""
    if not trace.converged or rate_set is None:
        return
    last = trace.records[-1]
    rates = np.array([rate_set.floor(r) for r in last.rates])
    trace.records[-1] = make_record(
        channel,
        users,
        last.iteration,
        last.step,
        last.user_ids,
        last.assignment,
        last.powers,
        rates,
        last.metric,
    )
