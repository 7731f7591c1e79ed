"""Base-station assignment by least effective interference, and the multi-cell loop.

Each iteration first re-points every user at the station where its effective
interference is smallest, then runs the same bounded update as the
single-cell engine against that station. Because the update power falls and
the update rate rises as effective interference falls, choosing the minimum
station simultaneously minimizes the power update and maximizes the rate
update.

The synchronous sweep works on whole arrays: one ``p @ g`` gives every
station's received total, from which the (users x stations) matrix of
effective interference, every user's station and every best response
(``engine.bounded_step_array``) follow without a per-user loop. The
sequential sweep visits users in order against the freshest powers; it keeps
running per-station totals, updated after each user's step, so a user costs
O(stations) rather than a fresh O(users x stations) product. The scalar
``effective_interference_by_station`` and ``assign_base_station`` state the
rule one user at a time and are the oracles the array forms are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, Strategy, UserParams, UserTable
from .engine import (
    CLAMP,
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationTrace,
    _check_policy,
    _check_schedule,
    _initial_vector,
    _quantize_final_record,
    bounded_step,
    bounded_step_array,
    convergence_metric,
    make_record,
)
from .rates import RateSet

__all__ = [
    "NetworkState",
    "effective_interference_by_station",
    "assign_base_station",
    "multicell_step",
    "njrpcgpb_iterate",
    "min_power_update_map",
]

# Stations whose effective interference is within this relative band of the
# minimum count as tied; ties keep the current station so a user does not
# flap at a geometrically symmetric crossing.
TIE_REL_TOL = 1e-9


@dataclass
class NetworkState:
    """All users' strategies plus their current station assignment."""

    powers: np.ndarray
    rates: np.ndarray
    assignment: np.ndarray

    def __post_init__(self) -> None:
        self.powers = np.asarray(self.powers, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        self.assignment = np.asarray(self.assignment, dtype=int)
        if not self.powers.shape == self.rates.shape == self.assignment.shape:
            raise ValueError("powers, rates and assignment must have equal length")

    def strategies(self) -> list[Strategy]:
        return [Strategy(p, r) for p, r in zip(self.powers, self.rates)]


def effective_interference_by_station(
    channel: ChannelModel, powers, i: int
) -> np.ndarray:
    """User i's effective interference at every station for the given powers."""
    g = channel.gains
    p = np.asarray(powers, dtype=float)
    totals = p @ g
    own = g[i] * p[i]
    return (np.maximum(totals - own, 0.0) + channel.noise_w) / g[i]


def assign_base_station(
    channel: ChannelModel, powers, i: int, current: int | None = None
) -> int:
    """Station with the least effective interference for user i.

    Ties within TIE_REL_TOL keep ``current`` when it is tied, otherwise the
    lowest tied index wins.
    """
    if channel.n_stations < 1:
        raise ValueError("need at least one station")
    reffs = effective_interference_by_station(channel, powers, i)
    best = float(reffs.min())
    tied = np.flatnonzero(reffs <= best * (1.0 + TIE_REL_TOL))
    if current is not None:
        if not 0 <= current < channel.n_stations:
            raise ValueError(f"current station {current} out of range")
        if current in tied:
            return int(current)
    return int(tied[0])


def _least_station(values: list[float], current: int) -> int:
    # assign_base_station's rule on one user's plain-float station values.
    bound = min(values) * (1.0 + TIE_REL_TOL)
    if values[current] <= bound:
        return current
    return next(k for k, v in enumerate(values) if v <= bound)


def multicell_step(
    channel: ChannelModel,
    users: list[UserParams] | UserTable,
    state: NetworkState,
    policy: str = CLAMP,
    rate_set: RateSet | None = None,
) -> NetworkState:
    """One synchronous sweep: reassign every user, then update its strategy.

    All effective interferences are evaluated on the powers in ``state``. The
    result equals ``assign_base_station`` followed by ``bounded_step`` for
    each user in turn, computed as arrays.
    """
    _check_policy(policy)
    _check_assignment(state.assignment, channel.n_stations)
    g = channel.gains
    p = state.powers
    totals = p @ g
    reffs = (np.maximum(totals - g * p[:, None], 0.0) + channel.noise_w) / g
    best = reffs.min(axis=1)
    tied = reffs <= (best * (1.0 + TIE_REL_TOL))[:, None]
    rows = np.arange(p.shape[0])
    current = state.assignment
    new_a = np.where(tied[rows, current], current, tied.argmax(axis=1))
    new_p, new_r = bounded_step_array(UserTable.from_users(users), reffs[rows, new_a], policy)
    if rate_set is not None:
        new_r = np.array([rate_set.floor(r) for r in new_r])
    return NetworkState(new_p, new_r, new_a)


def njrpcgpb_iterate(
    channel: ChannelModel,
    users: list[UserParams],
    policy: str = CLAMP,
    config: ConvergenceConfig | None = None,
    schedule: str = SYNCHRONOUS,
    initial_state: NetworkState | None = None,
    rate_set: RateSet | None = None,
    quantize_at_convergence: bool = False,
) -> IterationTrace:
    """Joint assignment plus rate/power iteration until the step metric converges.

    Works exactly like the single-cell loop except every user re-picks its
    station each iteration. At an interior converged point each user's SINR
    at its assigned station equals its target. Non-convergence within
    max_iterations is reported on the trace, not raised.
    """
    if len(users) != channel.n_users:
        raise ValueError(f"{len(users)} users but channel has {channel.n_users} rows")
    if not users:
        raise ValueError("need at least one user")
    _check_policy(policy)
    _check_schedule(schedule)
    config = config if config is not None else ConvergenceConfig()

    if initial_state is None:
        state = NetworkState(
            _initial_vector(users, None, "power"),
            _initial_vector(users, None, "rate"),
            np.zeros(len(users), dtype=int),
        )
    else:
        state = NetworkState(
            initial_state.powers.copy(),
            initial_state.rates.copy(),
            initial_state.assignment.copy(),
        )
        _check_assignment(state.assignment, channel.n_stations)

    table = UserTable.from_users(users)
    user_ids = np.arange(len(users))
    step_set = None if quantize_at_convergence else rate_set
    records = []
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        if schedule == SYNCHRONOUS:
            new_state = multicell_step(channel, table, state, policy, step_set)
        else:
            new_state = _sequential_multicell_step(channel, users, state, policy, step_set)
        metric = convergence_metric(
            state.powers, state.rates, new_state.powers, new_state.rates, config.metric
        )
        state = new_state
        records.append(
            make_record(
                channel,
                table,
                iteration,
                1,
                user_ids,
                state.assignment,
                state.powers,
                state.rates,
                metric,
            )
        )
        if metric <= config.delta:
            converged = True
            break

    trace = IterationTrace(records, converged, iterations)
    if quantize_at_convergence:
        _quantize_final_record(trace, channel, table, rate_set)
    return trace


def min_power_update_map(channel: ChannelModel, users: list[UserParams]):
    """Across-station minimum of the per-station power updates, as p -> I(p)."""
    g = channel.gains
    noise = channel.noise_w
    half_ratio = np.array([0.5 * u.alpha2 / (u.alpha1 * u.lam) for u in users])

    def apply(powers) -> np.ndarray:
        p = np.asarray(powers, dtype=float)
        totals = p @ g
        other = np.maximum(totals[None, :] - g * p[:, None], 0.0)
        reffs = (other + noise) / g
        candidates = np.sqrt(half_ratio[:, None] * reffs)
        return candidates.min(axis=1)

    return apply


def _check_assignment(assignment: np.ndarray, n_stations: int) -> None:
    if np.any(assignment < 0) or np.any(assignment >= n_stations):
        raise ValueError("assignment references a missing station")


def _sequential_multicell_step(channel, users, state, policy, rate_set):
    gains = channel.gains
    g = gains.tolist()
    noise = channel.noise_w
    new_p = state.powers.copy()
    new_r = state.rates.copy()
    new_a = state.assignment.copy()
    # Received total at every station, kept current as each user moves. Plain
    # floats: for one user's few stations they beat array calls.
    totals = (new_p @ gains).tolist()
    for i, user in enumerate(users):
        g_i = g[i]
        p_i = float(new_p[i])
        reffs = [(max(t - gk * p_i, 0.0) + noise) / gk for t, gk in zip(totals, g_i)]
        a = _least_station(reffs, int(new_a[i]))
        s = bounded_step(user, reffs[a], policy)
        step = s.power - p_i
        totals = [t + gk * step for t, gk in zip(totals, g_i)]
        new_a[i] = a
        new_p[i] = s.power
        new_r[i] = s.rate if rate_set is None else rate_set.floor(s.rate)
    return NetworkState(new_p, new_r, new_a)
