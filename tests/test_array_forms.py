"""Array fast paths checked against the scalar per-user oracles.

The oracles are the scalar statements in ``ratepower.oracle``; the bounded
best response is ``reference_step`` below, built from the oracle's
unconstrained best response and its two boundary updates. The array forms
evaluate the same floating-point operations in the same order as the scalar
functions, so most comparisons here are exact;
``oracle.effective_interference_by_station`` subtracts the own term as the
loop does, so the synchronous sweep equals it bit for bit. The exceptions
carry a tolerance fixed from float64: the loop subtracts each user's own
term from a station total where ``oracle.effective_interference`` skips it,
the sequential sweep keeps running per-station totals instead of a fresh
``p @ g`` per user, and the trace segments take their logarithms through
numpy instead of ``math``.
On the same running totals, the sequential sweep's inline per-user loop
equals a sweep that calls ``reference_step`` once per user exactly, and
on one station, where it skips the station rule, it equals the sweep of
the same users with a second station that none can pick, bit for bit.

The sweeps are reached through ``iterate_to_convergence``: one iteration from
a given state is one sweep, with the users starting at that state. The
sequential kernel's tests also call the sweep directly, from powers that
need not lie in the users' boxes.
"""

import bisect
import copy
import math
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rows, starting_at
from ratepower import engine
from ratepower.core import (
    ChannelModel,
    NoFeasibleRateError,
    PricingRule,
    RateSet,
    Strategy,
    UserParams,
    UserTable,
    priced_users,
)
from ratepower.engine import (
    CLAMP,
    KKT,
    HISTORY_FULL,
    METRIC_ABSOLUTE,
    METRIC_RELATIVE,
    SEQUENTIAL,
    SYNCHRONOUS,
    TIE_REL_TOL,
    ConvergenceConfig,
    bounded_step,
    bounded_step_array,
    IterationRecord,
    _sinrs_utilities,
    _sequential_sweep,
    _station_reffs,
    _step_metric,
    iterate_to_convergence,
)
from ratepower.oracle import (
    assign_base_station,
    convergence_metric,
    effective_interference,
    effective_interference_by_station,
    power_update_rate_bounded,
    rate_floor,
    rate_update_power_bounded,
    sinr,
    unconstrained_best_response,
    utility_priced,
)

EPS = np.finfo(float).eps

POLICIES = st.sampled_from([CLAMP, KKT])

# Where a coordinate's unconstrained best response x sits relative to its box.
PLACEMENTS = ("inside", "below_box", "above_box", "on_lower", "on_upper")


def box_around(x, placement, lo, hi):
    """A [low, high] box that puts x where ``placement`` says; lo, hi > 1."""
    if placement == "inside":
        return x / lo, x * hi
    if placement == "below_box":
        return x * lo, x * lo * hi
    if placement == "above_box":
        return x / (lo * hi), x / lo
    if placement == "on_lower":
        return x, x * hi
    return x / lo, x


def user_for(r_eff, p_place, r_place, a1=1e6, a2=20.0, lam=1e-4, lo=2.0, hi=3.0):
    cand = unconstrained_best_response(r_eff, a1, a2, lam)
    p_min, p_max = box_around(cand.power, p_place, lo, hi)
    r_min, r_max = box_around(cand.rate, r_place, lo, hi)
    return UserParams(a1, a2, lam, p_min, p_max, r_min, r_max)


@st.composite
def users_and_reffs(draw):
    """Users whose boxes put the best response inside, outside or on a bound."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        r_eff = 10 ** draw(st.floats(-3.0, 2.0))
        user = user_for(
            r_eff,
            draw(st.sampled_from(PLACEMENTS)),
            draw(st.sampled_from(PLACEMENTS)),
            a1=10 ** draw(st.floats(4.0, 7.0)),
            a2=10 ** draw(st.floats(0.0, 2.0)),
            lam=10 ** draw(st.floats(-6.0, -2.0)),
            lo=draw(st.floats(1.01, 100.0)),
            hi=draw(st.floats(1.01, 100.0)),
        )
        out.append((user, r_eff))
    return out


def reference_step(user, r_eff, policy):
    """The bounded best response written out with explicit in-box tests."""
    a1, a2, lam = user.alpha1, user.alpha2, user.lam
    cand = unconstrained_best_response(r_eff, a1, a2, lam)
    p_ok = user.p_min <= cand.power <= user.p_max
    r_ok = user.r_min <= cand.rate <= user.r_max
    if policy == KKT and p_ok and not r_ok:
        r = user.r_min if cand.rate < user.r_min else user.r_max
        p = power_update_rate_bounded(r_eff, r, a1, a2, lam)
        return min(max(p, user.p_min), user.p_max), r
    if policy == KKT and r_ok and not p_ok:
        p = user.p_min if cand.power < user.p_min else user.p_max
        r = rate_update_power_bounded(r_eff, p, a1, a2, lam)
        return p, min(max(r, user.r_min), user.r_max)
    return (
        min(max(cand.power, user.p_min), user.p_max),
        min(max(cand.rate, user.r_min), user.r_max),
    )


def on_bound(p_place, r_place, policy, r_eff=0.05):
    return example(drawn=[(user_for(r_eff, p_place, r_place), r_eff)], policy=policy)


def assert_kernel_matches_scalar(users, reffs, policy):
    """The array form and ``bounded_step`` both equal the reference exactly."""
    powers, rates = bounded_step_array(UserTable.from_users(users), np.array(reffs), policy)
    for k, (user, r_eff) in enumerate(zip(users, reffs)):
        want = reference_step(user, r_eff, policy)
        s = bounded_step(user, r_eff, policy)
        assert (s.power, s.rate) == want
        assert (powers[k], rates[k]) == want


class TestBestResponseKernel:
    def test_every_kkt_branch_in_one_call(self):
        r_eff = 0.05
        cases = {
            "interior": ("inside", "inside"),
            "rate pinned": ("inside", "above_box"),
            "rate pinned low": ("inside", "below_box"),
            "power pinned": ("above_box", "inside"),
            "power pinned low": ("below_box", "inside"),
            "both violated": ("below_box", "above_box"),
        }
        users = [user_for(r_eff, *placement) for placement in cases.values()]
        reffs = [r_eff] * len(users)
        for policy in (CLAMP, KKT):
            assert_kernel_matches_scalar(users, reffs, policy)
        # The kkt branches really differ from clamping where one coordinate is pinned.
        kkt_p, kkt_r = bounded_step_array(UserTable.from_users(users), np.array(reffs), KKT)
        clamp_p, clamp_r = bounded_step_array(UserTable.from_users(users), np.array(reffs), CLAMP)
        assert kkt_p[1] != clamp_p[1] and kkt_r[1] == clamp_r[1]
        assert kkt_r[3] != clamp_r[3] and kkt_p[3] == clamp_p[3]

    @settings(max_examples=300, deadline=None)
    @given(users_and_reffs(), POLICIES)
    @on_bound("on_lower", "above_box", KKT)
    @on_bound("on_upper", "below_box", KKT)
    @on_bound("above_box", "on_lower", KKT)
    @on_bound("below_box", "on_upper", KKT)
    @on_bound("on_upper", "on_lower", KKT)
    @on_bound("on_lower", "on_upper", CLAMP)
    def test_equals_scalar_bounded_step(self, drawn, policy):
        users, reffs = zip(*drawn)
        assert_kernel_matches_scalar(list(users), list(reffs), policy)

    def test_rejects_nonpositive_interference(self):
        table = UserTable.from_users([UserParams(), UserParams()])
        with pytest.raises(ValueError):
            bounded_step_array(table, np.array([1.0, 0.0]))

    def test_table_passes_through(self):
        table = UserTable.from_users([UserParams(alpha2=12.0)])
        assert UserTable.from_users(table) is table
        np.testing.assert_array_equal(table.alpha2, [12.0])


class TestScalarKernel:
    def test_candidate_on_a_bound_counts_as_inside(self):
        # A candidate exactly on p_min is in the box, so kkt re-optimizes the
        # power from the pinned rate rather than clamping both coordinates.
        user = user_for(0.05, "on_lower", "above_box")
        cand = unconstrained_best_response(0.05, user.alpha1, user.alpha2, user.lam)
        assert cand.power == user.p_min
        s = bounded_step(user, 0.05, KKT)
        assert (s.power, s.rate) == reference_step(user, 0.05, KKT)
        assert s.rate == user.r_max
        assert s.power == power_update_rate_bounded(0.05, s.rate, user.alpha1, user.alpha2, user.lam)
        assert user.p_min < s.power < user.p_max

    @pytest.mark.parametrize("r_eff", [0.0, -1.0])
    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    def test_rejects_nonpositive_interference(self, r_eff, policy):
        with pytest.raises(ValueError, match="effective interference must be positive"):
            reference_step(UserParams(), r_eff, policy)
        with pytest.raises(ValueError, match="effective interference must be positive"):
            bounded_step(UserParams(), r_eff, policy)

    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    def test_rejects_nan_interference(self, policy):
        with pytest.raises(ValueError, match="effective interference must be positive"):
            bounded_step(UserParams(), math.nan, policy)


class State(NamedTuple):
    powers: np.ndarray
    rates: np.ndarray
    assignment: np.ndarray


@st.composite
def networks(draw, max_users=8, max_stations=4, min_users=1):
    n = draw(st.integers(min_users, max_users))
    b = draw(st.integers(1, max_stations))
    distances = [[draw(st.floats(50.0, 600.0)) for _ in range(b)] for _ in range(n)]
    channel = ChannelModel(distances)
    users = []
    powers = []
    for _ in range(n):
        p_max = draw(st.floats(0.01, 3.0))
        users.append(
            UserParams(
                alpha2=draw(st.floats(5.0, 30.0)),
                lam=10 ** draw(st.floats(-6.0, -3.0)),
                p_max=p_max,
            )
        )
        powers.append(draw(st.floats(1e-6, p_max)))
    assignment = [draw(st.integers(0, b - 1)) for _ in range(n)]
    state = State(np.array(powers), np.full(n, 1000.0), np.array(assignment))
    return channel, users, state


def sweep(channel, users, state, policy=CLAMP, rate_set=None, schedule=SYNCHRONOUS):
    """One iteration of the loop from ``state``."""
    config = ConvergenceConfig(
        max_iterations=1, policy=policy, schedule=schedule, rate_set=rate_set
    )
    trace = iterate_to_convergence(
        channel,
        starting_at(users, state.powers, state.rates),
        config,
        initial_assignment=state.assignment,
    )
    record = trace.final
    return State(record.powers, record.rates, record.assignment)


def loop_step(channel, users, state, policy, rate_set=None):
    """The synchronous sweep one user at a time, from the scalar oracles."""
    n = len(users)
    a, p, r = np.empty(n, dtype=int), np.empty(n), np.empty(n)
    for i, user in enumerate(users):
        a[i] = assign_base_station(channel, state.powers, i, int(state.assignment[i]))
        r_eff = float(effective_interference_by_station(channel, state.powers, i)[a[i]])
        s = bounded_step(user, r_eff, policy)
        p[i] = s.power
        r[i] = s.rate if rate_set is None else rate_floor(rate_set, s.rate)
    return State(p, r, a)


def loop_sequential_sweep(channel, users, state, policy):
    """The sequential sweep with every interference recomputed from scratch."""
    p, r, a = state.powers.copy(), state.rates.copy(), state.assignment.copy()
    for i, user in enumerate(users):
        a[i] = assign_base_station(channel, p, i, int(a[i]))
        s = bounded_step(user, float(effective_interference_by_station(channel, p, i)[a[i]]), policy)
        p[i], r[i] = s.power, s.rate
    return State(p, r, a)


def assert_states_equal(got, want):
    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_array_equal(got.powers, want.powers)
    np.testing.assert_array_equal(got.rates, want.rates)


def mirror_network(eps):
    """Two cells with mirror-symmetric users around a walker, user 2.

    The walker is nearer station 0 by the relative distance ``eps``, so its
    effective interference at station 1 is larger by about 4 * eps.
    """
    d = 260.0
    channel = ChannelModel([[110, 410], [130, 390], [d, d * (1.0 + eps)], [390, 130], [410, 110]])
    powers = np.array([0.1, 0.2, 0.5, 0.2, 0.1])
    users = [UserParams(alpha2=20, lam=1e-4) for _ in range(5)]
    return channel, users, powers


# Powers from 0 and the subnormals up; gains over 30 decades.
NONNEGATIVE_POWERS = st.sampled_from([0.0, 5e-324, 2.2e-310]) | st.floats(0.0, 10.0)
GAIN_DECADES = st.floats(-30.0, 0.0)


class TestSynchronousSweep:
    @settings(max_examples=200, deadline=None)
    @given(networks(), POLICIES)
    def test_equals_per_user_oracle_loop(self, network, policy):
        channel, users, state = network
        assert_states_equal(sweep(channel, users, state, policy), loop_step(channel, users, state, policy))

    @settings(max_examples=50, deadline=None)
    @given(networks(), POLICIES)
    def test_equals_oracle_loop_on_a_rate_ladder(self, network, policy):
        channel, users, state = network
        ladder = RateSet((0.1, 1e3, 1e4, 5e4))
        got = sweep(channel, users, state, policy, ladder)
        assert_states_equal(got, loop_step(channel, users, state, policy, ladder))

    # eps = 0 is an exact tie; 2.4e-10 puts the two stations about 9.6e-10 apart,
    # just inside TIE_REL_TOL; 1e-9 is well outside it.
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-11, 1e-10, 2.4e-10])
    @pytest.mark.parametrize("current", [0, 1])
    def test_tied_walker_keeps_its_station(self, eps, current):
        channel, users, powers = mirror_network(eps)
        reffs = effective_interference_by_station(channel, powers, 2)
        assert abs(reffs[1] / reffs[0] - 1.0) <= TIE_REL_TOL
        assignment = np.array([0, 0, current, 1, 1])
        state = State(powers, np.full(5, 1000.0), assignment)
        got = sweep(channel, users, state, CLAMP)
        assert got.assignment[2] == current
        assert_states_equal(got, loop_step(channel, users, state, CLAMP))

    def test_walker_outside_the_tie_band_switches(self):
        channel, users, powers = mirror_network(1e-9)
        state = State(powers, np.full(5, 1000.0), np.array([0, 0, 1, 1, 1]))
        got = sweep(channel, users, state, KKT)
        assert got.assignment[2] == 0
        assert_states_equal(got, loop_step(channel, users, state, KKT))

    def test_exact_tie_without_a_tied_current_takes_lowest_index(self):
        # The walker's current station 2 is far from it only; stations 0 and 1 tie.
        channel = ChannelModel([[110, 410, 120], [200, 200, 900], [410, 110, 120]])
        users = [UserParams() for _ in range(3)]
        powers = np.array([0.1, 0.3, 0.1])
        state = State(powers, np.full(3, 1000.0), np.array([0, 2, 1]))
        got = sweep(channel, users, state, CLAMP)
        assert got.assignment[1] == 0
        assert_states_equal(got, loop_step(channel, users, state, CLAMP))

    def test_rejects_a_missing_station(self):
        channel, users, powers = mirror_network(0.0)
        state = State(powers, np.full(5, 1000.0), np.array([0, 0, 2, 1, 1]))
        with pytest.raises(ValueError, match="missing station"):
            sweep(channel, users, state)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fresh_totals_never_fall_below_an_own_term(self, data):
        # The loop's interference matrix takes no clip: a fresh p @ g is a sum
        # of nonnegative terms, which never rounds below one of them, so it
        # equals the oracle's clipped form, noise floor included.
        n, b = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        powers = np.array(data.draw(st.lists(NONNEGATIVE_POWERS, min_size=n, max_size=n)))
        g = 10.0 ** np.array(data.draw(st.lists(GAIN_DECADES, min_size=n * b, max_size=n * b)))
        g = g.reshape(n, b)
        totals = powers @ g
        assert (totals >= g * powers[:, None]).all()
        noise = data.draw(st.sampled_from([0.0, 5e-15, 1e-10]))
        got = _station_reffs(g, noise, powers, totals)
        np.testing.assert_array_equal(got, (np.maximum(totals - g * powers[:, None], 0.0) + noise) / g)
        assert (got >= noise / g).all()


# Subtracting a user's own term from its station total, as the loop does,
# loses about eps * total, so the relative error of its effective
# interference is about eps * kappa, kappa = total / (other + noise). No order
# of the sums avoids that where the own term dominates, so comparisons with
# the scalar oracles allow KAPPA_C * eps * max(1, kappa). The sequential
# sweep's running totals pass through every state between its start and its
# end, so its kappa is the largest over those states.
KAPPA_C = 64


def kappa(channel, powers, assignment):
    """Largest station total over a user's effective interference times its gain."""
    g = channel.gains
    worst = 1.0
    for i, a in enumerate(assignment):
        other = effective_interference(g[:, a], powers, i, channel.noise_w) * g[i, a]
        worst = max(worst, float(powers @ g[:, a]) / other)
    return worst


def assert_close_within_kappa(got, want, k):
    rtol = KAPPA_C * EPS * k
    np.testing.assert_allclose(got.powers, want.powers, rtol=rtol, atol=0)
    np.testing.assert_allclose(got.rates, want.rates, rtol=rtol, atol=0)


# Own terms dominate both station totals: kappa is about 5e4, and the loop
# and the oracle differ by 2.8e-12 relative.
OWN_TERM_DOMINATES = (
    ChannelModel([[50, 366.5], [50, 51]]),
    [UserParams(alpha2=6, lam=1e-3, p_max=1), UserParams(alpha2=5, lam=1e-3, p_max=1)],
    State(np.ones(2), np.full(2, 1000.0), np.zeros(2, dtype=int)),
)

# Under kkt, kappa is about 7.3e3 at the start and end of the first sweep but
# 1.1e6 in between, with user 0 moved and user 1 not yet; the sweep and the
# oracle differ by 1.2e-10 relative, more than the endpoints' bound allows.
MIXED_STATE_DOMINATES = (
    ChannelModel([[50, 331, 50], [50, 50, 463]]),
    [UserParams(alpha2=10, lam=1e-3, p_max=1), UserParams(alpha2=5, lam=1e-3, p_max=1)],
    State(np.ones(2), np.full(2, 1000.0), np.zeros(2, dtype=int)),
)


def sweep_kappa(channel, start, end, assignment):
    """kappa over a sequential sweep's states: users before i moved, the rest not."""
    n = len(start)
    mixed = (np.concatenate([end[:i], start[i:]]) for i in range(n + 1))
    return max(kappa(channel, p, assignment) for p in mixed)


class TestSequentialSweep:
    @settings(max_examples=150, deadline=None)
    @given(networks(), POLICIES)
    @example(network=OWN_TERM_DOMINATES, policy=CLAMP)
    @example(network=MIXED_STATE_DOMINATES, policy=KKT)
    def test_running_totals_match_recomputed_interference(self, network, policy):
        # Each sweep against the oracle sweep from the same state, so rounding
        # does not compound from one sweep to the next.
        channel, users, state = network
        for _ in range(3):
            got = sweep(channel, users, state, policy, schedule=SEQUENTIAL)
            want = loop_sequential_sweep(channel, users, state, policy)
            np.testing.assert_array_equal(got.assignment, want.assignment)
            k = sweep_kappa(channel, state.powers, want.powers, want.assignment)
            assert_close_within_kappa(got, want, k)
            state = got


def least_station(values, current):
    """The station rule on one user's plain floats: ties keep ``current``."""
    bound = min(values) * (1.0 + TIE_REL_TOL)
    if values[current] <= bound:
        return current
    return next(k for k, v in enumerate(values) if v <= bound)


def kernel_sequential_sweep(channel, users, powers, assignment, policy):
    """The sequential sweep with one scalar best response per user.

    Running per-station totals as the engine keeps them, the station rule
    and ``reference_step`` for every user in order. Returns the state and
    the effective interference each user saw at its station.
    """
    g = channel.gains.tolist()
    totals = (powers @ channel.gains).tolist()
    p, a, r, seen = powers.tolist(), assignment.tolist(), [], []
    for i, user in enumerate(users):
        g_i, p_i = g[i], p[i]
        reffs = [(max(t - gk * p_i, 0.0) + channel.noise_w) / gk for t, gk in zip(totals, g_i)]
        a[i] = least_station(reffs, a[i])
        seen.append(reffs[a[i]])
        p[i], r_i = reference_step(user, seen[-1], policy)
        step = p[i] - p_i
        totals = [t + gk * step for t, gk in zip(totals, g_i)]
        r.append(r_i)
    return State(np.array(p), np.array(r), np.array(a)), seen


def engine_sequential_sweep(channel, users, powers, assignment, policy):
    """The engine's sequential sweep on a state that need not lie in the boxes."""
    table = UserTable.from_users(users)
    g = channel.gains
    state, stations = _sequential_sweep(
        g, channel.noise_w, table, powers, powers @ g, assignment, policy == KKT
    )
    return State(state[0], state[1], stations)


def boxes_around_sweep(channel, users, powers, assignment, policy, places):
    """The users with boxes that put their best responses in one sequential
    sweep where ``places`` says.

    ``places`` holds one ((power placement, rate placement), (lo, hi)) per
    user. User i's interference depends only on the users before it, which
    have their final boxes, and on its own and later users' old powers, so
    its box is placed around its unconstrained best response one user at a
    time. Returns the sweep's inputs and, per user, the interference it saw
    and its placements.
    """
    users = list(users)
    placements = []
    for i, (where, (lo, hi)) in enumerate(places):
        _, seen = kernel_sequential_sweep(channel, users, powers, assignment, policy)
        u = users[i]
        cand = unconstrained_best_response(seen[i], u.alpha1, u.alpha2, u.lam)
        p_min, p_max = box_around(cand.power, where[0], lo, hi)
        r_min, r_max = box_around(cand.rate, where[1], lo, hi)
        users[i] = replace(u, p_min=p_min, p_max=p_max, r_min=r_min, r_max=r_max)
        placements.append((seen[i], where))
    return channel, users, powers, assignment, policy, placements


@st.composite
def sweeps_at_bounds(draw, max_stations=4):
    """A state and users whose best responses in one sequential sweep sit
    inside, outside or exactly on each bound of their boxes."""
    n = draw(st.integers(1, 6))
    b = draw(st.integers(1, max_stations))
    channel = ChannelModel([[draw(st.floats(50.0, 600.0)) for _ in range(b)] for _ in range(n)])
    powers = np.array([draw(st.floats(1e-6, 1.0)) for _ in range(n)])
    assignment = np.array([draw(st.integers(0, b - 1)) for _ in range(n)])
    policy = draw(POLICIES)
    users = [
        UserParams(alpha2=draw(st.floats(5.0, 30.0)), lam=10 ** draw(st.floats(-6.0, -3.0)))
        for _ in range(n)
    ]
    places = [
        (
            (draw(st.sampled_from(PLACEMENTS)), draw(st.sampled_from(PLACEMENTS))),
            (draw(st.floats(1.01, 100.0)), draw(st.floats(1.01, 100.0))),
        )
        for _ in range(n)
    ]
    return boxes_around_sweep(channel, users, powers, assignment, policy, places)


def one_station_at_bounds(policy):
    """Five users on one station, each coordinate at each placement once."""
    channel = ChannelModel([90.0, 140.0, 220.0, 330.0, 480.0])
    powers = np.array([0.5, 1e-6, 0.02, 1.0, 3e-3])
    users = [UserParams(alpha2=a2, lam=1e-4) for a2 in (6.0, 12.9492, 20.0, 25.0, 30.0)]
    places = [(where, (3.0, 7.0)) for where in zip(PLACEMENTS, PLACEMENTS[::-1])]
    return boxes_around_sweep(channel, users, powers, np.zeros(5, dtype=int), policy, places)


def negative_remainder(policy):
    """One station where a user's remainder, its station total less its own
    term, comes out negative and is clipped to 0.

    Users 0 and 1 each add about 0.55 ulp of user 2's own received power to
    the fresh total, which rounds up by one ulp; their steps down to a tiny
    p_max take the running total one ulp below user 2's own term.
    """
    channel = ChannelModel([600.0, 600.0, 50.0])
    powers = np.array([2.43e-12, 2.43e-12, 1.0])
    users = [UserParams(p_min=1e-16, p_max=1e-15)] * 2 + [UserParams()]
    return channel, users, powers, np.zeros(3, dtype=int), policy, None


class TestSequentialKernel:
    """The sequential sweep equals the per-user scalar kernel sweep exactly."""

    @settings(max_examples=300, deadline=None)
    @given(sweeps_at_bounds())
    @example(drawn=one_station_at_bounds(CLAMP))
    @example(drawn=one_station_at_bounds(KKT))
    def test_equals_kernel_sweep_at_every_box_bound(self, drawn):
        channel, users, powers, assignment, policy, placements = drawn
        want, seen = kernel_sequential_sweep(channel, users, powers, assignment, policy)
        # Each user saw the interference its box was placed around.
        assert seen == [r_eff for r_eff, _ in placements]
        assert_states_equal(engine_sequential_sweep(channel, users, powers, assignment, policy), want)

    @settings(max_examples=200, deadline=None)
    @given(sweeps_at_bounds(max_stations=1))
    @example(drawn=one_station_at_bounds(CLAMP))
    @example(drawn=one_station_at_bounds(KKT))
    @example(drawn=negative_remainder(CLAMP))
    @example(drawn=negative_remainder(KKT))
    def test_one_station_equals_the_station_rule_with_a_far_second(self, drawn):
        # One station skips the station rule; a second station that no user
        # can pick sends the same users through it, on the same station-0
        # totals, and must give the same bits.
        channel, users, powers, assignment, policy, _ = drawn
        # 3000 km away the gain is about 1e-25, and the interference there,
        # noise over that gain, far above any station's within 600 m.
        far_m = np.full((len(users), 1), 3e6)
        far = replace(channel, distances_m=np.hstack([channel.distances_m, far_m]))
        np.testing.assert_array_equal(far.gains[:, :1], channel.gains)
        table, kkt = UserTable.from_users(users), policy == KKT
        totals = powers @ channel.gains
        far_totals = np.append(totals, powers @ far.gains[:, 1])
        got = _sequential_sweep(channel.gains, channel.noise_w, table, powers, totals, assignment, kkt)
        want = _sequential_sweep(far.gains, far.noise_w, table, powers, far_totals, assignment, kkt)
        np.testing.assert_array_equal(want[1], np.zeros(len(users)))
        assert_states_equal(State(*got[0], got[1]), State(*want[0], want[1]))

    @settings(max_examples=150, deadline=None)
    @given(networks(), POLICIES)
    @example(network=OWN_TERM_DOMINATES, policy=CLAMP)
    @example(network=OWN_TERM_DOMINATES, policy=KKT)
    def test_loop_equals_kernel_sweep(self, network, policy):
        channel, users, state = network
        for _ in range(3):
            got = sweep(channel, users, state, policy, schedule=SEQUENTIAL)
            want, _ = kernel_sequential_sweep(channel, users, state.powers, state.assignment, policy)
            assert_states_equal(got, want)
            state = got

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 2.4e-10, 1e-9])
    @pytest.mark.parametrize("current", [0, 1])
    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    def test_walker_first_in_order_meets_its_tie(self, eps, current, policy):
        # The walker moves first, so it sees the mirror-symmetric powers.
        channel, users, powers = mirror_network(eps)
        order = [2, 0, 1, 3, 4]
        channel = channel.subset(order)
        powers = powers[order]
        assignment = np.array([current, 0, 0, 1, 1])
        want, _ = kernel_sequential_sweep(channel, users, powers, assignment, policy)
        assert want.assignment[0] == (current if eps < 1e-9 else 0)
        assert_states_equal(engine_sequential_sweep(channel, users, powers, assignment, policy), want)

    @pytest.mark.parametrize("stations", [1, 2])
    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    def test_zero_interference_raises_as_the_kernel_sweep_does(self, stations, policy):
        # No noise, and the far user's received power is below the rounding
        # of the near user's, so the near user's interference is exactly 0.
        channel = ChannelModel([[10.0] * stations, [1e4] * stations], noise_w=0.0)
        users = [UserParams(), UserParams()]
        state = State(np.array([3.0, 1e-6]), np.full(2, 1000.0), np.zeros(2, dtype=int))
        with pytest.raises(ValueError) as want:
            kernel_sequential_sweep(channel, users, state.powers, state.assignment, policy)
        with pytest.raises(ValueError) as got:
            sweep(channel, users, state, policy, schedule=SEQUENTIAL)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "effective interference must be positive, got 0.0"


class Arrival(NamedTuple):
    iteration: int
    distances_m: list
    user: UserParams


def oracle_loop(channel, users, state, policy, schedule, config, arrival=None):
    """The one-station loop from scalar pieces, interference recomputed per user."""
    users, p, r = list(users), list(state.powers), list(state.rates)
    for iteration in range(1, config.max_iterations + 1):
        if arrival is not None and arrival.iteration == iteration:
            channel = channel.with_user(arrival.distances_m)
            users.append(arrival.user)
            p.append(arrival.user.initial_power)
            r.append(arrival.user.initial_rate)
        gains = channel.gains[:, 0]
        new_p, new_r = list(p), list(r)
        seen = new_p if schedule == SEQUENTIAL else p
        for i, user in enumerate(users):
            s = bounded_step(user, effective_interference(gains, seen, i, channel.noise_w), policy)
            new_p[i], new_r[i] = s.power, s.rate
        metric = convergence_metric(p, r, new_p, new_r)
        p, r = new_p, new_r
        if metric <= config.delta and (arrival is None or iteration >= arrival.iteration):
            break
    return iteration, channel, State(np.array(p), np.array(r), np.zeros(len(p), dtype=int))


@st.composite
def arrivals(draw):
    distances = [draw(st.floats(50.0, 600.0))]
    user = UserParams(alpha2=draw(st.floats(5.0, 30.0)), lam=10 ** draw(st.floats(-6.0, -3.0)))
    return Arrival(draw(st.integers(1, 12)), distances, user)


class TestOneStationLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        networks(max_stations=1),
        POLICIES,
        st.sampled_from([SYNCHRONOUS, SEQUENTIAL]),
        st.none() | arrivals(),
    )
    def test_equals_scalar_oracle_loop(self, network, policy, schedule, arrival):
        channel, users, state = network
        config = ConvergenceConfig(max_iterations=300, policy=policy, schedule=schedule)
        trace = iterate_to_convergence(
            channel,
            starting_at(users, state.powers, state.rates),
            config,
            arrivals=[] if arrival is None else [arrival],
        )
        iterations, channel, want = oracle_loop(channel, users, state, policy, schedule, config, arrival)
        assert trace.iterations_used == iterations
        np.testing.assert_array_equal(trace.final_assignment, want.assignment)
        assert_close_within_kappa(trace.final, want, kappa(channel, want.powers, want.assignment))


class TestRecords:
    @settings(max_examples=150, deadline=None)
    @given(networks(), st.data())
    def test_utilities_and_sinrs_match_scalar_model(self, network, data):
        channel, users, state = network
        rates = np.array([data.draw(st.floats(u.r_min, u.r_max)) for u in users])
        record = make_record(channel, users, state.assignment, state.powers, rates)
        for i, u in enumerate(users):
            a = int(state.assignment[i])
            r_eff = float(effective_interference_by_station(channel, state.powers, i)[a])
            strategy = Strategy(float(state.powers[i]), float(rates[i]))
            want = utility_priced(strategy, r_eff, u.alpha1, u.alpha2, u.lam)
            # Relative 1e-14, measured against the terms log(.) and the price
            # that cancel when the utility itself is near zero.
            s = u.alpha2 * r_eff * rates[i] + u.alpha1 * state.powers[i]
            scale = abs(math.log(s)) + abs(math.log(s) - want)
            assert abs(record.utilities[i] - want) <= 1e-14 * scale
            assert record.sinrs[i] == pytest.approx(
                sinr(channel.bandwidth_hz, strategy, r_eff), rel=1e-14
            )


# A trace is built once per segment, a run of iterations at a fixed user
# count: SINR and utility for the kept rows of every segment of a loop come
# from one vectorised pass.
# Every row view of it must equal ``make_record``, the same pass on that row
# alone, exactly, priced as that segment was played.


def make_record(channel, users, assignment, powers, rates, iteration=1, metric=0.0):
    """One record built alone: its row put through the loop's SINR and utility pass.

    The row's effective interference comes from the oracle, which subtracts
    and clips as the loop does, so it equals the loop's bit for bit.
    """
    assignment = np.asarray(assignment, dtype=int)
    r_eff = [
        effective_interference_by_station(channel, powers, i)[a]
        for i, a in enumerate(assignment)
    ]
    state = np.array([[powers, rates]], dtype=float)
    table = UserTable.from_users(users)
    (sinrs,), (utilities,) = _sinrs_utilities(table, channel.bandwidth_hz, state, np.array([r_eff]))
    return IterationRecord(iteration, 1, assignment, *state[0], sinrs, utilities, metric)


RECORD_FIELDS = ("assignment", "powers", "rates", "sinrs", "utilities")
LADDER = RateSet((0.1, 1e3, 1e4, 5e4))


class CountPricing:
    """Lambda = c * N as a per-user-count rule, and a log of every network it prices.

    Called as ``core.priced_users`` is, it prices the network, checks the
    price against c * N set user by user, and logs the network. A run
    patches it in as the engine's ``priced_users``, so the log holds the
    network the engine prices at entry and each one it reprices after an
    arrival group.
    """

    def __init__(self, c=1e-5):
        self.c = c
        self.rule = PricingRule("per_user_count", c)
        self.segments = []

    def __call__(self, rule, channel, users):
        priced = priced_users(rule, channel, users)
        want = [replace(u, lam=self.c * len(users)) for u in users]
        assert rule == self.rule and priced == want
        self.segments.append((channel, want))
        return priced


@st.composite
def runs_with_arrivals(draw):
    """1-3 stations, 2-8 users from a drawn state, and 0-2 arrivals."""
    channel, users, state = draw(networks(max_users=8, max_stations=3, min_users=2))
    events = []
    for iteration in sorted(draw(st.lists(st.integers(1, 12), max_size=2))):
        distances = [draw(st.floats(50.0, 600.0)) for _ in range(channel.n_stations)]
        events.append(Arrival(iteration, distances, UserParams(alpha2=draw(st.floats(5.0, 30.0)))))
    return channel, users, state, events


def run_priced(
    run, policy, schedule, rate_set=None, quantize=False, metric=METRIC_RELATIVE, iterations=60
):
    channel, users, state, events = run
    pricing = CountPricing()
    config = ConvergenceConfig(
        max_iterations=iterations,
        metric=metric,
        policy=policy,
        schedule=schedule,
        rate_set=rate_set,
        quantize_at_convergence=quantize,
        history=HISTORY_FULL,
    )
    with mock.patch.object(engine, "priced_users", pricing):
        trace = iterate_to_convergence(
            channel,
            starting_at(users, state.powers, state.rates),
            config,
            initial_assignment=state.assignment,
            arrivals=events,
            pricing=pricing.rule,
        )
    return trace, pricing.segments


SCHEDULES = st.sampled_from([SYNCHRONOUS, SEQUENTIAL])


class TestSegmentRecords:
    @settings(max_examples=150, deadline=None)
    @given(runs_with_arrivals(), POLICIES, SCHEDULES, st.sampled_from([None, False, True]))
    def test_every_record_equals_make_record_on_its_row(self, run, policy, schedule, ladder):
        # ladder: None runs without a rate ladder; False quantizes every
        # iteration and True only the converged record.
        rate_set = None if ladder is None else LADDER
        trace, segments = run_priced(run, policy, schedule, rate_set, bool(ladder))
        # Segment k starts at its arrival iteration; arrivals at one iteration
        # share a segment, and one at iteration 1 leaves segment 0 empty.
        starts = [1] + sorted({ev.iteration for ev in run[3]})
        assert len(segments) == len(starts)
        # The trace holds one segment per network played, in order.
        assert [int(seg.iterations[0]) for seg in trace.segments] == sorted(set(starts))
        for seg in trace.segments:
            shape = (len(seg.iterations), len(seg.powers[0]))
            for name in RECORD_FIELDS:
                assert getattr(seg, name).shape == shape, name
            assert seg.metrics.shape == shape[:1] and seg.step == 1
        assert [rec.iteration for rec in rows(trace)] == list(range(1, trace.iterations_used + 1))
        for rec in rows(trace):
            channel, users = segments[bisect.bisect_right(starts, rec.iteration) - 1]
            assert len(rec.powers) == channel.n_users == len(users)
            want = make_record(
                channel, users, rec.assignment, rec.powers, rec.rates, rec.iteration, rec.metric
            )
            for name in RECORD_FIELDS:
                assert np.array_equal(getattr(rec, name), getattr(want, name)), name
            assert (rec.step, rec.metric) == (1, want.metric)

    @settings(max_examples=50, deadline=None)
    @given(runs_with_arrivals(), POLICIES, SCHEDULES)
    def test_records_share_no_memory(self, run, policy, schedule):
        trace, _ = run_priced(run, policy, schedule)
        # Write a distinct value through every array of every record; if any
        # two arrays overlapped, a later write would show in an earlier one.
        for k, rec in enumerate(rows(trace)):
            for f, name in enumerate(RECORD_FIELDS):
                getattr(rec, name)[...] = k * len(RECORD_FIELDS) + f
        for k, rec in enumerate(rows(trace)):
            for f, name in enumerate(RECORD_FIELDS):
                assert (getattr(rec, name) == k * len(RECORD_FIELDS) + f).all()

    @settings(max_examples=50, deadline=None)
    @given(runs_with_arrivals(), POLICIES, SCHEDULES, st.sampled_from([None, False, True]))
    def test_records_survive_the_run_continuing(self, run, policy, schedule, ladder):
        # A run cut at iteration k has its records copied; the same run carried
        # on must hold them unchanged, so no iteration writes into the state
        # an earlier record shows.
        # Cuts come after the last arrival, so the cut run plays the same events.
        rate_set = None if ladder is None else LADDER
        trace, _ = run_priced(run, policy, schedule, rate_set, bool(ladder))
        used = trace.iterations_used
        last_arrival = max((ev.iteration for ev in run[3]), default=1)
        for k in sorted(k for k in {1, used // 2, used - 1, used} if k >= last_arrival):
            short, _ = run_priced(run, policy, schedule, rate_set, bool(ladder), iterations=k)
            before = copy.deepcopy(rows(short))
            assert len(before) == k
            for want, got in zip(before, rows(trace)):
                for name in RECORD_FIELDS:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert (got.iteration, got.metric) == (want.iteration, want.metric)

    def test_make_record_copies_its_inputs(self):
        channel = ChannelModel([110, 130])
        powers, rates = np.array([0.1, 0.2]), np.array([1e3, 2e3])
        record = make_record(channel, [UserParams()] * 2, [0, 0], powers, rates)
        powers[:] = rates[:] = 7.0
        np.testing.assert_array_equal(record.powers, [0.1, 0.2])
        np.testing.assert_array_equal(record.rates, [1e3, 2e3])

    def test_nonpositive_interference_rejected(self):
        # A lone noise-free user sees no interference at all.
        channel = ChannelModel([110], noise_w=0.0)
        with pytest.raises(ValueError, match="effective interference must be positive"):
            make_record(channel, [UserParams()], [0], np.array([0.1]), np.array([1e3]))


@st.composite
def ladders_and_rates(draw):
    """A ladder and rates at its rungs, an ulp either side of them, between
    them and below the lowest one."""
    ladder = RateSet(tuple(draw(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6))))
    rungs = ladder.rates
    rung = st.sampled_from(rungs)
    near = st.one_of(
        rung,
        rung.map(lambda r: math.nextafter(r, -math.inf)),
        rung.map(lambda r: math.nextafter(r, math.inf)),
        st.floats(0.5 * rungs[0], 2.0 * rungs[-1]),
    )
    return ladder, np.array(draw(st.lists(near, min_size=1, max_size=10)))


class TestRateSnap:
    """``RateSet.snap``, the loop's one-call snap, against ``oracle.rate_floor``, its scalar statement."""

    @settings(max_examples=300, deadline=None)
    @given(ladders_and_rates())
    @example((RateSet((1e3, 1e4)), np.array([1e3, 9999.0, 1e4, 5e4])))
    @example((RateSet((1e3, 1e4)), np.array([1e3, 9999.0, 1e4, 5e4, math.nextafter(1e3, 0.0)])))
    def test_equals_floor_rate_by_rate(self, drawn):
        ladder, rates = drawn
        below = rates < ladder.rates[0]
        if not below.any():
            want = np.array([rate_floor(ladder, r) for r in rates])
            np.testing.assert_array_equal(ladder.snap(rates), want)
            return
        # The first rate below the ladder raises, with rate_floor's message.
        with pytest.raises(NoFeasibleRateError) as oracle:
            rate_floor(ladder, rates[below.argmax()])
        with pytest.raises(NoFeasibleRateError) as got:
            ladder.snap(rates)
        assert str(got.value) == str(oracle.value)


class TestInlineMetric:
    @settings(max_examples=100, deadline=None)
    @given(
        runs_with_arrivals(),
        POLICIES,
        SCHEDULES,
        st.sampled_from([METRIC_RELATIVE, METRIC_ABSOLUTE]),
        st.booleans(),
    )
    def test_every_metric_equals_convergence_metric(self, run, policy, schedule, kind, ladder):
        trace, _ = run_priced(run, policy, schedule, LADDER if ladder else None, metric=kind)
        _, _, state, events = run
        powers, rates = state.powers, state.rates
        for rec in rows(trace):
            # An arrival joins the previous state at its initial strategy.
            for ev in events:
                if ev.iteration == rec.iteration:
                    powers = np.append(powers, ev.user.initial_power)
                    rates = np.append(rates, ev.user.initial_rate)
            assert rec.metric == convergence_metric(powers, rates, rec.powers, rec.rates, kind)
            powers, rates = rec.powers, rec.rates

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-40.0, 5.0).map(lambda e: 10.0**e), min_size=n, max_size=n)
                | st.just([1.0] * n),
                min_size=4,
                max_size=4,
            )
        ),
        st.sampled_from([METRIC_RELATIVE, METRIC_ABSOLUTE]),
    )
    def test_stacked_metric_equals_convergence_metric(self, vectors, kind):
        # Values from 1e-40 up reach below the metric's 1e-30 floor, and a
        # repeated vector gives steps of exactly 0.
        prev_p, prev_r, p, r = (np.array(v) for v in vectors)
        (stacked,) = _step_metric(np.array([prev_p, prev_r]), np.array([p, r]), kind)
        assert stacked == convergence_metric(prev_p, prev_r, p, r, kind)

    @pytest.mark.parametrize(
        "vectors",
        [
            ([1.0, 2.0], [1.0], [1.0, 2.0], [1.0, 2.0]),
            ([1.0], [1.0], [1.0], [1.0, 2.0]),
            ([[1.0]], [[1.0]], [[1.0]], [[1.0]]),
        ],
    )
    def test_public_metric_checks_its_vectors(self, vectors):
        with pytest.raises(ValueError, match="four vectors of one length"):
            convergence_metric(*vectors)
