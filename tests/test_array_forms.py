"""Array fast paths checked against the scalar per-user oracles.

The array forms evaluate the same floating-point operations in the same order
as the scalar functions they replace, so most comparisons here are exact.
The exceptions carry a tolerance fixed from float64: the loop subtracts each
user's own term from a station total where the oracles skip it, the
sequential sweep keeps running per-station totals instead of a fresh
``p @ g`` per user, and ``make_record`` takes its logarithms through numpy
instead of ``math``.

The sweeps are reached through ``iterate_to_convergence``: one iteration from
a given state is one sweep.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratepower.core import (
    ChannelModel,
    Strategy,
    UserParams,
    UserTable,
    effective_interference,
    sinr,
    utility_priced,
)
from ratepower.engine import (
    CLAMP,
    KKT,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    bounded_step,
    bounded_step_array,
    convergence_metric,
    iterate_to_convergence,
    make_record,
    unconstrained_best_response,
)
from ratepower.multicell import (
    TIE_REL_TOL,
    assign_base_station,
    effective_interference_by_station,
)
from ratepower.rates import RateSet

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


def assert_kernel_matches_scalar(users, reffs, policy):
    powers, rates = bounded_step_array(UserTable.from_users(users), np.array(reffs), policy)
    for k, (user, r_eff) in enumerate(zip(users, reffs)):
        s = bounded_step(user, r_eff, policy)
        assert (powers[k], rates[k]) == (s.power, s.rate)


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


class State(NamedTuple):
    powers: np.ndarray
    rates: np.ndarray
    assignment: np.ndarray


@st.composite
def networks(draw, max_users=8, max_stations=4):
    n = draw(st.integers(1, max_users))
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
    trace = iterate_to_convergence(
        channel,
        users,
        policy,
        ConvergenceConfig(max_iterations=1),
        schedule,
        rate_set,
        initial_powers=state.powers,
        initial_rates=state.rates,
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
        r[i] = s.rate if rate_set is None else rate_set.floor(s.rate)
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


# Subtracting a user's own term from its station total, as the loop does,
# loses about eps * total, so the relative error of its effective
# interference is about eps * kappa, kappa = total / (other + noise). No order
# of the sums avoids that where the own term dominates, so comparisons with
# the scalar oracles allow KAPPA_C * eps * max(1, kappa).
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


class TestSequentialSweep:
    @settings(max_examples=150, deadline=None)
    @given(networks(), POLICIES)
    @example(network=OWN_TERM_DOMINATES, policy=CLAMP)
    def test_running_totals_match_recomputed_interference(self, network, policy):
        # Each sweep against the oracle sweep from the same state, so rounding
        # does not compound from one sweep to the next.
        channel, users, state = network
        for _ in range(3):
            got = sweep(channel, users, state, policy, schedule=SEQUENTIAL)
            want = loop_sequential_sweep(channel, users, state, policy)
            np.testing.assert_array_equal(got.assignment, want.assignment)
            k = max(kappa(channel, p, want.assignment) for p in (state.powers, want.powers))
            assert_close_within_kappa(got, want, k)
            state = got


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
        config = ConvergenceConfig(max_iterations=300)
        trace = iterate_to_convergence(
            channel,
            users,
            policy,
            config,
            schedule,
            initial_powers=state.powers,
            initial_rates=state.rates,
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
        record = make_record(
            channel, users, 1, 1, np.arange(len(users)), state.assignment, state.powers, rates, 0.0
        )
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
