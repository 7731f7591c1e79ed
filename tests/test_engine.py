import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import rows, starting_at
from ratepower import engine
from ratepower.core import ChannelModel, Strategy, UserParams, UserTable
from ratepower.engine import (
    CLAMP,
    HISTORY_FULL,
    HISTORY_LAST,
    KKT,
    METRIC_ABSOLUTE,
    METRIC_RELATIVE,
    SEQUENTIAL,
    ConvergenceConfig,
    bounded_step,
    iterate_to_convergence,
)
from ratepower.oracle import (
    convergence_metric,
    njrpcg_equilibrium,
    power_update_map,
    power_update_rate_bounded,
    rate_update_power_bounded,
    symmetric_fixed_point,
    target_sinr,
    unconstrained_best_response,
)
from ratepower.scenario import ArrivalEvent

RATIO_12_9 = 1.29492e-5  # alpha2 / alpha1 giving a 12.9492 target at 1 MHz


def positive_root(a, b, c):
    """Independent quadratic oracle for a x**2 + b x + c = 0."""
    roots = np.roots([a, b, c])
    real = roots[np.isreal(roots)].real
    positive = real[real > 0]
    assert positive.size == 1
    return float(positive[0])


def equidistant_channel(n_users, d=110.0, noise_w=5e-15):
    return ChannelModel([d] * n_users, noise_w=noise_w)


def one_step(channel, users, powers, rates):
    """Powers and rates after one synchronous clamp iteration from (powers, rates)."""
    config = ConvergenceConfig(max_iterations=1)
    trace = iterate_to_convergence(channel, starting_at(users, powers, rates), config=config)
    return trace.final_powers, trace.final_rates


def table3_user(lam=4e-4):
    return UserParams(alpha2=12.9492, lam=lam, p_max=0.0647, r_max=96000.0)


def table3_users(n_users, lam=4e-4):
    return UserTable.from_users([table3_user(lam)] * n_users)


class TestNjrpcgEquilibrium:
    def test_single_user_box_corner(self):
        u = UserParams(p_min=1e-6, p_max=3.0, r_min=0.1, r_max=47000.0)
        assert njrpcg_equilibrium([u]) == [Strategy(3.0, 47000.0)]

    def test_distinct_boxes_and_parameter_independence(self):
        users = [
            UserParams(p_max=1.0, r_max=1000.0, lam=1e-5, alpha2=20),
            UserParams(p_max=2.0, r_max=2000.0, lam=1e-2, alpha2=5),
        ]
        eq = njrpcg_equilibrium(users)
        assert eq == [Strategy(1.0, 1000.0), Strategy(2.0, 2000.0)]


class TestUnconstrainedBestResponse:
    def test_reference_power(self):
        s = unconstrained_best_response(1.0221, 1e6, 20.0, 1e-5)
        assert s.power == pytest.approx(1.011, rel=1e-3)

    def test_reference_pair(self):
        s = unconstrained_best_response(0.2590, 1e6, 1e6 * RATIO_12_9, 4e-4)
        assert s.power == pytest.approx(0.0647, rel=1e-3)
        assert s.rate == pytest.approx(19306.0, rel=1e-3)

    def test_ratio_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a1 = rng.uniform(1e4, 1e7)
            a2 = rng.uniform(0.1, 100)
            lam = rng.uniform(1e-7, 1e-1)
            r_eff = rng.uniform(1e-4, 1e3)
            s = unconstrained_best_response(r_eff, a1, a2, lam)
            assert s.power / (s.rate * r_eff) == pytest.approx(a2 / a1, rel=1e-12)

    def test_rejects_nonpositive_interference(self):
        with pytest.raises(ValueError):
            unconstrained_best_response(0.0, 1e6, 20, 1e-5)


class TestBoundaryRoots:
    def test_power_root_matches_quadratic_oracle(self):
        r_eff, r_b, a1, a2, lam = 1.0221, 47000.0, 1e6, 20.0, 1e-5
        got = power_update_rate_bounded(r_eff, r_b, a1, a2, lam)
        oracle = positive_root(a1 * lam, a2 * lam * r_eff * r_b, -a2 * r_eff)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.0279, rel=1e-4)

    def test_power_root_zero_rate_bound_degenerates(self):
        r_eff, a1, a2, lam = 2.5, 1e6, 20.0, 1e-5
        got = power_update_rate_bounded(r_eff, 0.0, a1, a2, lam)
        assert got == pytest.approx(np.sqrt(a2 * r_eff / (a1 * lam)), rel=1e-12)

    def test_power_root_at_interior_rate_returns_interior_power(self):
        r_eff, a1, a2, lam = 0.73, 1e6, 20.0, 1e-5
        s = unconstrained_best_response(r_eff, a1, a2, lam)
        got = power_update_rate_bounded(r_eff, s.rate, a1, a2, lam)
        assert got == pytest.approx(s.power, rel=1e-12)

    def test_rate_root_matches_quadratic_oracle(self):
        r_eff, p_b, a1, a2, lam = 0.3235, 0.0647, 1e6, 12.9492, 4e-4
        got = rate_update_power_bounded(r_eff, p_b, a1, a2, lam)
        oracle = positive_root(a2 * lam * r_eff, a1 * lam * p_b, -a1)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(17899.0, rel=1e-3)

    def test_rate_root_zero_power_bound_degenerates(self):
        r_eff, a1, a2, lam = 2.5, 1e6, 20.0, 1e-5
        got = rate_update_power_bounded(r_eff, 0.0, a1, a2, lam)
        assert got == pytest.approx(np.sqrt(a1 / (a2 * lam * r_eff)), rel=1e-12)

    def test_rate_root_at_interior_power_returns_interior_rate(self):
        r_eff, a1, a2, lam = 0.73, 1e6, 20.0, 1e-5
        s = unconstrained_best_response(r_eff, a1, a2, lam)
        got = rate_update_power_bounded(r_eff, s.power, a1, a2, lam)
        assert got == pytest.approx(s.rate, rel=1e-12)


class TestBoundedStep:
    def test_interior_candidate_unchanged_under_both_policies(self):
        user = UserParams(alpha2=20, lam=1e-4)
        r_eff = 0.5
        cand = unconstrained_best_response(r_eff, user.alpha1, user.alpha2, user.lam)
        for policy in (CLAMP, KKT):
            s = bounded_step(user, r_eff, policy)
            assert s.power == pytest.approx(cand.power, rel=1e-12)
            assert s.rate == pytest.approx(cand.rate, rel=1e-12)

    def test_power_capped_clamp_keeps_unconstrained_rate(self):
        # candidate power 4.90 exceeds the 3 W cap; the rate is not recomputed
        user = UserParams(alpha2=20, lam=1e-5, p_max=3.0, r_max=47000.0)
        s = bounded_step(user, 24.0, CLAMP)
        assert s.power == 3.0
        assert s.rate == pytest.approx(np.sqrt(0.5 * (1e6 / 20) / (1e-5 * 24.0)), rel=1e-12)
        assert s.rate == pytest.approx(10205.7, rel=1e-4)

    def test_power_capped_kkt_reoptimizes_rate(self):
        user = UserParams(alpha2=20, lam=1e-5, p_max=3.0, r_max=47000.0)
        s = bounded_step(user, 24.0, KKT)
        assert s.power == 3.0
        oracle = positive_root(20 * 1e-5 * 24.0, 1e6 * 1e-5 * 3.0, -1e6)
        assert s.rate == pytest.approx(oracle, rel=1e-12)
        assert s.rate == pytest.approx(11643.0, rel=1e-3)

    def test_rate_capped_kkt_reoptimizes_power(self):
        user = UserParams(alpha2=20, lam=1e-5, p_max=3.0, r_max=47000.0)
        s = bounded_step(user, 1.0221, KKT)
        assert s.rate == 47000.0
        assert s.power == pytest.approx(
            power_update_rate_bounded(1.0221, 47000.0, 1e6, 20, 1e-5), rel=1e-12
        )

    def test_both_violations_clamp_both(self):
        # a tiny box forces both coordinates out
        user = UserParams(alpha2=20, lam=1e-5, p_min=1e-6, p_max=1e-5, r_min=0.1, r_max=1.0)
        for policy in (CLAMP, KKT):
            s = bounded_step(user, 1.0, policy)
            assert s.power == user.p_max and s.rate == user.r_max

    def test_result_always_inside_box(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            lo_p = rng.uniform(1e-6, 1e-3)
            hi_p = lo_p * rng.uniform(2, 1e3)
            lo_r = rng.uniform(0.1, 10)
            hi_r = lo_r * rng.uniform(2, 1e4)
            user = UserParams(
                alpha2=rng.uniform(1, 50),
                lam=rng.uniform(1e-6, 1e-2),
                p_min=lo_p,
                p_max=hi_p,
                r_min=lo_r,
                r_max=hi_r,
            )
            policy = CLAMP if rng.random() < 0.5 else KKT
            s = bounded_step(user, rng.uniform(1e-4, 1e3), policy)
            assert lo_p <= s.power <= hi_p
            assert lo_r <= s.rate <= hi_r


class TestConvergenceMetric:
    def test_absolute_is_literal_sum(self):
        got = convergence_metric([1.0], [100.0], [1.5], [90.0], METRIC_ABSOLUTE)
        assert got == pytest.approx(10.5)

    def test_relative_normalizes_each_coordinate(self):
        got = convergence_metric([1.0], [100.0], [1.5], [90.0], METRIC_RELATIVE)
        assert got == pytest.approx(0.5 / 1.5 + 10.0 / 90.0)

    def test_max_over_users(self):
        got = convergence_metric([1.0, 1.0], [10.0, 10.0], [1.0, 2.0], [10.0, 10.0], METRIC_ABSOLUTE)
        assert got == pytest.approx(1.0)


class TestIterateToConvergence:
    def test_symmetric_five_user_reference(self):
        channel = equidistant_channel(5)
        trace = iterate_to_convergence(channel, table3_users(5))
        assert trace.converged
        assert trace.final_powers == pytest.approx([0.0647] * 5, rel=5e-3)
        assert trace.final_rates == pytest.approx([19306.0] * 5, rel=5e-3)
        assert trace.final_sinrs == pytest.approx([12.9492] * 5, rel=5e-3)

    def test_single_user_constant_interference_converges_in_one_step(self):
        # gain 1e-10 at unit distance with matching noise pins R_eff at 1
        channel = ChannelModel([1.0], shadowing=1e-10, noise_w=1e-10)
        user = UserParams(alpha2=20, lam=1e-4)
        config = ConvergenceConfig(history=HISTORY_FULL)
        trace = iterate_to_convergence(channel, UserTable.from_users([user]), config)
        expected = unconstrained_best_response(1.0, 1e6, 20, 1e-4)
        assert rows(trace)[0].powers[0] == pytest.approx(expected.power, rel=1e-12)
        assert rows(trace)[0].rates[0] == pytest.approx(expected.rate, rel=1e-12)
        assert trace.converged and trace.iterations_used <= 2

    def test_two_initializations_agree(self):
        channel = equidistant_channel(5)
        users = table3_users(5)
        low = iterate_to_convergence(channel, users)
        corner = starting_at(users, users.p_max, users.r_max)
        high = iterate_to_convergence(channel, corner)
        assert low.converged and high.converged
        assert low.final_powers == pytest.approx(high.final_powers, rel=1e-6)
        assert low.final_rates == pytest.approx(high.final_rates, rel=1e-6)

    def test_sequential_schedule_reaches_same_fixed_point(self):
        channel = ChannelModel([110, 130, 210])
        users = UserTable.from_users([UserParams(alpha2=20, lam=1e-4, r_max=47000.0)] * 3)
        sync = iterate_to_convergence(channel, users)
        seq = iterate_to_convergence(channel, users, ConvergenceConfig(schedule=SEQUENTIAL))
        assert seq.converged
        assert seq.final_powers == pytest.approx(sync.final_powers, rel=1e-6)
        assert seq.final_rates == pytest.approx(sync.final_rates, rel=1e-6)

    def test_absolute_metric_mode(self):
        channel = equidistant_channel(3)
        config = ConvergenceConfig(delta=1e-9, metric=METRIC_ABSOLUTE)
        trace = iterate_to_convergence(channel, table3_users(3), config=config)
        assert trace.converged
        assert trace.final_powers == pytest.approx([0.0324] * 3, rel=5e-3)

    def test_non_convergence_is_flagged_not_raised(self):
        channel = equidistant_channel(5)
        config = ConvergenceConfig(delta=1e-30, max_iterations=5, history=HISTORY_FULL)
        trace = iterate_to_convergence(channel, table3_users(5), config=config)
        assert not trace.converged
        assert trace.iterations_used == 5
        assert len(rows(trace)) == 5  # trace length never exceeds max_iterations
        # Under "last" history the segment keeps every metric but only its
        # last row, which is the full trace's; an earlier row raises.
        last = iterate_to_convergence(channel, table3_users(5), replace(config, history=HISTORY_LAST))
        (seg,) = last.segments
        assert (len(seg.iterations), len(seg.metrics), len(seg.powers)) == (5, 5, 1)
        assert not seg.complete and trace.segments[0].complete
        assert seg.row(-1).iteration == seg.row(4).iteration == 5
        assert np.array_equal(last.final_powers, trace.final_powers)
        for s in (0, 3, -2):
            with pytest.raises(IndexError, match=r"of 5 was dropped: the segment keeps only its last 1$"):
                seg.row(s)
        with pytest.raises(IndexError):
            rows(last)

    def test_non_finite_delta_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ConvergenceConfig(delta=float("nan"))

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("policy", "newton"),
            ("schedule", "random"),
            ("metric", "l2"),
            ("policy", None),
            ("history", "bogus"),
        ],
    )
    def test_config_rejects_an_unknown_choice_when_built(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be one of .*, got {bad!r}$"):
            ConvergenceConfig(**{name: bad})

    def test_quantize_at_convergence_needs_a_rate_set(self):
        # Without a ladder there is nothing to snap onto, so the setting is refused.
        with pytest.raises(ValueError, match="^quantize_at_convergence needs a rate_set$"):
            ConvergenceConfig(quantize_at_convergence=True)

    def test_config_is_frozen(self):
        config = ConvergenceConfig(policy=KKT, schedule=SEQUENTIAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.policy = CLAMP
        # The positional order of the stopping rule is unchanged.
        want = ConvergenceConfig(1e-6, 500, METRIC_RELATIVE, KKT, SEQUENTIAL)
        assert replace(config, delta=1e-6) == want

    # 2.5 used to run 3 iterations, inf never stopped, nan ran none and left
    # an empty trace, and True counted as 1.
    @pytest.mark.parametrize("bad", [2.5, 3.0, math.inf, math.nan, True, False, np.True_, "5", None])
    def test_max_iterations_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            ConvergenceConfig(max_iterations=bad)

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)])
    def test_max_iterations_must_be_at_least_1(self, bad):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            ConvergenceConfig(max_iterations=bad)

    @pytest.mark.parametrize("count", [1, 7, np.int64(7), np.int32(7)])
    def test_integer_max_iterations_accepted_as_int(self, count):
        config = ConvergenceConfig(delta=1e-30, max_iterations=count, history=HISTORY_FULL)
        assert type(config.max_iterations) is int and config.max_iterations == count
        trace = iterate_to_convergence(equidistant_channel(3), table3_users(3), config=config)
        assert trace.iterations_used == len(rows(trace)) == count

    def test_initial_strategy_outside_box_rejected(self):
        # A solve starts at each user's own initial strategy, and a user
        # whose start leaves its box cannot be built.
        with pytest.raises(ValueError, match="p_init 1.0 outside"):
            starting_at(table3_users(2), [1.0, 1.0], [1000.0, 1000.0])
        with pytest.raises(ValueError, match="r_init 1000000.0 outside"):
            starting_at(UserTable(r_max=[47000.0] * 2), [0.1, 0.1], [1e6, 1e6])

    @pytest.mark.parametrize("distances", [[110], [[110, 410]]])
    def test_lone_noise_free_user_rejected_before_iteration_1(self, distances):
        channel = ChannelModel(distances, noise_w=0.0)
        with pytest.raises(ValueError, match="lone user with zero noise"):
            iterate_to_convergence(channel, UserTable.from_users([UserParams()]))

    @pytest.mark.parametrize(
        "override",
        [
            {"initial_assignment": [0]},
            {"initial_assignment": [0.0, 1.0]},
        ],
    )
    def test_initial_state_needs_one_entry_per_user(self, override):
        channel = ChannelModel([[110, 410], [410, 110]])
        with pytest.raises(ValueError):
            iterate_to_convergence(channel, UserTable(alpha2=[20.0, 20.0]), **override)

    def test_trace_carries_its_network(self):
        channel = ChannelModel([110, 130])
        users = UserTable(alpha2=[20.0, 25.0])
        trace = iterate_to_convergence(channel, users)
        assert trace.channel is channel
        assert trace.users == users

    @pytest.mark.parametrize(
        "stations, row, match",
        [
            (1, [130.0, 200.0], "2 distances, network has 1 stations"),
            (2, [130.0], "1 distances, network has 2 stations"),
            (1, [0.0], "positive"),
            (2, [130.0, -5.0], "positive"),
            (1, [np.inf], "finite"),
        ],
    )
    def test_bad_arrival_rejected_before_iteration_1(self, monkeypatch, stations, row, match):
        channel = ChannelModel([[110.0] * stations, [130.0] * stations])
        users = UserTable(alpha2=[20.0, 20.0])
        late = ArrivalEvent(50, "late", np.array(row), UserTable(alpha2=[20.0]))

        def no_sweep(*args):
            raise AssertionError("a sweep ran before the arrival was checked")

        monkeypatch.setattr(engine, "_synchronous_sweep", no_sweep)
        with pytest.raises(ValueError, match=match):
            iterate_to_convergence(channel, users, arrivals=[late])

    def test_arrival_after_max_iterations_rejected_at_entry(self, monkeypatch):
        # It could never fire, so the run could never converge.
        channel = ChannelModel([110.0, 130.0])
        users = UserTable(alpha2=[20.0, 20.0])
        config = ConvergenceConfig(max_iterations=50)
        at_end = ArrivalEvent(50, "last", np.array([150.0]), UserTable(alpha2=[20.0]))
        trace = iterate_to_convergence(channel, users, config=config, arrivals=[at_end])
        assert len(trace.users) == 3 and trace.final_powers.shape == (3,)

        def no_sweep(*args):
            raise AssertionError("a sweep ran before the arrival was checked")

        monkeypatch.setattr(engine, "_synchronous_sweep", no_sweep)
        late = ArrivalEvent(80, "late", np.array([150.0]), UserTable(alpha2=[20.0]))
        with pytest.raises(ValueError, match="iteration 80 comes after max_iterations = 50"):
            iterate_to_convergence(channel, users, config=config, arrivals=[at_end, late])

    @pytest.mark.parametrize("history", [HISTORY_LAST, HISTORY_FULL])
    def test_a_window_plays_whole_past_convergence(self, history):
        # Alone the pair converges well before iteration 80; with an arrival
        # there, delta is not tested until it fires.
        channel = ChannelModel([110.0, 130.0])
        users = UserTable(alpha2=[20.0, 20.0])
        config = ConvergenceConfig(history=history)
        alone = iterate_to_convergence(channel, users, config=config)
        assert alone.converged and alone.iterations_used < 79
        late = ArrivalEvent(80, "late", np.array([150.0]), UserTable(alpha2=[20.0]))
        trace = iterate_to_convergence(channel, users, config=config, arrivals=[late])
        window, rest = trace.segments
        assert list(window.iterations) == list(range(1, 80))
        assert rest.iterations[0] == 80 and trace.converged and trace.iterations_used > 80

    def test_fixed_point_residual_small_at_convergence(self):
        # Table 3's users end at their power cap, where the clamp hides the
        # interference; the three users of two stations end inside their boxes.
        cases = [(equidistant_channel(n), [table3_user()] * n) for n in (5, 6)]
        interior = [UserParams(alpha2=a2, lam=1e-4, r_max=96000.0) for a2 in (20.0, 25.0, 30.0)]
        cases.append((ChannelModel([[110, 410], [130, 390], [390, 130]]), interior))
        for channel, users in cases:
            # The oracle's map takes the scalar users, the solve their table.
            trace = iterate_to_convergence(channel, UserTable.from_users(users))
            assert trace.converged
            clamped = power_update_map(channel, users, clamped=True)
            p = trace.final_powers
            residual = np.max(np.abs(p - clamped(p))) / np.max(np.abs(p))
            assert residual <= 10 * 1e-9

    def test_rate_decoupling_between_users(self):
        # nudging one user's rate leaves everyone else's next update untouched
        channel = ChannelModel([110, 130, 210])
        users = UserTable.from_users([UserParams(alpha2=20, lam=1e-4, r_max=47000.0)] * 3)
        powers = np.array([0.1, 0.2, 0.4])
        rates = np.array([1000.0, 2000.0, 3000.0])
        base_p, base_r = one_step(channel, users, powers, rates)
        for j in range(3):
            bumped = rates.copy()
            bumped[j] *= 7.5
            new_p, new_r = one_step(channel, users, powers, bumped)
            others = [i for i in range(3) if i != j]
            assert np.array_equal(new_p[others], base_p[others])
            assert np.array_equal(new_r[others], base_r[others])

    def test_boundary_sinr_direction(self):
        w = 1e6
        channel = ChannelModel([1.0], shadowing=1e-10, noise_w=1e-10)  # R_eff pinned at 1
        # power forced up to its floor: attained SINR at or above target
        users = UserTable.from_users([UserParams(alpha2=20, lam=1e-4, p_min=0.5, p_max=3.0)])
        for policy in (CLAMP, KKT):
            trace = iterate_to_convergence(channel, users, ConvergenceConfig(policy=policy))
            assert trace.converged
            assert trace.final_powers[0] == pytest.approx(0.5)
            assert trace.final_sinrs[0] >= target_sinr(1e6, 20, w) * (1 - 1e-9)
        # rate forced up to its floor: attained SINR at or below target
        users = UserTable.from_users([UserParams(alpha2=20, lam=1e-4, r_min=30000.0, r_max=96000.0)])
        for policy in (CLAMP, KKT):
            trace = iterate_to_convergence(channel, users, ConvergenceConfig(policy=policy))
            assert trace.converged
            assert trace.final_rates[0] == pytest.approx(30000.0)
            assert trace.final_sinrs[0] <= target_sinr(1e6, 20, w) * (1 + 1e-9)
        # cap-pinned cases from the bounded three-user network: the rate cap
        # buys SINR above target, the power cap leaves its user below target
        channel = ChannelModel([110, 130, 210])
        users = UserTable.from_users([UserParams(alpha2=20, lam=1e-5, p_max=3.0, r_max=47000.0)] * 3)
        for policy in (CLAMP, KKT):
            trace = iterate_to_convergence(channel, users, ConvergenceConfig(policy=policy))
            assert trace.converged
            target = target_sinr(1e6, 20, w)
            assert trace.final_rates[0] == pytest.approx(47000.0)
            assert trace.final_sinrs[0] >= target * (1 - 1e-9)
            assert trace.final_powers[2] == pytest.approx(3.0)
            assert trace.final_sinrs[2] <= target * (1 + 1e-9)

    def test_interior_convergence_hits_targets(self):
        channel = ChannelModel([110, 130, 210])
        users = [
            UserParams(alpha2=a2, lam=1e-4, r_max=96000.0) for a2 in (20.0, 25.0, 30.0)
        ]
        trace = iterate_to_convergence(channel, UserTable.from_users(users))
        targets = [target_sinr(u.alpha1, u.alpha2, channel.bandwidth_hz) for u in users]
        assert trace.final_sinrs == pytest.approx(targets, rel=1e-6)


class TestSymmetricFixedPoint:
    def test_three_user_noise_free_reference(self):
        s = symmetric_fixed_point(3, RATIO_12_9, 4e-4, 0.0, 1e-10)
        assert s.power == pytest.approx(0.0324, rel=1e-3)
        assert s.rate == pytest.approx(38612.0, rel=1e-3)

    def test_ten_user_noisy_reference(self):
        gain = 0.097 / 250.0**4
        s = symmetric_fixed_point(10, RATIO_12_9, 1e-4, 1e-10, gain)
        assert s.power == pytest.approx(0.879, rel=1e-3)
        assert s.rate == pytest.approx(5686.0, rel=1e-3)

    def test_single_user_closed_form(self):
        rho, lam, noise, gain = 2e-5, 1e-4, 1e-10, 1e-10
        s = symmetric_fixed_point(1, rho, lam, noise, gain)
        assert s.power == pytest.approx(np.sqrt(rho * noise / (2 * lam * gain)), rel=1e-12)
        expected = unconstrained_best_response(noise / gain, 1.0, rho, lam)
        assert s.rate == pytest.approx(expected.rate, rel=1e-12)

    def test_matches_iteration_on_symmetric_scenario(self):
        channel = equidistant_channel(4)
        users = table3_users(4)
        trace = iterate_to_convergence(channel, users)
        gain = float(channel.gains[0, 0])
        s = symmetric_fixed_point(4, RATIO_12_9, 4e-4, channel.noise_w, gain)
        assert trace.final_powers == pytest.approx([s.power] * 4, rel=1e-6)
        assert trace.final_rates == pytest.approx([s.rate] * 4, rel=1e-6)

    def test_lone_noise_free_user_rejected(self):
        with pytest.raises(ValueError):
            symmetric_fixed_point(1, 2e-5, 1e-4, 0.0, 1e-10)


class TestStandardFunctionProperties:
    def test_power_map_spot_properties(self):
        rng = np.random.default_rng(23)
        channel = ChannelModel([110, 130, 210])
        users = [UserParams(alpha2=20, lam=1e-4) for _ in range(3)]
        for clamped in (False, True):
            update = power_update_map(channel, users, clamped=clamped)
            for _ in range(100):
                p = rng.uniform(1e-6, 5.0, 3)
                out = update(p)
                assert np.all(out > 0)
                smaller = p * rng.uniform(0.2, 1.0, 3)
                assert np.all(update(smaller) <= out * (1 + 1e-12))
                a = rng.uniform(1.5, 8.0)
                assert np.all(a * out >= update(a * p) * (1 - 1e-12))
