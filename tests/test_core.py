import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratepower.core import (
    ChannelModel,
    PricingRule,
    Strategy,
    UserParams,
    UserTable,
)
from ratepower.engine import IterationTrace, iterate_to_convergence
from ratepower.oracle import (
    UtilityParamsBase,
    alpha_ratio_for_target,
    effective_interference,
    path_gain,
    sinr,
    target_sinr,
    unconstrained_best_response,
    utility_base,
    utility_priced,
    utility_priced_gradient,
    utility_priced_hessian,
)
from ratepower.reference import table2_scenario, table3_scenario
from ratepower.scenario import ArrivalEvent


class TestPathGain:
    def test_reference_distances(self):
        # xi / d**eta evaluated directly
        assert path_gain(110, 4, 0.097) == pytest.approx(0.097 / 110**4, rel=1e-12)
        assert path_gain(110, 4, 0.097) == pytest.approx(6.62523e-10, rel=1e-5)
        assert path_gain(210, 4, 0.097) == pytest.approx(4.98764e-11, rel=1e-5)

    @given(st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=1e-6, max_value=10.0))
    def test_zero_exponent_returns_shadowing(self, d, xi):
        assert path_gain(d, 0.0, xi) == pytest.approx(xi)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 4, 0.097)
        with pytest.raises(ValueError):
            path_gain(-5.0, 4, 0.097)


class TestEffectiveInterference:
    def test_single_user_ratio_of_equals(self):
        assert effective_interference([1e-10], [0.5], 0, noise_w=1e-10) == pytest.approx(1.0)

    def test_three_user_reference(self):
        g = [6.6255e-10, 3.3962e-10, 4.9877e-11]
        p = [1.011, 7.7, 3.0]  # the middle power is ignored for i=1
        r_eff = effective_interference(g, p, 1, noise_w=0.0)
        expected = (g[0] * p[0] + g[2] * p[2]) / g[1]
        assert r_eff == pytest.approx(expected, rel=1e-12)
        assert r_eff == pytest.approx(2.413, rel=1e-3)

    def test_own_term_is_skipped_not_subtracted(self):
        # Subtracting the dominant own term from the total would return 0.0.
        assert effective_interference([1, 1], [1.0, 1e-17], 0, 0.0) == 1e-17

    def test_empty_sum_is_zero(self):
        assert effective_interference([1e-9, 1e-9], [0.0, 5.0], 1, noise_w=0.0) == 0.0

    def test_linear_in_each_interferer_power_and_noise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(2, 6)
            g = rng.uniform(1e-12, 1e-8, m)
            p = rng.uniform(0.0, 5.0, m)
            i = int(rng.integers(0, m))
            j = int((i + 1) % m)
            base = effective_interference(g, p, i, noise_w=1e-12)
            # doubling one interferer's power moves R_eff by exactly g_j p_j / g_i
            p2 = p.copy()
            p2[j] *= 2.0
            assert effective_interference(g, p2, i, 1e-12) - base == pytest.approx(
                g[j] * p[j] / g[i], rel=1e-9
            )
            # and R_eff is affine in the noise with slope 1/g_i
            assert effective_interference(g, p, i, 2e-12) - base == pytest.approx(
                1e-12 / g[i], rel=1e-9
            )

    def test_zero_own_gain_rejected(self):
        with pytest.raises(ValueError):
            effective_interference([0.0, 1e-9], [1.0, 1.0], 0)


class TestSinr:
    def test_unit_ratios(self):
        assert sinr(1e6, Strategy(0.2588, 1e6), 0.2588) == pytest.approx(1.0)

    def test_equal_power_reference_row(self):
        got = sinr(1e6, Strategy(0.0647, 19306.0), 0.2588)
        assert got == pytest.approx(12.949, rel=1e-4)

    def test_capped_power_reference_row(self):
        got = sinr(1e6, Strategy(1.0, 3972.0), 24.4703)
        assert got == pytest.approx(10.287, rel=5e-4)

    def test_rejects_zero_effective_interference(self):
        with pytest.raises(ValueError):
            sinr(1e6, Strategy(1.0, 100.0), 0.0)


class TestUtilityBase:
    def test_log_one(self):
        assert utility_base(Strategy(1e-12, 1.0), 1.0, k1=1.0, k2=1e-12) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_unit_value(self):
        got = utility_base(Strategy(1.0, 1.0), 1.0, k1=1.0, k2=math.e - 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_strictly_increasing_in_power_and_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(1e-4, 10)
            r = rng.uniform(1, 1e5)
            r_eff = rng.uniform(1e-3, 100)
            u0 = utility_base(Strategy(p, r), r_eff)
            assert utility_base(Strategy(p * 1.01, r), r_eff) > u0
            assert utility_base(Strategy(p, r * 1.01), r_eff) > u0

    def test_defaults_match_bandwidth_convention(self):
        params = UtilityParamsBase.for_bandwidth(1e6)
        assert params.k1 == 1.0 and params.k2 == 1e6


class TestUtilityPriced:
    def test_zero_pricing_reduces_to_log(self):
        s = Strategy(0.5, 2e4)
        r_eff = 1.7
        expected = math.log(20 * r_eff * s.rate + 1e6 * s.power)
        assert utility_priced(s, r_eff, 1e6, 20, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_pricing(self):
        s = Strategy(0.5, 2e4)
        u1 = utility_priced(s, 1.7, 1e6, 20, 1e-5)
        u2 = utility_priced(s, 1.7, 1e6, 20, 2e-5)
        assert u2 < u1

    def test_gradient_vanishes_at_interior_best_response(self):
        # finite differences around the closed-form response
        r_eff, a1, a2, lam = 1.0221, 1e6, 20.0, 1e-5
        s = unconstrained_best_response(r_eff, a1, a2, lam)

        def u(p, r):
            return utility_priced(Strategy(p, r), r_eff, a1, a2, lam)

        hp, hr = 1e-6 * s.power, 1e-6 * s.rate
        fd_p = (u(s.power + hp, s.rate) - u(s.power - hp, s.rate)) / (2 * hp)
        fd_r = (u(s.power, s.rate + hr) - u(s.power, s.rate - hr)) / (2 * hr)
        scale = abs(u(s.power, s.rate))
        # relative sensitivity of u to a relative nudge of either coordinate
        assert abs(fd_p * s.power) <= 1e-9 * scale
        assert abs(fd_r * s.rate) <= 1e-9 * scale

    def test_hessian_negative_definite_at_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(1e-4, 5)
            r = rng.uniform(10, 1e5)
            r_eff = rng.uniform(1e-3, 50)
            a1 = rng.uniform(1e4, 1e7)
            a2 = rng.uniform(1, 100)
            lam = rng.uniform(1e-6, 1e-2)
            h = utility_priced_hessian(p, r, r_eff, a1, a2, lam)
            assert h[0, 0] < 0 and h[1, 1] < 0
            assert np.linalg.det(h) > 0

    def test_gradient_matches_scaled_stationarity_form(self):
        # the stationarity conditions are the gradient scaled by positive factors
        p, r, r_eff, a1, a2, lam = 0.8, 3e4, 2.3, 1e6, 20.0, 1e-5
        du_dp, du_dr = utility_priced_gradient(p, r, r_eff, a1, a2, lam)
        s = a1 * p + a2 * r_eff * r
        assert du_dp * (a2 / a1) * r_eff == pytest.approx(a2 * r_eff / s - lam * p, rel=1e-12)
        assert du_dr * (a1 / a2) / r_eff == pytest.approx(a1 / s - lam * r, rel=1e-12)


class TestTargets:
    def test_reference_targets(self):
        assert target_sinr(1e6, 20, 1e6) == pytest.approx(20.0)
        assert target_sinr(1e6, 12.9492, 1e6) == pytest.approx(12.9492)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e3, max_value=1e9))
    def test_unit_ratio_gives_bandwidth(self, alpha, w):
        assert target_sinr(alpha, alpha, w) == pytest.approx(w)

    def test_ratio_reference_values(self):
        assert alpha_ratio_for_target(20, 1e6) == pytest.approx(2e-5)
        assert alpha_ratio_for_target(12.9492, 1e6) == pytest.approx(1.29492e-5)

    @given(
        st.floats(min_value=1e-2, max_value=1e4),
        st.floats(min_value=1e-2, max_value=1e4),
        st.floats(min_value=1e3, max_value=1e9),
    )
    def test_round_trip(self, a1, a2, w):
        assert alpha_ratio_for_target(target_sinr(a1, a2, w), w) == pytest.approx(
            a2 / a1, rel=1e-12
        )

    def test_sinr_equals_target_at_interior_best_response(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a1 = rng.uniform(1e4, 1e7)
            a2 = rng.uniform(1, 100)
            lam = rng.uniform(1e-6, 1e-2)
            r_eff = rng.uniform(1e-3, 100)
            w = rng.uniform(1e5, 1e7)
            s = unconstrained_best_response(r_eff, a1, a2, lam)
            assert sinr(w, s, r_eff) == pytest.approx(target_sinr(a1, a2, w), rel=1e-12)


class TestChannelModel:
    def test_one_dimensional_distances_become_single_station(self):
        ch = ChannelModel([110, 130, 210])
        assert ch.n_users == 3 and ch.n_stations == 1
        assert ch.gains[0, 0] == pytest.approx(path_gain(110, 4, 0.097))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel([110, -1])
        with pytest.raises(ValueError):
            ChannelModel([110], pathloss_exponent=0)
        with pytest.raises(ValueError):
            ChannelModel([110], shadowing=-0.1)
        with pytest.raises(ValueError):
            ChannelModel([110], noise_w=-1e-15)
        with pytest.raises(ValueError):
            ChannelModel([110], bandwidth_hz=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_w": math.nan},
            {"bandwidth_hz": math.nan},
            {"bandwidth_hz": math.inf},
            {"shadowing": math.inf},
            {"pathloss_exponent": math.nan},
        ],
    )
    def test_non_finite_constants_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ChannelModel([110], **kwargs)

    def test_gains_computed_once_and_read_only(self):
        ch = ChannelModel([[110, 410], [130, 390]], pathloss_exponent=3.5)
        assert ch.gains is ch.gains
        np.testing.assert_array_equal(ch.gains, 0.097 / ch.distances_m**3.5)
        with pytest.raises(ValueError):
            ch.gains[0, 0] = 1.0
        with pytest.raises(ValueError):
            ch.distances_m[0, 0] = 1.0

    def test_subset_and_with_user_and_moved(self):
        ch = ChannelModel([[110, 410], [130, 390]])
        sub = ch.subset([1])
        assert sub.n_users == 1 and sub.distances_m[0, 0] == 130
        grown = ch.with_user([210, 310])
        assert grown.n_users == 3
        moved = ch.moved(0, [120, 400])
        assert moved.distances_m[0, 0] == 120 and ch.distances_m[0, 0] == 110
        assert ch.moved(np.int64(1), [120, 400]).distances_m[1, 0] == 120
        assert ch.subset(np.array([1, 0])).distances_m[0, 0] == 130

    # -1 used to move or keep the last user, 2 raised IndexError and 1.0 was cast.
    @pytest.mark.parametrize("bad", [-1, 2, 1.0, True, "0", None])
    def test_moved_and_subset_refuse_a_bad_user_index(self, bad):
        ch = ChannelModel([[110, 410], [130, 390]])
        with pytest.raises(ValueError, match="^user index "):
            ch.moved(bad, [120, 400])
        with pytest.raises(ValueError, match="^user index "):
            ch.subset([0, bad])


class TestUserParams:
    def test_defaults_and_initial_strategy(self):
        u = UserParams()
        assert u.initial_power == u.p_min and u.initial_rate == u.r_min
        u2 = UserParams(p_init=0.5, r_init=100.0)
        assert u2.initial_power == 0.5 and u2.initial_rate == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UserParams(alpha1=-1)
        with pytest.raises(ValueError):
            UserParams(lam=0)
        with pytest.raises(ValueError):
            UserParams(p_min=0.5, p_max=0.1)
        with pytest.raises(ValueError):
            UserParams(p_init=10.0)  # above default p_max
        with pytest.raises(ValueError):
            UserParams(r_init=0.01)  # below default r_min

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha1": math.nan},
            {"alpha2": math.nan},
            {"lam": math.inf},
            {"p_max": math.inf},
            {"r_max": math.inf},
            {"p_init": math.nan},
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            UserParams(**kwargs)

    def test_strategy_positivity(self):
        with pytest.raises(ValueError):
            Strategy(0.0, 100.0)
        with pytest.raises(ValueError):
            Strategy(1.0, -5.0)


# Refusals that no shipped input reaches, each with its full message.
REFUSALS = {
    "escalation_step": (lambda: PricingRule(dc=0.0), "escalation step dc must be positive"),
    "no_distances": (
        lambda: ChannelModel(np.empty((0, 2))),
        "distances_m must be a non-empty users x stations matrix",
    ),
    "move_distance_count": (
        lambda: ChannelModel([110.0, 130.0]).moved(0, [1.0, 2.0]),
        "move has 2 distances, network has 1 stations",
    ),
    "arrival_at_iteration_0": (
        lambda: iterate_to_convergence(
            ChannelModel([110.0]),
            UserTable(alpha2=[20.0]),
            arrivals=[ArrivalEvent(0, "late", np.array([130.0]), UserTable(alpha2=[20.0]))],
        ),
        "arrival iterations must be at least 1",
    ),
    # A channel has a row, so a solve of no users fails the row count.
    "no_users": (
        lambda: iterate_to_convergence(ChannelModel([110.0]), UserTable.from_users([])),
        "0 users but channel has 1 rows",
    ),
    "empty_trace": (lambda: IterationTrace([], True, 0).final, "trace is empty"),
    "table2_variant": (lambda: table2_scenario(3), "variant must be 1 or 2"),
    "table3_users": (lambda: table3_scenario(0), "need at least one user"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refusal_keeps_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
