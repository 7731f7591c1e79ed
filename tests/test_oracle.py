import math

import numpy as np
import pytest

from ratepower.core import ChannelModel, UserParams
from ratepower.oracle import (
    fd_gradient_check,
    grid_best_response,
    power_update_map,
    rate_update_power_bounded,
    standard_function_check,
    unconstrained_best_response,
    utility_priced_hessian,
)


def cell_ratio(lo, hi, n):
    return (hi / lo) ** (1.0 / (n - 1))


def assert_within_one_cell(got, expected, lo, hi, n):
    cell = math.log(cell_ratio(lo, hi, n))
    assert abs(math.log(got / expected)) <= cell * (1 + 1e-9)


class TestGridBestResponse:
    def test_matches_closed_form_on_reference_instance(self):
        r_eff, a1, a2, lam = 0.2590, 1e6, 12.9492, 4e-4
        n = 160
        p_bounds, r_bounds = (1e-3, 1.0), (1e3, 1e5)
        got = grid_best_response(r_eff, a1, a2, lam, p_bounds, r_bounds, n)
        expected = unconstrained_best_response(r_eff, a1, a2, lam)
        assert_within_one_cell(got.power, expected.power, *p_bounds, n)
        assert_within_one_cell(got.rate, expected.rate, *r_bounds, n)
        # and the closed form sits on the reference row
        assert expected.power == pytest.approx(0.0647, rel=1e-3)
        assert expected.rate == pytest.approx(19306.0, rel=1e-3)

    def test_huge_pricing_drives_argmax_to_lower_corner(self):
        got = grid_best_response(1.0, 1e6, 20.0, 1e6, (1e-4, 1.0), (1.0, 1e4), 120)
        assert got.power == pytest.approx(1e-4, rel=1e-12)
        assert got.rate == pytest.approx(1.0, rel=1e-12)

    def test_box_excluding_optimum_lands_on_near_edge(self):
        r_eff, a1, a2, lam = 1.0, 1e6, 20.0, 1e-5
        interior = unconstrained_best_response(r_eff, a1, a2, lam)
        hi = interior.power * 0.5  # whole box below the interior optimum
        got = grid_best_response(r_eff, a1, a2, lam, (hi / 100, hi), (1e3, 1e5), 120)
        assert got.power == pytest.approx(hi, rel=1e-12)

    def test_grid_resolution_floor_enforced(self):
        with pytest.raises(ValueError):
            grid_best_response(1.0, 1e6, 20, 1e-5, (1e-3, 1.0), (1e3, 1e5), 50)

    def test_single_bound_instance_matches_kkt_root(self):
        # power cap below the interior optimum: best rate is the quadratic root
        r_eff, a1, a2, lam = 2.0, 1e6, 20.0, 1e-5
        interior = unconstrained_best_response(r_eff, a1, a2, lam)
        p_cap = interior.power * 0.6
        r_root = rate_update_power_bounded(r_eff, p_cap, a1, a2, lam)
        n = 160
        p_bounds = (p_cap / 16, p_cap)
        r_bounds = (r_root / 4, r_root * 4)
        got = grid_best_response(r_eff, a1, a2, lam, p_bounds, r_bounds, n)
        assert got.power == pytest.approx(p_cap, rel=1e-12)
        assert_within_one_cell(got.rate, r_root, *r_bounds, n)


class TestFiniteDifferences:
    def test_random_interior_points_agree(self):
        from conftest import sample_calculus_point

        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            worst = max(worst, fd_gradient_check(*sample_calculus_point(rng)))
        assert worst <= 1e-5

    def test_hessian_signs_at_random_points(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            h = utility_priced_hessian(
                rng.uniform(1e-3, 5.0),
                rng.uniform(100.0, 1e5),
                rng.uniform(1e-2, 50.0),
                rng.uniform(1e4, 1e7),
                rng.uniform(1.0, 100.0),
                rng.uniform(1e-6, 1e-2),
            )
            assert h[0, 0] < 0 and h[1, 1] < 0
            assert np.linalg.det(h) > 0


class TestStandardFunctionCheck:
    def test_constant_map_passes(self):
        report = standard_function_check(
            lambda p: np.ones_like(np.asarray(p, dtype=float)),
            np.random.default_rng(1).uniform(0.1, 10.0, size=(200, 4)),
        )
        assert report.ok
        assert report.n_samples == 200

    def test_detects_scalability_violation(self):
        # componentwise square grows faster than linearly
        report = standard_function_check(
            lambda p: np.asarray(p, dtype=float) ** 2 + 1.0,
            np.random.default_rng(2).uniform(0.5, 5.0, size=(100, 3)),
        )
        assert not report.ok
        assert any(c["property"] == "scalability" for c in report.counterexamples)

    def test_detects_positivity_violation(self):
        report = standard_function_check(
            lambda p: np.asarray(p, dtype=float) - 100.0,
            np.random.default_rng(3).uniform(0.1, 1.0, size=(10, 2)),
        )
        assert not report.ok
        assert any(c["property"] == "positivity" for c in report.counterexamples)

    def test_single_cell_power_map_clean(self):
        channel = ChannelModel([110, 130, 210])
        users = [UserParams(alpha2=20, lam=1e-4) for _ in range(3)]
        samples = np.random.default_rng(5).uniform(1e-6, 5.0, size=(300, 3))
        report = standard_function_check(power_update_map(channel, users), samples)
        assert report.ok
