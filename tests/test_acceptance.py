"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import math

import numpy as np
import pytest

from conftest import sample_calculus_point, starting_at
from ratepower.admission import escalate_pricing
from ratepower.core import ChannelModel, PricingRule, RateSet, UserParams, UserTable
from ratepower.engine import KKT, ConvergenceConfig, iterate_to_convergence
from ratepower.oracle import (
    fd_gradient_check,
    grid_best_response,
    power_update_map,
    power_update_rate_bounded,
    rate_update_power_bounded,
    standard_function_check,
    target_sinr,
    unconstrained_best_response,
)
from ratepower.reference import (
    FIG2_LAMBDAS,
    REPRODUCE_TARGETS,
    fig1_scenario,
    fig2_scenario,
    fig3_scenario,
    fig4_scenario,
    reproduce,
    table1_scenario,
    table1_removal_scenario,
    table2_scenario,
    table3_scenario,
    table4_scenario,
)
from ratepower.scenario import run_scenario, sweep_lambda


def report(number, text):
    print(f"criterion {number:>2}: PASS  {text}")


def assert_triple(summary, index, p, r, g, tol):
    assert summary.powers[index] == pytest.approx(p, rel=tol)
    assert summary.rates[index] == pytest.approx(r, rel=tol)
    assert summary.sinrs[index] == pytest.approx(g, rel=tol)


def positive_root(a, b, c):
    roots = np.roots([a, b, c])
    real = roots[np.isreal(roots)].real
    positive = real[real > 0]
    assert positive.size == 1
    return float(positive[0])


def random_single_cell(rng):
    m = int(rng.integers(2, 7))
    channel = ChannelModel(
        rng.uniform(60.0, 480.0, size=m), noise_w=float(10 ** rng.uniform(-15.0, -12.0))
    )
    users = [
        UserParams(
            alpha2=float(rng.uniform(5.0, 30.0)),
            lam=float(10 ** rng.uniform(-5.0, -3.0)),
            p_min=1e-7,
            p_max=1e3,
            r_min=1e-3,
            r_max=1e7,
        )
        for _ in range(m)
    ]
    return channel, users


def test_criterion_01_equal_distance_equilibrium():
    _, summary = run_scenario(table2_scenario(2))
    assert summary.converged
    for k in range(5):
        assert_triple(summary, k, 0.0647, 19306.0, 12.9492, 0.005)
    report(1, "five equidistant users at (0.0647 W, 19306 bps, 12.9492) within 0.5%")


def test_criterion_02_mixed_distance_equilibrium():
    scenario = table2_scenario(1)
    _, summary = run_scenario(scenario)
    assert summary.converged
    assert summary.powers[2] == pytest.approx(scenario.users.p_max[2], rel=1e-9)
    expected = [
        (0.0388, 32201.0),
        (0.0569, 21949.0),
        (0.1605, 7787.0),
        (0.0569, 21949.0),
        (0.0782, 15982.0),
    ]
    for k, (p, r) in enumerate(expected):
        assert summary.powers[k] == pytest.approx(p, rel=0.02)
        assert summary.rates[k] == pytest.approx(r, rel=0.02)
    assert float(summary.powers.sum()) == pytest.approx(0.3914, rel=0.02)
    report(2, "mixed-distance block reproduced within 2%, third user pinned at its cap")


def test_criterion_03_interior_rows_by_user_count():
    expected = {3: (0.0324, 38612.0), 4: (0.0486, 25741.0), 5: (0.0647, 19306.0)}
    for m, (p, r) in expected.items():
        _, summary = run_scenario(table3_scenario(m))
        assert summary.converged
        assert_triple(summary, 0, p, r, 12.9492, 0.005)
    report(3, "interior rows for 3, 4 and 5 users within 0.5%")


def test_criterion_04_boundary_rows_both_policies():
    clamp_expected = {6: (17274.0, 11.578), 7: (15769.0, 10.569)}
    for m, (r, g) in clamp_expected.items():
        _, summary = run_scenario(table3_scenario(m))
        assert summary.converged
        assert_triple(summary, 0, 0.0647, r, g, 0.005)

    # under the kkt policy the pinned-power rows land on the stationarity
    # root instead; verified against an independent quadratic solver
    kkt_expected = {6: 17899.0, 7: 16775.0}
    from dataclasses import replace

    for m, r_ref in kkt_expected.items():
        scenario = table3_scenario(m)
        scenario = replace(scenario, config=replace(scenario.config, policy=KKT))
        _, summary = run_scenario(scenario)
        assert summary.converged
        assert summary.powers[0] == pytest.approx(0.0647, rel=0.005)
        gain = float(scenario.channel.gains[0, 0])
        r_eff = (m - 1) * 0.0647 + scenario.channel.noise_w / gain
        oracle = positive_root(
            12.9492 * 4e-4 * r_eff, 1e6 * 4e-4 * 0.0647, -1e6
        )
        assert summary.rates[0] == pytest.approx(oracle, rel=1e-6)
        assert summary.rates[0] == pytest.approx(r_ref, rel=0.005)
    report(4, "pinned rows match under clamp; kkt divergence lands on the quadratic root")


def test_criterion_05_pricing_escalation_rows():
    expected = {6: (5e-4, 15445.0), 7: (6e-4, 12871.0)}
    for m, (c_final, r) in expected.items():
        scenario = table3_scenario(m)
        result = escalate_pricing(
            scenario.channel, scenario.users, PricingRule("constant", 4e-4, dc=1e-4)
        )
        assert result.achieved
        assert result.c_final == pytest.approx(c_final, rel=1e-9)
        assert result.trace.final_rates[0] == pytest.approx(r, rel=0.005)
        assert result.trace.final_sinrs[0] == pytest.approx(12.9492, rel=0.005)
    report(5, "escalation stops at 5e-4 (6 users) and 6e-4 (7 users) with targets met")


def test_criterion_06_ten_user_distance_sweep():
    rows = [
        (50.0, 1e-4, 0.583, 8570.0, 12.9492, 0.01),
        (150.0, 1e-4, 0.635, 8110.0, 12.9492, 0.04),
        (250.0, 1e-4, 0.879, 5686.0, 12.9492, 0.01),
        (350.0, 1e-4, 1.0, 3972.0, 10.287, 0.01),
    ]
    for d, lam, p, r, g, tol in rows:
        _, summary = run_scenario(table4_scenario(d, lam))
        assert summary.converged
        assert_triple(summary, 0, p, r, g, tol)
    _, summary = run_scenario(table4_scenario(350.0, 1.6e-4))
    assert summary.converged
    assert 0.99 <= summary.powers[0] <= 1.0
    assert summary.rates[0] == pytest.approx(3155.0, rel=0.01)
    assert summary.sinrs[0] == pytest.approx(12.9492, rel=0.01)
    report(6, "ten-user rows at 50/150/250/350 m within tolerance (150 m row at 4%)")


def test_criterion_07_bounded_three_user_blocks():
    _, low = run_scenario(table1_scenario(1e-5))
    assert low.converged
    for k, (p, r, g) in enumerate(
        [(1.011, 47000.0, 21.0452), (1.5533, 32189.0, 20.0), (3.0, 10205.0, 12.2458)]
    ):
        assert_triple(low, k, p, r, g, 0.01)

    _, high = run_scenario(table1_scenario(1e-4))
    assert high.converged
    for k, (p, r, g) in enumerate(
        [(0.1127, 44360.0, 20.0), (0.172, 29075.0, 20.0), (0.5166, 9679.0, 20.0)]
    ):
        assert_triple(high, k, p, r, g, 0.01)

    _, after = run_scenario(table1_removal_scenario())
    assert after.converged
    for k, (p, r, g) in enumerate([(0.08, 47000.0, 26.58), (0.125, 40000.0, 20.0)]):
        assert_triple(after, k, p, r, g, 0.01)
    report(7, "low-pricing, escalated and post-removal blocks within 1%")


def test_criterion_08_distinct_targets():
    _, summary = run_scenario(fig1_scenario())
    assert summary.converged
    assert summary.sinrs == pytest.approx([20.0, 25.0, 30.0], rel=1e-4)
    report(8, "converged SINRs hit 20 / 25 / 30 within 1e-4")


def test_criterion_09_arrival_reconvergence():
    _, summary = run_scenario(fig3_scenario())
    assert summary.converged
    assert summary.sinrs == pytest.approx([20.0, 25.0, 30.0, 20.0], rel=1e-4)
    after_arrival = summary.iterations_used - 20
    assert after_arrival <= 30
    report(9, f"all four users back at target {after_arrival} iterations after the arrival")


def test_criterion_10_station_switch_walk():
    _, summary = run_scenario(fig4_scenario())
    assert summary.converged
    stations = [int(sr.assignment[2]) for sr in summary.steps]
    assert stations == [0] * 6 + [1] * 5
    p3 = [float(sr.powers[2]) for sr in summary.steps[6:]]
    r3 = [float(sr.rates[2]) for sr in summary.steps[6:]]
    assert all(b < a for a, b in zip(p3, p3[1:]))
    assert all(b > a for a, b in zip(r3, r3[1:]))
    report(10, "walker holds station 1 through step 6, then improves on station 2")


def test_criterion_11_standard_function_suite():
    rng = np.random.default_rng(101)
    total = {"plain": 0, "clamped": 0, "multicell": 0}
    bad = {"plain": 0, "clamped": 0, "multicell": 0}
    for _ in range(100):
        m = int(rng.integers(2, 8))
        users = [
            UserParams(
                alpha2=float(rng.uniform(1.0, 50.0)), lam=float(10 ** rng.uniform(-6.0, -2.0))
            )
            for _ in range(m)
        ]
        single = ChannelModel(
            rng.uniform(50.0, 600.0, size=m), noise_w=float(10 ** rng.uniform(-16.0, -10.0))
        )
        multi = ChannelModel(
            rng.uniform(50.0, 600.0, size=(m, int(rng.integers(2, 4)))),
            noise_w=float(10 ** rng.uniform(-16.0, -10.0)),
        )
        samples = 10 ** rng.uniform(-6.0, 1.0, size=(10, m))
        for name, update in (
            ("plain", power_update_map(single, users)),
            ("clamped", power_update_map(single, users, clamped=True)),
            ("multicell", power_update_map(multi, users)),
        ):
            result = standard_function_check(update, samples, rng=rng)
            total[name] += result.n_samples
            bad[name] += len(result.counterexamples)
    assert all(n >= 1000 for n in total.values())
    assert all(n == 0 for n in bad.values())
    report(11, f"no counterexamples over {total} samples per map")


def test_criterion_12_grid_oracle_agreement():
    rng = np.random.default_rng(103)
    n = 140

    def one_cell(lo, hi):
        return math.log((hi / lo) ** (1.0 / (n - 1))) * (1 + 1e-9)

    for k in range(50):
        a1 = float(rng.uniform(1e4, 1e7))
        a2 = float(rng.uniform(1.0, 100.0))
        lam = float(10 ** rng.uniform(-6.0, -2.0))
        r_eff = float(10 ** rng.uniform(-2.0, 1.5))
        best = unconstrained_best_response(r_eff, a1, a2, lam)
        case = k % 3
        if case == 0:
            p_bounds = (best.power / 6, best.power * 6)
            r_bounds = (best.rate / 6, best.rate * 6)
            got = grid_best_response(r_eff, a1, a2, lam, p_bounds, r_bounds, n)
            assert abs(math.log(got.power / best.power)) <= one_cell(*p_bounds)
            assert abs(math.log(got.rate / best.rate)) <= one_cell(*r_bounds)
        elif case == 1:
            p_cap = best.power * float(rng.uniform(0.3, 0.8))
            r_root = rate_update_power_bounded(r_eff, p_cap, a1, a2, lam)
            p_bounds = (p_cap / 36, p_cap)
            r_bounds = (r_root / 6, r_root * 6)
            got = grid_best_response(r_eff, a1, a2, lam, p_bounds, r_bounds, n)
            assert got.power == pytest.approx(p_cap, rel=1e-12)
            assert abs(math.log(got.rate / r_root)) <= one_cell(*r_bounds)
        else:
            r_cap = best.rate * float(rng.uniform(0.3, 0.8))
            p_root = power_update_rate_bounded(r_eff, r_cap, a1, a2, lam)
            p_bounds = (p_root / 6, p_root * 6)
            r_bounds = (r_cap / 36, r_cap)
            got = grid_best_response(r_eff, a1, a2, lam, p_bounds, r_bounds, n)
            assert got.rate == pytest.approx(r_cap, rel=1e-12)
            assert abs(math.log(got.power / p_root)) <= one_cell(*p_bounds)
    report(12, "grid argmax within one cell of the closed forms on 50 instances")


def test_criterion_13_calculus_checks():
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, fd_gradient_check(*sample_calculus_point(rng)))
    assert worst <= 1e-5
    report(13, f"gradient and Hessian agree with finite differences (worst {worst:.2e})")


def test_criterion_14_uniqueness_from_two_initializations():
    rng = np.random.default_rng(107)
    for _ in range(20):
        channel, users = random_single_cell(rng)
        users = UserTable.from_users(users)
        a = iterate_to_convergence(channel, users)
        corner = starting_at(users, users.p_max, users.r_max)
        b = iterate_to_convergence(channel, corner)
        assert a.converged and b.converged
        assert a.final_powers == pytest.approx(b.final_powers, rel=1e-6)
        assert a.final_rates == pytest.approx(b.final_rates, rel=1e-6)
    report(14, "20 random networks converge identically from opposite box corners")


def test_criterion_15_pricing_monotonicity():
    results = sweep_lambda(fig2_scenario(), FIG2_LAMBDAS)
    for lam, _, summary in results:
        assert summary.converged, f"lambda {lam} did not converge"
        assert summary.sinrs == pytest.approx([20.0] * 3, rel=1e-6)
    for (_, _, a), (_, _, b) in zip(results, results[1:]):
        assert np.all(b.powers < a.powers)
        assert np.all(b.rates < a.rates)
    first, second = results[0][2], results[1][2]
    dp = first.powers - second.powers
    dr = first.rates - second.rates
    for i in range(3):
        for j in range(3):
            if first.powers[i] > first.powers[j] * (1 + 1e-9):
                assert dp[i] > dp[j]
            if first.rates[i] > first.rates[j] * (1 + 1e-9):
                assert dr[i] > dr[j]
    report(15, "pricing sweep holds targets while strictly shrinking p and r, big users shed more")


def test_criterion_16_discrete_rates_hold_target():
    ladder = RateSet(tuple(10 ** (0.02 * k) for k in range(-100, 351)))
    rng = np.random.default_rng(109)
    for _ in range(20):
        channel, users = random_single_cell(rng)
        config = ConvergenceConfig(rate_set=ladder)
        trace = iterate_to_convergence(channel, UserTable.from_users(users), config)
        assert trace.converged
        targets = np.array(
            [target_sinr(u.alpha1, u.alpha2, channel.bandwidth_hz) for u in users]
        )
        assert np.all(trace.final_sinrs >= targets * (1 - 1e-6))
    report(16, "quantized runs keep every user at or above its target SINR")


def test_reproduce_targets_all_pass():
    for target in REPRODUCE_TARGETS:
        result = reproduce(target)
        assert result.passed, "\n".join(result.lines())
