import numpy as np
import pytest

from conftest import starting_at
from ratepower.core import ChannelModel, UserParams, target_sinr
from ratepower.engine import (
    CLAMP,
    SEQUENTIAL,
    ConvergenceConfig,
    bounded_step,
    iterate_to_convergence,
)
from ratepower.oracle import (
    assign_base_station,
    effective_interference_by_station,
    power_update_map,
    unconstrained_best_response,
)


def two_cell_channel(walker_d1=210.0, walker_d2=310.0):
    distances = [
        [110, 410],
        [130, 390],
        [walker_d1, walker_d2],
        [390, 130],
        [410, 110],
    ]
    return ChannelModel(distances)


def five_users():
    return [UserParams(alpha2=20, lam=1e-4, r_max=96000.0) for _ in range(5)]


def one_step(channel, users, powers, rates, assignment):
    """The final record of a one-iteration clamp solve from the given state."""
    config = ConvergenceConfig(max_iterations=1)
    trace = iterate_to_convergence(
        channel, starting_at(users, powers, rates), config, initial_assignment=assignment
    )
    return trace.final


class TestAssignBaseStation:
    def test_single_station(self):
        channel = ChannelModel([110, 130])
        assert assign_base_station(channel, [0.1, 0.1], 0, 0) == 0

    def test_prefers_lower_effective_interference(self):
        channel = two_cell_channel(270.0, 250.0)  # walker closer to station 2
        powers = np.array([0.11, 0.17, 0.5, 0.17, 0.11])
        reffs = effective_interference_by_station(channel, powers, 2)
        assert reffs[1] < reffs[0]
        assert assign_base_station(channel, powers, 2, 0) == 1

    def test_tie_keeps_current_station(self):
        channel = two_cell_channel(260.0, 260.0)
        powers = np.array([0.1, 0.2, 0.5, 0.2, 0.1])  # mirror-symmetric
        assert assign_base_station(channel, powers, 2, 0) == 0
        assert assign_base_station(channel, powers, 2, 1) == 1

    def test_tie_without_current_uses_lowest_index(self):
        channel = ChannelModel([[100, 100]])
        assert assign_base_station(channel, [1.0], 0, None) == 0

    def test_invalid_current_rejected(self):
        channel = two_cell_channel()
        with pytest.raises(ValueError):
            assign_base_station(channel, [0.1] * 5, 0, 7)


class TestMulticellStep:
    def test_single_station_reduces_to_engine_step(self):
        channel = ChannelModel([110, 130, 210])
        users = [UserParams(alpha2=20, lam=1e-4) for _ in range(3)]
        powers = np.array([0.1, 0.2, 0.4])
        rates = np.array([1000.0, 1000.0, 1000.0])
        new = one_step(channel, users, powers, rates, np.zeros(3, dtype=int))
        gains = channel.gains[:, 0]
        for i, user in enumerate(users):
            cross = gains * powers
            r_eff = (cross.sum() - cross[i] + channel.noise_w) / gains[i]
            expected = bounded_step(user, float(r_eff), CLAMP)
            assert new.powers[i] == pytest.approx(expected.power, rel=1e-12)
            assert new.rates[i] == pytest.approx(expected.rate, rel=1e-12)

    def test_chosen_station_minimizes_power_and_maximizes_rate(self):
        rng = np.random.default_rng(31)
        channel = two_cell_channel()
        users = five_users()
        for _ in range(50):
            powers = rng.uniform(1e-4, 2.0, 5)
            for i, user in enumerate(users):
                reffs = effective_interference_by_station(channel, powers, i)
                candidates = [
                    unconstrained_best_response(float(r), user.alpha1, user.alpha2, user.lam)
                    for r in reffs
                ]
                a = assign_base_station(channel, powers, i, 0)
                assert candidates[a].power == pytest.approx(
                    min(c.power for c in candidates), rel=1e-12
                )
                assert candidates[a].rate == pytest.approx(
                    max(c.rate for c in candidates), rel=1e-12
                )

    def test_assignment_optimality_after_step(self):
        channel = two_cell_channel()
        users = five_users()
        powers = np.full(5, 0.2)
        new = one_step(channel, users, powers, np.full(5, 1000.0), np.zeros(5, dtype=int))
        for i in range(5):
            reffs = effective_interference_by_station(channel, powers, i)
            assert reffs[new.assignment[i]] <= reffs.min() * (1 + 1e-9)


class TestNjrpcgpbIterate:
    """The joint assignment + rate/power game (NJRPCG-PB) on two stations."""

    def test_duplicate_stations_match_single_cell(self):
        single = ChannelModel([110, 130, 210])
        duplicated = ChannelModel([[110, 110], [130, 130], [210, 210]])
        users = [UserParams(alpha2=20, lam=1e-4, r_max=96000.0) for _ in range(3)]
        trace_single = iterate_to_convergence(single, users)
        trace_multi = iterate_to_convergence(duplicated, users)
        assert trace_multi.converged
        assert trace_multi.final_powers == pytest.approx(trace_single.final_powers, rel=1e-9)
        assert trace_multi.final_rates == pytest.approx(trace_single.final_rates, rel=1e-9)

    def test_interior_convergence_hits_targets_at_assigned_station(self):
        channel = two_cell_channel()
        users = five_users()
        trace = iterate_to_convergence(channel, users)
        assert trace.converged
        targets = [target_sinr(u.alpha1, u.alpha2, channel.bandwidth_hz) for u in users]
        assert trace.final_sinrs == pytest.approx(targets, rel=1e-6)
        # near users attach to their near station
        assert list(trace.final_assignment[:2]) == [0, 0]
        assert list(trace.final_assignment[3:]) == [1, 1]

    def test_two_initial_assignments_converge_identically(self):
        channel = two_cell_channel()
        users = five_users()
        a = iterate_to_convergence(channel, users)
        b = iterate_to_convergence(channel, users, initial_assignment=np.ones(5, dtype=int))
        assert a.converged and b.converged
        assert a.final_powers == pytest.approx(b.final_powers, rel=1e-6)
        assert a.final_rates == pytest.approx(b.final_rates, rel=1e-6)

    def test_sequential_schedule_agrees(self):
        channel = two_cell_channel()
        users = five_users()
        sync = iterate_to_convergence(channel, users)
        seq = iterate_to_convergence(channel, users, ConvergenceConfig(schedule=SEQUENTIAL))
        assert seq.converged
        assert seq.final_powers == pytest.approx(sync.final_powers, rel=1e-6)

    def test_walker_closer_to_far_station_switches_and_improves(self):
        # step-7 geometry: the walker prefers station 2; by the end of the
        # walk it spends less power and sends faster than at the crossing
        users = five_users()
        at_270 = iterate_to_convergence(two_cell_channel(270.0, 250.0), users)
        at_240 = iterate_to_convergence(two_cell_channel(310.0, 210.0), users)
        assert at_270.final_assignment[2] == 1
        assert at_240.final_assignment[2] == 1
        assert at_240.final_powers[2] < at_270.final_powers[2]
        assert at_240.final_rates[2] > at_270.final_rates[2]

    def test_bad_initial_assignment_rejected(self):
        channel = two_cell_channel()
        users = five_users()
        with pytest.raises(ValueError, match="missing station"):
            iterate_to_convergence(channel, users, initial_assignment=np.full(5, 9))


class TestMinPowerUpdateMap:
    def test_matches_min_over_stations(self):
        channel = two_cell_channel()
        users = five_users()
        update = power_update_map(channel, users)
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = rng.uniform(1e-4, 2.0, 5)
            out = update(p)
            for i, user in enumerate(users):
                reffs = effective_interference_by_station(channel, p, i)
                cands = np.sqrt(0.5 * (user.alpha2 / user.alpha1) * reffs / user.lam)
                assert out[i] == pytest.approx(float(cands.min()), rel=1e-12)

    def test_spot_standard_function_properties(self):
        channel = two_cell_channel()
        users = five_users()
        update = power_update_map(channel, users)
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = rng.uniform(1e-5, 3.0, 5)
            out = update(p)
            assert np.all(out > 0)
            smaller = p * rng.uniform(0.2, 1.0, 5)
            assert np.all(update(smaller) <= out * (1 + 1e-12))
            a = rng.uniform(1.5, 9.0)
            assert np.all(a * out >= update(a * p) * (1 - 1e-12))

    def test_clamped_projects_the_minimum_onto_the_power_box(self):
        channel = two_cell_channel()
        users = [UserParams(alpha2=20, p_max=0.01) for _ in range(5)]
        plain = power_update_map(channel, users)
        clamped = power_update_map(channel, users, clamped=True)
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = rng.uniform(1e-4, 2.0, 5)
            assert np.array_equal(clamped(p), np.clip(plain(p), 1e-6, 0.01))
