import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import starting_at
from ratepower.core import ChannelModel, UserParams, target_sinr
from ratepower.engine import ConvergenceConfig, iterate_to_convergence
from ratepower.rates import NoFeasibleRateError, RateSet

LADDER = RateSet((9600.0, 19200.0, 38400.0))


class TestQuantizeDown:
    def test_nearest_lower(self):
        assert LADDER.floor(19306.0) == 19200.0

    def test_member_maps_to_itself(self):
        assert LADDER.floor(19200.0) == 19200.0

    def test_below_minimum_raises(self):
        with pytest.raises(NoFeasibleRateError):
            LADDER.floor(9599.0)

    @given(st.floats(min_value=9600.0, max_value=1e6, allow_nan=False))
    def test_never_exceeds_and_idempotent(self, rate):
        q = LADDER.floor(rate)
        assert q <= rate
        assert q in LADDER.rates
        assert LADDER.floor(q) == q

    def test_rate_set_normalizes_and_validates(self):
        rs = RateSet((38400.0, 9600.0, 9600.0, 19200.0))
        assert rs.rates == (9600.0, 19200.0, 38400.0)
        with pytest.raises(ValueError):
            RateSet(())
        with pytest.raises(ValueError):
            RateSet((0.0, 100.0))
        with pytest.raises(ValueError):
            RateSet((9600.0, float("inf")))
        with pytest.raises(ValueError):
            RateSet((float("nan"), 9600.0))


class TestQuantizedRuns:
    def test_quantized_run_holds_target_from_above(self):
        channel = ChannelModel([110.0] * 5)
        users = [
            UserParams(alpha2=12.9492, lam=4e-4, p_max=0.0647, r_max=96000.0)
            for _ in range(5)
        ]
        trace = iterate_to_convergence(channel, users, ConvergenceConfig(rate_set=LADDER))
        assert trace.converged
        assert np.all(trace.final_rates == 19200.0)
        target = target_sinr(1e6, 12.9492, channel.bandwidth_hz)
        assert np.all(trace.final_sinrs >= target * (1 - 1e-6))

    def test_quantization_mode_does_not_change_powers(self):
        channel = ChannelModel([110, 130, 210])
        users = [UserParams(alpha2=20, lam=1e-4, r_max=96000.0) for _ in range(3)]
        per_iter = iterate_to_convergence(channel, users, ConvergenceConfig(rate_set=LADDER))
        at_end = iterate_to_convergence(
            channel, users, ConvergenceConfig(rate_set=LADDER, quantize_at_convergence=True)
        )
        assert per_iter.converged and at_end.converged
        assert per_iter.final_powers == pytest.approx(at_end.final_powers, rel=1e-8)
        assert np.array_equal(per_iter.final_rates, at_end.final_rates)

    def test_quantizing_one_user_leaves_other_updates_unchanged(self):
        # user 0's rate never enters anyone's effective interference, so
        # quantizing it cannot move the other users' next steps
        channel = ChannelModel([110, 130, 210])
        users = [UserParams(alpha2=20, lam=1e-4, r_max=96000.0) for _ in range(3)]
        powers = np.array([0.1, 0.2, 0.4])
        rates = np.array([11111.0, 22222.0, 33333.0])

        def one_step(rates):
            config = ConvergenceConfig(max_iterations=1)
            trace = iterate_to_convergence(channel, starting_at(users, powers, rates), config)
            return trace.final_powers, trace.final_rates

        base_p, base_r = one_step(rates)
        quantized = rates.copy()
        quantized[0] = LADDER.floor(rates[0])
        new_p, new_r = one_step(quantized)
        assert np.array_equal(new_p[1:], base_p[1:])
        assert np.array_equal(new_r[1:], base_r[1:])
