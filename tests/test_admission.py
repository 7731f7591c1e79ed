import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratepower.admission import (
    ABOVE_TARGET,
    AT_TARGET,
    AT_TARGET_TOL,
    BELOW_TARGET,
    NotConvergedError,
    _outcomes,
    classify_users,
    escalate_pricing,
    removal_loop,
)
from ratepower.core import ChannelModel, PricingRule, UserParams, UserTable, priced_users
from ratepower.engine import ConvergenceConfig, iterate_to_convergence
from ratepower.oracle import pricing_rule_eval, target_sinr


def table1_setup(lam):
    channel = ChannelModel([110, 130, 210])
    users = UserTable.from_users([UserParams(alpha2=20, lam=lam, p_max=3.0, r_max=47000.0)] * 3)
    return channel, users


def table3_setup(n_users, lam=4e-4):
    channel = ChannelModel([110.0] * n_users)
    users = UserTable.from_users(
        [UserParams(alpha2=12.9492, lam=lam, p_max=0.0647, r_max=96000.0)] * n_users
    )
    return channel, users


class TestPricingRuleEval:
    def test_per_user_count(self):
        rule = PricingRule("per_user_count", c=2e-5)
        assert pricing_rule_eval(rule, 5) == pytest.approx(1e-4)

    def test_direct_and_inverse_gain(self):
        g = 6.6255e-10
        assert pricing_rule_eval(PricingRule("direct_gain", c=1.0), 3, gain=g) == pytest.approx(g)
        assert pricing_rule_eval(PricingRule("inverse_gain", c=1.0), 3, gain=g) == pytest.approx(
            1.0 / g
        )

    def test_target_ratio_rules_and_homogeneity(self):
        rule = PricingRule("target_ratio", c=1.0)
        base = pricing_rule_eval(rule, 5, alpha1=1e6, alpha2=12.9492)
        assert base == pytest.approx(1.29492e-5)
        doubled = pricing_rule_eval(replace(rule, c=2.0), 5, alpha1=1e6, alpha2=12.9492)
        assert doubled == pytest.approx(2 * base, rel=1e-12)
        inverse = pricing_rule_eval(
            PricingRule("inverse_target_ratio", c=1.0), 5, alpha1=1e6, alpha2=12.9492
        )
        assert inverse == pytest.approx(1e6 / 12.9492, rel=1e-12)

    def test_constant(self):
        assert pricing_rule_eval(PricingRule("constant", c=4e-4), 9) == pytest.approx(4e-4)

    def test_gain_rules_rejected_in_multicell(self):
        channel = ChannelModel([[110.0, 300.0]] * 3)
        for kind in ("direct_gain", "inverse_gain"):
            message = f"pricing rule '{kind}' depends on the channel gain and cannot be used"
            with pytest.raises(ValueError, match=message):
                priced_users(PricingRule(kind, c=1.0), channel, UserTable.from_users([UserParams()] * 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PricingRule("quadratic", c=1.0)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PricingRule("constant", c=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            PricingRule("constant", c=1e-4, dc=float("inf"))


class TestClassifyUsers:
    def test_low_pricing_block(self):
        channel, users = table1_setup(1e-5)
        trace = iterate_to_convergence(channel, users)
        outcomes = classify_users(trace, [20.0, 20.0, 20.0])
        assert outcomes == [ABOVE_TARGET, AT_TARGET, BELOW_TARGET]

    def test_high_pricing_block_all_at_target(self):
        channel, users = table1_setup(1e-4)
        trace = iterate_to_convergence(channel, users)
        assert classify_users(trace, [20.0, 20.0, 20.0]) == [AT_TARGET] * 3

    def test_exact_match_is_at_target(self):
        channel, users = table1_setup(1e-4)
        trace = iterate_to_convergence(channel, users)
        assert classify_users(trace, trace.final_sinrs) == [AT_TARGET] * 3

    def test_unconverged_trace_rejected(self):
        channel, users = table1_setup(1e-4)
        trace = iterate_to_convergence(
            channel, users, config=ConvergenceConfig(delta=1e-30, max_iterations=3)
        )
        with pytest.raises(NotConvergedError):
            classify_users(trace, [20.0] * 3)


def looped_outcomes(sinrs, targets):
    """Each user's outcome by a per-user loop, the statement ``_outcomes`` must equal."""
    out = []
    for s, target in zip(sinrs.tolist(), np.asarray(targets, dtype=float).tolist()):
        if s < target * (1.0 - AT_TARGET_TOL):
            out.append(BELOW_TARGET)
        elif s > target * (1.0 + AT_TARGET_TOL):
            out.append(ABOVE_TARGET)
        else:
            out.append(AT_TARGET)
    return out


@st.composite
def band_edges(draw):
    """Targets, and SINRs on the edges of their bands, one ulp either side, NaN or anywhere."""
    targets = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12))
    sinrs = []
    for t in targets:
        edge = t * draw(st.sampled_from([1.0 - AT_TARGET_TOL, 1.0, 1.0 + AT_TARGET_TOL]))
        kind = draw(st.sampled_from(["edge", "below", "above", "nan", "any"]))
        if kind == "edge":
            sinrs.append(edge)
        elif kind == "below":
            sinrs.append(math.nextafter(edge, -math.inf))
        elif kind == "above":
            sinrs.append(math.nextafter(edge, math.inf))
        elif kind == "nan":
            sinrs.append(math.nan)
        else:
            sinrs.append(draw(st.floats(0.0, 2e3)))
    return np.array(sinrs), np.array(targets)


class TestOutcomes:
    @settings(max_examples=400, deadline=None)
    @given(band_edges())
    def test_the_array_pass_equals_the_per_user_loop(self, drawn):
        sinrs, targets = drawn
        got = _outcomes(sinrs, targets)
        assert got == looped_outcomes(sinrs, targets)
        assert all(type(o) is str for o in got)

    def test_a_nan_sinr_is_at_target(self):
        assert _outcomes(np.array([math.nan, 1.0]), [5.0, 5.0]) == [AT_TARGET, BELOW_TARGET]


class TestEscalatePricing:
    def test_six_user_reference(self):
        channel, users = table3_setup(6)
        result = escalate_pricing(channel, users, PricingRule("constant", 4e-4, dc=1e-4))
        assert result.achieved
        assert result.c_final == pytest.approx(5e-4, rel=1e-12)
        assert result.trace.final_rates[0] == pytest.approx(15445.0, rel=5e-3)
        assert result.trace.final_sinrs[0] == pytest.approx(12.9492, rel=5e-3)

    def test_seven_user_reference(self):
        channel, users = table3_setup(7)
        result = escalate_pricing(channel, users, PricingRule("constant", 4e-4, dc=1e-4))
        assert result.achieved
        assert result.c_final == pytest.approx(6e-4, rel=1e-12)
        assert result.trace.final_rates[0] == pytest.approx(12871.0, rel=5e-3)

    def test_already_at_target_returns_initial_coefficient(self):
        channel, users = table3_setup(5)
        result = escalate_pricing(channel, users, PricingRule("constant", 4e-4, dc=1e-4))
        assert result.achieved
        assert result.c_final == pytest.approx(4e-4)
        assert result.tested == [pytest.approx(4e-4)]

    def test_returns_least_passing_coefficient_on_grid(self):
        channel, users = table3_setup(6)
        result = escalate_pricing(channel, users, PricingRule("constant", 4e-4, dc=5e-5))
        assert result.achieved
        # every smaller tested coefficient left someone below target
        for c in result.tested[:-1]:
            assert c < result.c_final

    def test_budget_exhaustion_flags_not_achieved(self):
        channel, users = table3_setup(6)
        result = escalate_pricing(
            channel, users, PricingRule("constant", 4e-4, dc=1e-6), max_steps=3
        )
        assert not result.achieved
        assert len(result.tested) == 3

    # A float used to fail with a TypeError from range().
    @pytest.mark.parametrize(
        "bad, match",
        [
            (2.5, "must be an integer"),
            (3.0, "must be an integer"),
            (math.inf, "must be an integer"),
            (math.nan, "must be an integer"),
            (True, "must be an integer"),
            (0, "must be at least 1"),
            (-2, "must be at least 1"),
        ],
    )
    def test_max_steps_must_be_a_positive_integer(self, bad, match):
        channel, users = table3_setup(6)
        with pytest.raises(ValueError, match=f"max_steps {match}"):
            escalate_pricing(channel, users, PricingRule("constant", 4e-4), max_steps=bad)

    # nan slipped past the positivity checks and failed later as "lam must be
    # finite"; an infinite step did the same through 0 * inf. A non-finite
    # start is a PricingRule coefficient, which the rule itself rejects.
    @pytest.mark.parametrize("name", ["dc"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_or_step_rejected(self, name, bad):
        channel, users = table3_setup(6)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            escalate_pricing(channel, users, PricingRule("constant", 4e-4, **{name: bad}))

    def test_numpy_integer_max_steps_accepted(self):
        channel, users = table3_setup(6)
        result = escalate_pricing(
            channel, users, PricingRule("constant", 4e-4, dc=1e-6), max_steps=np.int64(2)
        )
        assert not result.achieved and len(result.tested) == 2

    def test_default_step_is_quarter_of_start(self):
        channel, users = table3_setup(5)
        result = escalate_pricing(channel, users, PricingRule("constant", 4e-4))
        assert result.achieved  # already fine at rule.c, step default unused beyond that
        assert result.c_final == pytest.approx(4e-4)


class TestRemovalLoop:
    def test_reference_removal_order_and_outcome(self):
        channel, users = table1_setup(1e-5)
        result = removal_loop(channel, users)
        assert result.removed == [2]
        assert result.remaining == [0, 1]
        assert not result.empty_network
        targets = [target_sinr(1e6, 20, channel.bandwidth_hz)] * 2
        outcomes = classify_users(result.trace, targets)
        assert outcomes[0] == ABOVE_TARGET
        assert outcomes[1] == AT_TARGET

    def test_all_at_target_removes_nobody(self):
        channel, users = table1_setup(1e-4)
        result = removal_loop(channel, users)
        assert result.removed == []
        assert result.remaining == [0, 1, 2]

    def test_everyone_below_target_empties_network(self):
        # rate floors force both users below target no matter who remains
        channel = ChannelModel([1.0, 1.0], shadowing=1e-10, noise_w=1e-10)
        users = UserTable(alpha2=20.0, lam=1e-4, r_min=[50000.0] * 2, r_max=96000.0)
        result = removal_loop(channel, users)
        assert result.empty_network
        assert sorted(result.removed) == [0, 1]
        assert result.trace is None

    def test_survivors_use_less_power_and_more_rate(self):
        channel, users = table1_setup(1e-5)
        before = iterate_to_convergence(channel, users)
        result = removal_loop(channel, users)
        after = result.trace
        for pos, original in enumerate(result.remaining):
            assert after.final_powers[pos] <= before.final_powers[original] * (1 + 1e-9)
            assert after.final_rates[pos] >= before.final_rates[original] * (1 - 1e-9)

    def test_terminates_within_user_count_rounds(self):
        channel, users = table1_setup(1e-5)
        result = removal_loop(channel, users)
        assert len(result.removed) <= len(users)
