"""Pricing rules, pricing escalation, outcome classification, and user removal."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ChannelModel, UserParams, _require_finite, target_sinr
from .engine import CLAMP, SYNCHRONOUS, ConvergenceConfig, IterationTrace, iterate_to_convergence

__all__ = [
    "BELOW_TARGET",
    "AT_TARGET",
    "ABOVE_TARGET",
    "PRICING_KINDS",
    "PricingRule",
    "pricing_rule_eval",
    "NotConvergedError",
    "classify_users",
    "EscalationResult",
    "escalate_pricing",
    "RemovalResult",
    "removal_loop",
]

BELOW_TARGET = "below_target"
AT_TARGET = "at_target"
ABOVE_TARGET = "above_target"

PRICING_KINDS = (
    "constant",
    "per_user_count",
    "direct_gain",
    "inverse_gain",
    "target_ratio",
    "inverse_target_ratio",
)

# Gains differ per station, so these rules would make a user's price depend
# on where it is served and break the fixed-point guarantees in multi-cell.
GAIN_DEPENDENT_KINDS = ("direct_gain", "inverse_gain")

DEFAULT_AT_TARGET_TOL = 1e-3


@dataclass(frozen=True)
class PricingRule:
    """How a scalar coefficient c maps to each user's pricing factor."""

    kind: str = "constant"
    c: float = 1e-4
    dc: float | None = None

    def __post_init__(self) -> None:
        _require_finite(c=self.c, dc=self.dc)
        if self.kind not in PRICING_KINDS:
            raise ValueError(f"kind must be one of {PRICING_KINDS}, got {self.kind!r}")
        if self.c <= 0:
            raise ValueError("pricing coefficient c must be positive")
        if self.dc is not None and self.dc <= 0:
            raise ValueError("escalation step dc must be positive")


def pricing_rule_eval(
    rule: PricingRule,
    n_users: int,
    gain: float | None = None,
    alpha1: float | None = None,
    alpha2: float | None = None,
    c: float | None = None,
    multicell: bool = False,
) -> float:
    """Evaluate one user's pricing factor under ``rule`` at coefficient ``c``.

    ``c`` overrides the rule's own coefficient during escalation sweeps.
    Gain-dependent kinds are rejected in multi-cell mode.
    """
    coeff = rule.c if c is None else c
    if coeff <= 0:
        raise ValueError("pricing coefficient must be positive")
    if multicell and rule.kind in GAIN_DEPENDENT_KINDS:
        raise ValueError(
            f"pricing rule {rule.kind!r} depends on the channel gain and cannot "
            "be used with more than one station"
        )
    if rule.kind == "constant":
        return coeff
    if rule.kind == "per_user_count":
        if n_users < 1:
            raise ValueError("n_users must be at least 1")
        return coeff * n_users
    if rule.kind in GAIN_DEPENDENT_KINDS:
        if gain is None or gain <= 0:
            raise ValueError("gain-dependent rules need a positive gain")
        return coeff * gain if rule.kind == "direct_gain" else coeff / gain
    if alpha1 is None or alpha2 is None or alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("target-ratio rules need positive alpha1 and alpha2")
    if rule.kind == "target_ratio":
        return coeff * alpha2 / alpha1
    return coeff * alpha1 / alpha2


class NotConvergedError(RuntimeError):
    """A run that must be classified stopped at max_iterations without converging."""


def classify_users(
    trace: IterationTrace, targets, tolerance: float = DEFAULT_AT_TARGET_TOL
) -> list[str]:
    """Per-user outcome of a converged run, relative to the target SINRs."""
    if not trace.converged:
        raise NotConvergedError(
            f"run did not converge within {trace.iterations_used} iterations; "
            "cannot classify its users (raise max_iterations or delta)"
        )
    t = np.asarray(targets, dtype=float)
    sinrs = trace.final_sinrs
    if t.shape != sinrs.shape:
        raise ValueError("one target per user required")
    out = []
    for s, target in zip(sinrs, t):
        if s < target * (1.0 - tolerance):
            out.append(BELOW_TARGET)
        elif s > target * (1.0 + tolerance):
            out.append(ABOVE_TARGET)
        else:
            out.append(AT_TARGET)
    return out


def priced_users(
    rule: PricingRule,
    channel: ChannelModel,
    users: list[UserParams],
    c: float | None = None,
) -> list[UserParams]:
    """Users with their pricing factor replaced by the rule's value."""
    multicell = channel.n_stations > 1
    gains = None if multicell else channel.gains[:, 0]
    out = []
    for i, u in enumerate(users):
        lam = pricing_rule_eval(
            rule,
            len(users),
            gain=None if gains is None else float(gains[i]),
            alpha1=u.alpha1,
            alpha2=u.alpha2,
            c=c,
            multicell=multicell,
        )
        out.append(replace(u, lam=lam))
    return out


@dataclass
class EscalationResult:
    """Outcome of a pricing escalation sweep.

    ``achieved`` is False when the step budget ran out with some user still
    below target, which signals that removal is the remaining lever.
    """

    c_final: float
    achieved: bool
    trace: IterationTrace
    tested: list[float]
    users: list[UserParams]


def escalate_pricing(
    channel: ChannelModel,
    users: list[UserParams],
    rule: PricingRule | None = None,
    c0: float | None = None,
    dc: float | None = None,
    max_steps: int = 40,
    policy: str = CLAMP,
    config: ConvergenceConfig | None = None,
    schedule: str = SYNCHRONOUS,
    tolerance: float = DEFAULT_AT_TARGET_TOL,
) -> EscalationResult:
    """Raise the pricing coefficient in steps of dc until nobody is below target.

    Runs the game at c0, c0 + dc, ... and stops at the first (hence least)
    tested coefficient whose converged outcome has no below-target user.
    """
    rule = rule if rule is not None else PricingRule()
    start = rule.c if c0 is None else c0
    step = dc if dc is not None else (rule.dc if rule.dc is not None else 0.25 * start)
    if start <= 0:
        raise ValueError("starting coefficient must be positive")
    if step <= 0:
        raise ValueError("escalation step must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")

    targets = [target_sinr(u.alpha1, u.alpha2, channel.bandwidth_hz) for u in users]
    tested: list[float] = []
    trace = None
    priced = users
    for k in range(max_steps):
        c = start + k * step
        priced = priced_users(rule, channel, users, c=c)
        trace = iterate_to_convergence(channel, priced, policy, config, schedule)
        tested.append(c)
        outcomes = classify_users(trace, targets, tolerance)
        if BELOW_TARGET not in outcomes:
            return EscalationResult(c, True, trace, tested, priced)
    return EscalationResult(tested[-1], False, trace, tested, priced)


@dataclass
class RemovalResult:
    """Outcome of the one-by-one removal loop.

    ``removed`` lists original user indices in removal order; ``trace`` is the
    converged run over the surviving users (None when everyone was removed).
    """

    removed: list[int]
    remaining: list[int]
    trace: IterationTrace | None
    empty_network: bool

    @property
    def removed_set(self) -> set[int]:
        return set(self.removed)


def removal_loop(
    channel: ChannelModel,
    users: list[UserParams],
    policy: str = CLAMP,
    config: ConvergenceConfig | None = None,
    schedule: str = SYNCHRONOUS,
    tolerance: float = DEFAULT_AT_TARGET_TOL,
) -> RemovalResult:
    """Remove below-target users one at a time until none remain below target.

    The user with the worst achieved-to-target SINR ratio goes first; after
    each removal the game is re-solved over the survivors. Terminates in at
    most len(users) rounds.
    """
    active = list(range(len(users)))
    removed: list[int] = []
    while active:
        ch = channel.subset(active)
        us = [users[i] for i in active]
        trace = iterate_to_convergence(ch, us, policy, config, schedule)
        targets = np.array([target_sinr(u.alpha1, u.alpha2, ch.bandwidth_hz) for u in us])
        outcomes = classify_users(trace, targets, tolerance)
        below = [k for k, o in enumerate(outcomes) if o == BELOW_TARGET]
        if not below:
            return RemovalResult(removed, active, trace, False)
        sinrs = trace.final_sinrs
        worst = min(below, key=lambda k: sinrs[k] / targets[k])
        removed.append(active.pop(worst))
    return RemovalResult(removed, [], None, True)
