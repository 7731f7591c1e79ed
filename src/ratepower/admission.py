"""Pricing rules, pricing escalation, outcome classification, and user removal.

A ``PricingRule`` is the one home of the pricing coefficient and of the
escalation step: escalation tests each coefficient as ``replace(rule, c=c)``,
stepping by ``rule.dc``. Pricing a user table writes its one new pricing
column. Escalation and removal take the solve's settings as
one ``ConvergenceConfig``. A user counts as at target when its SINR lies
within the relative band ``AT_TARGET_TOL`` of its target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ChannelModel, UserParams, UserTable, _require_count, _require_finite
from .engine import (
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationTrace,
    iterate_batch,
    iterate_to_convergence,
)

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

AT_TARGET_TOL = 1e-3

# Coefficients escalation solves together as one batch.
ESCALATION_WINDOW = 3


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
    gain=None,
    alpha1=None,
    alpha2=None,
    multicell: bool = False,
):
    """Evaluate one user's pricing factor under ``rule`` at its coefficient ``rule.c``.

    ``gain``, ``alpha1`` and ``alpha2`` may also be arrays, one value per
    user, and then so is the factor. Gain-dependent kinds are rejected in
    multi-cell mode.
    """
    if multicell and rule.kind in GAIN_DEPENDENT_KINDS:
        raise ValueError(
            f"pricing rule {rule.kind!r} depends on the channel gain and cannot "
            "be used with more than one station"
        )
    if rule.kind == "constant":
        return rule.c
    if rule.kind == "per_user_count":
        if n_users < 1:
            raise ValueError("n_users must be at least 1")
        return rule.c * n_users
    # Arrays overflow to inf as floats do, silently; with_lam refuses inf.
    if rule.kind in GAIN_DEPENDENT_KINDS:
        if gain is None or np.any(gain <= 0):
            raise ValueError("gain-dependent rules need a positive gain")
        with np.errstate(over="ignore"):
            return rule.c * gain if rule.kind == "direct_gain" else rule.c / gain
    if alpha1 is None or alpha2 is None or np.any(alpha1 <= 0) or np.any(alpha2 <= 0):
        raise ValueError("target-ratio rules need positive alpha1 and alpha2")
    with np.errstate(over="ignore"):
        if rule.kind == "target_ratio":
            return rule.c * alpha2 / alpha1
        return rule.c * alpha1 / alpha2


class NotConvergedError(RuntimeError):
    """A run that must be classified stopped at max_iterations without converging."""


def classify_users(trace: IterationTrace, targets) -> list[str]:
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
    for s, target in zip(sinrs.tolist(), t.tolist()):
        if s < target * (1.0 - AT_TARGET_TOL):
            out.append(BELOW_TARGET)
        elif s > target * (1.0 + AT_TARGET_TOL):
            out.append(ABOVE_TARGET)
        else:
            out.append(AT_TARGET)
    return out


def priced_users(
    rule: PricingRule, channel: ChannelModel, users: UserTable | list[UserParams]
) -> UserTable:
    """Users with their pricing factor replaced by the rule's value, as one new column."""
    users = UserTable.from_users(users)
    if not len(users):
        return users
    multicell = channel.n_stations > 1
    lam = pricing_rule_eval(
        rule,
        len(users),
        gain=None if multicell else channel.gains[:, 0],
        alpha1=users.alpha1,
        alpha2=users.alpha2,
        multicell=multicell,
    )
    return users.with_lam(lam)


@dataclass
class EscalationResult:
    """Outcome of a pricing escalation sweep.

    ``achieved`` is False when the step budget ran out with some user still
    below target, which signals that removal is the remaining lever. The
    users priced at ``c_final`` are ``trace.users``.
    """

    c_final: float
    achieved: bool
    trace: IterationTrace
    tested: list[float]


def escalate_pricing(
    channel: ChannelModel,
    users: UserTable | list[UserParams],
    rule: PricingRule,
    config: ConvergenceConfig | None = None,
    max_steps: int = 40,
) -> EscalationResult:
    """Raise the pricing coefficient in steps of dc until nobody is below target.

    Runs the game under ``config`` at rule.c, rule.c + dc, ... and stops at
    the first (hence least) tested coefficient whose converged outcome has
    no below-target user. The step dc is ``rule.dc``, else a quarter of
    ``rule.c``.

    Under the synchronous schedule the coefficients are solved
    ``ESCALATION_WINDOW`` at a time, as one batch, and their outcomes read in
    order. Coefficients past the first achieved one are computed but not
    reported: they are not in ``tested``, and an error or a non-convergence
    of theirs does not surface. What is reported, raised included, is what
    testing one coefficient at a time gives.
    """
    step = rule.dc if rule.dc is not None else 0.25 * rule.c
    max_steps = _require_count("max_steps", max_steps)
    config = config if config is not None else ConvergenceConfig()
    # Only the synchronous sweep runs in lockstep; a sequential window would
    # solve its extra coefficients one by one, for nothing.
    width = ESCALATION_WINDOW if config.schedule == SYNCHRONOUS else 1

    users = UserTable.from_users(users)
    targets = users.target_sinrs(channel.bandwidth_hz)
    tested: list[float] = []
    trace = None
    for first in range(0, max_steps, width):
        window = [rule.c + k * step for k in range(first, min(first + width, max_steps))]
        priced, error = [], None
        try:
            for c in window:
                priced.append(priced_users(replace(rule, c=c), channel, users))
        except ValueError as exc:
            error = exc  # met only if no coefficient before it is achieved
        outcomes = iterate_batch([(channel, us) for us in priced], config)
        for c, outcome in zip(window, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            trace = outcome
            tested.append(c)
            if BELOW_TARGET not in classify_users(trace, targets):
                return EscalationResult(c, True, trace, tested)
        if error is not None:
            raise error
    return EscalationResult(tested[-1], False, trace, tested)


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


def removal_loop(
    channel: ChannelModel,
    users: UserTable | list[UserParams],
    config: ConvergenceConfig | None = None,
) -> RemovalResult:
    """Remove below-target users one at a time until none remain below target.

    The user with the worst achieved-to-target SINR ratio goes first; after
    each removal the game is re-solved under ``config`` over the survivors.
    Terminates in at most len(users) rounds.
    """
    users = UserTable.from_users(users)
    active = list(range(len(users)))
    removed: list[int] = []
    while active:
        ch = channel.subset(active)
        us = users[active]
        trace = iterate_to_convergence(ch, us, config)
        targets = us.target_sinrs(ch.bandwidth_hz)
        outcomes = classify_users(trace, targets)
        below = [k for k, o in enumerate(outcomes) if o == BELOW_TARGET]
        if not below:
            return RemovalResult(removed, active, trace, False)
        sinrs = trace.final_sinrs
        worst = min(below, key=lambda k: sinrs[k] / targets[k])
        removed.append(active.pop(worst))
    return RemovalResult(removed, [], None, True)
