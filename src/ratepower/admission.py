"""Pricing escalation, outcome classification, and user removal.

Escalation raises the coefficient of a ``core.PricingRule``, the one home
of the coefficient and of its step: it tests each coefficient as
``replace(rule, c=c)``, stepping by ``rule.dc``, on an ``engine.Network``
that carries the rule, and the engine prices the users. Escalation and
removal take the solve's settings as one ``ConvergenceConfig``. A user
counts as at target when its SINR lies within the relative band
``AT_TARGET_TOL`` of its target.

Each loop is a chain, a generator that yields the (network, config) pairs
one round needs (an escalation window, a removal round) and is sent their
outcomes; ``escalate_pricing`` and ``removal_loop`` drive one chain with
``engine._drive``, and ``reference`` drives them with its scenario runs. An
escalation window is an ordered ``engine._Window`` whose test is the
classification ``classify_users`` makes, so the engine stops stepping the
window once its answer is known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ChannelModel, PricingRule, UserParams, UserTable, _require_count
from .engine import SYNCHRONOUS, ConvergenceConfig, IterationTrace, Network, _drive, _Window

__all__ = [
    "BELOW_TARGET",
    "AT_TARGET",
    "ABOVE_TARGET",
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

AT_TARGET_TOL = 1e-3

# Coefficients escalation solves together as one batch under the
# synchronous schedule; those after the answer stop stepping at it.
ESCALATION_WINDOW = 6


class NotConvergedError(RuntimeError):
    """A run that must be classified stopped at max_iterations without converging."""


def classify_users(trace: IterationTrace, targets) -> list[str]:
    """Per-user outcome of a converged run, relative to the target SINRs."""
    if not trace.converged:
        raise NotConvergedError(
            f"run did not converge within {trace.iterations_used} iterations; "
            "cannot classify its users (raise max_iterations or delta)"
        )
    return _outcomes(trace.final_sinrs, targets)


def _outcomes(sinrs: np.ndarray, targets) -> list[str]:
    # Each user's outcome, from its SINR in a converged row, in one array
    # pass. Below the band wins over above it; a NaN SINR lies in neither.
    t = np.asarray(targets, dtype=float)
    if t.shape != sinrs.shape:
        raise ValueError("one target per user required")
    below = (sinrs < t * (1.0 - AT_TARGET_TOL)).tolist()
    above = (sinrs > t * (1.0 + AT_TARGET_TOL)).tolist()
    return [BELOW_TARGET if b else ABOVE_TARGET if a else AT_TARGET for b, a in zip(below, above)]


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
    order; under the sequential schedule one at a time. The engine tests
    each coefficient's reported row as it converges, and once one has no
    user below target, the coefficients after it stop holding the batch
    open. They are not in ``tested``, and an error or a non-convergence of
    theirs does not surface. What is reported, raised included, is what
    testing one coefficient at a time gives. A coefficient that overflows to
    inf makes no rule, so a window ends before it; it opens the next window,
    whose rule refuses it, only if no earlier coefficient is achieved.
    """
    (result,) = _drive([_escalation(channel, users, rule, config, max_steps)])
    return result


def _escalation(channel, users, rule, config=None, max_steps=40):
    # ``escalate_pricing`` as a chain for ``engine._drive``: each round
    # yields one window's networks.
    step = rule.dc if rule.dc is not None else 0.25 * rule.c
    max_steps = _require_count("max_steps", max_steps)
    config = config if config is not None else ConvergenceConfig()
    # Only the synchronous sweep runs in lockstep; a sequential window would
    # solve its extra coefficients one by one, for nothing.
    width = ESCALATION_WINDOW if config.schedule == SYNCHRONOUS else 1

    users = UserTable.from_users(users)
    targets = users.target_sinrs(channel.bandwidth_hz)

    def achieved(sinrs) -> bool:
        return BELOW_TARGET not in _outcomes(sinrs, targets)

    tested: list[float] = []
    trace = None
    first = 0
    while first < max_steps:
        window = [rule.c + k * step for k in range(first, min(first + width, max_steps))]
        # An infinite coefficient opens its window, where its rule refuses it.
        window = window[:1] + list(itertools.takewhile(math.isfinite, window[1:]))
        requests = [(Network(channel, users, replace(rule, c=c)), config) for c in window]
        outcomes = yield _Window(requests, achieved)
        for c, outcome in zip(window, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            trace = outcome
            tested.append(c)
            if BELOW_TARGET not in classify_users(trace, targets):
                return EscalationResult(c, True, trace, tested)
        first += len(window)
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
    (result,) = _drive([_removal(channel, users, config)])
    return result


def _removal(channel, users, config=None):
    # ``removal_loop`` as a chain for ``engine._drive``: each round yields
    # the survivors' network.
    config = config if config is not None else ConvergenceConfig()
    users = UserTable.from_users(users)
    active = list(range(len(users)))
    removed: list[int] = []
    while active:
        ch = channel.subset(active)
        us = users[active]
        (trace,) = yield [(Network(ch, us), config)]
        if isinstance(trace, Exception):
            raise trace
        targets = us.target_sinrs(ch.bandwidth_hz)
        outcomes = classify_users(trace, targets)
        below = [k for k, o in enumerate(outcomes) if o == BELOW_TARGET]
        if not below:
            return RemovalResult(removed, active, trace, False)
        sinrs = trace.final_sinrs
        worst = min(below, key=lambda k: sinrs[k] / targets[k])
        removed.append(active.pop(worst))
    return RemovalResult(removed, [], None, True)
