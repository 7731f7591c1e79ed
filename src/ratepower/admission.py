"""Pricing escalation, outcome classification, and user removal.

Escalation raises the coefficient of a ``core.PricingRule``, the one home
of the coefficient and of its step: it tests each coefficient as
``replace(rule, c=c)``, stepping by ``rule.dc``, on an ``engine.Network``
that carries the rule, and the engine prices the users. Escalation and
removal take the users as one ``UserTable`` and the solve's settings as
one ``ConvergenceConfig``. A user counts as at target when its SINR lies
within the relative band ``AT_TARGET_TOL`` of its target.

Each loop is a chain, a generator that yields the (network, config) pairs
one round needs and is sent their outcomes; ``escalate_pricing`` and
``removal_loop`` drive one chain with ``engine._drive``, and ``reference``
drives them with its scenario runs. Each round is an ordered
``engine._Window`` that the engine stops stepping once its answer is known:
up to ``ESCALATION_WINDOW`` coefficients, or the survivors less 0 and 1
predicted removals (``REMOVAL_WINDOW``; by best gain over target SINR, then
by the last read SINR-to-target ratio), answered at nobody below target, at
another removal than predicted, or where the chain meets an error or a
non-convergence; nothing past the answer surfaces. The windows are the
same under either schedule, and only the engine reads which one runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ChannelModel, PricingRule, UserTable, _require_count, _require_table
from .engine import ConvergenceConfig, IterationTrace, Network, _drive, _Window

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

# Coefficients an escalation round asks for: the synchronous schedule steps
# them as one batch, the sequential one solves them in turn, up to the answer.
ESCALATION_WINDOW = 6

# Networks a removal round asks for; wider windows slow cells that lose one
# user (every shipped scenario), stepping to the answer in lockstep.
REMOVAL_WINDOW = 2


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
    users: UserTable,
    rule: PricingRule,
    config: ConvergenceConfig | None = None,
    max_steps: int = 40,
) -> EscalationResult:
    """Raise the pricing coefficient in steps of dc until nobody is below target.

    Runs the game under ``config`` at rule.c, rule.c + dc, ... and stops at
    the first (hence least) tested coefficient whose converged outcome has
    no below-target user. The step dc is ``rule.dc``, else a quarter of
    ``rule.c``.

    The coefficients are asked for ``ESCALATION_WINDOW`` at a time and read
    in order; the synchronous schedule steps them as one batch. The engine
    tests each coefficient's reported row as it converges, and once one has
    no user below target, fails or does not converge, the coefficients after
    it are not solved further: they are not in ``tested``, and their errors
    do not surface. What is reported, raised included, is what testing one
    coefficient at a time gives. A coefficient that overflows to
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
    targets = _require_table(users).target_sinrs(channel.bandwidth_hz)

    def achieved(_, sinrs) -> bool:
        return BELOW_TARGET not in _outcomes(sinrs, targets)

    tested: list[float] = []
    trace = None
    first = 0
    while first < max_steps:
        window = [rule.c + k * step for k in range(first, min(first + ESCALATION_WINDOW, max_steps))]
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
    users: UserTable,
    config: ConvergenceConfig | None = None,
) -> RemovalResult:
    """Remove below-target users one at a time until none remain below target.

    The user with the worst achieved-to-target SINR ratio goes first; after
    each removal the game is re-solved under ``config`` over the survivors.
    Terminates in at most len(users) rounds.

    A round asks for ``REMOVAL_WINDOW`` networks, the survivors less 0, 1,
    ... predicted removals (see the module docstring), read while each
    removal is the predicted one; the synchronous schedule steps them as one
    batch. The rest are not awaited, and their errors do not surface. What
    is reported, raised included, is what the serial loop gives.
    """
    (result,) = _drive([_removal(channel, users, config)])
    return result


def _worst(outcomes, sinrs, targets):
    # The index of the below-target user with the worst SINR-to-target
    # ratio, the one the loop removes, or None when nobody is below target.
    below = [k for k, o in enumerate(outcomes) if o == BELOW_TARGET]
    return min(below, key=lambda k: sinrs[k] / targets[k]) if below else None


def _removal(channel, users, config=None):
    # ``removal_loop`` as a chain for ``engine._drive``: each round yields
    # a window of the survivors less 0, 1, ... predicted removals.
    targets = _require_table(users).target_sinrs(channel.bandwidth_hz)
    active = list(range(len(users)))
    # The prediction, lowest first: the best gain over the target, at first.
    ratios = channel.subset(active).gains.max(axis=1) / targets if active else None
    removed: list[int] = []
    while active:
        predicted = sorted(active, key=ratios.__getitem__)[: min(REMOVAL_WINDOW, len(active)) - 1]
        members = [active]
        for k in predicted:
            members.append([i for i in members[-1] if i != k])

        def ends(j, worst):
            # Whether member j + 1 is not the network the loop solves next.
            return j == len(predicted) or worst is None or members[j][worst] != predicted[j]

        def accept(j, sinrs):
            t = targets[members[j]]
            return ends(j, _worst(_outcomes(sinrs, t), sinrs, t))

        requests = [(Network(channel.subset(m), users[m]), config) for m in members]
        outcomes = yield _Window(requests, accept)
        for j, (member, trace) in enumerate(zip(members, outcomes)):
            if isinstance(trace, Exception):
                raise trace
            t, sinrs = targets[member], trace.final_sinrs
            worst = _worst(classify_users(trace, t), sinrs, t)
            if worst is None:
                return RemovalResult(removed, member, trace, False)
            ratios[member] = sinrs / t
            removed.append(member[worst])
            active = member[:worst] + member[worst + 1 :]
            if ends(j, worst):
                break
    return RemovalResult(removed, [], None, True)
