"""Built-in reference scenarios and one-command reproduction of their results.

Each builder builds its Scenario value directly. ``reproduce_many(targets)``
runs the matching experiments and compares each one's converged values
against its stored reference equilibria at per-target tolerances, returning
one itemized report per target; ``reproduce(target)`` runs one. Each
experiment is its independent runs, its adaptive solves (table1's removal
loop, table3's escalations) and a check of their results. Every requested
experiment's runs and adaptive solves are chains that ``engine._drive``
steps together, one batch per (config, station count) and round, so round
1 of ``all`` solves table1-4's and fig1-2's 22 one-station runs under the
default config, table1's first removal round and table3's two escalation
windows as one batch of 29 networks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .admission import _escalation, _removal
from .core import ChannelModel, PricingRule, UserTable
from .engine import KKT, ConvergenceConfig, _drive
from .scenario import ArrivalEvent, MoveEvent, Scenario, _run

__all__ = [
    "REPRODUCE_TARGETS",
    "Check",
    "ComparisonReport",
    "reproduce",
    "reproduce_many",
    "table1_scenario",
    "table1_removal_scenario",
    "table2_scenario",
    "table3_scenario",
    "table4_scenario",
    "fig1_scenario",
    "fig2_scenario",
    "fig3_scenario",
    "fig4_scenario",
    "FIG2_LAMBDAS",
]

FIG2_LAMBDAS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "ok  " if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}" if self.detail else f"[{tag}] {self.name}"


@dataclass
class ComparisonReport:
    target: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{self.target}: {verdict} ({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


# ---------------------------------------------------------------------------
# Scenario builders


def _scenario(distances, alpha2, lam, p_max, r_max, noise_w=None, **fields) -> Scenario:
    # Users u1, u2, ... at ``distances`` (a row per user, or a number for one
    # station) sharing every constant but alpha2; an absent noise_w keeps
    # ChannelModel's default, and ``fields`` go to the Scenario as given.
    if np.isscalar(alpha2):
        alpha2 = [alpha2] * len(distances)
    network = {} if noise_w is None else {"noise_w": noise_w}
    users = UserTable(alpha2=alpha2, lam=lam, p_max=p_max, r_max=r_max)
    names = [f"u{k}" for k in range(1, len(users) + 1)]
    return Scenario(ChannelModel(distances, **network), users, names, **fields)


def table1_scenario(lam: float = 1e-5) -> Scenario:
    # Bounded three-user network: at low pricing user 1 rides its rate cap
    # and user 3 its power cap, at ten times the pricing everyone is interior.
    return _scenario([110, 130, 210], 20, lam, p_max=3.0, r_max=47000.0)


def table1_removal_scenario() -> Scenario:
    # The two survivors after the cap-pinned third user is removed. The
    # reference values for this block are consistent with pricing 1e-4, not
    # with the 1e-5 of the low-pricing block, so 1e-4 is what it runs at.
    return _scenario([110, 130], 20, 1e-4, p_max=3.0, r_max=47000.0)


def table2_scenario(variant: int) -> Scenario:
    if variant == 1:
        return _scenario([110, 130, 210, 130, 150], 12.9492, 4e-4, p_max=0.1605, r_max=96000.0)
    if variant == 2:
        return _scenario([110] * 5, 12.9492, 4e-4, p_max=0.0647, r_max=96000.0)
    raise ValueError("variant must be 1 or 2")


def table3_scenario(n_users: int, lam: float = 4e-4) -> Scenario:
    if not 1 <= n_users:
        raise ValueError("need at least one user")
    return _scenario([110] * n_users, 12.9492, lam, p_max=0.0647, r_max=96000.0)


def table4_scenario(distance: float, lam: float = 1e-4) -> Scenario:
    return _scenario([distance] * 10, 12.9492, lam, p_max=1.0, r_max=96000.0, noise_w=1e-10)


def fig1_scenario() -> Scenario:
    return _scenario([110, 130, 210], [20, 25, 30], 1e-4, p_max=3.0, r_max=96000.0)


def fig2_scenario() -> Scenario:
    # Geometry of the three-user network; the pricing sweep overrides lambda.
    return _scenario([110, 130, 210], 20, 0.05, p_max=3.0, r_max=96000.0)


def fig3_scenario() -> Scenario:
    # The newcomer starts from the box's lower corner, so the stopping
    # threshold is eased one decade; the post-arrival state still sits within
    # 1e-8 of the fixed point, far inside the 1e-4 target-SINR tolerance.
    newcomer = UserTable(alpha2=[20.0], lam=[1e-4], p_max=[3.0], r_max=[96000.0])
    return _scenario(
        [110, 130, 210],
        [20, 25, 30],
        1e-4,
        p_max=3.0,
        r_max=96000.0,
        config=ConvergenceConfig(delta=1e-8),
        arrivals=[ArrivalEvent(20, "u4", np.array([130.0]), newcomer)],
    )


def fig4_scenario() -> Scenario:
    # Two stations; user 3 walks 10 m per step away from station 1 toward
    # station 2, crossing the midpoint (260 m / 260 m) at step 6.
    users = [[110, 410], [130, 390], [210, 310], [390, 130], [410, 110]]
    moves = [
        MoveEvent(step, 2, np.array([210.0 + 10 * (step - 1), 310.0 - 10 * (step - 1)]))
        for step in range(2, 12)
    ]
    return _scenario(users, 20, 1e-4, p_max=3.0, r_max=96000.0, moves=moves)


# ---------------------------------------------------------------------------
# Reference values


TABLE1_LOW_PRICING = [(1.011, 47000.0, 21.0452), (1.5533, 32189.0, 20.0), (3.0, 10205.0, 12.2458)]
TABLE1_HIGH_PRICING = [(0.1127, 44360.0, 20.0), (0.172, 29075.0, 20.0), (0.5166, 9679.0, 20.0)]
TABLE1_AFTER_REMOVAL = [(0.08, 47000.0, 26.58), (0.125, 40000.0, 20.0)]

TABLE2_SCENARIO1 = [
    (0.0388, 32201.0),
    (0.0569, 21949.0),
    (0.1605, 7787.0),
    (0.0569, 21949.0),
    (0.0782, 15982.0),
]
TABLE2_SCENARIO1_TOTAL_POWER = 0.3914
TABLE2_SCENARIO2 = (0.0647, 19306.0, 12.9492)

TABLE3_CLAMP = {
    3: (0.0324, 38612.0, 12.9492),
    4: (0.0486, 25741.0, 12.9492),
    5: (0.0647, 19306.0, 12.9492),
    6: (0.0647, 17274.0, 11.578),
    7: (0.0647, 15769.0, 10.569),
}
TABLE3_KKT_RATES = {6: 17899.0, 7: 16775.0}
TABLE3_ESCALATED = {6: (5e-4, 15445.0, 12.9492), 7: (6e-4, 12871.0, 12.9492)}

TABLE4_ROWS = [
    # (distance, lam, expected p or (lo, hi), expected r, expected sinr, tol)
    (50.0, 1e-4, 0.583, 8570.0, 12.9492, 0.01),
    (150.0, 1e-4, 0.635, 8110.0, 12.9492, 0.04),
    (250.0, 1e-4, 0.879, 5686.0, 12.9492, 0.01),
    (350.0, 1e-4, 1.0, 3972.0, 10.287, 0.01),
    (350.0, 1.6e-4, (0.99, 1.0), 3155.0, 12.9492, 0.01),
]

FIG1_TARGETS = (20.0, 25.0, 30.0)


# ---------------------------------------------------------------------------
# Comparison helpers


def _rel_check(name: str, actual: float, expected: float, tol: float) -> Check:
    err = abs(actual - expected) / abs(expected)
    return Check(
        name,
        bool(err <= tol),
        f"actual={actual:.6g} expected={expected:.6g} rel_err={err:.2e} tol={tol:g}",
    )


def _bool_check(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name, bool(ok), detail)


def _range_check(name: str, actual: float, lo: float, hi: float) -> Check:
    return Check(name, bool(lo <= actual <= hi), f"actual={actual:.6g} expected in [{lo}, {hi}]")


def _triple_checks(label: str, summary, expected, tol: float) -> list[Check]:
    checks = [_bool_check(f"{label}.converged", summary.converged)]
    for k, (p, r, g) in enumerate(expected, start=1):
        checks.append(_rel_check(f"{label}.u{k}.p_w", summary.powers[k - 1], p, tol))
        checks.append(_rel_check(f"{label}.u{k}.r_bps", summary.rates[k - 1], r, tol))
        checks.append(_rel_check(f"{label}.u{k}.sinr", summary.sinrs[k - 1], g, tol))
    return checks


# ---------------------------------------------------------------------------
# Per-target reproduction
#
# ``_table1()`` returns (scenarios, adaptive, check): the scenarios to run,
# the chains of its adaptive solves (``admission``'s removal and escalation
# chains), and ``check(results)``, which takes each scenario's (trace,
# summary), in order, then each chain's result, and returns the checks.


def _table1():
    scenarios = [table1_scenario(1e-5), table1_scenario(1e-4), table1_removal_scenario()]
    removal = _removal(scenarios[0].channel, scenarios[0].users)

    def check(results) -> list[Check]:
        (_, low), (_, high), (_, after), removal = results
        checks = _triple_checks("lam1e-5", low, TABLE1_LOW_PRICING, 0.01)
        checks += _triple_checks("lam1e-4", high, TABLE1_HIGH_PRICING, 0.01)
        checks.append(
            _bool_check(
                "removal.drops_only_u3",
                removal.removed == [2] and not removal.empty_network,
                f"removed={removal.removed}",
            )
        )
        checks += _triple_checks("after_removal", after, TABLE1_AFTER_REMOVAL, 0.01)
        return checks

    return scenarios, [removal], check


def _table2():
    scenarios = [table2_scenario(2), table2_scenario(1)]

    def check(runs) -> list[Check]:
        (_, s2), (_, s1) = runs
        checks = _triple_checks("scenario2", s2, [TABLE2_SCENARIO2] * 5, 0.005)
        checks.append(_bool_check("scenario1.converged", s1.converged))
        checks.append(
            _rel_check("scenario1.u3.power_pinned", s1.powers[2], scenarios[1].users.p_max[2], 1e-9)
        )
        for k, (p, r) in enumerate(TABLE2_SCENARIO1, start=1):
            checks.append(_rel_check(f"scenario1.u{k}.p_w", s1.powers[k - 1], p, 0.02))
            checks.append(_rel_check(f"scenario1.u{k}.r_bps", s1.rates[k - 1], r, 0.02))
        checks.append(
            _rel_check("scenario1.total_power", float(s1.powers.sum()), TABLE2_SCENARIO1_TOTAL_POWER, 0.02)
        )
        return checks

    return scenarios, [], check


def _table3():
    # The boundary rows replayed under the kkt policy land on the stationarity
    # root instead; reported against its own reference, not as a failure.
    kkt = [table3_scenario(m) for m in TABLE3_KKT_RATES]
    kkt = [replace(s, config=replace(s.config, policy=KKT)) for s in kkt]
    scenarios = [table3_scenario(m) for m in TABLE3_CLAMP] + kkt
    rule = PricingRule("constant", 4e-4, dc=1e-4)
    escalations = [
        _escalation(s.channel, s.users, rule) for s in map(table3_scenario, TABLE3_ESCALATED)
    ]

    def check(results) -> list[Check]:
        runs, escalated = results[: len(scenarios)], results[len(scenarios) :]
        checks: list[Check] = []
        for (m, (p, r, g)), (_, summary) in zip(TABLE3_CLAMP.items(), runs):
            checks.append(_bool_check(f"m{m}.converged", summary.converged))
            checks.append(_rel_check(f"m{m}.p_w", summary.powers[0], p, 0.005))
            checks.append(_rel_check(f"m{m}.r_bps", summary.rates[0], r, 0.005))
            checks.append(_rel_check(f"m{m}.sinr", summary.sinrs[0], g, 0.005))
        for (m, r_kkt), (_, summary) in zip(TABLE3_KKT_RATES.items(), runs[len(TABLE3_CLAMP):]):
            checks.append(_bool_check(f"m{m}.kkt.converged", summary.converged))
            checks.append(_rel_check(f"m{m}.kkt.p_w", summary.powers[0], 0.0647, 0.005))
            checks.append(_rel_check(f"m{m}.kkt.r_bps", summary.rates[0], r_kkt, 0.005))

        for (m, (c_exp, r_exp, g_exp)), result in zip(TABLE3_ESCALATED.items(), escalated):
            checks.append(_bool_check(f"m{m}.escalation.achieved", result.achieved))
            checks.append(_rel_check(f"m{m}.escalation.c_final", result.c_final, c_exp, 1e-9))
            checks.append(_rel_check(f"m{m}.escalation.r_bps", result.trace.final_rates[0], r_exp, 0.005))
            checks.append(_rel_check(f"m{m}.escalation.sinr", result.trace.final_sinrs[0], g_exp, 0.005))
        return checks

    return scenarios, escalations, check


def _table4():
    scenarios = [table4_scenario(row[0], row[1]) for row in TABLE4_ROWS]

    def check(runs) -> list[Check]:
        checks: list[Check] = []
        for (distance, lam, p_exp, r_exp, g_exp, tol), (_, summary) in zip(TABLE4_ROWS, runs):
            label = f"d{int(distance)}.lam{lam:g}"
            checks.append(_bool_check(f"{label}.converged", summary.converged))
            if isinstance(p_exp, tuple):
                checks.append(_range_check(f"{label}.p_w", summary.powers[0], *p_exp))
            else:
                checks.append(_rel_check(f"{label}.p_w", summary.powers[0], p_exp, tol))
            checks.append(_rel_check(f"{label}.r_bps", summary.rates[0], r_exp, tol))
            checks.append(_rel_check(f"{label}.sinr", summary.sinrs[0], g_exp, tol))
        return checks

    return scenarios, [], check


def _fig1():
    def check(runs) -> list[Check]:
        ((_, summary),) = runs
        checks = [_bool_check("converged", summary.converged)]
        for k, target in enumerate(FIG1_TARGETS, start=1):
            checks.append(_rel_check(f"u{k}.sinr", summary.sinrs[k - 1], target, 1e-4))
        return checks

    return [fig1_scenario()], [], check


def _fig2():
    # The pricing sweep: one constant rule per lambda over fig2's geometry.
    base = fig2_scenario()
    scenarios = [replace(base, pricing=PricingRule("constant", lam)) for lam in FIG2_LAMBDAS]

    def check(runs) -> list[Check]:
        results = [(lam, summary) for lam, (_, summary) in zip(FIG2_LAMBDAS, runs)]
        checks: list[Check] = []
        for lam, summary in results:
            checks.append(_bool_check(f"lam{lam:g}.converged", summary.converged))
            worst = float(np.max(np.abs(summary.sinrs - 20.0) / 20.0))
            checks.append(
                Check(f"lam{lam:g}.sinr_at_target", worst <= 1e-6, f"worst rel dev {worst:.2e}")
            )
        for (lam_a, a), (lam_b, b) in zip(results, results[1:]):
            label = f"lam{lam_a:g}->{lam_b:g}"
            checks.append(
                _bool_check(f"{label}.powers_decrease", bool(np.all(b.powers < a.powers)))
            )
            checks.append(_bool_check(f"{label}.rates_decrease", bool(np.all(b.rates < a.rates))))

        # Doubling the pricing sheds absolutely more from whoever held more.
        first, second = results[0][1], results[1][1]
        for label, held, kept in (
            ("power", first.powers, second.powers),
            ("rate", first.rates, second.rates),
        ):
            shed = held - kept
            ok = all(
                shed[i] > shed[j] for i in range(3) for j in range(3) if held[i] > held[j] * (1 + 1e-9)
            )
            checks.append(_bool_check(f"doubling.{label}_shed_ordering", ok))
        return checks

    return scenarios, [], check


def _fig3():
    def check(runs) -> list[Check]:
        ((trace, summary),) = runs
        checks = [_bool_check("converged", summary.converged)]
        targets = [20.0, 25.0, 30.0, 20.0]
        for k, target in enumerate(targets, start=1):
            checks.append(_rel_check(f"u{k}.sinr", summary.sinrs[k - 1], target, 1e-4))
        arrival_iteration = 20
        within = summary.iterations_used - arrival_iteration
        checks.append(
            Check(
                "reconverges_within_30",
                bool(summary.converged and within <= 30),
                f"iterations after arrival: {within}",
            )
        )
        pre = trace.segments[0]  # the iterations before the arrival
        post = trace.final
        checks.append(
            _bool_check("incumbent_powers_rise", bool(np.all(post.powers[:3] > pre.powers[-1])))
        )
        checks.append(
            _bool_check("incumbent_rates_fall", bool(np.all(post.rates[:3] < pre.rates[-1])))
        )
        return checks

    return [fig3_scenario()], [], check


def _fig4():
    def check(runs) -> list[Check]:
        ((_, summary),) = runs
        checks = [_bool_check("all_steps_converged", summary.converged)]
        steps = summary.steps
        checks.append(_bool_check("eleven_steps", len(steps) == 11, f"{len(steps)} steps"))
        walker = 2
        stations = [int(sr.assignment[walker]) for sr in steps]
        checks.append(
            _bool_check(
                "assignment_switches_at_step7",
                stations == [0] * 6 + [1] * 5,
                f"stations={stations}",
            )
        )
        p3 = [float(sr.powers[walker]) for sr in steps[6:]]
        r3 = [float(sr.rates[walker]) for sr in steps[6:]]
        checks.append(
            _bool_check("walker_power_decreases", all(b < a for a, b in zip(p3, p3[1:])))
        )
        checks.append(
            _bool_check("walker_rate_increases", all(b > a for a, b in zip(r3, r3[1:])))
        )
        worst = max(float(np.max(np.abs(sr.sinrs - 20.0) / 20.0)) for sr in steps)
        checks.append(
            Check("targets_held_every_step", worst <= 1e-6, f"worst rel dev {worst:.2e}")
        )
        return checks

    return [fig4_scenario()], [], check


_EXPERIMENTS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
}
REPRODUCE_TARGETS = tuple(_EXPERIMENTS)


def reproduce(target: str) -> ComparisonReport:
    """Run one built-in experiment and compare against its reference values.

    This is ``reproduce_many([target])[0]``.
    """
    return reproduce_many([target])[0]


def reproduce_many(targets) -> list[ComparisonReport]:
    """Run several built-in experiments; one report per target, in order.

    Every target name is checked before anything is solved. The runs and the
    adaptive solves of all the targets are then driven together, one batch
    per (config, station count) and round, and each target's check reads
    their results. So no report comes before everything is solved, and an
    error in any target's solves surfaces before any report does; the
    built-in experiments raise none.
    """
    targets = list(targets)
    for target in targets:
        if target not in _EXPERIMENTS:
            raise ValueError(f"unknown target {target!r}; choose from {REPRODUCE_TARGETS}")
    experiments = [_EXPERIMENTS[target]() for target in targets]
    chains = [
        chain
        for scenarios, adaptive, _ in experiments
        for chain in [*map(_run, scenarios), *adaptive]
    ]
    results = iter(_drive(chains))
    return [
        ComparisonReport(target, check(list(islice(results, len(scenarios) + len(adaptive)))))
        for target, (scenarios, adaptive, check) in zip(targets, experiments)
    ]
