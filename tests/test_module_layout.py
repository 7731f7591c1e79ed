"""The package's module split: one production path, one oracle module.

The solver (``engine``) and the model types (``core``) never reach for the
scalar statements in ``oracle``; only ``__init__`` re-exports them. No
production module reads a trace's per-iteration ``records`` views: the
program works on the segment columns, and the views serve tests and
oracles. Every
name a module lists in ``__all__`` exists, no public function or class is
defined twice, and the package's public names stay those pinned below, as
do the parameters of the solve, pricing and admission entry points: a
setting that already has a home (a user's initial strategy, a rule's
coefficient, the at-target band) does not come back as a parameter.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import ratepower

PACKAGE_DIR = Path(ratepower.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

PUBLIC_NAMES = [
    "ABOVE_TARGET", "AT_TARGET", "ArrivalEvent", "BELOW_TARGET", "CLAMP", "ChannelModel",
    "ComparisonReport", "ConvergenceConfig", "EscalationResult", "IterationRecord",
    "IterationTrace", "KKT", "MoveEvent", "NoFeasibleRateError", "NotConvergedError",
    "PricingRule", "REPRODUCE_TARGETS", "RateSet", "RemovalResult", "RunSummary",
    "SEQUENTIAL", "SYNCHRONOUS", "Scenario", "ScenarioFormatError", "Segment",
    "StandardFunctionReport", "Strategy", "UserParams", "UserTable", "UtilityParamsBase",
    "alpha_ratio_for_target", "assign_base_station", "bounded_step", "bounded_step_array",
    "classify_users", "convergence_metric", "effective_interference",
    "effective_interference_by_station", "emit_trace", "escalate_pricing",
    "fd_gradient_check", "grid_best_response", "iterate_to_convergence",
    "njrpcg_equilibrium", "parse_scenario", "path_gain", "power_update_map",
    "power_update_rate_bounded", "pricing_rule_eval", "rate_update_power_bounded",
    "removal_loop", "reproduce", "run_scenario", "scenario_to_text", "sinr",
    "standard_function_check", "summarize_run", "summary_to_text", "sweep_lambda",
    "symmetric_fixed_point", "target_sinr", "unconstrained_best_response", "utility_base",
    "utility_priced", "utility_priced_gradient", "utility_priced_hessian", "write_summary",
]

PARAMETERS = {
    "engine.iterate_to_convergence": [
        "channel", "users", "policy", "config", "schedule", "rate_set",
        "quantize_at_convergence", "initial_assignment", "arrivals", "reprice",
    ],
    "admission.escalate_pricing": [
        "channel", "users", "rule", "dc", "max_steps", "policy", "config", "schedule",
    ],
    "admission.removal_loop": ["channel", "users", "policy", "config", "schedule"],
    "admission.classify_users": ["trace", "targets"],
    "admission.pricing_rule_eval": ["rule", "n_users", "gain", "alpha1", "alpha2", "multicell"],
    "admission.priced_users": ["rule", "channel", "users"],
}


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of the package modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "ratepower" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_production_module_imports_the_oracle(name):
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    if name != "oracle":
        assert "ratepower.oracle" not in imported_modules(tree)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "oracle"])
def test_no_production_module_reads_trace_records(name):
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "records"
    ]
    assert reads == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ratepower.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_public_function_or_class_is_defined_twice():
    owners = {}
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                owners.setdefault(node.name, []).append(name)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def test_public_names_are_unchanged():
    names = [
        n
        for n, value in vars(ratepower).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_entry_point_parameters_are_pinned(name):
    module, function = name.split(".")
    func = getattr(importlib.import_module(f"ratepower.{module}"), function)
    assert list(inspect.signature(func).parameters) == PARAMETERS[name]
