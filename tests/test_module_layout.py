"""The package's module split: one production path, one oracle module.

The solver (``engine``) and the model types (``core``) never reach for the
scalar statements in ``oracle``, and the package does not re-export them:
the package is the solver, and ``ratepower.oracle`` is the one home of the
oracle's names. ``__init__`` loads a module only when one of its names is
first read, so neither ``import ratepower`` nor any command loads
``oracle``. The oracle in turn takes only constants and types from
``engine``, never a function, so no check compares the solver with itself. Every name a module
lists in ``__all__`` exists, no public function or class is defined twice,
and the package's public names stay those pinned below, as do the
parameters of the solve, pricing and admission entry points and the
fields of the settings objects: a setting that already has a home (a
user's initial strategy, a rule's coefficient and escalation step, the
at-target band, the solve's policy, schedule, stopping rule, rate ladder
and history in ``ConvergenceConfig``) does not come back as a parameter.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratepower

PACKAGE_DIR = Path(ratepower.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

# The solver's names only: the oracle's scalar statements are read from
# ``ratepower.oracle``, never from the package.
PUBLIC_NAMES = [
    "ABOVE_TARGET", "AT_TARGET", "ArrivalEvent", "BELOW_TARGET", "CLAMP", "ChannelModel",
    "ComparisonReport", "ConvergenceConfig", "EscalationResult", "IterationRecord",
    "IterationTrace", "KKT", "MoveEvent", "Network", "NoFeasibleRateError", "NotConvergedError",
    "PricingRule", "REPRODUCE_TARGETS", "RateSet", "RemovalResult", "RunSummary", "SEQUENTIAL",
    "SYNCHRONOUS", "Scenario", "ScenarioFormatError", "Segment", "Strategy", "UserParams",
    "UserTable", "bounded_step", "bounded_step_array", "classify_users", "emit_trace",
    "escalate_pricing", "iterate_batch", "iterate_to_convergence", "parse_scenario",
    "removal_loop", "reproduce", "reproduce_many", "run_scenario", "run_scenarios",
    "scenario_to_text", "summarize_run", "summary_to_text", "sweep_lambda", "write_summary",
]

PARAMETERS = {
    "engine.iterate_to_convergence": [
        "channel", "users", "config", "initial_assignment", "arrivals", "pricing",
    ],
    "engine.iterate_batch": ["networks", "config"],
    "admission.escalate_pricing": ["channel", "users", "rule", "config", "max_steps"],
    "admission.removal_loop": ["channel", "users", "config"],
    "admission.classify_users": ["trace", "targets"],
    "core.priced_users": ["rule", "channel", "users"],
    "scenario.run_scenarios": ["scenarios"],
    "reference.reproduce_many": ["targets"],
}

# A solve's settings live in one ConvergenceConfig; a scenario carries it
# whole, and a network to solve carries its pricing rule and arrivals.
FIELDS = {
    "engine.ConvergenceConfig": [
        "delta", "max_iterations", "metric", "policy", "schedule", "rate_set",
        "quantize_at_convergence", "history",
    ],
    "engine.Network": ["channel", "users", "pricing", "arrivals"],
    "scenario.Scenario": [
        "channel", "users", "user_names", "config", "pricing", "arrivals", "moves",
    ],
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


def test_oracle_takes_only_constants_and_types_from_the_engine():
    # An oracle that called the solver's own functions would check the
    # solver against itself.
    engine = importlib.import_module("ratepower.engine")
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = [alias.name for node in imports for alias in node.names]
    assert not [name for name in bound if name.split(".")[-1] == "engine"]
    taken = [
        alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "engine"
        for alias in node.names
    ]
    assert "TIE_REL_TOL" in taken
    functions = [n for n in taken if not (n.isupper() or isinstance(getattr(engine, n), type))]
    assert functions == []


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
    # A name is bound in the package's namespace only once it is first read,
    # so the names are pinned where they are declared and where they resolve.
    assert sorted(ratepower.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(ratepower))
    for name in PUBLIC_NAMES:
        (home,) = [
            module
            for module in (importlib.import_module(f"ratepower.{m}") for m in MODULES)
            if name in getattr(module, "__all__", ())
        ]
        assert getattr(ratepower, name) is getattr(home, name), name
    star = {}
    exec("from ratepower import *", star)
    assert sorted(n for n in star if n != "__builtins__") == PUBLIC_NAMES


def test_the_scalar_twins_live_only_in_the_oracle():
    # One user's price, one user at a new price and one rate's rung are oracle
    # statements; the model types keep only their array forms.
    oracle = importlib.import_module("ratepower.oracle")
    core = importlib.import_module("ratepower.core")
    for name in ("pricing_rule_eval", "with_lam", "rate_floor"):
        assert name in oracle.__all__ and callable(getattr(oracle, name))
    assert not hasattr(ratepower, "pricing_rule_eval")
    assert not hasattr(core.UserParams, "with_lam")
    assert not hasattr(core.RateSet, "floor")
    assert "rates" not in MODULES


def test_no_oracle_name_is_a_package_name():
    oracle = importlib.import_module("ratepower.oracle")
    assert set(oracle.__all__) & set(ratepower.__all__) == set()
    assert [name for name in oracle.__all__ if hasattr(ratepower, name)] == []
    assert ratepower.oracle is oracle
    assert ratepower.oracle.sinr is oracle.sinr


# Which ratepower submodules each step has loaded, in a fresh interpreter.
IMPORT_STEPS = """
import contextlib, io, json, sys

def loaded():
    return sorted(n for n in sys.modules if n.startswith("ratepower."))

steps = {}
import ratepower
steps["package"] = loaded()
import ratepower.cli
steps["cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = ratepower.cli.main(["reproduce", "table2"])
steps["reproduce"] = loaded()
print(json.dumps([code, steps]))
"""


def test_a_command_loads_only_the_modules_it_runs():
    # A subprocess, so that modules the other tests imported do not count.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_STEPS], env=env, capture_output=True, text=True, check=True
    )
    code, steps = json.loads(done.stdout)
    assert code == 0
    assert steps["package"] == []
    assert not {"ratepower.oracle", "ratepower.reference"} & set(steps["cli"])
    assert "ratepower.reference" in steps["reproduce"]
    assert not {"ratepower.oracle", "ratepower.encoder"} & set(steps["reproduce"])


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_entry_point_parameters_are_pinned(name):
    module, function = name.split(".")
    func = getattr(importlib.import_module(f"ratepower.{module}"), function)
    assert list(inspect.signature(func).parameters) == PARAMETERS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_settings_fields_are_pinned(name):
    module, cls = name.split(".")
    fields = dataclasses.fields(getattr(importlib.import_module(f"ratepower.{module}"), cls))
    assert [f.name for f in fields] == FIELDS[name]
