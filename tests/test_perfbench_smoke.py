"""One op of each benchmark workload, checked as the benchmark checks it.

The benchmark under ``perfbench/`` checks every op's outputs outside-in and,
when traced, that the best responses it counts match the work the summaries
report. Running one op of each here makes a change that would fail those
checks fail the test suite first. The benchmark modules are loaded from their
files and left unchanged; every file an op writes goes to ``tmp_path``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ratepower.cli  # noqa: F401  (the workloads find the CLI in sys.modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracer = load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_its_checks(name, tmp_path):
    w = workloads.WORKLOADS[name](SEED, tmp_path)
    op = w.prepare(0)
    assert w.check(op, w.run(op)) == []


def test_traced_cell_op_counts_every_best_response_or_none(tmp_path):
    w = workloads.Cell(SEED, tmp_path)
    op = w.prepare(0)
    t = tracer.Tracer()
    calls = t.run_op(0, lambda: w.run(op))
    assert w.check(op, calls) == []
    assert op["user_iterations"] > 0
    assert t.agg("engine.best_response").calls in (0, op["user_iterations"])
