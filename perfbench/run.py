"""Benchmark harness for ratepower: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {reproduce,cell,multicell} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics: set-up time, then ops
for S seconds with tracing off, each time scaled to a reference machine speed
by the calibration kernel of ``calibrate.py`` run on either side of it. With
``--trace 1`` it runs a fixed number of op pairs on the same inputs, one op
untraced and one traced, and reports the
per-layer metrics of the traced ops (counts are per op and repeat exactly for
a seed) and the tracing overhead; the spans are written as JSON under
``.perfbench/``. Every op's outputs are checked; a failed or raising op is
counted and the run goes on. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The harness imports ratepower from ``src/`` of the checkout it sits in and
exits nonzero without a result when that is missing. It runs in one process
and starts no threads or processes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Ops measured with tracing off even when S seconds pass sooner, so the tail
# percentile always has ten samples beyond it; and a hard stop well inside
# the 180 s a run may take.
MIN_OPS = 11
HARD_STOP_S = 120.0
TAIL_BEYOND = 10
# Set-ups per end-to-end run; setup_s is their median.
SETUP_ROUNDS = 12

# Per-layer metrics and their units; each value is per traced op.
LAYER_METRICS = {
    "core.gains.calls": "count",
    "core.gains.busy_s": "s",
    "core.utility.calls": "count",
    "core.utility.busy_s": "s",
    "engine.solves": "count",
    "engine.iterations": "count",
    "engine.converged_ratio": "ratio",
    "engine.self_s": "s",
    "engine.iter_ms": "ms",
    "engine.best_response.calls": "count",
    "engine.best_response.busy_s": "s",
    "engine.record.calls": "count",
    "engine.record.busy_s": "s",
    "multicell.solves": "count",
    "multicell.iterations": "count",
    "multicell.converged_ratio": "ratio",
    "multicell.self_s": "s",
    "multicell.iter_ms": "ms",
    "multicell.switches": "count",
    "multicell.assign.calls": "count",
    "multicell.assign.busy_s": "s",
    "admission.escalation_solves": "count",
    "admission.removal_solves": "count",
    "admission.inner_iterations": "count",
    "admission.self_s": "s",
    "rates.floor.calls": "count",
    "rates.floor.busy_s": "s",
    "scenario.parse.calls": "count",
    "scenario.parse.bytes": "bytes",
    "scenario.parse.busy_s": "s",
    "scenario.run.self_s": "s",
    "scenario.trace.rows": "count",
    "scenario.trace.bytes": "bytes",
    "scenario.trace.busy_s": "s",
    "scenario.summary.busy_s": "s",
    "reference.checks": "count",
    "reference.checks_failed": "count",
    "reference.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
LAYERS = ("cli", "scenario", "reference", "admission", "multicell", "engine", "rates", "core")
LAYER_METRICS.update({f"{layer}.self_frac": "ratio" for layer in LAYERS})


def pin_threads() -> None:
    """Single-threaded BLAS and OpenMP in this process; must precede numpy's import."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import():
    """Drop every loaded ratepower module and import the package again."""
    for name in [n for n in sys.modules if n == "ratepower" or n.startswith("ratepower.")]:
        del sys.modules[name]
    importlib.import_module("ratepower")
    return importlib.import_module("ratepower.cli")


def tail(latencies: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n


class Runner:
    def __init__(self, workload, log):
        self.w = workload
        self.log = log
        self.attempted = 0
        self.failed = 0

    def op(self, index, op, traced=None):
        """Run and check one op; returns its wall seconds (checks not included)."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced is None:
                calls = self.w.run(op)
            else:
                calls = traced.run_op(index, lambda: self.w.run(op))
            errors = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            errors = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if errors is None:
            try:
                errors = self.w.check(op, calls)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if errors:
            self.failed += 1
            if self.failed <= 5:
                self.log(f"op {index} failed: {'; '.join(errors)}")
        return dt

    def setup(self, round_no: int) -> float:
        """One set-up: fresh import of ratepower plus one warm-up op, untimed checks excluded."""
        op = self.w.prepare(-1 - round_no)
        gc.collect()
        t0 = time.perf_counter()
        fresh_import()
        import_s = time.perf_counter() - t0
        return import_s + self.op(-1 - round_no, op)


def end_to_end(runner, seconds) -> tuple:
    import calibrate

    # Every set-up and op is bracketed by runs of the calibration kernel and
    # scaled to the reference machine speed by the mean of the two; the wall
    # times themselves are printed on '#' lines.
    kernels = []
    k_prev = calibrate.measure()

    def timed(wall):
        nonlocal k_prev
        k_next = calibrate.measure()
        kernel = (k_prev + k_next) / 2.0
        k_prev = k_next
        kernels.append(kernel)
        return wall, wall * calibrate.REF_KERNEL_S / kernel

    # Set-ups are spread evenly over the run, so that their median sees the
    # same machine as the ops do.
    setups = [timed(runner.setup(0))]
    latencies = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(latencies) >= MIN_OPS):
            break
        if len(setups) < SETUP_ROUNDS and elapsed >= seconds * len(setups) / SETUP_ROUNDS:
            setups.append(timed(runner.setup(len(setups))))
            continue
        op = runner.w.prepare(index)
        latencies.append(timed(runner.op(index, op)))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def summary(col):
        lat = [x[col] for x in latencies]
        tail_s, pct = tail(lat)
        return {
            "setup_s": statistics.median(x[col] for x in setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms.p50": 1000.0 * statistics.median(lat),
            "op_ms.tail": 1000.0 * tail_s,
        }, pct

    scaled, pct = summary(1)
    wall, _ = summary(0)
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms"}
    metrics = {k: (v, units[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    n = len(latencies)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_ms.p50": f"n={n}",
        "op_ms.tail": f"p{pct:.1f}, {TAIL_BEYOND} samples beyond, n={n}",
        "fail_frac": f"{runner.failed}/{runner.attempted}",
        "kernel_ms.p50": f"calibration kernel; reference {1000.0 * calibrate.REF_KERNEL_S:g} ms",
    }
    shown = dict(metrics)
    shown["fail_frac"] = (runner.failed / runner.attempted, "ratio")
    shown["kernel_ms.p50"] = (1000.0 * statistics.median(kernels), "ms")
    for k, v in wall.items():
        shown[f"wall.{k}"] = (v, units[k])
        notes[f"wall.{k}"] = "unscaled wall time"
    return metrics, shown, notes


def per_layer(runner, workload, seed, env, log) -> tuple:
    from tracer import Tracer

    runner.setup(0)
    tracer = Tracer()
    untraced_s = 0.0
    user_iterations = 0
    start = time.perf_counter()
    for index in range(runner.w.traced_ops):
        if time.perf_counter() - start > HARD_STOP_S:
            log(f"stopped after {index} traced ops: over {HARD_STOP_S:.0f} s; counts are partial")
            break
        op = runner.w.prepare(index)
        # Alternate which side goes first so drift does not favour either.
        if index % 2 == 0:
            untraced_s += runner.op(index, op)
            runner.op(index, op, traced=tracer)
        else:
            runner.op(index, op, traced=tracer)
            untraced_s += runner.op(index, op)
        user_iterations += op.get("user_iterations", 0)

    n = tracer.ops
    a, c = tracer.agg, tracer.counts

    def per_op(x):
        return x / n

    def ratio(num, den):
        return num / den if den else 0.0

    eng_iters = c.get("engine.iterations", 0)
    mc_iters = c.get("multicell.iterations", 0)
    values = {
        "core.gains.calls": per_op(a("core.gains").calls),
        "core.gains.busy_s": per_op(a("core.gains").busy),
        "core.utility.calls": per_op(a("core.utility").calls),
        "core.utility.busy_s": per_op(a("core.utility").busy),
        "engine.solves": per_op(a("engine.solve").calls),
        "engine.iterations": per_op(eng_iters),
        "engine.converged_ratio": ratio(c.get("engine.converged", 0), a("engine.solve").calls),
        "engine.self_s": per_op(a("engine.solve").self_s),
        "engine.iter_ms": 1000.0 * ratio(a("engine.solve").busy, eng_iters),
        "engine.best_response.calls": per_op(a("engine.best_response").calls),
        "engine.best_response.busy_s": per_op(a("engine.best_response").busy),
        "engine.record.calls": per_op(a("engine.record").calls),
        "engine.record.busy_s": per_op(a("engine.record").busy),
        "multicell.solves": per_op(a("multicell.solve").calls),
        "multicell.iterations": per_op(mc_iters),
        "multicell.converged_ratio": ratio(c.get("multicell.converged", 0), a("multicell.solve").calls),
        "multicell.self_s": per_op(a("multicell.solve").self_s),
        "multicell.iter_ms": 1000.0 * ratio(a("multicell.solve").busy, mc_iters),
        "multicell.switches": per_op(c.get("multicell.switches", 0)),
        "multicell.assign.calls": per_op(a("multicell.assign").calls),
        "multicell.assign.busy_s": per_op(a("multicell.assign").busy),
        "admission.escalation_solves": per_op(c.get("admission.escalation_solves", 0)),
        "admission.removal_solves": per_op(c.get("admission.removal_solves", 0)),
        "admission.inner_iterations": per_op(c.get("admission.inner_iterations", 0)),
        "admission.self_s": per_op(a("admission.escalate").self_s + a("admission.removal").self_s),
        "rates.floor.calls": per_op(a("rates.floor").calls),
        "rates.floor.busy_s": per_op(a("rates.floor").busy),
        "scenario.parse.calls": per_op(a("scenario.parse").calls),
        "scenario.parse.bytes": per_op(c.get("scenario.parse.bytes", 0)),
        "scenario.parse.busy_s": per_op(a("scenario.parse").busy),
        "scenario.run.self_s": per_op(a("scenario.run").self_s + a("scenario.sweep").self_s),
        "scenario.trace.rows": per_op(c.get("scenario.trace.rows", 0)),
        "scenario.trace.bytes": per_op(c.get("scenario.trace.bytes", 0)),
        "scenario.trace.busy_s": per_op(a("scenario.trace").busy),
        "scenario.summary.busy_s": per_op(a("scenario.summary").busy),
        "reference.checks": per_op(c.get("reference.checks", 0)),
        "reference.checks_failed": per_op(c.get("reference.checks_failed", 0)),
        "reference.self_s": per_op(a("reference.reproduce").self_s),
        "cli.self_s": per_op(a("cli.main").self_s),
        "trace.overhead_frac": tracer.op_wall_s / untraced_s - 1.0,
    }
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        values[f"{layer}.self_frac"] = layer_self[layer] / tracer.op_wall_s
    metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
    shown = dict(metrics)
    shown["op_ms.traced_mean"] = (1000.0 * tracer.op_wall_s / n, "ms")
    shown["op_ms.untraced_mean"] = (1000.0 * untraced_s / n, "ms")
    notes = {k: f"share of op wall time, n={n} traced ops" for k in shown if k.endswith(".self_frac")}

    # Wiring self-check on the single-station runs: every best-response call
    # must be seen, one per user per iteration as the summaries report them.
    # A count of 0 means the program no longer calls the scalar best response.
    if workload == "cell":
        br = a("engine.best_response").calls
        if br and br != user_iterations:
            raise SystemExit(f"wiring check failed: {br} best-response calls, summaries give N*iterations = {user_iterations}")
        log(f"wiring check: {br} best-response calls, N*iterations = {user_iterations} over {n} traced ops")

    OUT_DIR.mkdir(exist_ok=True)
    dump = {"workload": workload, "seed": seed, "env": env, **tracer.span_dump()}
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(dump, separators=(",", ":")))
    log(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics, shown, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratepower" / "__init__.py").is_file():
        print(f"error: no ratepower package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    import ratepower

    if Path(ratepower.__file__).resolve().parent != SRC / "ratepower":
        print(f"error: imported ratepower from {ratepower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(msg):
        print(f"# {msg}", flush=True)

    env = environment()
    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    log("env: " + json.dumps(env))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload](args.seed, workdir), log)
        if args.trace:
            metrics, shown, notes = per_layer(runner, args.workload, args.seed, env, log)
        else:
            metrics, shown, notes = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        log(f"{name:30s} {value:14.6g} {unit}{note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
