"""Print every metric of every workload and check the benchmark against itself.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

For each workload it runs ``run.py`` once with tracing off and twice with
tracing on, one after the other and with the same seed. It prints every
end-to-end and per-layer metric by name with its unit (the ``#`` lines of the
runs, which name the tail percentile and its sample count), and checks that:

- every op of every run passed its correctness checks;
- every count of the traced runs is identical between the two of them;
- the layer breakdown matches the profile the benchmark was designed on:
  on ``multicell`` the assignment is the busiest layer metric; on ``cell``
  the best response and the trace writer each take over 15% of the untraced
  op time; on ``reproduce`` there are multicell solves and no trace rows.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "cell", "multicell")
COUNT_UNITS = ("count", "bytes")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def layer_checks(workload, metrics, notes) -> list:
    v = {k: m["value"] for k, m in metrics.items()}
    if workload == "multicell":
        busy = {k: x for k, x in v.items() if k.endswith(("busy_s", "self_s"))}
        top = max(busy, key=busy.get)
        return [("multicell.assign.busy_s is the largest layer", top == "multicell.assign.busy_s", top)]
    if workload == "cell":
        op_s = notes["op_ms.untraced_mean"] / 1000.0
        out = []
        for k in ("engine.best_response.busy_s", "scenario.trace.busy_s"):
            share = v[k] / op_s
            out.append((f"{k} > 15% of op time", share > 0.15, f"{share:.1%}"))
        return out
    return [
        ("multicell.solves > 0", v["multicell.solves"] > 0, v["multicell.solves"]),
        ("scenario.trace.rows == 0", v["scenario.trace.rows"] == 0, v["scenario.trace.rows"]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        print(f"== {workload}, seed {args.seed}")
        results, outputs = [], []
        for trace in (0, 1, 1):
            lines, result = run(workload, args.seed, args.seconds, trace)
            results.append(result)
            outputs.append(lines)
            if len(results) < 3:
                print("\n".join(line for line in lines if not line.startswith("# env")))
        checks = [(f"run {k}: every op correct", r["correct"], f"{r['failed']}/{r['attempted']} failed") for k, r in enumerate(results)]
        first, second = results[1]["metrics"], results[2]["metrics"]
        differ = [k for k, m in first.items() if m["unit"] in COUNT_UNITS and m["value"] != second[k]["value"]]
        checks.append(("counts identical in two traced runs", not differ, ", ".join(differ) or "all equal"))
        # The untraced mean op time of the first traced run, from its '#' lines.
        notes = {}
        for line in outputs[1]:
            parts = line[2:].split()
            if parts and parts[0] == "op_ms.untraced_mean":
                notes[parts[0]] = float(parts[1])
        checks += layer_checks(workload, first, notes)
        for name, passed, detail in checks:
            ok = ok and bool(passed)
            print(f"[{'ok  ' if passed else 'FAIL'}] {name}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
