"""Command-line front end: run scenario files, reproduce built-ins, sweep pricing."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .admission import NotConvergedError, escalate_pricing, removal_loop
from .core import PricingRule
from .engine import HISTORY_FULL
from .scenario import (
    _SCHEMA,
    ScenarioFormatError,
    _write_text,
    emit_trace,
    parse_scenario,
    run_scenario,
    summarize_run,
    summary_to_text,
    sweep_lambda,
    write_summary,
)

# The [run] choices that `run` also takes as flags, spelled as in a scenario.
_FLAGS = ("policy", "schedule")

# `reference.REPRODUCE_TARGETS`, spelled out so that building the parser does
# not import `reference`, which only `reproduce` runs; a test pins the two equal.
_REPRODUCE_TARGETS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a reader that left early fails here, not at exit
        return code
    except (ScenarioFormatError, ValueError, OSError, NotConvergedError) as exc:
        # A broken pipe raised in this module's own code is stdout's, as only
        # ``scenario`` writes files. Python flushes stdout again at exit: point
        # it at devnull, as the SIGPIPE note of the ``signal`` docs says.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        if isinstance(exc, BrokenPipeError) and tb.tb_frame.f_globals is globals():
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing keeps no state in the parser, and every
    # call gets a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="ratepower",
        description="Distributed joint rate/power allocation games for CDMA uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file to convergence")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the per-iteration CSV here")
    p_run.add_argument("--summary", help="write the converged summary here")
    for name in _FLAGS:
        p_run.add_argument(f"--{name}", choices=tuple(_SCHEMA["run"][name].aliases))

    p_rep = sub.add_parser("reproduce", help="rerun a built-in experiment")
    p_rep.add_argument("target", choices=_REPRODUCE_TARGETS + ("all",))

    p_sweep = sub.add_parser("sweep-lambda", help="rerun a scenario over a pricing range")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--from", dest="lam_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="lam_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", help="write the sweep CSV here (default stdout)")

    p_tune = sub.add_parser("tune-pricing", help="escalate pricing until no user is below target")
    p_tune.add_argument("scenario")
    p_tune.add_argument("--dc", type=float, help="escalation step (default: rule dc, else c / 4)")
    p_tune.add_argument("--max-steps", type=int)
    p_tune.add_argument("--summary", help="write the final summary here")

    p_rem = sub.add_parser("remove-loop", help="remove below-target users one by one")
    p_rem.add_argument("scenario")
    p_rem.add_argument("--summary", help="write the final summary here")
    return parser


def _dispatch(args) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "sweep-lambda":
        return _cmd_sweep(args)
    if args.command == "tune-pricing":
        return _cmd_tune(args)
    return _cmd_remove(args)


def _load(args):
    with open(args.scenario, encoding="utf-8") as f:
        scenario = parse_scenario(f.read())
    flags = {
        name: _SCHEMA["run"][name].aliases[value]
        for name in _FLAGS
        if (value := getattr(args, name, None))
    }
    if flags:
        scenario = replace(scenario, config=replace(scenario.config, **flags))
    return scenario


def _reject_unrun_sections(scenario, command: str, pricing: bool) -> None:
    # Escalation and removal solve the listed users once, continuously, and
    # removal prices users by their own lambda; refuse what they would drop.
    dropped = [
        name
        for name, present in (
            ("[run] rates", scenario.config.rate_set is not None),
            ("[pricing]", not pricing and scenario.pricing is not None),
            ("[event arrival]", bool(scenario.arrivals)),
            ("[event move]", bool(scenario.moves)),
        )
        if present
    ]
    if dropped:
        raise ValueError(f"{command} cannot run a scenario with {', '.join(dropped)}")


def _cmd_run(args) -> int:
    scenario = _load(args)
    if args.trace:
        # Only the CSV trace reads more than each segment's last row.
        scenario = replace(scenario, config=replace(scenario.config, history=HISTORY_FULL))
    trace, summary = run_scenario(scenario)
    if args.trace:
        emit_trace(trace, args.trace)
    text = summary_to_text(summary)
    if args.summary:
        _write_text(args.summary, text)
    print(text, end="")
    return 0 if summary.converged else 1


def _cmd_reproduce(args) -> int:
    from .reference import reproduce_many

    targets = _REPRODUCE_TARGETS if args.target == "all" else (args.target,)
    # Every target's runs are solved before the first report prints.
    reports = reproduce_many(targets)
    for report in reports:
        print(report)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if not (math.isfinite(args.lam_from) and math.isfinite(args.lam_to)):
        raise ValueError("pricing values must be finite")
    if args.lam_from <= 0 or args.lam_to <= 0:
        raise ValueError("pricing values must be positive")
    lambdas = np.geomspace(args.lam_from, args.lam_to, args.steps)
    results = sweep_lambda(scenario, lambdas)
    lines = ["lambda,user,bs,p_w,r_bps,sinr,converged"]
    for lam, _, summary in results:
        for k, name in enumerate(summary.user_names):
            lines.append(
                f"{lam:.10e},{name},{int(summary.assignment[k])},"
                f"{summary.powers[k]:.10e},{summary.rates[k]:.10e},"
                f"{summary.sinrs[k]:.10e},{str(summary.converged).lower()}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0 if all(s.converged for _, _, s in results) else 1


def _cmd_tune(args) -> int:
    scenario = _load(args)
    _reject_unrun_sections(scenario, "tune-pricing", pricing=True)
    rule = scenario.pricing
    if rule is None:
        lams = np.unique(scenario.users.lam)
        if lams.size != 1:
            raise ValueError(
                "tune-pricing without a [pricing] section needs a uniform user lambda"
            )
        rule = PricingRule("constant", float(lams[0]))
    if args.dc is not None:
        rule = replace(rule, dc=args.dc)
    budget = {} if args.max_steps is None else {"max_steps": args.max_steps}
    result = escalate_pricing(scenario.channel, scenario.users, rule, scenario.config, **budget)
    status = "achieved" if result.achieved else "not-achieved"
    print(f"tune-pricing: {status} c_final = {result.c_final:.10e} after {len(result.tested)} runs")
    for k, (rate, s) in enumerate(zip(result.trace.final_rates, result.trace.final_sinrs)):
        print(f"user {k}: r_bps = {rate:.10e} sinr = {s:.10e}")
    if args.summary:
        write_summary(summarize_run(result.trace, scenario.user_names), args.summary)
    return 0 if result.achieved else 1


def _cmd_remove(args) -> int:
    scenario = _load(args)
    _reject_unrun_sections(scenario, "remove-loop", pricing=False)
    result = removal_loop(scenario.channel, scenario.users, scenario.config)
    removed = [scenario.user_names[i] for i in result.removed]
    print(f"removed: {' '.join(removed) if removed else '(none)'}")
    if result.empty_network:
        print("empty network: every user was removed")
        return 1
    remaining = [scenario.user_names[i] for i in result.remaining]
    print(f"remaining: {' '.join(remaining)}")
    for name, rate, s in zip(remaining, result.trace.final_rates, result.trace.final_sinrs):
        print(f"user {name}: r_bps = {rate:.10e} sinr = {s:.10e}")
    if args.summary:
        write_summary(summarize_run(result.trace, remaining), args.summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
