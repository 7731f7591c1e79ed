"""Command-line front end: run scenario files, reproduce built-ins, sweep pricing."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .admission import NotConvergedError, PricingRule, escalate_pricing, removal_loop
from .reference import REPRODUCE_TARGETS, reproduce
from .scenario import (
    _SCHEDULE_ALIASES,
    ScenarioFormatError,
    emit_trace,
    parse_scenario,
    run_scenario,
    summarize_run,
    summary_to_text,
    sweep_lambda,
    write_summary,
)

_POLICY_CHOICES = ("clamp", "kkt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ratepower",
        description="Distributed joint rate/power allocation games for CDMA uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file to convergence")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the per-iteration CSV here")
    p_run.add_argument("--summary", help="write the converged summary here")
    p_run.add_argument("--policy", choices=_POLICY_CHOICES)
    p_run.add_argument("--schedule", choices=tuple(_SCHEDULE_ALIASES))

    p_rep = sub.add_parser("reproduce", help="rerun a built-in experiment")
    p_rep.add_argument("target", choices=REPRODUCE_TARGETS + ("all",))

    p_sweep = sub.add_parser("sweep-lambda", help="rerun a scenario over a pricing range")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--from", dest="lam_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="lam_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", help="write the sweep CSV here (default stdout)")

    p_tune = sub.add_parser("tune-pricing", help="escalate pricing until no user is below target")
    p_tune.add_argument("scenario")
    p_tune.add_argument("--dc", type=float, help="escalation step (default c0 / 4)")
    p_tune.add_argument("--max-steps", type=int, default=40)
    p_tune.add_argument("--summary", help="write the final summary here")

    p_rem = sub.add_parser("remove-loop", help="remove below-target users one by one")
    p_rem.add_argument("scenario")
    p_rem.add_argument("--summary", help="write the final summary here")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ScenarioFormatError, ValueError, OSError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
    if getattr(args, "policy", None):
        scenario.policy = args.policy
    if getattr(args, "schedule", None):
        scenario.schedule = _SCHEDULE_ALIASES[args.schedule]
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    trace, summary = run_scenario(scenario)
    if args.trace:
        emit_trace(trace, args.trace)
    if args.summary:
        write_summary(summary, args.summary)
    print(summary_to_text(summary), end="")
    return 0 if summary.converged else 1


def _cmd_reproduce(args) -> int:
    targets = REPRODUCE_TARGETS if args.target == "all" else (args.target,)
    ok = True
    for target in targets:
        report = reproduce(target)
        print(report)
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
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
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0 if all(s.converged for _, _, s in results) else 1


def _cmd_tune(args) -> int:
    scenario = _load(args)
    rule = scenario.pricing
    if rule is None:
        lams = {u.lam for u in scenario.users}
        if len(lams) != 1:
            raise ValueError(
                "tune-pricing without a [pricing] section needs a uniform user lambda"
            )
        rule = PricingRule("constant", lams.pop())
    result = escalate_pricing(
        scenario.channel,
        scenario.users,
        rule,
        dc=args.dc,
        max_steps=args.max_steps,
        policy=scenario.policy,
        config=scenario.config,
        schedule=scenario.schedule,
    )
    status = "achieved" if result.achieved else "not-achieved"
    print(f"tune-pricing: {status} c_final = {result.c_final:.10e} after {len(result.tested)} runs")
    for k, (rate, s) in enumerate(zip(result.trace.final_rates, result.trace.final_sinrs)):
        print(f"user {k}: r_bps = {rate:.10e} sinr = {s:.10e}")
    if args.summary:
        write_summary(
            summarize_run(scenario.channel, result.users, scenario.user_names, result.trace),
            args.summary,
        )
    return 0 if result.achieved else 1


def _cmd_remove(args) -> int:
    scenario = _load(args)
    result = removal_loop(
        scenario.channel,
        scenario.users,
        policy=scenario.policy,
        config=scenario.config,
        schedule=scenario.schedule,
    )
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
        write_summary(
            summarize_run(
                scenario.channel.subset(result.remaining),
                [scenario.users[i] for i in result.remaining],
                remaining,
                result.trace,
            ),
            args.summary,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
