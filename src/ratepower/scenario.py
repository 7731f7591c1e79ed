"""Scenario documents: parsing, execution with events, trace and summary output.

A scenario file is line-oriented, sectioned key = value text:

    [network]            radio constants (all optional)
    [user NAME]          one per user; distances_m is the only required key
    [run]                policy, schedule, stopping rule, discrete rates
    [pricing]            optional rule applied to every user's pricing factor
    [event arrival]      a user that starts transmitting mid-run
    [event move]         a user whose distances change between solver steps

Numbers accept scientific notation and must be finite; lists (distances_m,
rates) are whitespace separated; '#' starts a comment. Arrival and move events
cannot be combined in one scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ChannelModel, UserParams, target_sinr
from .engine import (
    CLAMP,
    KKT,
    METRIC_ABSOLUTE,
    METRIC_RELATIVE,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationRecord,
    IterationTrace,
    iterate_to_convergence,
)
from .admission import PRICING_KINDS, PricingRule, classify_users, priced_users
from .rates import RateSet

__all__ = [
    "Scenario",
    "ArrivalEvent",
    "MoveEvent",
    "ScenarioFormatError",
    "parse_scenario",
    "scenario_to_text",
    "run_scenario",
    "sweep_lambda",
    "emit_trace",
    "RunSummary",
    "StepResult",
    "summarize_run",
    "summary_to_text",
    "write_summary",
    "TRACE_HEADER",
]

TRACE_HEADER = "iter,user,bs,p_w,r_bps,sinr,utility,metric"

_NETWORK_KEYS = {"bandwidth_hz", "noise_w", "pathloss_exponent", "shadowing"}
_USER_KEYS = {
    "distances_m",
    "alpha1",
    "alpha2",
    "lambda",
    "p_min",
    "p_max",
    "r_min",
    "r_max",
    "p_init",
    "r_init",
}
_RUN_KEYS = {"policy", "schedule", "delta", "max_iterations", "metric", "rates", "quantize"}
_PRICING_KEYS = {"rule", "c", "dc"}
_ARRIVAL_KEYS = {"iteration", "user"} | _USER_KEYS
_MOVE_KEYS = {"step", "user", "distances_m"}

_POLICY_ALIASES = {"clamp": CLAMP, "kkt": KKT}
_SCHEDULE_ALIASES = {
    "synchronous": SYNCHRONOUS,
    "sync": SYNCHRONOUS,
    "sequential": SEQUENTIAL,
    "seq": SEQUENTIAL,
}
_METRIC_ALIASES = {"relative": METRIC_RELATIVE, "absolute": METRIC_ABSOLUTE}
_QUANTIZE_MODES = {"per_iteration": False, "at_convergence": True}


class ScenarioFormatError(ValueError):
    """Parse or validation failure, annotated with the offending line."""


@dataclass
class ArrivalEvent:
    """A user that starts transmitting at the given iteration."""

    iteration: int
    name: str
    distances_m: np.ndarray
    user: UserParams


@dataclass
class MoveEvent:
    """A change of one user's distances applied before solver step ``step``."""

    step: int
    user: int
    user_name: str
    distances_m: np.ndarray


@dataclass
class Scenario:
    """Everything needed to execute one experiment."""

    channel: ChannelModel
    users: list[UserParams]
    user_names: list[str]
    policy: str = CLAMP
    schedule: str = SYNCHRONOUS
    config: ConvergenceConfig = field(default_factory=ConvergenceConfig)
    rate_set: RateSet | None = None
    quantize_at_convergence: bool = False
    pricing: PricingRule | None = None
    arrivals: list[ArrivalEvent] = field(default_factory=list)
    moves: list[MoveEvent] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parsing


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; defaults fill anything omitted."""
    sections = _split_sections(text)

    network = {}
    users: list[tuple[str, dict, int]] = []
    run: dict = {}
    pricing: dict = {}
    arrivals_raw: list[tuple[dict, int]] = []
    moves_raw: list[tuple[dict, int]] = []
    seen_singletons: set[str] = set()

    for header, line_no, body in sections:
        kind = header[0]
        if kind in ("network", "run", "pricing"):
            if kind in seen_singletons:
                raise ScenarioFormatError(f"line {line_no}: duplicate [{kind}] section")
            seen_singletons.add(kind)
        if kind == "network":
            _check_keys(body, _NETWORK_KEYS, "network")
            network = body
        elif kind == "user":
            users.append((header[1], body, line_no))
        elif kind == "run":
            _check_keys(body, _RUN_KEYS, "run")
            run = body
        elif kind == "pricing":
            _check_keys(body, _PRICING_KEYS, "pricing")
            pricing = body
        elif kind == "arrival":
            _check_keys(body, _ARRIVAL_KEYS, "event arrival")
            arrivals_raw.append((body, line_no))
        else:
            _check_keys(body, _MOVE_KEYS, "event move")
            moves_raw.append((body, line_no))

    if not users:
        raise ScenarioFormatError("scenario declares no [user ...] sections")

    names = [n for n, _, _ in users]
    if len(set(names)) != len(names):
        raise ScenarioFormatError("duplicate user names")

    distances = []
    params = []
    n_stations = None
    for name, body, line_no in users:
        _check_keys(body, _USER_KEYS, f"user {name}")
        if "distances_m" not in body:
            raise ScenarioFormatError(f"line {line_no}: user {name!r} is missing distances_m")
        d = _floats(body["distances_m"])
        if n_stations is None:
            n_stations = len(d)
        elif len(d) != n_stations:
            raise ScenarioFormatError(
                f"line {body['distances_m'][1]}: user {name!r} has {len(d)} distances, "
                f"expected {n_stations}"
            )
        distances.append(d)
        params.append(_build_user(name, body, line_no))

    try:
        channel = ChannelModel(
            np.array(distances),
            pathloss_exponent=_get_float(network, "pathloss_exponent", 4.0),
            shadowing=_get_float(network, "shadowing", 0.097),
            noise_w=_get_float(network, "noise_w", 5e-15),
            bandwidth_hz=_get_float(network, "bandwidth_hz", 1e6),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"[network]: {exc}") from exc

    policy = _alias(run, "policy", _POLICY_ALIASES, CLAMP)
    schedule = _alias(run, "schedule", _SCHEDULE_ALIASES, SYNCHRONOUS)
    metric = _alias(run, "metric", _METRIC_ALIASES, METRIC_RELATIVE)
    try:
        config = ConvergenceConfig(
            delta=_get_float(run, "delta", 1e-9),
            max_iterations=_get_int(run, "max_iterations", 500),
            metric=metric,
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"[run]: {exc}") from exc

    rate_set = None
    if "rates" in run:
        try:
            rate_set = RateSet(tuple(_floats(run["rates"])))
        except ValueError as exc:
            raise ScenarioFormatError(f"line {run['rates'][1]}: {exc}") from exc
    quantize_at_convergence = False
    if "quantize" in run:
        raw, line_no = run["quantize"]
        if raw not in _QUANTIZE_MODES:
            raise ScenarioFormatError(
                f"line {line_no}: quantize must be one of {sorted(_QUANTIZE_MODES)}"
            )
        quantize_at_convergence = _QUANTIZE_MODES[raw]

    pricing_rule = None
    if pricing:
        kind_raw, kind_line = pricing.get("rule", ("constant", 0))
        if kind_raw not in PRICING_KINDS:
            raise ScenarioFormatError(
                f"line {kind_line}: pricing rule must be one of {PRICING_KINDS}"
            )
        try:
            pricing_rule = PricingRule(
                kind=kind_raw,
                c=_get_float(pricing, "c", 1e-4),
                dc=_get_float(pricing, "dc", None),
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"[pricing]: {exc}") from exc
        if channel.n_stations > 1 and kind_raw in ("direct_gain", "inverse_gain"):
            raise ScenarioFormatError(
                f"line {kind_line}: gain-dependent pricing cannot be used with "
                f"{channel.n_stations} stations"
            )

    arrivals = []
    taken = set(names)
    last_arrival = 0
    for body, line_no in arrivals_raw:
        if "iteration" not in body or "user" not in body:
            raise ScenarioFormatError(f"line {line_no}: arrival needs iteration and user keys")
        iteration = _get_int(body, "iteration", None)
        if iteration < 1:
            raise ScenarioFormatError(f"line {line_no}: arrival iteration must be >= 1")
        if iteration <= last_arrival:
            raise ScenarioFormatError(f"line {line_no}: arrival iterations must strictly increase")
        last_arrival = iteration
        name = body["user"][0]
        if name in taken:
            raise ScenarioFormatError(f"line {line_no}: arrival user name {name!r} already used")
        taken.add(name)
        if "distances_m" not in body:
            raise ScenarioFormatError(f"line {line_no}: arrival is missing distances_m")
        d = _floats(body["distances_m"])
        if len(d) != channel.n_stations:
            raise ScenarioFormatError(
                f"line {line_no}: arrival has {len(d)} distances, expected {channel.n_stations}"
            )
        arrivals.append(ArrivalEvent(iteration, name, np.array(d), _build_user(name, body, line_no)))

    moves = []
    last_step = 0
    for body, line_no in moves_raw:
        if "step" not in body or "user" not in body or "distances_m" not in body:
            raise ScenarioFormatError(f"line {line_no}: move needs step, user and distances_m keys")
        step = _get_int(body, "step", None)
        if step < 1:
            raise ScenarioFormatError(f"line {line_no}: move step must be >= 1")
        if step <= last_step:
            raise ScenarioFormatError(f"line {line_no}: move steps must strictly increase")
        last_step = step
        name = body["user"][0]
        if name not in names:
            raise ScenarioFormatError(f"line {line_no}: move references unknown user {name!r}")
        d = _floats(body["distances_m"])
        if len(d) != channel.n_stations:
            raise ScenarioFormatError(
                f"line {line_no}: move has {len(d)} distances, expected {channel.n_stations}"
            )
        moves.append(MoveEvent(step, names.index(name), name, np.array(d)))

    if arrivals and moves:
        raise ScenarioFormatError("arrival and move events cannot be combined in one scenario")

    return Scenario(
        channel=channel,
        users=params,
        user_names=names,
        policy=policy,
        schedule=schedule,
        config=config,
        rate_set=rate_set,
        quantize_at_convergence=quantize_at_convergence,
        pricing=pricing_rule,
        arrivals=arrivals,
        moves=moves,
    )


def _split_sections(text: str):
    sections = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioFormatError(f"line {line_no}: malformed section header {raw.strip()!r}")
            tokens = line[1:-1].split()
            header = _header_tokens(tokens, line_no)
            current = (header, line_no, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ScenarioFormatError(f"line {line_no}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioFormatError(f"line {line_no}: empty key or value")
        if key in current[2]:
            raise ScenarioFormatError(f"line {line_no}: duplicate key {key!r}")
        current[2][key] = (value, line_no)
    return sections


def _header_tokens(tokens, line_no):
    if tokens == ["network"] or tokens == ["run"] or tokens == ["pricing"]:
        return (tokens[0],)
    if len(tokens) == 2 and tokens[0] == "user":
        name = tokens[1]
        if not name.replace("_", "").isalnum():
            raise ScenarioFormatError(
                f"line {line_no}: user names must be alphanumeric/underscore, got {name!r}"
            )
        return ("user", name)
    if len(tokens) == 2 and tokens[0] == "event" and tokens[1] in ("arrival", "move"):
        return (tokens[1],)
    raise ScenarioFormatError(f"line {line_no}: unknown section [{' '.join(tokens)}]")


def _check_keys(body, allowed, where):
    for key, (_, line_no) in body.items():
        if key not in allowed:
            raise ScenarioFormatError(f"line {line_no}: unknown key {key!r} in [{where}]")


def _float_value(raw, line_no):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioFormatError(f"line {line_no}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioFormatError(f"line {line_no}: expected a finite number, got {raw!r}")
    return value


def _get_float(body, key, default):
    if key not in body:
        return default
    raw, line_no = body[key]
    return _float_value(raw, line_no)


def _get_int(body, key, default):
    if key not in body:
        return default
    raw, line_no = body[key]
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioFormatError(f"line {line_no}: expected an integer, got {raw!r}") from None
    return value


def _floats(entry):
    raw, line_no = entry
    return [_float_value(tok, line_no) for tok in raw.split()]


def _alias(body, key, aliases, default):
    if key not in body:
        return default
    raw, line_no = body[key]
    if raw not in aliases:
        raise ScenarioFormatError(f"line {line_no}: {key} must be one of {sorted(aliases)}")
    return aliases[raw]


def _build_user(name, body, line_no) -> UserParams:
    kwargs = {}
    if "lambda" in body:
        values = _floats(body["lambda"])
        if len(set(values)) != 1:
            raise ScenarioFormatError(
                f"line {body['lambda'][1]}: user {name!r} pricing must be identical "
                "across stations"
            )
        kwargs["lam"] = values[0]
    for key in ("alpha1", "alpha2", "p_min", "p_max", "r_min", "r_max", "p_init", "r_init"):
        if key in body:
            kwargs[key] = _get_float(body, key, None)
    try:
        return UserParams(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"line {line_no}: user {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Serialization (canonical form; parse -> serialize -> parse is stable)


def scenario_to_text(s: Scenario) -> str:
    out = ["[network]"]
    ch = s.channel
    out.append(f"bandwidth_hz = {ch.bandwidth_hz!r}")
    out.append(f"noise_w = {ch.noise_w!r}")
    out.append(f"pathloss_exponent = {ch.pathloss_exponent!r}")
    out.append(f"shadowing = {ch.shadowing!r}")
    for name, user, row in zip(s.user_names, s.users, ch.distances_m):
        out.append("")
        out.append(f"[user {name}]")
        out.append("distances_m = " + " ".join(repr(float(d)) for d in row))
        out.extend(_user_lines(user))
    out.append("")
    out.append("[run]")
    out.append(f"policy = {s.policy}")
    out.append(f"schedule = {s.schedule}")
    out.append(f"delta = {s.config.delta!r}")
    out.append(f"max_iterations = {s.config.max_iterations}")
    out.append(f"metric = {s.config.metric}")
    if s.rate_set is not None:
        out.append("rates = " + " ".join(repr(float(r)) for r in s.rate_set.rates))
        out.append(
            "quantize = " + ("at_convergence" if s.quantize_at_convergence else "per_iteration")
        )
    if s.pricing is not None:
        out.append("")
        out.append("[pricing]")
        out.append(f"rule = {s.pricing.kind}")
        out.append(f"c = {s.pricing.c!r}")
        if s.pricing.dc is not None:
            out.append(f"dc = {s.pricing.dc!r}")
    for ev in s.arrivals:
        out.append("")
        out.append("[event arrival]")
        out.append(f"iteration = {ev.iteration}")
        out.append(f"user = {ev.name}")
        out.append("distances_m = " + " ".join(repr(float(d)) for d in ev.distances_m))
        out.extend(_user_lines(ev.user))
    for ev in s.moves:
        out.append("")
        out.append("[event move]")
        out.append(f"step = {ev.step}")
        out.append(f"user = {ev.user_name}")
        out.append("distances_m = " + " ".join(repr(float(d)) for d in ev.distances_m))
    return "\n".join(out) + "\n"


def _user_lines(user: UserParams) -> list[str]:
    lines = [
        f"alpha1 = {user.alpha1!r}",
        f"alpha2 = {user.alpha2!r}",
        f"lambda = {user.lam!r}",
        f"p_min = {user.p_min!r}",
        f"p_max = {user.p_max!r}",
        f"r_min = {user.r_min!r}",
        f"r_max = {user.r_max!r}",
    ]
    if user.p_init is not None:
        lines.append(f"p_init = {user.p_init!r}")
    if user.r_init is not None:
        lines.append(f"r_init = {user.r_init!r}")
    return lines


# ---------------------------------------------------------------------------
# Execution


@dataclass
class StepResult:
    """Converged state of one movement step."""

    step: int
    converged: bool
    iterations_used: int
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    assignment: np.ndarray


@dataclass
class RunSummary:
    """Converged (or last) state of a scenario run."""

    converged: bool
    iterations_used: int
    user_names: list[str]
    powers: np.ndarray
    rates: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    assignment: np.ndarray
    targets: np.ndarray
    outcomes: list[str]
    lam: np.ndarray
    steps: list[StepResult] = field(default_factory=list)


def run_scenario(scenario: Scenario) -> tuple[IterationTrace, RunSummary]:
    """Execute a scenario and summarize its converged state.

    Arrival events insert their user at the stated iteration with its initial
    strategy and the loop keeps going until it converges with no event
    pending. Move events split the run into outer steps, each an independent
    solve of the updated geometry; the summary then carries one entry per
    step. A [pricing] rule is re-evaluated whenever the user set or the
    geometry it depends on changes. Non-convergence is flagged in the
    summary, not raised.
    """
    if scenario.moves:
        return _run_move_scenario(scenario)

    def reprice(channel, users):
        return _apply_pricing(scenario, channel, users)

    trace = iterate_to_convergence(
        scenario.channel,
        reprice(scenario.channel, scenario.users),
        scenario.policy,
        scenario.config,
        scenario.schedule,
        scenario.rate_set,
        scenario.quantize_at_convergence,
        arrivals=scenario.arrivals,
        reprice=reprice,
    )
    # Rebuild the network the run ended on: the arrivals it reached.
    arrived = [ev for ev in scenario.arrivals if ev.iteration <= trace.iterations_used]
    channel = scenario.channel
    for ev in arrived:
        channel = channel.with_user(ev.distances_m)
    users = reprice(channel, list(scenario.users) + [ev.user for ev in arrived])
    names = list(scenario.user_names) + [ev.name for ev in arrived]
    summary = summarize_run(channel, users, names, trace)
    return trace, summary


def sweep_lambda(
    scenario: Scenario, lambdas
) -> list[tuple[float, IterationTrace, RunSummary]]:
    """Run the scenario once per pricing value, uniform across users.

    The swept value wins over any [pricing] section the scenario carries.
    """
    results = []
    for lam in lambdas:
        swept = replace(
            scenario,
            pricing=None,
            users=[replace(u, lam=float(lam)) for u in scenario.users],
        )
        trace, summary = run_scenario(swept)
        results.append((float(lam), trace, summary))
    return results


def _apply_pricing(scenario, channel, users) -> list[UserParams]:
    if scenario.pricing is None:
        return list(users)
    return priced_users(scenario.pricing, channel, users)


def _run_move_scenario(scenario: Scenario):
    # Every step is an independent solve of the new geometry from the default
    # initial strategies. The converged point is initialization-independent,
    # and a cold start keeps a geometrically symmetric step actually
    # symmetric, so the assignment tie-break can hold a walker at its current
    # station instead of inheriting the previous geometry's power skew.
    channel = scenario.channel
    config = scenario.config

    moves_by_step: dict[int, list[MoveEvent]] = {}
    for ev in scenario.moves:
        moves_by_step.setdefault(ev.step, []).append(ev)
    step_numbers = sorted(set([1]) | set(moves_by_step))

    records: list[IterationRecord] = []
    step_results: list[StepResult] = []
    offset = 0
    all_converged = True
    users = list(scenario.users)
    for step_no in step_numbers:
        for ev in moves_by_step.get(step_no, []):
            channel = channel.moved(ev.user, ev.distances_m)
        users = _apply_pricing(scenario, channel, scenario.users)
        trace = iterate_to_convergence(
            channel,
            users,
            scenario.policy,
            config,
            scenario.schedule,
            scenario.rate_set,
            scenario.quantize_at_convergence,
        )
        all_converged = all_converged and trace.converged
        for rec in trace.records:
            records.append(
                IterationRecord(
                    offset + rec.iteration,
                    step_no,
                    rec.user_ids,
                    rec.assignment,
                    rec.powers,
                    rec.rates,
                    rec.sinrs,
                    rec.utilities,
                    rec.metric,
                )
            )
        offset += trace.iterations_used
        final = trace.final
        step_results.append(
            StepResult(
                step_no,
                trace.converged,
                trace.iterations_used,
                final.powers,
                final.rates,
                final.sinrs,
                final.assignment,
            )
        )

    trace = IterationTrace(records, all_converged, offset)
    summary = summarize_run(channel, users, list(scenario.user_names), trace)
    summary.steps = step_results
    return trace, summary


def summarize_run(channel, users, names, trace: IterationTrace) -> RunSummary:
    """Condense a finished trace into a RunSummary over the given users."""
    final = trace.final
    targets = np.array([target_sinr(u.alpha1, u.alpha2, channel.bandwidth_hz) for u in users])
    if trace.converged:
        outcomes = classify_users(trace, targets)
    else:
        outcomes = ["unclassified"] * len(users)
    return RunSummary(
        converged=trace.converged,
        iterations_used=trace.iterations_used,
        user_names=list(names),
        powers=final.powers.copy(),
        rates=final.rates.copy(),
        sinrs=final.sinrs.copy(),
        utilities=final.utilities.copy(),
        assignment=final.assignment.copy(),
        targets=targets,
        outcomes=outcomes,
        lam=np.array([u.lam for u in users]),
    )


# ---------------------------------------------------------------------------
# Output


def _fmt(x: float) -> str:
    return format(float(x), ".10e")


def emit_trace(trace: IterationTrace, destination) -> None:
    """Write the run history as CSV, one row per user per iteration.

    Rows are ordered by iteration then user id; floats carry 11 significant
    digits so re-running a scenario produces byte-identical files.
    """
    lines = [TRACE_HEADER]
    for rec in trace.records:
        for k in range(len(rec.user_ids)):
            lines.append(
                ",".join(
                    [
                        str(rec.iteration),
                        str(int(rec.user_ids[k])),
                        str(int(rec.assignment[k])),
                        _fmt(rec.powers[k]),
                        _fmt(rec.rates[k]),
                        _fmt(rec.sinrs[k]),
                        _fmt(rec.utilities[k]),
                        _fmt(rec.metric),
                    ]
                )
            )
    _write_text(destination, "\n".join(lines) + "\n")


def summary_to_text(summary: RunSummary) -> str:
    """Flat key = value rendering of a run summary."""
    out = [
        f"converged = {str(summary.converged).lower()}",
        f"iterations_used = {summary.iterations_used}",
        f"n_users = {len(summary.user_names)}",
    ]
    for k, name in enumerate(summary.user_names):
        out.append(f"{name}.bs = {int(summary.assignment[k])}")
        out.append(f"{name}.p_w = {_fmt(summary.powers[k])}")
        out.append(f"{name}.r_bps = {_fmt(summary.rates[k])}")
        out.append(f"{name}.sinr = {_fmt(summary.sinrs[k])}")
        out.append(f"{name}.target_sinr = {_fmt(summary.targets[k])}")
        out.append(f"{name}.lambda = {_fmt(summary.lam[k])}")
        out.append(f"{name}.outcome = {summary.outcomes[k]}")
    if summary.steps:
        out.append(f"n_steps = {len(summary.steps)}")
        for sr in summary.steps:
            for k, name in enumerate(summary.user_names):
                out.append(f"step{sr.step}.{name}.bs = {int(sr.assignment[k])}")
                out.append(f"step{sr.step}.{name}.p_w = {_fmt(sr.powers[k])}")
                out.append(f"step{sr.step}.{name}.r_bps = {_fmt(sr.rates[k])}")
                out.append(f"step{sr.step}.{name}.sinr = {_fmt(sr.sinrs[k])}")
    return "\n".join(out) + "\n"


def write_summary(summary: RunSummary, destination) -> None:
    _write_text(destination, summary_to_text(summary))


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
