"""Scenario documents: parsing, execution with events, trace and summary output.

A scenario file is line-oriented, sectioned key = value text:

    [network]            radio constants (all optional)
    [user NAME]          one per user; distances_m is the only required key
    [run]                policy, schedule, stopping rule, discrete rates
    [pricing]            optional rule applied to every user's pricing factor
    [event arrival]      a user that starts transmitting mid-run
    [event move]         a user whose distances change between solver steps

The parser passes the keys a section holds, and only those, to the
dataclass they fill: a user's to ``UserParams``, ``[network]`` to
``ChannelModel``, ``[run]`` to ``ConvergenceConfig`` (the scenario's
``config``, every setting of its solves) and ``[pricing]`` to
``PricingRule``, so every default lives on its dataclass alone.

Numbers accept scientific notation and must be finite; lists (distances_m,
rates) are whitespace separated; '#' starts a comment. Events share one
timeline: arrivals fire at their iteration of solver step 1, and each later
step applies its moves to the network, arrivals included, and solves it cold.

A run's trace is its segments, (rows x users) columns on one network each:
every iteration's row when the scenario's config asks for "full" history,
as ``ratepower run --trace`` does, else only each segment's last. The CSV
trace writer encodes slices of those columns in numpy, a chunk of rows of
one segment at a time, from digit lookup tables; its output is byte for
byte what ``format(x, ".10e")`` and ``str(n)`` give, field by field.
"""

from __future__ import annotations

import functools
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
    Segment,
    iterate_batch,
    iterate_to_convergence,
)
from .admission import (
    GAIN_DEPENDENT_KINDS,
    PRICING_KINDS,
    PricingRule,
    classify_users,
    priced_users,
)
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
    "summarize_run",
    "summary_to_text",
    "write_summary",
    "TRACE_HEADER",
]

TRACE_HEADER = "iter,user,bs,p_w,r_bps,sinr,utility,metric"

_NETWORK_KEYS = ("pathloss_exponent", "shadowing", "noise_w", "bandwidth_hz")
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
_RUN_CHOICES = (
    ("policy", _POLICY_ALIASES),
    ("schedule", _SCHEDULE_ALIASES),
    ("metric", _METRIC_ALIASES),
)
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
    """Everything needed to execute one experiment; ``config`` holds the solve's settings."""

    channel: ChannelModel
    users: list[UserParams]
    user_names: list[str]
    config: ConvergenceConfig = field(default_factory=ConvergenceConfig)
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
        channel = ChannelModel(np.array(distances), **_present(network, _NETWORK_KEYS, _get_float))
    except ValueError as exc:
        raise ScenarioFormatError(f"[network]: {exc}") from exc

    settings = {key: _alias(run, key, aliases) for key, aliases in _RUN_CHOICES if key in run}
    settings |= _present(run, ("delta",), _get_float)
    settings |= _present(run, ("max_iterations",), _get_int)
    if "rates" in run:
        try:
            settings["rate_set"] = RateSet(tuple(_floats(run["rates"])))
        except ValueError as exc:
            raise ScenarioFormatError(f"line {run['rates'][1]}: {exc}") from exc
    if "quantize" in run:
        raw, line_no = run["quantize"]
        if "rates" not in run:
            raise ScenarioFormatError(f"line {line_no}: quantize needs a rates ladder")
        if raw not in _QUANTIZE_MODES:
            raise ScenarioFormatError(
                f"line {line_no}: quantize must be one of {sorted(_QUANTIZE_MODES)}"
            )
        settings["quantize_at_convergence"] = _QUANTIZE_MODES[raw]
    try:
        config = ConvergenceConfig(**settings)
    except ValueError as exc:
        raise ScenarioFormatError(f"[run]: {exc}") from exc

    pricing_rule = None
    if pricing:
        rule = {}
        if "rule" in pricing:
            rule["kind"], kind_line = pricing["rule"]
            if rule["kind"] not in PRICING_KINDS:
                raise ScenarioFormatError(
                    f"line {kind_line}: pricing rule must be one of {PRICING_KINDS}"
                )
        rule |= _present(pricing, ("c", "dc"), _get_float)
        try:
            pricing_rule = PricingRule(**rule)
        except ValueError as exc:
            raise ScenarioFormatError(f"[pricing]: {exc}") from exc
        if channel.n_stations > 1 and pricing_rule.kind in GAIN_DEPENDENT_KINDS:
            raise ScenarioFormatError(
                f"line {pricing['rule'][1]}: gain-dependent pricing cannot be used with "
                f"{channel.n_stations} stations"
            )

    arrivals = []
    taken = set(names)
    last_arrival = 0
    for body, line_no in arrivals_raw:
        if "iteration" not in body or "user" not in body:
            raise ScenarioFormatError(f"line {line_no}: arrival needs iteration and user keys")
        iteration = _get_int(body, "iteration")
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
        step = _get_int(body, "step")
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

    return Scenario(
        channel=channel,
        users=params,
        user_names=names,
        config=config,
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


def _get_float(body, key):
    raw, line_no = body[key]
    return _float_value(raw, line_no)


def _get_int(body, key):
    raw, line_no = body[key]
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioFormatError(f"line {line_no}: expected an integer, got {raw!r}") from None
    return value


def _floats(entry):
    raw, line_no = entry
    return [_float_value(tok, line_no) for tok in raw.split()]


def _alias(body, key, aliases):
    raw, line_no = body[key]
    if raw not in aliases:
        raise ScenarioFormatError(f"line {line_no}: {key} must be one of {sorted(aliases)}")
    return aliases[raw]


def _present(body, keys, parse) -> dict:
    # The keys of ``keys`` that ``body`` holds, parsed; an absent key keeps
    # the default of the dataclass the values are passed to.
    return {key: parse(body, key) for key in keys if key in body}


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
    kwargs |= _present(
        body, ("alpha1", "alpha2", "p_min", "p_max", "r_min", "r_max", "p_init", "r_init"), _get_float
    )
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
    config = s.config
    out.append("[run]")
    out.append(f"policy = {config.policy}")
    out.append(f"schedule = {config.schedule}")
    out.append(f"delta = {config.delta!r}")
    out.append(f"max_iterations = {config.max_iterations}")
    out.append(f"metric = {config.metric}")
    if config.rate_set is not None:
        out.append("rates = " + " ".join(repr(float(r)) for r in config.rate_set.rates))
        out.append(
            "quantize = " + ("at_convergence" if config.quantize_at_convergence else "per_iteration")
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
class RunSummary:
    """Converged (or last) state of a scenario run; with moves, each step's final row."""

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
    steps: list[IterationRecord] = field(default_factory=list)


def run_scenario(scenario: Scenario) -> tuple[IterationTrace, RunSummary]:
    """Execute a scenario and summarize its converged state.

    Runs step 1, then one step per distinct move step; each step applies its
    moves and solves to convergence. Arrivals insert their user at their
    iteration of step 1, which converges only with no arrival pending. A
    [pricing] rule is re-evaluated whenever the user set or the geometry it
    depends on changes. The trace joins every step's segments, numbered on
    one iteration count across steps; with moves, the summary carries each
    step's final row.
    Non-convergence is flagged in the summary, not raised.

    Every step is an independent solve of its geometry from the initial
    strategies, so the steps are solved as one batch. With arrivals step 1
    runs first, on its own, because the later steps play the network it grew.
    """
    ((trace, summary),) = _run_priced(scenario, [scenario.pricing])
    return trace, summary


def sweep_lambda(
    scenario: Scenario, lambdas
) -> list[tuple[float, IterationTrace, RunSummary]]:
    """Run the scenario once per pricing value, uniform across users.

    Each value is a constant pricing rule, so arriving users are priced at
    it too, and it wins over any [pricing] section the scenario carries. The
    runs' steps are solved together in one batch.
    """
    lambdas = list(lambdas)
    runs = _run_priced(scenario, (PricingRule("constant", float(lam)) for lam in lambdas))
    return [(float(lam), trace, summary) for lam, (trace, summary) in zip(lambdas, runs)]


def _run_priced(scenario: Scenario, pricings) -> list[tuple[IterationTrace, RunSummary]]:
    """Run ``scenario`` once per pricing rule (None: the users' own lambdas).

    Every step's solve joins one batch, except step 1 with arrivals, which
    runs alone as its pricing comes up. When that solve, or pricing a step,
    raises, the batched solves before it are run first: the error raised is
    the one a serial run of the steps in order meets first.
    """
    moves_by_step: dict[int, list[MoveEvent]] = {}
    for ev in scenario.moves:
        moves_by_step.setdefault(ev.step, []).append(ev)
    steps = sorted({1} | set(moves_by_step))
    config = scenario.config
    networks: list[tuple] = []  # (channel, users) of every batched step, in serial order
    runs = []
    try:
        for pricing in pricings:
            reprice = _pricer(pricing)
            # Every step is an independent solve of the new geometry from the
            # default initial strategies. The converged point is
            # initialization-independent, and a cold start keeps a
            # geometrically symmetric step actually symmetric, so the
            # assignment tie-break can hold a walker at its current station
            # instead of inheriting the previous geometry's power skew.
            channel, users = scenario.channel, scenario.users
            first, start = [], len(networks)
            for step_no in steps:
                for ev in moves_by_step.get(step_no, []):
                    channel = channel.moved(ev.user, ev.distances_m)
                if step_no == 1 and scenario.arrivals:
                    # The later steps play the network this step grows.
                    trace = iterate_to_convergence(
                        channel,
                        reprice(channel, users),
                        config,
                        arrivals=scenario.arrivals,
                        reprice=reprice,
                    )
                    channel, users = trace.channel, trace.users
                    first.append(trace)
                else:
                    networks.append((channel, reprice(channel, users)))
            runs.append((first, start, len(networks)))
    except ValueError:
        _raise_first(iterate_batch(networks, config))
        raise
    solved = iterate_batch(networks, config)
    _raise_first(solved)
    return [_joined(scenario, steps, first + solved[a:b]) for first, a, b in runs]


def _pricer(pricing: PricingRule | None):
    def reprice(channel, users):
        if pricing is None:
            return list(users)
        return priced_users(pricing, channel, users)

    return reprice


def _raise_first(outcomes: list) -> None:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome


def _joined(scenario: Scenario, steps, traces) -> tuple[IterationTrace, RunSummary]:
    """One run's trace and summary from the traces of its steps, in order."""
    segments: list[Segment] = []
    step_finals: list[IterationRecord] = []
    offset = 0
    converged = True
    for step_no, trace in zip(steps, traces):
        converged = converged and trace.converged
        segments += [
            replace(seg, step=step_no, iterations=seg.iterations + offset) for seg in trace.segments
        ]
        offset += trace.iterations_used
        step_finals.append(segments[-1].row(-1))

    trace = replace(trace, segments=segments, converged=converged, iterations_used=offset)
    # Arrivals join in iteration order, after the scenario's own users.
    arrived = sorted(scenario.arrivals, key=lambda ev: ev.iteration)
    extra = len(trace.users) - len(scenario.users)
    names = scenario.user_names + [ev.name for ev in arrived][:extra]
    summary = summarize_run(trace, names)
    if scenario.moves:
        summary.steps = step_finals
    return trace, summary


def summarize_run(trace: IterationTrace, names) -> RunSummary:
    """Condense a finished trace into a RunSummary of the network it ended on.

    ``names`` holds one name per user of that network, in table order.
    """
    final = trace.final
    users = trace.users
    names = list(names)
    if len(names) != len(users):
        raise ValueError(f"{len(names)} names for a trace of {len(users)} users")
    bandwidth = trace.channel.bandwidth_hz
    targets = np.array([target_sinr(u.alpha1, u.alpha2, bandwidth) for u in users])
    if trace.converged:
        outcomes = classify_users(trace, targets)
    else:
        outcomes = ["unclassified"] * len(users)
    return RunSummary(
        converged=trace.converged,
        iterations_used=trace.iterations_used,
        user_names=names,
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
    digits, exactly as ``format(x, ".10e")`` writes them, so re-running a
    scenario produces byte-identical files. Each segment's columns are
    encoded whole in numpy, in chunks of about ``_TRACE_CHUNK_ROWS`` rows.
    A trace solved under "last" history holds only each segment's last row
    and raises ValueError, before anything is written.
    """
    if not all(seg.complete for seg in trace.segments):
        raise ValueError("the trace keeps only each segment's last row; solve with history='full'")
    if hasattr(destination, "write"):
        _write_trace(trace, lambda data: destination.write(data.decode("ascii")))
        return
    with open(destination, "wb") as f:
        _write_trace(trace, f.write)


def _write_trace(trace: IterationTrace, write) -> None:
    write(TRACE_HEADER.encode("ascii") + b"\n")
    for seg in trace.segments:
        n_iterations, n_users = seg.powers.shape
        # Whole iterations, the fewest that reach a chunk.
        per_chunk = max(1, -(-_TRACE_CHUNK_ROWS // max(n_users, 1)))
        for start in range(0, n_iterations, per_chunk):
            write(_encode_rows(seg, slice(start, start + per_chunk)))


# The trace encoder lays each CSV row out as a row of little-endian 32-bit
# words. Every field owns a fixed run of words, its slot: the first byte holds
# the comma before the field (blank for the iteration), the metric's last
# byte holds the newline, the characters sit between, and the bytes a field
# does not use stay 0, so dropping every 0 byte yields the CSV text. Digits
# come from tables of 4-digit and 2-digit ASCII words. A value the arithmetic
# cannot format exactly is formatted on its own and written into its slot.

# Rows per encoded chunk; a chunk holds whole iterations of one segment. At
# about a thousand rows the chunk's arrays fit in memory the allocator keeps
# between chunks, where much larger chunks fault in fresh pages every time
# and run slower.
_TRACE_CHUNK_ROWS = 1024
_WORD = np.dtype("<u4")
_COMMA, _NEWLINE = ord(","), ord("\n")
# Exact powers of ten: every 10**n with n <= 22 is a double. The fast path
# scales |x| by one of them, so it covers exponents k in -12..32; the
# multiplier _SCALE[k + 12] is 1 where the scale is a division.
_POW10 = np.array([float(10**n) for n in range(23)])
_K_OFFSET = 12
_SCALE = np.array([float(10 ** max(10 - k, 0)) for k in range(-_K_OFFSET, 33)])
# y is |x| * 10**(10 - k) rounded once. Rounding is monotone and n + 0.5 is a
# double, so rint(y) can only differ from the correctly rounded mantissa
# when y is exactly a half; the fast path keeps this margin from any half.
_TIE_MARGIN = 1e-4
# Word masks that keep the last n bytes, n = 0..4.
_KEEP_LAST = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], _WORD)


def _ascii_words(chars) -> np.ndarray:
    """One word per row of a (n, 4) array of byte values."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD).ravel()


@functools.cache
def _digit_tables():
    """The encoder's word tables, built when the first trace is written."""
    # The digits of 0..9999 as ASCII bytes, one row each.
    chars = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
    pairs = _ascii_words(np.pad(chars[:100, 2:], ((0, 0), (0, 2))))
    # A leading digit d + 10 * negative: ",-d." or ",d.".
    d = np.arange(20)
    lead = _ascii_words(np.stack([0 * d + _COMMA, np.where(d >= 10, 45, 0), 48 + d % 10, 0 * d + 46], 1))
    # The exponent k = j - _K_OFFSET: "e" and its sign, then its two digits.
    k = np.arange(len(_SCALE)) - _K_OFFSET
    exp_sign = _ascii_words(np.stack([0 * k, 0 * k, 0 * k + ord("e"), np.where(k < 0, 45, 43)], 1))
    return _ascii_words(chars), pairs, lead, exp_sign, pairs[np.abs(k)]


def _encode_rows(seg: Segment, iterations: slice) -> bytes:
    """CSV rows of the given iterations of one segment, in order."""
    assignment = seg.assignment[iterations]
    n_iterations, n_users = assignment.shape
    rows = assignment.size
    # Per-row values first, then the one iteration and metric of each iteration.
    ints = np.empty(2 * rows + n_iterations, np.int64)
    ints[:rows] = np.tile(np.arange(n_users), n_iterations)
    ints[rows : 2 * rows] = assignment.ravel()
    ints[2 * rows :] = seg.iterations[iterations]
    floats = np.empty(4 * rows + n_iterations)
    for k, column in enumerate((seg.powers, seg.rates, seg.sinrs, seg.utilities)):
        floats[k * rows : (k + 1) * rows] = column[iterations].ravel()
    floats[4 * rows :] = seg.metrics[iterations]
    int_words = _int_words(ints)
    int_words[: 2 * rows, 0] |= _COMMA
    float_words = _float_words(floats)
    float_words[4 * rows :, 4] |= _NEWLINE << 24
    per_iteration = np.repeat(np.arange(n_iterations), n_users)
    columns = [int_words[2 * rows :][per_iteration], int_words[:rows], int_words[rows : 2 * rows]]
    columns += [float_words[k * rows : (k + 1) * rows] for k in range(4)]
    columns.append(float_words[4 * rows :][per_iteration])
    return np.concatenate(columns, axis=1).tobytes().translate(None, b"\0")


def _patch(slots: np.ndarray, index: int, text: str) -> None:
    """Write ASCII text into one slot after its separator byte."""
    slot = slots[index].view(np.uint8)
    slot[1:] = 0
    slot[1 : 1 + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)


def _int_words(values: np.ndarray) -> np.ndarray:
    """Slots of ``str(v)`` for int64 values, right-aligned after a blank byte."""
    width = max(len(str(values.max())), len(str(values.min())))
    n_words = width // 4 + 1
    n_digits = np.ones(values.size, np.int64)
    for i in range(1, min(width, 19)):
        n_digits += values >= 10**i
    digits4 = _digit_tables()[0]
    words = np.empty((values.size, n_words), _WORD)
    above = values
    for j in range(n_words - 1, -1, -1):
        # Word j keeps its share of the digits, so leading zeros stay blank.
        keep = _KEEP_LAST.take(n_digits - 4 * (n_words - 1 - j), mode="clip")
        words[:, j] = digits4.take(above % 10000) & keep
        above = above // 10000
    for i in np.flatnonzero(values < 0):
        _patch(words, i, str(values[i]))
    return words


def _float_words(values: np.ndarray) -> np.ndarray:
    """Five-word slots of ``"," + format(x, ".10e")``, the last byte blank.

    With k = floor(log10|x|), y = |x| * 10**(10 - k) is rounded once, so
    rint(y) is the correctly rounded 11-digit mantissa unless y sits near a
    half, y is below 1e10 or rint(y) reaches 1e11. Those values, 0, nan, inf
    and exponents beyond the exact powers of ten are formatted one by one.
    """
    with np.errstate(all="ignore"):  # 0, nan and inf pass through garbage here
        a = np.abs(values)
        k = np.floor(np.log10(a)).astype(np.intp)
        j = k + _K_OFFSET
        fast = j.view(np.uintp) < len(_SCALE)
        y = a * _SCALE.take(j, mode="clip")
        big = np.flatnonzero(k > 10)
        y[big] = a[big] / _POW10.take(k[big] - 10, mode="clip")
        m = np.rint(y)
        fast &= (np.abs(y - m) < 0.5 - _TIE_MARGIN) & (y >= 1e10) & (m < 1e11)
        digits = m.astype(np.int64)
    digits4, pairs, lead, exp_sign, exp_digits = _digit_tables()
    words = np.empty((values.size, 5), _WORD)
    words[:, 0] = lead.take(digits // 10**10 + 10 * np.signbit(values), mode="clip")
    words[:, 1] = digits4.take(digits // 10**6 % 10000)
    words[:, 2] = digits4.take(digits // 100 % 10000)
    words[:, 3] = pairs.take(digits % 100) | exp_sign.take(j, mode="clip")
    words[:, 4] = exp_digits.take(j, mode="clip")
    for i in np.flatnonzero(~fast):
        _patch(words, i, format(float(values[i]), ".10e"))
    return words


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
