"""Scenario documents: parsing, execution with events, trace and summary output.

A scenario file is line-oriented, sectioned key = value text:

    [network]            radio constants (all optional)
    [user NAME]          one per user; distances_m is the only required key
    [run]                policy, schedule, stopping rule, discrete rates
    [pricing]            optional rule applied to every user's pricing factor
    [event arrival]      a user that starts transmitting mid-run
    [event move]         a user whose distances change between solver steps

One table, ``_SCHEMA``, describes every section once: its keys in the order
they are written, and for each key its converter (number, integer, number
list, rate ladder, name, or a choice with its alias map) and the dataclass
field it feeds. The reader and the writer both walk it. The reader passes
the keys a section holds, and only those, to the dataclass they fill: a
user's to ``UserParams``, ``[network]`` to ``ChannelModel``, ``[run]`` to
``ConvergenceConfig`` (the scenario's ``config``, every setting of its
solves), ``[pricing]`` to ``PricingRule`` and an event's to its event, so
every default lives on its dataclass alone. The writer prints every field
that is set. Arrivals and moves share one event reader. Three rules sit
outside the table: a per-station ``lambda`` list must hold one value,
``quantize`` needs ``rates``, and gain-dependent pricing needs a single
station.

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
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    "run_scenarios",
    "sweep_lambda",
    "emit_trace",
    "RunSummary",
    "summarize_run",
    "summary_to_text",
    "write_summary",
    "TRACE_HEADER",
]

TRACE_HEADER = "iter,user,bs,p_w,r_bps,sinr,utility,metric"


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
# The schema: every section's keys, read and written from one table


class _Key(NamedTuple):
    """One key of a section: the dataclass field it feeds, and how its value is read and written."""

    field: str
    read: Callable[[str, int], object]  # (value text, line number) -> value
    write: Callable[[object], str] = repr
    aliases: dict | None = None  # a choice's spellings and the values they stand for


def _number(raw, line_no):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioFormatError(f"line {line_no}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioFormatError(f"line {line_no}: expected a finite number, got {raw!r}")
    return value


def _integer(raw, line_no):
    try:
        return int(raw)
    except ValueError:
        raise ScenarioFormatError(f"line {line_no}: expected an integer, got {raw!r}") from None


def _numbers(raw, line_no):
    return [_number(tok, line_no) for tok in raw.split()]


def _spaced(values) -> str:
    return " ".join(repr(float(x)) for x in values)


def _ladder(raw, line_no):
    rates = tuple(_numbers(raw, line_no))
    try:
        return RateSet(rates)
    except ValueError as exc:
        raise ScenarioFormatError(f"line {line_no}: {exc}") from exc


def _text(raw, line_no):
    return raw


def _scalars(*names):
    # Keys holding one number each, feeding the field of their own name.
    return {name: _Key(name, _number) for name in names}


def _choice(field, aliases, label=None, shown=None):
    # A key spelling one of ``aliases``. A value is written back as its first
    # spelling; a refusal names ``label`` (default ``field``) and lists
    # ``shown`` (default the sorted spellings).
    label = label or field
    shown = sorted(aliases) if shown is None else shown
    first = {}
    for spelling, value in aliases.items():
        first.setdefault(value, spelling)

    def read(raw, line_no):
        if raw not in aliases:
            raise ScenarioFormatError(f"line {line_no}: {label} must be one of {shown}")
        return aliases[raw]

    return _Key(field, read, first.__getitem__, aliases)


_ARRIVAL = "event arrival"

# Each section's keys in the order the writer prints them. A [user NAME]'s
# distances_m is its row of the channel's matrix. An event section's own keys
# are all required and the first is its timeline counter; an arrival adds a
# user, so it also takes every [user] key.
_SCHEMA = {
    "network": _scalars("bandwidth_hz", "noise_w", "pathloss_exponent", "shadowing"),
    "user": {
        "distances_m": _Key("distances_m", _numbers, _spaced),
        **_scalars("alpha1", "alpha2"),
        # One value per station is accepted; they must agree (_build_user).
        "lambda": _Key("lam", _numbers),
        **_scalars("p_min", "p_max", "r_min", "r_max", "p_init", "r_init"),
    },
    "run": {
        "policy": _choice("policy", {"clamp": CLAMP, "kkt": KKT}),
        "schedule": _choice(
            "schedule",
            {
                "synchronous": SYNCHRONOUS,
                "sync": SYNCHRONOUS,
                "sequential": SEQUENTIAL,
                "seq": SEQUENTIAL,
            },
        ),
        **_scalars("delta"),
        "max_iterations": _Key("max_iterations", _integer, str),
        "metric": _choice("metric", {"relative": METRIC_RELATIVE, "absolute": METRIC_ABSOLUTE}),
        "rates": _Key("rate_set", _ladder, lambda ladder: _spaced(ladder.rates)),
        "quantize": _choice(
            "quantize_at_convergence", {"per_iteration": False, "at_convergence": True}, "quantize"
        ),
    },
    "pricing": {
        "rule": _choice(
            "kind", dict(zip(PRICING_KINDS, PRICING_KINDS)), "pricing rule", PRICING_KINDS
        ),
        **_scalars("c", "dc"),
    },
    _ARRIVAL: {"iteration": _Key("iteration", _integer, str), "user": _Key("name", _text, str)},
    "event move": {
        "step": _Key("step", _integer, str),
        "user": _Key("user_name", _text, str),
        "distances_m": _Key("distances_m", _numbers, _spaced),
    },
}


def _keys(kind) -> dict:
    return _SCHEMA[kind] | _SCHEMA["user"] if kind == _ARRIVAL else _SCHEMA[kind]


# ---------------------------------------------------------------------------
# Parsing


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; defaults fill anything omitted."""
    sections = _split_sections(text)

    index, rows, users = {}, [], []  # index: each user's position, by name
    for name, line_no, body in sections["user"]:
        if name in index:
            raise ScenarioFormatError(f"line {line_no}: duplicate user name {name!r}")
        values = _read_keys(body, "user")
        if "distances_m" not in values:
            raise ScenarioFormatError(f"line {line_no}: user {name!r} is missing distances_m")
        row = values.pop("distances_m")
        if rows and len(row) != len(rows[0]):
            raise ScenarioFormatError(
                f"line {body['distances_m'][1]}: user {name!r} has {len(row)} distances, "
                f"expected {len(rows[0])}"
            )
        index[name] = len(rows)
        rows.append(row)
        users.append(_build_user(name, line_no, body, values))
    if not users:
        raise ScenarioFormatError("scenario declares no [user ...] sections")

    network = _read_keys(_only(sections, "network"), "network")
    try:
        channel = ChannelModel(np.array(rows), **network)
    except ValueError as exc:
        raise ScenarioFormatError(f"[network]: {exc}") from exc

    run = _only(sections, "run")
    if "quantize" in run and "rates" not in run:
        raise ScenarioFormatError(f"line {run['quantize'][1]}: quantize needs a rates ladder")
    config = _build(ConvergenceConfig, "[run]", _read_keys(run, "run"))

    pricing = _only(sections, "pricing")
    rule = _build(PricingRule, "[pricing]", _read_keys(pricing, "pricing")) if pricing else None
    if rule is not None and rule.kind in GAIN_DEPENDENT_KINDS and channel.n_stations > 1:
        raise ScenarioFormatError(
            f"line {pricing['rule'][1]}: gain-dependent pricing cannot be used with "
            f"{channel.n_stations} stations"
        )

    return Scenario(
        channel=channel,
        users=users,
        user_names=list(index),
        config=config,
        pricing=rule,
        arrivals=_read_events(sections, _ARRIVAL, index, channel.n_stations),
        moves=_read_events(sections, "event move", index, channel.n_stations),
    )


def _split_sections(text: str) -> dict:
    # Each section kind's sections in file order, as (user name or None,
    # header line, {key: (value text, line)}).
    sections = {kind: [] for kind in _SCHEMA}
    body = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ScenarioFormatError(f"line {line_no}: malformed section header {raw.strip()!r}")
            where = " ".join(line[1:-1].split())
            kind, name = _header(where, line_no)
            if kind in ("network", "run", "pricing") and sections[kind]:
                raise ScenarioFormatError(f"line {line_no}: duplicate [{kind}] section")
            keys, body = _keys(kind), {}
            sections[kind].append((name, line_no, body))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioFormatError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        if body is None:
            raise ScenarioFormatError(f"line {line_no}: key outside any section")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioFormatError(f"line {line_no}: empty key or value")
        if key in body:
            raise ScenarioFormatError(f"line {line_no}: duplicate key {key!r}")
        if key not in keys:
            raise ScenarioFormatError(f"line {line_no}: unknown key {key!r} in [{where}]")
        body[key] = (value, line_no)
    return sections


def _header(where, line_no):
    # A header's section kind, and its user name for a [user NAME].
    tokens = where.split(" ")
    if len(tokens) == 2 and tokens[0] == "user":
        _check_name(tokens[1], line_no)
        return "user", tokens[1]
    if where == "user" or where not in _SCHEMA:
        raise ScenarioFormatError(f"line {line_no}: unknown section [{where}]")
    return where, None


def _check_name(name, line_no):
    if not name.replace("_", "").isalnum():
        raise ScenarioFormatError(
            f"line {line_no}: user names must be alphanumeric/underscore, got {name!r}"
        )


def _only(sections, kind) -> dict:
    # The body of a section that appears at most once; empty when absent.
    return sections[kind][0][2] if sections[kind] else {}


def _read_keys(body, kind) -> dict:
    # A section's values by the field each feeds; an absent key keeps the
    # default of its dataclass.
    keys = _keys(kind)
    values = {}
    for key, (raw, line_no) in body.items():
        spec = keys[key]
        values[spec.field] = spec.read(raw, line_no)
    return values


def _build(cls, where, values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _build_user(name, line_no, body, values) -> UserParams:
    if "lam" in values:
        lams = values["lam"]
        if len(set(lams)) != 1:
            raise ScenarioFormatError(
                f"line {body['lambda'][1]}: user {name!r} pricing must be identical "
                "across stations"
            )
        values["lam"] = lams[0]
    try:
        return UserParams(**values)
    except ValueError as exc:
        raise ScenarioFormatError(f"line {line_no}: user {name!r}: {exc}") from exc


def _read_events(sections, kind, index, n_stations) -> list:
    # One reader for arrivals and moves: both name a user and give a
    # distance per station, on a counter that starts at 1 and strictly
    # increases. An arrival's user must be new, a move's one of ``index``.
    event = kind.split()[1]
    own = _SCHEMA[kind]
    *needed, last_needed = own
    counter = needed[0]
    taken = set(index)
    events = []
    last = 0
    for _, line_no, body in sections[kind]:
        values = _read_keys(body, kind)
        if any(key not in body for key in own):
            raise ScenarioFormatError(
                f"line {line_no}: {event} needs {', '.join(needed)} and {last_needed} keys"
            )
        at = values.pop(counter)
        if at < 1:
            raise ScenarioFormatError(f"line {line_no}: {event} {counter} must be >= 1")
        if at <= last:
            raise ScenarioFormatError(f"line {line_no}: {event} {counter}s must strictly increase")
        last = at
        name = values.pop(own["user"].field)
        if kind == _ARRIVAL:
            _check_name(name, body["user"][1])
            if name in taken:
                raise ScenarioFormatError(f"line {line_no}: arrival user name {name!r} already used")
            taken.add(name)
        elif name not in index:
            raise ScenarioFormatError(f"line {line_no}: move references unknown user {name!r}")
        if "distances_m" not in values:
            raise ScenarioFormatError(f"line {line_no}: {event} is missing distances_m")
        d = np.array(values.pop("distances_m"))
        if len(d) != n_stations:
            raise ScenarioFormatError(
                f"line {line_no}: {event} has {len(d)} distances, expected {n_stations}"
            )
        if not (d > 0).all():
            # The number reader already refused anything not finite.
            raise ScenarioFormatError(
                f"line {body['distances_m'][1]}: {event} distances must be positive"
            )
        if kind == _ARRIVAL:
            # What is left of an arrival's values are its user's.
            events.append(ArrivalEvent(at, name, d, _build_user(name, line_no, body, values)))
        else:
            events.append(MoveEvent(at, index[name], name, d))
    return events


# ---------------------------------------------------------------------------
# Serialization (canonical form; parse -> serialize -> parse is stable)


def scenario_to_text(s: Scenario) -> str:
    config = vars(s.config)
    if s.config.rate_set is None:
        # quantize needs rates: without a ladder it is not written.
        config = {**config, "quantize_at_convergence": None}
    sections = [("network", "network", vars(s.channel))]
    sections += [
        (f"user {name}", "user", {"distances_m": row, **vars(user)})
        for name, user, row in zip(s.user_names, s.users, s.channel.distances_m)
    ]
    sections.append(("run", "run", config))
    if s.pricing is not None:
        sections.append(("pricing", "pricing", vars(s.pricing)))
    sections += [(_ARRIVAL, _ARRIVAL, vars(ev) | vars(ev.user)) for ev in s.arrivals]
    sections += [("event move", "event move", vars(ev)) for ev in s.moves]
    return "\n\n".join(_section_text(*section) for section in sections) + "\n"


def _section_text(header, kind, values) -> str:
    # A value of None is left out, so its dataclass's default stands.
    lines = [f"[{header}]"]
    for key, spec in _keys(kind).items():
        value = values[spec.field]
        if value is not None:
            lines.append(f"{key} = {spec.write(value)}")
    return "\n".join(lines)


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
    This is ``run_scenarios`` of one scenario.
    """
    ((trace, summary),) = run_scenarios([scenario])
    return trace, summary


def run_scenarios(scenarios) -> list[tuple[IterationTrace, RunSummary]]:
    """``run_scenario`` of each scenario, with every step of every one solved as one batch.

    The scenarios must share one ``config``; their user counts may differ,
    and those on different station counts are batched apart. Each result
    equals its ``run_scenario``, bit for bit, and the error raised is the one
    a loop over the scenarios in order meets first.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    config = scenarios[0].config
    if any(s.config != config for s in scenarios):
        raise ValueError("batched scenarios must share one config")
    return _run_priced(((s, s.pricing) for s in scenarios), config)


def sweep_lambda(
    scenario: Scenario, lambdas
) -> list[tuple[float, IterationTrace, RunSummary]]:
    """Run the scenario once per pricing value, uniform across users.

    Each value is a constant pricing rule, so arriving users are priced at
    it too, and it wins over any [pricing] section the scenario carries. The
    runs' steps are solved together in one batch.
    """
    lambdas = list(lambdas)
    priced = ((scenario, PricingRule("constant", float(lam))) for lam in lambdas)
    runs = _run_priced(priced, scenario.config)
    return [(float(lam), trace, summary) for lam, (trace, summary) in zip(lambdas, runs)]


def _run_priced(runs, config) -> list[tuple[IterationTrace, RunSummary]]:
    """Run each (scenario, pricing rule) pair of ``runs`` under ``config``.

    A rule of None keeps the users' own lambdas.
    Every step's solve joins one batch per station count, except step 1
    with arrivals, which runs alone as its run comes up. When that solve, or
    pricing a step, raises, the batched solves before it are run first: the
    error raised is the one a serial run of the steps in order meets first.
    """
    networks: list[tuple] = []  # (channel, users) of every batched step, in serial order
    done = []
    try:
        for scenario, pricing in runs:
            moves_by_step: dict[int, list[MoveEvent]] = {}
            for ev in scenario.moves:
                moves_by_step.setdefault(ev.step, []).append(ev)
            steps = sorted({1} | set(moves_by_step))
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
            done.append((scenario, steps, first, start, len(networks)))
    except ValueError:
        _raise_first(_solve(networks, config))
        raise
    solved = _solve(networks, config)
    _raise_first(solved)
    return [_joined(scenario, steps, first + solved[a:b]) for scenario, steps, first, a, b in done]


def _solve(networks, config) -> list:
    # iterate_batch's outcomes for networks on any station counts, one batch per count.
    outcomes = [None] * len(networks)
    by_count: dict[int, list[int]] = {}
    for k, (channel, _) in enumerate(networks):
        by_count.setdefault(channel.n_stations, []).append(k)
    for ks in by_count.values():
        for k, outcome in zip(ks, iterate_batch([networks[k] for k in ks], config)):
            outcomes[k] = outcome
    return outcomes


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
