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
the keys a section holds, and only those, to the dataclass they fill:
``[network]`` to ``ChannelModel``, ``[run]`` to ``ConvergenceConfig`` (the
scenario's ``config``, every setting of its solves), ``[pricing]`` to
``PricingRule`` and an event's to its event, so every default lives on its
dataclass alone. The users are read as columns: after one pass over the
lines, each [user] key is converted across every section at once (the
distances as one (users x stations) array) into one ``UserTable``, which
checks them together; a key a section lacks keeps the ``UserParams``
default, and an arrival's user is a table of one. The first fault of each
kind is reported, in file order: names and missing distances, numbers,
distance counts and per-station lambdas, then the users' constants. The
writer reads the users' columns and prints every field that is set, so a NaN
initial strategy is left out. Arrivals and moves share one event reader.
Four rules sit outside the table: a per-station ``lambda`` list must hold
one value, ``quantize`` needs ``rates``, every user's rate box must hold a
rung of ``rates``, and gain-dependent pricing needs a single station.

Numbers accept scientific notation and must be finite; lists (distances_m,
rates) are whitespace separated; '#' starts a comment. Events share one
timeline: arrivals fire at their iteration of solver step 1, and each later
step applies its moves to the network, arrivals included, and solves it cold.

A run's trace is its segments, (rows x users) columns on one network each:
every iteration's row when the scenario's config asks for "full" history,
as ``ratepower run --trace`` does, else only each segment's last. The CSV
trace writer encodes slices of those columns in numpy, a chunk of rows of
one segment at a time, with ``encoder``; its output is byte for byte what
``format(x, ".10e")`` and ``str(n)`` give, field by field. The summary
takes its targets and prices from the users' columns, and its float
columns go through the same encoder. Only the commands that write a trace
or a summary import ``encoder``. Both write a file over from byte 0, then
cut it; a run killed before the cut leaves the old file's tail after them.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import GAIN_DEPENDENT_KINDS, PRICING_KINDS, ChannelModel, PricingRule, RateSet
from .core import _USER_DEFAULTS, UserTable, _require_index, _require_newcomer, _require_table
from .core import _row_values, _RowError
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
    Network,
    Segment,
    _drive,
)
from .admission import _outcomes

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
    """A user that starts transmitting at the given iteration; ``user`` is a table of one."""

    iteration: int
    name: str
    distances_m: np.ndarray
    user: UserTable


@dataclass
class MoveEvent:
    """A change of one user's distances applied before solver step ``step``."""

    step: int
    user: int  # the moving user's index in the scenario's table
    distances_m: np.ndarray


@dataclass
class Scenario:
    """Everything needed to execute one experiment; ``config`` holds the solve's settings.

    ``users`` is a ``UserTable`` and each arrival's user a table of one. A
    scenario built in code is refused when it is built, as its file would be
    at parse: each user and arrival needs its own name and each user a
    channel row; events count from 1, move a user of the table and give one
    positive distance per station.
    """

    channel: ChannelModel
    users: UserTable
    user_names: list[str]
    config: ConvergenceConfig = field(default_factory=ConvergenceConfig)
    pricing: PricingRule | None = None
    arrivals: list[ArrivalEvent] = field(default_factory=list)
    moves: list[MoveEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        _require_table(self.users)
        n, rows, n_stations = len(self.users), self.channel.n_users, self.channel.n_stations
        if {len(self.user_names), rows} != {n}:
            raise ValueError(f"{len(self.user_names)} user names and {rows} channel rows for {n} users")
        taken = set()
        for k, name in enumerate([*self.user_names, *(ev.name for ev in self.arrivals)]):
            if name in taken:
                raise ValueError(
                    f"duplicate user name {name!r}" if k < n else f"arrival user name {name!r} already used"
                )
            taken.add(name)
        if any(ev.iteration < 1 for ev in self.arrivals):
            raise ValueError("arrival iterations must be at least 1")
        for ev in self.arrivals:
            _require_newcomer(ev.user)
        for ev in self.moves:
            k = _require_index("user index", ev.user, n)
            if ev.step < 1:
                raise ValueError(f"move step {ev.step} of user {self.user_names[k]!r} must be >= 1")
        for event, events in (("arrival", self.arrivals), ("move", self.moves)):
            for d in (np.asarray(ev.distances_m, dtype=float) for ev in events):
                if d.size != n_stations:
                    raise ValueError(f"{event} has {d.size} distances, network has {n_stations} stations")
                if not (d > 0).all():
                    raise ValueError(f"{event} distances must be positive")


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
        # One value per station is accepted; they must agree (_read_users).
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
        "user": _Key("user", _text, str),
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

    index = {}  # each user's position, by name
    for name, line_no, body in sections["user"]:
        if name in index:
            raise ScenarioFormatError(f"line {line_no}: duplicate user name {name!r}")
        if "distances_m" not in body:
            raise ScenarioFormatError(f"line {line_no}: user {name!r} is missing distances_m")
        index[name] = len(index)
    if not index:
        raise ScenarioFormatError("scenario declares no [user ...] sections")
    users, rows = _read_users(sections["user"])

    network = _read_keys(_only(sections, "network"), "network")
    try:
        channel = ChannelModel(rows, **network)
    except ValueError as exc:
        raise ScenarioFormatError(f"[network]: {exc}") from exc

    run = _only(sections, "run")
    if "quantize" in run and "rates" not in run:
        raise ScenarioFormatError(f"line {run['quantize'][1]}: quantize needs a rates ladder")
    config = _build(ConvergenceConfig, "[run]", _read_keys(run, "run"))
    _check_ladder(config, users, sections["user"])

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
        arrivals=_read_events(sections, _ARRIVAL, index, config, channel.n_stations),
        moves=_read_events(sections, "event move", index, config, channel.n_stations),
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


def _read_users(sections) -> tuple[UserTable, np.ndarray]:
    # The users of (name, header line, body) sections that each hold
    # distances_m: the users as a table, and their distances as rows. Each
    # key is converted across all sections at once, a list key's tokens
    # together; a section without the key keeps UserParams' default. The
    # first fault in file order is raised, of each kind in turn: a bad
    # number, a distance count or per-station lambda, a bad user.
    bodies = [body for _, _, body in sections]
    given, counts = {}, {}
    for key, spec in _SCHEMA["user"].items():
        has = np.array([key in body for body in bodies])
        if not has.any():
            continue
        texts = [body[key][0] for body in bodies if key in body]
        if spec.read is _numbers:
            tokens = [text.split() for text in texts]
            counts[key] = np.array([len(t) for t in tokens])
            texts = [token for t in tokens for token in t]
        values = _floats(texts)
        if values is None:
            for body in bodies:
                _read_keys(body, "user")  # raises at the file's first bad number
        given[spec.field] = (has, values)

    width = counts["distances_m"][0]
    faults = counts["distances_m"] != width
    lam_faults = np.zeros(len(bodies), dtype=bool)
    if "lam" in given:
        has, values = given["lam"]
        starts = np.cumsum(counts["lambda"]) - counts["lambda"]
        differ = np.minimum.reduceat(values, starts) != np.maximum.reduceat(values, starts)
        lam_faults[has] = differ
        given["lam"] = (has, values[starts])
    for i in np.flatnonzero(faults | lam_faults).tolist():
        name, _, body = sections[i]
        if faults[i]:
            raise ScenarioFormatError(
                f"line {body['distances_m'][1]}: user {name!r} has {counts['distances_m'][i]} "
                f"distances, expected {width}"
            )
        raise ScenarioFormatError(
            f"line {body['lambda'][1]}: user {name!r} pricing must be identical across stations"
        )

    distances = given.pop("distances_m")[1].reshape(len(bodies), width)
    columns = {}
    for name, default in _USER_DEFAULTS.items():
        has, values = given.get(name, (None, None))
        if has is None or not has.all():
            # A section without the key keeps the default.
            column = np.full(len(bodies), default)
            if has is not None:
                column[has] = values
            values = column
        columns[name] = values
    try:
        users = UserTable(**columns)
    except _RowError as exc:
        name, line_no, _ = sections[exc.row]
        raise ScenarioFormatError(f"line {line_no}: user {name!r}: {exc}") from exc
    return users, distances


def _floats(texts) -> np.ndarray | None:
    # The texts as numbers, as _number reads each; None if one is not a
    # finite number.
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _check_ladder(config, users, sections) -> None:
    # Refuse the first of the users, read from (name, header line, _)
    # sections, whose rate box holds no rung of the config's ladder.
    gap = None if config.rate_set is None else config.rate_set.gap(users)
    if gap is not None:
        k, why = gap
        name, line_no, _ = sections[k]
        raise ScenarioFormatError(f"line {line_no}: user {name!r}: {why}")


def _read_events(sections, kind, index, config, n_stations) -> list:
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
            # The arrival's [user] keys are its user's.
            user_section = [(name, line_no, body)]
            users, _ = _read_users(user_section)
            _check_ladder(config, users, user_section)
            events.append(ArrivalEvent(at, name, d, users))
        else:
            events.append(MoveEvent(at, index[name], d))
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
        (f"user {name}", "user", {"distances_m": row, **values})
        for name, values, row in zip(s.user_names, _user_values(s.users), s.channel.distances_m)
    ]
    sections.append(("run", "run", config))
    if s.pricing is not None:
        sections.append(("pricing", "pricing", vars(s.pricing)))
    sections += [(_ARRIVAL, _ARRIVAL, vars(ev) | _user_values(ev.user)[0]) for ev in s.arrivals]
    sections += [
        ("event move", "event move", vars(ev) | {"user": s.user_names[ev.user]}) for ev in s.moves
    ]
    return "\n\n".join(_section_text(*section) for section in sections) + "\n"


def _user_values(users) -> list[dict]:
    # Each user's fields from the table's columns; a NaN initial strategy is None.
    return [_row_values(row) for row in zip(*(getattr(users, f).tolist() for f in _USER_DEFAULTS))]


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
    iteration of step 1, which converges only after its last arrival. A
    [pricing] rule is re-evaluated whenever the user set or the geometry it
    depends on changes. The trace joins every step's segments, numbered on
    one iteration count across steps; with moves, the summary carries each
    step's final row. Non-convergence is flagged in the summary, not raised.

    Every step is an independent solve of its geometry from the initial
    strategies, so the steps are solved as one batch; the later steps play
    the network step 1's arrivals grow, joined in iteration order. This is
    ``run_scenarios`` of one scenario.
    """
    ((trace, summary),) = run_scenarios([scenario])
    return trace, summary


def run_scenarios(scenarios) -> list[tuple[IterationTrace, RunSummary]]:
    """``run_scenario`` of each scenario, their steps solved together in lockstep rounds.

    Each scenario solves under its own ``config``; configs, user counts and
    station counts may all differ. Every step is a ``Network`` that carries
    the scenario's pricing rule and, for step 1, its arrivals; the steps of
    one station count whose configs differ at most in ``delta`` and
    ``max_iterations`` share a lockstep loop, and step 1 steps each of its
    arrival windows in a round of its own. Each result equals its
    ``run_scenario``, bit for bit, and the error raised is the one a loop
    over the scenarios in order meets first, whatever config it solves
    under.
    """
    return _drive(_run(scenario) for scenario in scenarios)


def _run(scenario: Scenario):
    # ``run_scenario`` as a chain for ``engine._drive``: one round, which
    # yields every step. Every step is an independent solve of the new
    # geometry from the default initial strategies. The converged point is
    # initialization-independent, and a cold start keeps a geometrically
    # symmetric step actually symmetric, so the assignment tie-break can hold
    # a walker at its current station instead of inheriting the previous
    # geometry's power skew.
    moves_by_step: dict[int, list[MoveEvent]] = {}
    for ev in scenario.moves:
        moves_by_step.setdefault(ev.step, []).append(ev)
    steps = sorted({1} | set(moves_by_step))
    arrivals = sorted(scenario.arrivals, key=lambda ev: ev.iteration)
    names = scenario.user_names + [ev.name for ev in arrivals]
    channel, users = scenario.channel, scenario.users
    networks = []
    for step_no in steps:
        if step_no > 1 and arrivals:
            # The later steps play the network step 1's arrivals grew.
            for ev in arrivals:
                channel = channel.with_user(ev.distances_m)
            users = UserTable.concat([users, *(ev.user for ev in arrivals)])
            arrivals = ()
        for ev in moves_by_step.get(step_no, []):
            channel = channel.moved(ev.user, ev.distances_m)
        networks.append((Network(channel, users, scenario.pricing, arrivals), scenario.config))
    solved = yield networks
    for outcome in solved:
        if isinstance(outcome, Exception):
            raise outcome
    return _joined(scenario, names, steps, solved)


def sweep_lambda(
    scenario: Scenario, lambdas
) -> list[tuple[float, IterationTrace, RunSummary]]:
    """Run the scenario once per pricing value, uniform across users.

    Each value is a constant pricing rule, so arriving users are priced at
    it too, and it replaces any [pricing] section the scenario carries. The
    runs are ``run_scenarios`` of the priced copies, their steps solved
    together.
    """
    lambdas = list(lambdas)
    priced = (replace(scenario, pricing=PricingRule("constant", float(lam))) for lam in lambdas)
    runs = run_scenarios(priced)
    return [(float(lam), trace, summary) for lam, (trace, summary) in zip(lambdas, runs)]


def _joined(scenario: Scenario, names, steps, traces) -> tuple[IterationTrace, RunSummary]:
    """One run's trace and summary from the traces of its steps, in order, and its users' names."""
    segments: list[Segment] = []
    step_ends: list[Segment] = []  # each step's last segment
    offset = 0
    converged = True
    for step_no, trace in zip(steps, traces):
        converged = converged and trace.converged
        if step_no == 1:
            segments += trace.segments  # already step 1, numbered from 1
        else:
            segments += [
                replace(seg, step=step_no, iterations=seg.iterations + offset)
                for seg in trace.segments
            ]
        offset += trace.iterations_used
        step_ends.append(segments[-1])

    trace = replace(trace, segments=segments, converged=converged, iterations_used=offset)
    summary = summarize_run(trace, names)
    if scenario.moves:
        summary.steps = [seg.row(-1) for seg in step_ends]
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
    targets = users.target_sinrs(trace.channel.bandwidth_hz)
    if trace.converged:
        outcomes = _outcomes(final.sinrs, targets)
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
        lam=users.lam.copy(),
    )


# ---------------------------------------------------------------------------
# Output


def emit_trace(trace: IterationTrace, destination) -> None:
    """Write the run history as CSV, one row per user per iteration.

    Rows are ordered by iteration then user id; floats carry 11 significant
    digits, exactly as ``format(x, ".10e")`` writes them, so re-running a
    scenario produces byte-identical files. Each segment's columns are
    encoded whole in numpy, in chunks of about ``encoder.TRACE_CHUNK_ROWS``
    rows. An existing file is written over from byte 0 and cut at the end, not
    atomically: before the cut, or if the run is killed, the old tail follows.
    A trace solved under "last" history holds only each segment's last row
    and raises ValueError, before anything is written.
    """
    if not all(seg.complete for seg in trace.segments):
        raise ValueError("the trace keeps only each segment's last row; solve with history='full'")
    from .encoder import write_segments  # only commands that write text compile it

    def fill(write):
        write(TRACE_HEADER.encode("ascii") + b"\n")
        write_segments(trace.segments, write)

    _write_out(destination, fill)


def summary_to_text(summary: RunSummary) -> str:
    """Flat key = value rendering of a run summary.

    Its floats read as ``format(x, ".10e")`` writes them; they are encoded
    together, a column at a time, by the trace encoder.
    """
    out = [
        f"converged = {str(summary.converged).lower()}",
        f"iterations_used = {summary.iterations_used}",
        f"n_users = {len(summary.user_names)}",
    ]
    from .encoder import float_texts  # only commands that write text compile it

    names = summary.user_names
    columns = (summary.powers, summary.rates, summary.sinrs, summary.targets, summary.lam)
    p, r, sinr, target, lam = float_texts(columns, len(names))
    for k, name in enumerate(names):
        out.append(f"{name}.bs = {int(summary.assignment[k])}")
        out.append(f"{name}.p_w = {p[k]}")
        out.append(f"{name}.r_bps = {r[k]}")
        out.append(f"{name}.sinr = {sinr[k]}")
        out.append(f"{name}.target_sinr = {target[k]}")
        out.append(f"{name}.lambda = {lam[k]}")
        out.append(f"{name}.outcome = {summary.outcomes[k]}")
    if summary.steps:
        out.append(f"n_steps = {len(summary.steps)}")
        for sr in summary.steps:
            p, r, sinr = float_texts((sr.powers, sr.rates, sr.sinrs), len(names))
            for k, name in enumerate(names):
                out.append(f"step{sr.step}.{name}.bs = {int(sr.assignment[k])}")
                out.append(f"step{sr.step}.{name}.p_w = {p[k]}")
                out.append(f"step{sr.step}.{name}.r_bps = {r[k]}")
                out.append(f"step{sr.step}.{name}.sinr = {sinr[k]}")
    return "\n".join(out) + "\n"


def write_summary(summary: RunSummary, destination) -> None:
    """Write ``summary_to_text`` to a stream, or over a file from byte 0 and cut it
    after; a run killed before the cut leaves the old file's tail after the text."""
    _write_text(destination, summary_to_text(summary))


def _write_text(destination, text: str) -> None:
    _write_out(destination, lambda write: write(text.encode("utf-8")))


def _write_out(destination, fill) -> None:
    """Pass ``fill`` a ``write`` of bytes to a text stream, or to a path's file at byte 0.

    The open does not empty the file. After ``fill``, also when it or the flush
    raises, a longer regular file is cut where the bytes that reached it end;
    until then, or for good if the process dies first, the old tail follows them.
    """
    if hasattr(destination, "write"):
        fill(lambda data: destination.write(data.decode("utf-8")))
        return
    with open(destination, "wb", opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as f:
        try:
            fill(f.write)
        finally:
            try:
                f.flush()
            finally:  # a device or a FIFO is never cut
                st = os.fstat(f.fileno())
                if stat.S_ISREG(st.st_mode) and st.st_size > f.raw.tell():
                    f.raw.truncate()
