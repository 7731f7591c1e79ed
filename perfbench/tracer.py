"""In-memory tracing of ratepower's layer boundaries, from outside the package.

The tracer wraps public functions of the ``ratepower`` modules while it is
installed and restores the originals afterwards, so untraced ops run the
unmodified program. Coarse calls (a solve, a parse, one trace record) become
spans with name, start, end, parent and op id. Per-user functions are
counters that keep only a call count and accumulated time, so memory stays
bounded however many users an op has.

Modules bind names with ``from .engine import ...``, so a wrapper is
installed in every ``ratepower`` module namespace that bound the original
object, not only in the defining module. Methods and properties are patched
on their class.

Time bookkeeping: each wrapped call pushes a frame; when it returns, its
duration is added to the enclosing frame's child time. A call's self time is
its duration minus its children's. ``busy`` is inclusive time counted only
for the outermost call of a group, so a group member called inside another
(``assign_base_station`` calls ``effective_interference_by_station``) is not
counted twice.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    module: str  # ratepower submodule that defines the object
    attr: str  # "name" or "Class.name"
    key: str  # metric prefix the call is booked under
    layer: str
    span: bool  # True: record a span per call; False: count only
    count_calls: bool = True
    group: str | None = None  # calls of one group nest without double counting busy time


TARGETS = (
    Target("cli", "main", "cli.main", "cli", True),
    Target("scenario", "parse_scenario", "scenario.parse", "scenario", True),
    Target("scenario", "run_scenario", "scenario.run", "scenario", True),
    Target("scenario", "sweep_lambda", "scenario.sweep", "scenario", True, group="scenario.run"),
    Target("scenario", "emit_trace", "scenario.trace", "scenario", True),
    Target("scenario", "write_summary", "scenario.summary", "scenario", True),
    Target("scenario", "summary_to_text", "scenario.summary", "scenario", True),
    Target("scenario", "summarize_run", "scenario.summary", "scenario", True),
    Target("reference", "reproduce", "reference.reproduce", "reference", True),
    Target("admission", "escalate_pricing", "admission.escalate", "admission", True),
    Target("admission", "removal_loop", "admission.removal", "admission", True),
    Target("multicell", "njrpcgpb_iterate", "multicell.solve", "multicell", True),
    Target("engine", "iterate_to_convergence", "engine.solve", "engine", True),
    Target("engine", "make_record", "engine.record", "engine", True),
    Target("multicell", "assign_base_station", "multicell.assign", "multicell", False),
    Target(
        "multicell",
        "effective_interference_by_station",
        "multicell.interference",
        "multicell",
        False,
        count_calls=False,
        group="multicell.assign",
    ),
    Target("engine", "bounded_step", "engine.best_response", "engine", False),
    Target("core", "utility_priced", "core.utility", "core", False),
    Target("core", "ChannelModel.gains", "core.gains", "core", False),
    Target("rates", "RateSet.floor", "rates.floor", "rates", False),
)

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op")


@dataclass
class Agg:
    calls: int = 0
    busy: float = 0.0  # inclusive seconds, outermost call of the group only
    self_s: float = 0.0  # seconds minus the time of wrapped children


@dataclass
class Tracer:
    """Spans and counters of the traced ops, kept in memory until the run ends."""

    spans: list = field(default_factory=list)
    aggs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    op_wall_s: float = 0.0
    ops: int = 0
    _frames: list = field(default_factory=list)
    _span_stack: list = field(default_factory=list)
    _active: dict = field(default_factory=dict)
    _op_id: int = -1
    _installed: list = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every target in every ratepower namespace that bound it.

        A target the program no longer has is skipped, so its metrics read 0.
        """
        modules = [m for n, m in sys.modules.items() if n == "ratepower" or n.startswith("ratepower.")]
        for t in TARGETS:
            owner = sys.modules.get(f"ratepower.{t.module}")
            if "." in t.attr:
                cls_name, name = t.attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(name) if cls is not None else None
                if orig is None:
                    continue
                if isinstance(orig, property):
                    new = property(self._wrap(orig.fget, t), doc=orig.__doc__)
                else:
                    new = self._wrap(orig, t)
                setattr(cls, name, new)
                self._installed.append((cls, name, orig))
                continue
            orig = getattr(owner, t.attr, None)
            if orig is None:
                continue
            new = self._wrap(orig, t)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, new)
                        self._installed.append((mod, name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._installed):
            setattr(holder, name, orig)
        self._installed.clear()

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as one traced op under a root span; returns its result."""
        self._op_id = op_id
        idx = len(self.spans)
        rec = ["op", 0.0, 0.0, -1, op_id]
        self.spans.append(rec)
        self._span_stack.append(idx)
        self._frames.append([0.0])
        self.install()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self.uninstall()
            self._frames.pop()
            self._span_stack.pop()
            rec[1], rec[2] = t0, t0 + dt
            self.op_wall_s += dt
            self.ops += 1

    def agg(self, key: str) -> Agg:
        a = self.aggs.get(key)
        if a is None:
            a = self.aggs[key] = Agg()
        return a

    def _wrap(self, fn, t: Target):
        agg = self.agg(t.key)
        group = t.group or t.key
        frames, span_stack, active, spans = self._frames, self._span_stack, self._active, self.spans
        perf = time.perf_counter
        on_call = _ON_CALL.get(t.key)
        on_return = _ON_RETURN.get(t.key)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = [0.0]
            frames.append(frame)
            depth = active.get(group, 0) + 1
            active[group] = depth
            if t.span:
                rec = [t.key, 0.0, 0.0, span_stack[-1], tracer._op_id]
                span_stack.append(len(spans))
                spans.append(rec)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                frames[-1][0] += dt
                active[group] = depth - 1
                if t.count_calls:
                    agg.calls += 1
                if depth == 1:
                    agg.busy += dt
                agg.self_s += dt - frame[0]
                if t.span:
                    span_stack.pop()
                    rec[1], rec[2] = t0, t0 + dt
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", t.attr)
        return wrapper

    def active(self, group: str) -> bool:
        return self._active.get(group, 0) > 0

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        by_layer = {}
        # Several targets can share a key; book each key's self time once.
        seen = set()
        for t in TARGETS:
            if t.key in seen:
                continue
            seen.add(t.key)
            by_layer[t.layer] = by_layer.get(t.layer, 0.0) + self.agg(t.key).self_s
        return by_layer

    def span_dump(self) -> dict:
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - base, 7), round(e - base, 7), p, op] for n, s, e, p, op in self.spans]
        return {"fields": list(SPAN_FIELDS), "spans": rows}


# -- hooks: counts read from the arguments and results at a boundary ---------


def _parse_call(tracer, args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    tracer.count("scenario.parse.bytes", len(text))


def _solve_return(prefix):
    def hook(tracer, args, kwargs, trace):
        iterations = getattr(trace, "iterations_used", 0)
        tracer.count(f"{prefix}.iterations", iterations)
        tracer.count(f"{prefix}.converged", 1 if getattr(trace, "converged", False) else 0)
        if tracer.active("admission.escalate"):
            tracer.count("admission.escalation_solves")
            tracer.count("admission.inner_iterations", iterations)
        elif tracer.active("admission.removal"):
            tracer.count("admission.removal_solves")
            tracer.count("admission.inner_iterations", iterations)

    return hook


def _assign_return(tracer, args, kwargs, station):
    current = args[3] if len(args) > 3 else kwargs.get("current")
    if current is not None and station != current:
        tracer.count("multicell.switches")


def _trace_return(tracer, args, kwargs, _result):
    # Read back from the file written, whatever form the trace has in memory.
    destination = args[1] if len(args) > 1 else kwargs.get("destination")
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "rb") as f:
            data = f.read()
        tracer.count("scenario.trace.rows", data.count(b"\n") - 1)
        tracer.count("scenario.trace.bytes", len(data))


def _reproduce_return(tracer, args, kwargs, report):
    checks = getattr(report, "checks", [])
    tracer.count("reference.checks", len(checks))
    tracer.count("reference.checks_failed", sum(1 for c in checks if not c.passed))


_ON_CALL = {"scenario.parse": _parse_call}
_ON_RETURN = {
    "engine.solve": _solve_return("engine"),
    "multicell.solve": _solve_return("multicell"),
    "multicell.assign": _assign_return,
    "scenario.trace": _trace_return,
    "reference.reproduce": _reproduce_return,
}
