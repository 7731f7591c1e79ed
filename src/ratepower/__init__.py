"""Distributed joint data-rate and transmit-power allocation games for CDMA uplinks.

The package is the solver: the unpriced corner game, the priced single-cell
game, and the priced multi-cell game with base-station assignment, plus
pricing escalation, user removal, discrete-rate quantization and a
scenario-file runner. The model it solves (the channel, the users, the rate
ladder and the pricing rule) lives in ``core``; the engine prices each
network by its rule, at entry and after each arrival group. The scalar
statements of the paper's formulas, which the tests check the solver
against, live only in ``ratepower.oracle``; the package does not re-export
them.

Every public name resolves on first use (PEP 562): reading it imports its
home module in ``_HOMES`` and keeps the value here, so ``import ratepower``
loads no submodule and a command loads only the modules it runs; no command
loads ``oracle``. Submodules resolve by name the same way.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines, which the package re-exports.
_HOMES = {
    "core": (
        "ChannelModel",
        "NoFeasibleRateError",
        "PricingRule",
        "RateSet",
        "UserTable",
    ),
    "engine": (
        "CLAMP",
        "KKT",
        "SEQUENTIAL",
        "SYNCHRONOUS",
        "ConvergenceConfig",
        "IterationRecord",
        "IterationTrace",
        "Network",
        "Segment",
        "bounded_step_array",
        "iterate_batch",
        "iterate_to_convergence",
    ),
    "admission": (
        "ABOVE_TARGET",
        "AT_TARGET",
        "BELOW_TARGET",
        "EscalationResult",
        "NotConvergedError",
        "RemovalResult",
        "classify_users",
        "escalate_pricing",
        "removal_loop",
    ),
    "scenario": (
        "ArrivalEvent",
        "MoveEvent",
        "RunSummary",
        "Scenario",
        "ScenarioFormatError",
        "emit_trace",
        "parse_scenario",
        "run_scenario",
        "run_scenarios",
        "scenario_to_text",
        "summarize_run",
        "summary_to_text",
        "sweep_lambda",
        "write_summary",
    ),
    "reference": ("REPRODUCE_TARGETS", "ComparisonReport", "reproduce", "reproduce_many"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "encoder", "oracle"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule binds it here, so this runs once per name.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
