"""Distributed joint data-rate and transmit-power allocation games for CDMA uplinks.

Solvers for the unpriced corner game, the priced single-cell game, and the
priced multi-cell game with base-station assignment, plus pricing escalation,
user removal, discrete-rate quantization, verification oracles, and a
scenario-file runner.
"""

from .core import (
    ChannelModel,
    Strategy,
    UserParams,
    UserTable,
    alpha_ratio_for_target,
    path_gain,
    target_sinr,
)
from .engine import (
    CLAMP,
    KKT,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationRecord,
    IterationTrace,
    Segment,
    bounded_step,
    bounded_step_array,
    iterate_batch,
    iterate_to_convergence,
)
from .admission import (
    ABOVE_TARGET,
    AT_TARGET,
    BELOW_TARGET,
    EscalationResult,
    NotConvergedError,
    PricingRule,
    RemovalResult,
    classify_users,
    escalate_pricing,
    pricing_rule_eval,
    removal_loop,
)
from .rates import NoFeasibleRateError, RateSet
from .oracle import (
    StandardFunctionReport,
    UtilityParamsBase,
    assign_base_station,
    convergence_metric,
    effective_interference,
    effective_interference_by_station,
    fd_gradient_check,
    grid_best_response,
    njrpcg_equilibrium,
    power_update_map,
    power_update_rate_bounded,
    rate_update_power_bounded,
    sinr,
    standard_function_check,
    symmetric_fixed_point,
    unconstrained_best_response,
    utility_base,
    utility_priced,
    utility_priced_gradient,
    utility_priced_hessian,
)
from .scenario import (
    ArrivalEvent,
    MoveEvent,
    RunSummary,
    Scenario,
    ScenarioFormatError,
    emit_trace,
    parse_scenario,
    run_scenario,
    run_scenarios,
    scenario_to_text,
    summarize_run,
    summary_to_text,
    sweep_lambda,
    write_summary,
)
from .reference import REPRODUCE_TARGETS, ComparisonReport, reproduce

__version__ = "0.1.0"
