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
    UtilityParamsBase,
    alpha_ratio_for_target,
    effective_interference,
    path_gain,
    sinr,
    target_sinr,
    utility_base,
    utility_priced,
    utility_priced_gradient,
    utility_priced_hessian,
)
from .engine import (
    CLAMP,
    KKT,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationRecord,
    IterationTrace,
    bounded_step,
    bounded_step_array,
    convergence_metric,
    iterate_to_convergence,
    njrpcg_equilibrium,
    power_update_map,
    power_update_rate_bounded,
    rate_update_power_bounded,
    symmetric_fixed_point,
    unconstrained_best_response,
)
from .multicell import (
    assign_base_station,
    effective_interference_by_station,
    min_power_update_map,
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
    fd_gradient_check,
    grid_best_response,
    standard_function_check,
)
from .scenario import (
    ArrivalEvent,
    MoveEvent,
    RunSummary,
    Scenario,
    ScenarioFormatError,
    StepResult,
    emit_trace,
    parse_scenario,
    run_scenario,
    scenario_to_text,
    summarize_run,
    summary_to_text,
    sweep_lambda,
    write_summary,
)
from .reference import REPRODUCE_TARGETS, ComparisonReport, reproduce

__version__ = "0.1.0"
