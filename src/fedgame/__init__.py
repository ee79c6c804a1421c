"""Incentive-aware federated data-contribution games.

Strategic agents pick how much data to contribute; a center trains a shared
model on the pooled contributions and may pay budget-balanced transfers.
This package provides the game model, joint best-response/gradient dynamics,
equilibrium certification, convergence bounds, and a line-delimited JSON
federation protocol for running the same rounds across processes or hosts.
"""

from .analysis import (
    AssumptionEstimates,
    ContractionReport,
    EquilibriumCertificate,
    FeasibleStepRegion,
    Matrices,
    WelfareOptResult,
    assumption_samples,
    best_response,
    certify_nash,
    check_assumption1,
    compute_w_opt,
    contraction_diagnostic,
    estimate_matrices,
    feasible_steps,
)
from .config import (
    BuiltScenario,
    ScenarioConfig,
    build_scenario,
    parse_scenario,
)
from .core import (
    AgentSpec,
    BOUND_TOL,
    ConfigError,
    FederationError,
    GameError,
    GameInstance,
    ModelEvalError,
    NumericError,
    PaymentRule,
    UtilityReport,
    clamp_profile,
    payment,
    payment_vector,
    social_welfare,
    strategy_gradient,
    utility,
    welfare_gradient,
)
from .dynamics import (
    AgentWorker,
    LocalPool,
    RoundRecord,
    RunConfig,
    Trace,
    contraction_factor,
    corollary_bound,
    empirical_strategy_update,
    iteration_bound_T0,
    iteration_bounds_two_phase,
    predicted_phase1_rounds,
    run_dynamic,
)
from .models import (
    CostModel,
    EmpiricalAccuracy,
    QuadraticAccuracy,
    SyntheticDataset,
    cross_entropy,
    cross_entropy_grad,
    synth_dataset,
)

__version__ = "0.1.0"
