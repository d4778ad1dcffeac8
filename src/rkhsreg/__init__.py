"""Kernel ridge regression in an RKHS with a continuous-problem companion.

The package fits the regularized empirical estimator, solves the matching
Fredholm problem for its population-level target f_lambda, exposes the
auxiliary residual-based estimator that links the two, and ships a Monte
Carlo harness for risk curves, Loewner-order matrix bounds, and rates.
"""

from .auxiliary import (
    AuxiliaryFit,
    TildeRisk,
    bridge_distance_sq,
    fit_auxiliary,
    theoretical_tilde_risk,
)
from .estimator import (
    Dataset,
    KernelExpansion,
    empirical_objective,
    evaluate_batch,
    fit_generalized,
    fit_ridge,
    gp_posterior_band,
    rkhs_dist_sq,
    rkhs_norm_sq,
    sup_error_bound,
)
from .experiments import (
    AggregateResult,
    MonotonicityReport,
    NoiseModel,
    ReplicationMetrics,
    ScenarioSpec,
    canonical_scenario,
    continuous_solution,
    flambda_values,
    monotonicity_check,
    monte_carlo,
    rate_fit,
    rate_scenario,
    run_replication,
    sample_dataset,
    target_values,
    weak_consistency_fractions,
    worker_count,
)
from .fredholm import (
    DesignMeasure,
    FredholmSolution,
    QuadratureGrid,
    bias_norm_sq,
    build_grid,
    continuous_objective,
    f0_in_range,
    flambda_expansion,
    solve_coefficient,
)
from .kernels import FAMILIES, KernelSpec, cross_gram, gram, kernel_eval
from .linalg import (
    NotPositiveDefiniteError,
    loewner_leq,
    sandwich,
    solve_spd,
    sym_eig,
)
from .model import KernelRidge
from .svgplot import Figure

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "AuxiliaryFit",
    "Dataset",
    "DesignMeasure",
    "FAMILIES",
    "Figure",
    "FredholmSolution",
    "KernelExpansion",
    "KernelRidge",
    "KernelSpec",
    "MonotonicityReport",
    "NoiseModel",
    "NotPositiveDefiniteError",
    "QuadratureGrid",
    "ReplicationMetrics",
    "ScenarioSpec",
    "TildeRisk",
    "bias_norm_sq",
    "bridge_distance_sq",
    "build_grid",
    "canonical_scenario",
    "continuous_objective",
    "continuous_solution",
    "cross_gram",
    "empirical_objective",
    "evaluate_batch",
    "f0_in_range",
    "fit_auxiliary",
    "fit_generalized",
    "fit_ridge",
    "flambda_expansion",
    "flambda_values",
    "gp_posterior_band",
    "gram",
    "kernel_eval",
    "loewner_leq",
    "monotonicity_check",
    "monte_carlo",
    "rate_fit",
    "rate_scenario",
    "rkhs_dist_sq",
    "rkhs_norm_sq",
    "run_replication",
    "sample_dataset",
    "sandwich",
    "solve_spd",
    "sup_error_bound",
    "sym_eig",
    "target_values",
    "theoretical_tilde_risk",
    "weak_consistency_fractions",
    "worker_count",
]
