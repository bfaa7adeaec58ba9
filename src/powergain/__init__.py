"""Nonparametric estimation of the power a literature would gain from
larger samples.

The package treats published t-scores as draws of a true standardized
effect plus standard normal noise, deconvolves the effect distribution
with a scaled Hermite basis, and evaluates how the share of significant
results would change if every sample size were multiplied by a chosen
factor — correcting, if requested, for publication bias against
insignificant results.
"""
from .basis import (
    J_MAX,
    conditional_power,
    gaussian_pdf,
    hermite_sequence,
    integrate_basis,
    normal_quantile,
)
from .spectrum import (
    SpectralBasis,
    TuningConfig,
    a_coefficient,
    build_basis,
    kernel_S,
    kernel_S_grid,
    select_tuning,
    singular_values,
)
from .pubbias import (
    CaliperError,
    EmpiricalTail,
    caliper_tail,
    significant,
)
from .estimator import (
    ConditionalReport,
    CurvePoint,
    EstimateReport,
    EstimationError,
    GroupedEffects,
    PriorReconstruction,
    RowEstimates,
    TScoreSample,
    conditional_delta,
    delta_hat_pb,
    delta_hat_pb_rows,
    estimate,
    power_gain_curve,
    reconstruct_prior,
    status_quo_power,
)
from .inference import (
    confidence_interval,
    influence,
    q_hat,
    variance_hat,
)
from .simulate import (
    FITTED_MASSES,
    NOISES,
    PRIORS,
    CoverageRow,
    DgpSpec,
    draw_population,
    oracle_delta,
    oracle_power,
    run_coverage,
)

__version__ = "0.1.0"

__all__ = [
    "J_MAX",
    "conditional_power",
    "gaussian_pdf",
    "hermite_sequence",
    "integrate_basis",
    "normal_quantile",
    "SpectralBasis",
    "TuningConfig",
    "a_coefficient",
    "build_basis",
    "kernel_S",
    "kernel_S_grid",
    "select_tuning",
    "singular_values",
    "CaliperError",
    "EmpiricalTail",
    "caliper_tail",
    "significant",
    "ConditionalReport",
    "CurvePoint",
    "EstimateReport",
    "EstimationError",
    "GroupedEffects",
    "PriorReconstruction",
    "RowEstimates",
    "TScoreSample",
    "conditional_delta",
    "delta_hat_pb",
    "delta_hat_pb_rows",
    "estimate",
    "power_gain_curve",
    "reconstruct_prior",
    "status_quo_power",
    "confidence_interval",
    "influence",
    "q_hat",
    "variance_hat",
    "FITTED_MASSES",
    "NOISES",
    "PRIORS",
    "CoverageRow",
    "DgpSpec",
    "draw_population",
    "oracle_delta",
    "oracle_power",
    "run_coverage",
    "__version__",
]
