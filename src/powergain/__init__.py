"""Nonparametric estimation of the power a literature would gain from
larger samples.

The package treats published t-scores as draws of a true standardized
effect plus standard normal noise, deconvolves the effect distribution
with a scaled Hermite basis, and evaluates how the share of significant
results would change if every sample size were multiplied by a chosen
factor — correcting, if requested, for publication bias against
insignificant results.

The names below are the documented library API.  Everything else lives in
its module and is imported from there, for example
``powergain.inference.influence`` or ``powergain.simulate.run_coverage``.
"""
from .basis import hermite_sequence
from .spectrum import SpectralBasis, TuningConfig, build_basis
from .pubbias import CaliperError
from .estimator import (
    ConditionalReport,
    EstimateReport,
    EstimationError,
    GroupedEffects,
    TScoreSample,
    conditional_delta,
    estimate,
    power_gain_curve,
    reconstruct_prior,
)

__version__ = "0.1.0"

__all__ = [
    "hermite_sequence",
    "SpectralBasis",
    "TuningConfig",
    "build_basis",
    "CaliperError",
    "ConditionalReport",
    "EstimateReport",
    "EstimationError",
    "GroupedEffects",
    "TScoreSample",
    "conditional_delta",
    "estimate",
    "power_gain_curve",
    "reconstruct_prior",
    "__version__",
]
