"""Desk-scale simulator for two-mode correlation linewidth measurements.

Synthesizes two-mode squeezed microwave noise from a traveling-wave
parametric amplifier model, acquires it through windowed IQ demodulation
with pump-on/off staging, infers covariance matrices and Pearson
correlations, and fits linewidth models against detuning sweeps.
"""

__version__ = "0.1.0"

from .acquisition import (
    AcquisitionConfig,
    EmissionBandModel,
    ExperimentData,
    WindowSpec,
    demodulate,
    run_experiment,
    shot_rng,
    synthesize_baseband_pair,
)
from .estimators import (
    CovarianceEstimate,
    PhaseSweepResult,
    estimate_covariance,
    infer_tmsvs,
    inferred_pearson,
    phase_sweep,
)
from .gaussian import (
    OMEGA,
    QUADRATURE_ORDER,
    VACUUM_VARIANCE,
    TwpaParams,
    pearson_xx,
    physicality_min_eigenvalue,
    rotate_quadrature_array,
    squeezing_db,
    tmsvs_covariance,
)
from .linewidth import (
    DetuningSweep,
    LinewidthFit,
    WindowComparison,
    compare_windows,
    fit_model,
    fwhm_from_scale,
    model_prediction,
    sweep_detuning,
)

__all__ = [
    "__version__",
    "AcquisitionConfig",
    "CovarianceEstimate",
    "DetuningSweep",
    "EmissionBandModel",
    "ExperimentData",
    "LinewidthFit",
    "OMEGA",
    "PhaseSweepResult",
    "QUADRATURE_ORDER",
    "TwpaParams",
    "VACUUM_VARIANCE",
    "WindowComparison",
    "WindowSpec",
    "compare_windows",
    "demodulate",
    "estimate_covariance",
    "fit_model",
    "fwhm_from_scale",
    "infer_tmsvs",
    "inferred_pearson",
    "model_prediction",
    "pearson_xx",
    "phase_sweep",
    "physicality_min_eigenvalue",
    "rotate_quadrature_array",
    "run_experiment",
    "shot_rng",
    "squeezing_db",
    "sweep_detuning",
    "synthesize_baseband_pair",
    "tmsvs_covariance",
]
