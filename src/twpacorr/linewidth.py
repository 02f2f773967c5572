"""Detuning sweeps and linewidth extraction.

Runs the two-mode correlation experiment across a detuning grid, at the
idler phase that maximizes rho in a zero-detuning calibration, fits the
frequency-domain response with the model its window shape fixes,
``|A sinc(xi df)|`` for rectangular windows and ``A exp(-(xi df)^2 / 2)``
for gaussian ones (:data:`MODEL_FOR_SHAPE`), and reduces fits to FWHM, SNR
and side-lobe figures for window comparisons.

The sinc convention is fixed to sinc(x) = sin(x)/x with sinc(0) = 1; every
half-max and lobe constant below follows from that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acquisition import AcquisitionConfig, EmissionBandModel, WindowSpec, run_experiment
from .estimators import inferred_pearson, phase_sweep

#: The response model fitted to a sweep, by its window's shape.
MODEL_FOR_SHAPE = {"rectangular": "abs_sinc", "gaussian": "gaussian"}
MODELS = tuple(MODEL_FOR_SHAPE.values())

#: Positive root of sinc(x) = 1/2; the half width of |sinc| at half maximum.
SINC_HALF_MAX_ARG = 1.8954942670339809
#: First zero of sinc is at pi; first side lobe peak and its level.
SINC_FIRST_LOBE_ARG = 4.493409457909064
SINC_FIRST_LOBE_LEVEL = 0.21723362821122166
#: Half width at half maximum of exp(-x^2 / 2).
GAUSSIAN_HALF_MAX_ARG = math.sqrt(2.0 * math.log(2.0))

#: Gaussian side lobes are judged beyond this multiple of the fitted FWHM.
GAUSSIAN_TAIL_START = 1.5

MAX_AMPLITUDE = 1.05
FIT_MAX_EVALUATIONS = 200
FIT_OBJECTIVE_TOLERANCE = 1e-9


def _check_grid(detunings: np.ndarray) -> None:
    """Refuse a detuning grid of fewer than 5 points or not strictly increasing."""
    if detunings.size < 5:
        raise ValueError(f"a sweep needs at least 5 points, got {detunings.size}")
    if not np.all(np.diff(detunings) > 0.0):
        raise ValueError("detunings must be strictly increasing")


@dataclass(frozen=True)
class DetuningSweep:
    """Pearson correlation versus detuning for one (window, tau) case."""

    detunings: np.ndarray
    rho_values: np.ndarray
    rho_errors: np.ndarray
    window: WindowSpec
    alpha_star: float = 0.0

    def __post_init__(self) -> None:
        detunings = np.asarray(self.detunings, dtype=float)
        rho = np.asarray(self.rho_values, dtype=float)
        err = np.asarray(self.rho_errors, dtype=float)
        if not (detunings.size == rho.size == err.size):
            raise ValueError("detunings, rho_values and rho_errors must match in length")
        _check_grid(detunings)
        object.__setattr__(self, "detunings", detunings)
        object.__setattr__(self, "rho_values", rho)
        object.__setattr__(self, "rho_errors", err)


@dataclass(frozen=True)
class LinewidthFit:
    """Fitted linewidth model for one sweep."""

    model: str
    amplitude: float
    scale_xi: float
    fwhm: float
    snr: float
    residual_rms: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class WindowComparison:
    """Reduced per-case figures for the window comparison report."""

    window: str
    tau: float
    fwhm: float
    snr: float
    fwhm_tau: float
    sidelobe: float
    sidelobe_se: float
    n_sidelobe_points: int


def model_prediction(model: str, detunings, amplitude: float, scale_xi: float) -> np.ndarray:
    """Evaluate the fitted response model on a detuning grid."""
    detunings = np.asarray(detunings, dtype=float)
    x = scale_xi * detunings
    if model == "abs_sinc":
        return amplitude * np.abs(np.sinc(x / np.pi))
    if model == "gaussian":
        return amplitude * np.exp(-0.5 * x * x)
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")


def _model_jacobian(model: str, detunings: np.ndarray, amplitude: float, scale_xi: float) -> np.ndarray:
    """Analytic d(model)/d(amplitude, scale_xi), one row per detuning."""
    x = scale_xi * detunings
    if model == "abs_sinc":
        sinc = np.sinc(x / np.pi)
        d_amplitude = np.abs(sinc)
        with np.errstate(divide="ignore", invalid="ignore"):
            dsinc = np.where(x != 0.0, (np.cos(x) - sinc) / np.where(x != 0.0, x, 1.0), 0.0)
        d_scale = amplitude * np.sign(sinc) * dsinc * detunings
    else:
        envelope = np.exp(-0.5 * x * x)
        d_amplitude = envelope
        d_scale = -amplitude * envelope * x * detunings
    return np.column_stack([d_amplitude, d_scale])


def fwhm_from_scale(model: str, scale_xi: float) -> float:
    """Full width at half maximum implied by the fitted scale parameter."""
    if model == "abs_sinc":
        return 2.0 * SINC_HALF_MAX_ARG / scale_xi
    if model == "gaussian":
        return 2.0 * GAUSSIAN_HALF_MAX_ARG / scale_xi
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")


def sweep_detuning(
    band: EmissionBandModel,
    config: AcquisitionConfig,
    detunings: Sequence[float],
    *,
    windows: Sequence[WindowSpec] | None = None,
) -> DetuningSweep | list[DetuningSweep | ValueError]:
    """Run the correlation experiment across a grid of detunings in Hz.

    The detuning is the only frequency the simulation reads. The relative LO
    phase is calibrated once at zero detuning, to the idler rotation that
    maximizes rho there (``phase_sweep`` with no angles gives it in closed
    form), then held fixed while the detuning walks the grid (substream 0
    is the calibration run; point k runs at ``detunings[k]`` on substream
    k + 1, so points are independent and order-insensitive).

    With ``windows`` None the sweep runs through ``config.window``, returns
    one ``DetuningSweep`` and raises the ``ValueError`` of a failed
    calibration or estimate. Given a sequence of windows, each of the
    ``points + 1`` runs acquires them all from one set of draws
    (``run_experiment(..., windows=...)``), each window is calibrated on
    its own stream-0 data, and one entry per window is returned, in order:
    its ``DetuningSweep``, the same as a sweep with that window as
    ``config.window``, or the ``ValueError`` that stopped it. A stopped
    window is left out of the later runs; the others go on. The grid is
    checked, as ``DetuningSweep`` checks it, before anything is acquired.
    """
    detunings = np.asarray(detunings, dtype=float)
    _check_grid(detunings)
    targets = [config.window] if windows is None else list(windows)
    gains = (config.chain_gain_signal, config.chain_gain_idler)
    rho_values = np.empty((len(targets), detunings.size))
    rho_errors = np.empty((len(targets), detunings.size))
    alpha_stars = {}
    errors = {}

    live = range(len(targets))
    for stream, detuning in enumerate((0.0, *detunings)):
        if not live:
            break
        runs = run_experiment(detuning, band, config, stream=stream, windows=[targets[i] for i in live])
        for index, data in zip(live, runs):
            try:
                if stream == 0:
                    alpha_stars[index] = phase_sweep(data.on, data.off, *gains, ()).alpha_star
                else:
                    rho_values[index, stream - 1], rho_errors[index, stream - 1] = inferred_pearson(
                        data.on, data.off, *gains, idler_rotation=alpha_stars[index]
                    )
            except ValueError as error:
                errors[index] = error
        live = [index for index in live if index not in errors]

    sweeps = [
        errors[index]
        if index in errors
        else DetuningSweep(
            detunings=detunings,
            rho_values=rho_values[index],
            rho_errors=rho_errors[index],
            window=window,
            alpha_star=alpha_stars[index],
        )
        for index, window in enumerate(targets)
    ]
    if windows is not None:
        return sweeps
    if errors:
        raise errors[0]
    return sweeps[0]


def _initial_guess(model: str, detunings: np.ndarray, magnitudes: np.ndarray) -> tuple[float, float]:
    """Amplitude from the peak, scale from the half-max crossing of the raw curve."""
    amplitude = float(magnitudes.max())
    order = np.argsort(np.abs(detunings))
    abs_detuning = np.abs(detunings)[order]
    values = magnitudes[order]
    half = amplitude / 2.0
    half_crossing = abs_detuning[-1] if abs_detuning[-1] > 0 else 1.0
    below = np.nonzero(values <= half)[0]
    for index in below:
        if index == 0:
            continue
        lo, hi = values[index - 1], values[index]
        if hi == lo:
            half_crossing = abs_detuning[index]
        else:
            fraction = (lo - half) / (lo - hi)
            half_crossing = abs_detuning[index - 1] + fraction * (
                abs_detuning[index] - abs_detuning[index - 1]
            )
        break
    constant = SINC_HALF_MAX_ARG if model == "abs_sinc" else GAUSSIAN_HALF_MAX_ARG
    return amplitude, constant / half_crossing


def fit_model(sweep: DetuningSweep) -> LinewidthFit:
    """Weighted nonlinear least-squares fit of |rho| versus detuning.

    The model m follows the sweep's window shape (:data:`MODEL_FOR_SHAPE`).
    Minimizes sum(((|rho_k| - m(df_k)) / se_k)^2) with inverse-variance
    weights when per-point errors are available (unweighted otherwise),
    starting from the curve's peak and its half-maximum crossing.
    Follows the magnitude of the correlation since the analysis always
    targets the maximum positive correlation.
    """
    # Imported here, not at module level: scipy.optimize is most of the
    # package's import time, and only fitting needs it.
    from scipy.optimize import least_squares

    model = MODEL_FOR_SHAPE[sweep.window.shape]
    detunings = sweep.detunings
    magnitudes = np.abs(sweep.rho_values)
    if float(np.ptp(magnitudes)) < 1e-12:
        raise ValueError("flat sweep: cannot fit a linewidth model to constant data")

    errors = np.asarray(sweep.rho_errors, dtype=float)
    if errors.size == magnitudes.size and np.all(np.isfinite(errors)) and np.all(errors > 0.0):
        weights = 1.0 / errors
    else:
        weights = np.ones_like(magnitudes)

    amplitude0, scale0 = _initial_guess(model, detunings, magnitudes)
    amplitude0 = min(max(amplitude0, 1e-9), MAX_AMPLITUDE)
    scale0 = max(scale0, 1e-12)

    def residuals(params: np.ndarray) -> np.ndarray:
        amplitude, scale = params
        return (magnitudes - model_prediction(model, detunings, amplitude, scale)) * weights

    def jacobian(params: np.ndarray) -> np.ndarray:
        amplitude, scale = params
        return -_model_jacobian(model, detunings, amplitude, scale) * weights[:, np.newaxis]

    result = least_squares(
        residuals,
        x0=[amplitude0, scale0],
        jac=jacobian,
        bounds=([1e-12, 1e-15], [MAX_AMPLITUDE, np.inf]),
        ftol=FIT_OBJECTIVE_TOLERANCE,
        xtol=1e-14,
        gtol=1e-14,
        max_nfev=FIT_MAX_EVALUATIONS,
    )

    amplitude, scale = (float(v) for v in result.x)
    converged = bool(result.success)
    fit_residuals = magnitudes - model_prediction(model, detunings, amplitude, scale)
    residual_rms = float(np.sqrt(np.mean(fit_residuals**2)))
    snr = amplitude / residual_rms if residual_rms > 0.0 else math.inf
    return LinewidthFit(
        model=model,
        amplitude=amplitude,
        scale_xi=scale,
        fwhm=fwhm_from_scale(model, scale),
        snr=snr,
        residual_rms=residual_rms,
        converged=converged,
        n_iterations=int(result.nfev),
    )


def _sidelobe(sweep: DetuningSweep, fit: LinewidthFit) -> tuple[float, float, int]:
    """Max |rho| outside the main peak, with the SE at that point.

    Rectangular fits look beyond the first model minimum (the first sinc
    zero); gaussian fits look beyond GAUSSIAN_TAIL_START times the FWHM.
    Returns NaNs when the sweep never reaches the tail region.
    """
    if fit.model == "abs_sinc":
        start = math.pi / fit.scale_xi
    else:
        start = GAUSSIAN_TAIL_START * fit.fwhm
    mask = np.abs(sweep.detunings) > start
    count = int(np.count_nonzero(mask))
    if count == 0:
        return math.nan, math.nan, 0
    magnitudes = np.abs(sweep.rho_values)[mask]
    peak = int(np.argmax(magnitudes))
    return (
        float(magnitudes[peak]),
        float(np.asarray(sweep.rho_errors)[mask][peak]),
        count,
    )


def compare_windows(fit: LinewidthFit, sweep: DetuningSweep) -> WindowComparison:
    """One case's FWHM / SNR / side-lobe / FWHM*tau figures for the window comparison."""
    sidelobe, sidelobe_se, count = _sidelobe(sweep, fit)
    return WindowComparison(
        window=sweep.window.shape,
        tau=sweep.window.tau,
        fwhm=fit.fwhm,
        snr=fit.snr,
        fwhm_tau=fit.fwhm * sweep.window.tau,
        sidelobe=sidelobe,
        sidelobe_se=sidelobe_se,
        n_sidelobe_points=count,
    )
