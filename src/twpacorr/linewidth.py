"""Detuning sweeps and linewidth extraction.

Runs the two-mode correlation experiment across a detuning grid, at the
idler phase that maximizes rho in a zero-detuning calibration, fits the
frequency-domain response with the model its window shape fixes,
``A sinc(xi df)`` for rectangular windows and ``A exp(-(xi df)^2 / 2)``
for gaussian ones (:data:`MODEL_FOR_SHAPE`), and reduces fits to FWHM, SNR
and side-lobe figures for window comparisons.

Fits take rho with its sign: the calibration makes rho(0) positive, and
rho then follows the window kernel, side lobes included, so that a fit of
|rho| would rectify the noise into the width. They use variable
projection: at each trial scale the amplitude is the weighted
least-squares one in closed form, clipped to its box, which leaves a
profile cost of the scale alone. :func:`fit_model` reads it on a grid of
scales, then halves a bracket on the profile's slope about every well of
the grid and keeps the lowest end, in the detuning over the sweep's
largest |detuning|, so that a fit does not depend on the span's
magnitude. Every model is an amplitude times a one-parameter shape, so
this one 1-D search serves them all.

The sinc convention is fixed to sinc(x) = sin(x)/x with sinc(0) = 1; every
half-max and lobe constant below follows from that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import acquisition
from .acquisition import AcquisitionConfig, EmissionBandModel, WindowSpec, run_experiment
from .estimators import _best_rotation, _inferred_stack, _pearson_with_jackknife, _rotate_idler
from .estimators import inferred_pearson, phase_sweep  # unused here: perfbench/spans.py wraps both

#: The response model fitted to a sweep, by its window's shape.
MODEL_FOR_SHAPE = {"rectangular": "sinc", "gaussian": "gaussian"}
MODELS = tuple(MODEL_FOR_SHAPE.values())

#: Positive root of sinc(x) = 1/2; the half width of sinc at half maximum.
SINC_HALF_MAX_ARG = 1.8954942670339809
#: First zero of sinc is at pi; first side lobe peak and its level.
SINC_FIRST_LOBE_ARG = 4.493409457909064
SINC_FIRST_LOBE_LEVEL = 0.21723362821122166
#: Half width at half maximum of exp(-x^2 / 2).
GAUSSIAN_HALF_MAX_ARG = math.sqrt(2.0 * math.log(2.0))

#: Gaussian side lobes are judged beyond this multiple of the fitted FWHM.
GAUSSIAN_TAIL_START = 1.5

MAX_AMPLITUDE = 1.05
#: Least fitted scale s = xi max|df|: a model varies by under 5e-5 over the sweep.
MIN_SCALE = 1e-2
#: The scales at which a fit first reads its profile cost, log-spaced from MIN_SCALE to 1e3.
COARSE_SCALES = MIN_SCALE * np.logspace(0.0, 5.0, 200)
_COARSE_STEP = COARSE_SCALES[1] / COARSE_SCALES[0]
#: A fit stops halving when its bracket on the scale is narrower than this fraction of it.
FIT_SCALE_TOLERANCE = 1e-6


def check_grid(detunings: np.ndarray) -> None:
    """Refuse a detuning grid of fewer than 5 points, not strictly increasing, or subnormal.

    A step below the smallest normal float would make the fitted scale,
    a constant over the largest detuning, overflow.
    """
    if detunings.size < 5:
        raise ValueError(f"detunings must hold at least 5 points, got {detunings.size}")
    steps = np.diff(detunings)
    if not np.all(steps > 0.0):
        raise ValueError("detunings must be strictly increasing")
    tiny = np.finfo(float).tiny
    if steps.min() < tiny:
        raise ValueError(f"detunings must step by at least {tiny:.6g} Hz, got {steps.min():.6g} Hz")


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
        check_grid(detunings)
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
    """The fitted response model on a detuning grid, as :func:`_model_jacobian` evaluates it."""
    return amplitude * _model_jacobian(model, np.asarray(detunings, dtype=float), amplitude, scale_xi)[..., 0]


def _model_jacobian(model: str, detunings: np.ndarray, amplitude: float, scale_xi) -> np.ndarray:
    """Analytic d(model)/d(amplitude, scale_xi), one row of two per detuning: each model's one evaluation.

    For a column of scales, one such (detunings, 2) block per scale.
    """
    x = scale_xi * detunings
    if model == "sinc":
        d_amplitude = np.sinc(x / np.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            dsinc = np.where(x != 0.0, (np.cos(x) - d_amplitude) / np.where(x != 0.0, x, 1.0), 0.0)
        d_scale = amplitude * dsinc * detunings
    elif model == "gaussian":
        envelope = np.exp(-0.5 * x * x)
        d_amplitude = envelope
        d_scale = -amplitude * envelope * x * detunings
    else:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return np.stack([d_amplitude, d_scale], axis=-1)


def fwhm_from_scale(model: str, scale_xi: float) -> float:
    """Full width at half maximum implied by the fitted scale parameter."""
    if model == "sinc":
        return 2.0 * SINC_HALF_MAX_ARG / scale_xi
    if model == "gaussian":
        return 2.0 * GAUSSIAN_HALF_MAX_ARG / scale_xi
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")


def _measure_runs(acquire, band, config, detunings, windows, n_items: int, starts: Iterable[int]) -> Iterator[tuple]:
    """Yield (first shot, one inferred covariance stack per window) of the run whose shots start at each of ``starts``.

    A chunk of ``_Workers.run`` is one run's ``config.n_shots`` shots: run k
    is acquired at ``detunings[k]`` on substream k by ``acquire``
    (``run_experiment``), in the process that takes it, and reduced to each
    window's (B + 1, 4, 4) stack of inferred covariances (``_inferred_stack``).
    """
    gains = (config.chain_gain_signal, config.chain_gain_idler)
    for first in starts:
        run = first // config.n_shots
        data = acquire(detunings[run], band, config, stream=run, windows=windows)
        yield first, [_inferred_stack(each.on, each.off, *gains) for each in data]


def sweep_detuning(
    band: EmissionBandModel,
    config: AcquisitionConfig,
    detunings: Sequence[float],
    *,
    windows: Sequence[WindowSpec],
) -> list[DetuningSweep | ValueError]:
    """Run the correlation experiment across a grid of detunings in Hz, once per window.

    The detuning is the only frequency the simulation reads. Each of the
    ``points + 1`` runs acquires every window from one set of draws
    (``run_experiment(..., windows=...)``): run 0, on substream 0, is the
    calibration at zero detuning, and run k + 1 acquires ``detunings[k]`` on
    substream k + 1, so points are independent and order-insensitive. The
    runs are one task of the acquisition's worker pool, one run per chunk
    (``_measure_runs``), since between the split runs of a loop this process
    would stand while the workers wait (13 % slower, ``compare-windows`` on a
    2-CPU host); a chunk returns only its windows' inferred covariances, so
    the pool holds up to ``_MAX_PROCESSES`` runs' quadratures at once. The
    task carries ``run_experiment`` as this module names it, so every process
    calls a stand-in for it; one that cannot be pickled, a local function or
    a tracer's wrapper, keeps the runs in this process (``_Workers.run``).

    This process then estimates each window in turn. Its relative LO phase
    is the idler rotation that maximizes rho in the calibration run, as
    ``phase_sweep`` with no angles gives it, and each point's rho and its
    jackknife SE are taken at that rotation, as ``inferred_pearson`` takes
    them. One entry per window is returned, in order: its ``DetuningSweep``,
    or the ``ValueError`` of its calibration or of its lowest failed point.
    """
    detunings = np.asarray(detunings, dtype=float)
    check_grid(detunings)
    runs = np.concatenate(([0.0], detunings))
    stacks = {}  # a run's first shot -> its windows' stacks
    task = (run_experiment, band, config, runs, windows)
    acquisition._WORKERS.run(_measure_runs, task, runs.size * config.n_shots, stacks.__setitem__, config.n_shots)
    calibration, *points = (stacks[first] for first in sorted(stacks))
    sweeps = []
    for index, window in enumerate(windows):
        try:
            alpha_star = _best_rotation(calibration[index][0])[0]
            rho = [_pearson_with_jackknife(_rotate_idler(point[index], alpha_star)) for point in points]
        except ValueError as error:
            sweeps.append(error)
        else:
            sweeps.append(DetuningSweep(detunings, *np.array(rho).T, window, alpha_star))
    return sweeps


def _profile(model: str, detunings: np.ndarray, values: np.ndarray, weights: np.ndarray, scales: np.ndarray) -> tuple:
    """(phi, phi', A) at each of ``scales``: the profile cost, its slope and the amplitude.

    At each scale s the amplitude A is the weighted least-squares one,
    (m w^2 y) / (m w^2 m) for the model m at unit amplitude, clipped to the
    fit's box, so that the cost phi is up to the scale alone (variable
    projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973). Its
    slope phi'(s) = -2A (w^2 (y - A m)) dm/ds holds at a clipped A too. The
    scales are read 2**16 model values a block.
    """
    w2 = weights**2
    rows = max(2**16 // detunings.size, 1)
    parts = []
    for first in range(0, scales.size, rows):
        jacobian = _model_jacobian(model, detunings, 1.0, scales[first : first + rows, np.newaxis])
        m, dm = jacobian[..., 0], jacobian[..., 1]
        amplitudes = (m @ (w2 * values)) / np.maximum(np.square(m) @ w2, np.finfo(float).tiny)
        amplitudes = np.minimum(np.maximum(amplitudes, 1e-12), MAX_AMPLITUDE)
        residuals = values - amplitudes[:, np.newaxis] * m
        parts.append((np.square(residuals) @ w2, -2.0 * amplitudes * ((residuals * dm) @ w2), amplitudes))
    return tuple(map(np.concatenate, zip(*parts)))


def _profile_starts(model: str, detunings: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows of [amplitude, scale] at each well of the profile cost on :data:`COARSE_SCALES`, by increasing scale.

    A well is a scale that costs less than the one below it and no more
    than the one above, or an end against its one neighbour.
    """
    cost, _, amplitudes = _profile(model, detunings, values, weights, COARSE_SCALES)
    padded = np.concatenate(([math.inf], cost, [math.inf]))
    wells = (cost < padded[:-2]) & (cost <= padded[2:])
    return np.column_stack((amplitudes[wells], COARSE_SCALES[wells]))


def fit_model(sweep: DetuningSweep) -> LinewidthFit:
    """Weighted nonlinear least-squares fit of rho versus detuning, sign included.

    The model m follows the sweep's window shape (:data:`MODEL_FOR_SHAPE`).
    Minimizes sum(((rho_k - m(df_k)) / se_k)^2) with inverse-variance
    weights when per-point errors are available (unweighted otherwise).

    The fit runs in the normalized detuning u = df / max|df| with scale
    s = xi max|df|, so that its arithmetic does not depend on the span's
    magnitude, and reports xi = s / max|df|. It minimizes the profile cost
    phi(s) (:func:`_profile`) over s >= MIN_SCALE. About each well of phi on
    the coarse grid (:func:`_profile_starts`) it halves a bracket one coarse
    step either side, with its lower end raised to MIN_SCALE, on the sign of
    the slope phi', all wells at once, until every bracket is narrower than
    FIT_SCALE_TOLERANCE of its upper end. Where halving has moved both ends
    of a bracket, its search ends on the zero of phi' interpolated linearly
    between them, otherwise on its lower end. The fit keeps the lowest end,
    the lowest scale's of equal ones. ``converged`` is false when s ends on
    MIN_SCALE: no width resolved. ``n_iterations`` counts the halvings.
    """
    model = MODEL_FOR_SHAPE[sweep.window.shape]
    reach = float(np.max(np.abs(sweep.detunings)))
    detunings = sweep.detunings / reach
    values = sweep.rho_values
    if not np.all(np.isfinite(values)):
        raise ValueError("rho values must be finite to fit a linewidth model")
    if float(np.ptp(values)) < 1e-12:
        raise ValueError("flat sweep: cannot fit a linewidth model to constant data")

    errors = sweep.rho_errors
    weights = 1.0 / errors if np.all(np.isfinite(errors) & (errors > 0.0)) else np.ones_like(values)

    wells = _profile_starts(model, detunings, values, weights)[:, 1]
    low, high = np.maximum(wells / _COARSE_STEP, MIN_SCALE), wells * _COARSE_STEP
    slopes = np.full((2, wells.size), math.nan)  # phi' at low and high, once a halving has moved them
    n_halvings = 0
    while np.any(high - low > FIT_SCALE_TOLERANCE * high):
        middle = 0.5 * (low + high)
        slope = _profile(model, detunings, values, weights, middle)[1]
        rising = slope > 0.0
        high, low = np.where(rising, middle, high), np.where(rising, low, middle)
        slopes = np.where(rising, [slopes[0], slope], [slope, slopes[1]])
        n_halvings += 1
    inside = (slopes[0] < 0.0) & (slopes[1] > 0.0)  # the zero of phi' between them, by linear interpolation
    low[inside] -= (slopes[0] * (high - low) / (slopes[1] - slopes[0]))[inside]
    cost, _, amplitudes = _profile(model, detunings, values, weights, low)
    kept = int(np.argmin(cost))
    amplitude, scale = amplitudes[kept], low[kept]
    converged = bool(scale > MIN_SCALE)
    residual_rms = float(np.sqrt(np.mean((values - model_prediction(model, detunings, amplitude, scale)) ** 2)))
    amplitude, scale = float(amplitude), float(scale) / reach
    snr = amplitude / residual_rms if residual_rms > 0.0 else math.inf
    return LinewidthFit(
        model=model,
        amplitude=amplitude,
        scale_xi=scale,
        fwhm=fwhm_from_scale(model, scale),
        snr=snr,
        residual_rms=residual_rms,
        converged=converged,
        n_iterations=n_halvings,
    )


def _sidelobe(sweep: DetuningSweep, fit: LinewidthFit) -> tuple[float, float, int]:
    """Max |rho| outside the main peak, with the SE at that point.

    Rectangular fits look beyond the first model minimum (the first sinc
    zero); gaussian fits look beyond GAUSSIAN_TAIL_START times the FWHM.
    Returns NaNs when the sweep never reaches the tail region.
    """
    if fit.model == "sinc":
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
