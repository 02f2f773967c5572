"""Detuning sweeps and linewidth extraction.

Runs the two-mode correlation experiment across a detuning grid, at the
idler phase that maximizes rho in a zero-detuning calibration, fits the
frequency-domain response with the model its window shape fixes,
``|A sinc(xi df)|`` for rectangular windows and ``A exp(-(xi df)^2 / 2)``
for gaussian ones (:data:`MODEL_FOR_SHAPE`), and reduces fits to FWHM, SNR
and side-lobe figures for window comparisons.

Fits use variable projection: at each trial scale the amplitude is the
weighted least-squares one in closed form, clipped to its box, which leaves
a profile cost of the scale alone. :func:`fit_model` searches it on a grid,
then halves a bracket on the profile's slope, in the detuning over the
sweep's largest |detuning|, so that a fit does not depend on the span's
magnitude. Every model is an amplitude times a one-parameter shape, so this
one 1-D search serves them all.

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
#: Least fitted scale s = xi max|df|: a model varies by under 5e-5 over the sweep.
MIN_SCALE = 1e-2
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


def _measure_points(
    acquire,
    estimate,
    band: EmissionBandModel,
    config: AcquisitionConfig,
    detunings: np.ndarray,
    windows: Sequence[WindowSpec],
    alpha_stars: Sequence[float],
    n_items: int,
    starts: Iterable[int],
) -> Iterator[tuple[int, list]]:
    """Yield (first shot, one outcome per window) of the sweep point whose shots start at each of ``starts``.

    A chunk of ``_Workers.run`` is one point's ``config.n_shots`` shots:
    point k is acquired on substream k + 1 by ``acquire`` (``run_experiment``),
    in the process that takes it, and a window's outcome is its (rho,
    rho_se) at its calibrated idler rotation, from ``estimate``
    (``inferred_pearson``), or the ``ValueError`` that stopped the estimate.
    """
    gains = (config.chain_gain_signal, config.chain_gain_idler)
    for first in starts:
        point = first // config.n_shots
        runs = acquire(detunings[point], band, config, stream=point + 1, windows=windows)
        outcomes = []
        for data, alpha_star in zip(runs, alpha_stars):
            try:
                outcomes.append(estimate(data.on, data.off, *gains, idler_rotation=alpha_star))
            except ValueError as error:
                outcomes.append(error)
        yield first, outcomes


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
    substream k + 1, so points are independent and order-insensitive. Each
    window's relative LO phase is calibrated once, on its own stream-0
    data, to the idler rotation that maximizes rho there (``phase_sweep``
    with no angles gives it in closed form), then held fixed while the
    detuning walks the grid. The points are one task of the acquisition's
    worker pool, one point per chunk (``_measure_points``): each process
    acquires the points it takes and keeps only their rho and its SE. A
    point runs in one process, so the pool holds up to ``_MAX_PROCESSES``
    points' quadratures at once, and a grid of fewer points than processes
    starts one process per point. The task carries ``run_experiment`` and
    ``inferred_pearson`` as this module names them, so every process calls
    a stand-in for either; one that cannot be pickled, a local function or
    a tracer's wrapper, keeps the points in this process (``_Workers.run``).

    One entry per window is returned, in order: its ``DetuningSweep``, or
    the ``ValueError`` of the calibration or estimate that stopped it, the
    one of its lowest point when it failed at several. A window stopped by
    its calibration is left out of the points; the others go on. The grid
    is checked, as ``DetuningSweep`` checks it, before anything is
    acquired.
    """
    detunings = np.asarray(detunings, dtype=float)
    check_grid(detunings)
    gains = (config.chain_gain_signal, config.chain_gain_idler)
    alpha_stars = {}
    errors = {}  # window index -> (run, the ValueError that stopped the window there)
    for index, data in enumerate(run_experiment(0.0, band, config, stream=0, windows=windows)):
        try:
            alpha_stars[index] = phase_sweep(data.on, data.off, *gains, ()).alpha_star
        except ValueError as error:
            errors[index] = (0, error)

    live = list(alpha_stars)
    rho_values = np.empty((len(windows), detunings.size))
    rho_errors = np.empty((len(windows), detunings.size))

    def take(first: int, outcomes: list) -> None:
        # Points arrive in any order; a window keeps the error of its lowest.
        run = first // config.n_shots + 1
        for index, outcome in zip(live, outcomes):
            if not isinstance(outcome, ValueError):
                rho_values[index, run - 1], rho_errors[index, run - 1] = outcome
            elif run < errors.get(index, (math.inf,))[0]:
                errors[index] = (run, outcome)

    if live:
        acquisition._WORKERS.run(
            _measure_points,
            (
                run_experiment,
                inferred_pearson,
                band,
                config,
                detunings,
                [windows[i] for i in live],
                [alpha_stars[i] for i in live],
            ),
            detunings.size * config.n_shots,
            take,
            chunk_size=config.n_shots,
        )

    return [
        errors[index][1]
        if index in errors
        else DetuningSweep(
            detunings=detunings,
            rho_values=rho_values[index],
            rho_errors=rho_errors[index],
            window=window,
            alpha_star=alpha_stars[index],
        )
        for index, window in enumerate(windows)
    ]


def _profile_start(model: str, detunings: np.ndarray, magnitudes: np.ndarray, weights: np.ndarray) -> list[float]:
    """[amplitude, scale, step]: the lowest point of the profile cost on a grid of scales s, and the grid's step.

    At each s the amplitude is the weighted least-squares one, (m w^2 y) /
    (m w^2 m) for the model m at unit amplitude, clipped to the fit's box
    (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973). The grid: 200 log-spaced scales from MIN_SCALE to 1e3, then +-10 %
    about the best in steps of pi / (16 sum|u_k|), a sixteenth of the mean
    spacing of the |sinc| kinks, at most 2049 scales, 2**16 values a block.
    While the window's best is its first or last scale, the minimum may lie
    beyond it: the window is centred on that best and scanned again, until
    the best is past MIN_SCALE or 1e3, or turns back, so the scan ends.
    """
    w2y, w2 = weights**2 * magnitudes, weights**2

    def lowest(scales: np.ndarray) -> list[float]:
        blocks = np.array_split(scales[:, np.newaxis], -(-scales.size * detunings.size // 2**16))
        models = (model_prediction(model, detunings, 1.0, block) for block in blocks)
        mwy, mwm = map(np.concatenate, zip(*((m @ w2y, np.square(m) @ w2) for m in models)))
        amplitudes = np.clip(mwy / np.maximum(mwm, np.finfo(float).tiny), 1e-12, MAX_AMPLITUDE)
        k = np.argmin(amplitudes * (amplitudes * mwm - 2.0 * mwy))  # the cost less sum(w^2 y^2)
        return [amplitudes[k], scales[k]]

    centre = previous = lowest(MIN_SCALE * np.logspace(0.0, 5.0, 200))[1]
    while True:
        half = min(math.ceil(0.1 * centre * 16.0 * np.abs(detunings).sum() / math.pi), 1024)
        scales = np.linspace(0.9 * centre, 1.1 * centre, 2 * half + 1)
        amplitude, best = lowest(scales)
        if scales[0] < best < scales[-1] or not MIN_SCALE < best < 1e3 or (best - centre) * (centre - previous) < 0.0:
            return [amplitude, best, 0.1 * centre / half]
        previous, centre = centre, best


def fit_model(sweep: DetuningSweep) -> LinewidthFit:
    """Weighted nonlinear least-squares fit of |rho| versus detuning.

    The model m follows the sweep's window shape (:data:`MODEL_FOR_SHAPE`).
    Minimizes sum(((|rho_k| - m(df_k)) / se_k)^2) with inverse-variance
    weights when per-point errors are available (unweighted otherwise).
    Follows the magnitude of the correlation since the analysis always
    targets the maximum positive correlation.

    The fit runs in the normalized detuning u = df / max|df| with scale
    s = xi max|df|, so that its arithmetic does not depend on the span's
    magnitude, and reports xi = s / max|df|. It minimizes the profile cost
    phi(s), the cost at the clipped least-squares amplitude A(s), over
    s >= MIN_SCALE. From the lowest point of phi on a grid of scales
    (:func:`_profile_start`), it halves a bracket one grid step either side
    of it, with its lower end raised to MIN_SCALE, on the sign of the slope
    phi'(s) = -2A (w^2 (y - A m)) dm/ds, which holds at a clipped A too,
    until the bracket is narrower than FIT_SCALE_TOLERANCE of its upper
    end. Where halving has moved both ends, the fit ends on the zero of phi'
    interpolated linearly between them, otherwise on the lower end; or on
    the grid's best, where that costs less: a |sinc| kink in the bracket
    can lead the halving away from it. ``converged`` is false when s ends
    on MIN_SCALE: no width resolved. ``n_iterations`` counts the halvings,
    not the grid.
    """
    model = MODEL_FOR_SHAPE[sweep.window.shape]
    reach = float(np.max(np.abs(sweep.detunings)))
    detunings = sweep.detunings / reach
    magnitudes = np.abs(sweep.rho_values)
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("rho values must be finite to fit a linewidth model")
    if float(np.ptp(magnitudes)) < 1e-12:
        raise ValueError("flat sweep: cannot fit a linewidth model to constant data")

    errors = sweep.rho_errors
    weights = 1.0 / errors if np.all(np.isfinite(errors) & (errors > 0.0)) else np.ones_like(magnitudes)
    w2y, w2 = weights**2 * magnitudes, weights**2

    def profile(scale: float) -> tuple[float, float, float]:
        # (phi, phi', A) at s: _model_jacobian's columns at unit amplitude are m and dm/ds.
        m, dm = _model_jacobian(model, detunings, 1.0, scale).T
        amplitude = min(max(m @ w2y / max(m @ (w2 * m), np.finfo(float).tiny), 1e-12), MAX_AMPLITUDE)
        residuals = magnitudes - amplitude * m
        return float(w2 @ residuals**2), -2.0 * amplitude * float((w2 * residuals) @ dm), amplitude

    best, step = _profile_start(model, detunings, magnitudes, weights)[1:]
    best = max(best, MIN_SCALE)
    low, high = max(best - step, MIN_SCALE), best + step
    slopes = [math.nan, math.nan]  # phi' at low and high, once a halving has moved them
    n_halvings = 0
    while high - low > FIT_SCALE_TOLERANCE * high:
        middle = 0.5 * (low + high)
        slope = profile(middle)[1]
        if slope > 0.0:
            high, slopes[1] = middle, slope
        else:
            low, slopes[0] = middle, slope
        n_halvings += 1
    if slopes[0] < 0.0 < slopes[1]:  # the zero of phi' between them, by linear interpolation
        low -= slopes[0] * (high - low) / (slopes[1] - slopes[0])
    # A |sinc| kink in the bracket can lead the halving away from the grid's best.
    (_, _, amplitude), scale = min(((profile(s), s) for s in (low, best)), key=lambda pair: pair[0][0])
    converged = bool(scale > MIN_SCALE)
    residual_rms = float(np.sqrt(np.mean((magnitudes - model_prediction(model, detunings, amplitude, scale)) ** 2)))
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
