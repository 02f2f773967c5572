"""Detuning sweeps and linewidth extraction.

Runs the two-mode correlation experiment across a detuning grid, at the
idler phase that maximizes rho in a zero-detuning calibration, fits the
frequency-domain response with the model its window shape fixes,
``|A sinc(xi df)|`` for rectangular windows and ``A exp(-(xi df)^2 / 2)``
for gaussian ones (:data:`MODEL_FOR_SHAPE`), and reduces fits to FWHM, SNR
and side-lobe figures for window comparisons.

Fits use :func:`_least_squares`, a box-bounded Levenberg-Marquardt solver
over the models' analytic Jacobian that takes any residual function. It
stops on a relative cost change of FIT_OBJECTIVE_TOLERANCE, and reports a
fit that used up FIT_MAX_EVALUATIONS residual evaluations as unconverged.
:func:`fit_model` runs it in the detuning over the sweep's largest
|detuning|, so that a fit does not depend on the span's magnitude.

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
FIT_MAX_EVALUATIONS = 200
FIT_OBJECTIVE_TOLERANCE = 1e-9


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
    leaves the rest idle. The task carries ``run_experiment`` and
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


def _least_squares(residuals, jacobian, x0, lower, upper) -> tuple[np.ndarray, bool, int]:
    """Minimize |residuals(x)|^2 over the box [lower, upper] by Levenberg-Marquardt.

    Each step solves (J_f^T J_f + lambda diag(J_f^T J_f)) dx = -J_f^T r over
    the free parameters f, those not held at a bound by a gradient that
    points out of the box, and is clipped to the box (Marquardt, SIAM J.
    Appl. Math. 11, 431, 1963). A step that does not raise the cost is taken
    and divides lambda by 10; one that does is refused and multiplies it by
    10. The solver stops converged when a taken step lowers the cost by at
    most FIT_OBJECTIVE_TOLERANCE of it, when a step moves x by at most 1e-14
    of |x|, or when the free gradient vanishes; it stops unconverged when a
    step would need more than FIT_MAX_EVALUATIONS residual evaluations.
    Returns (x, converged, residual evaluations).
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = residuals(x)
    cost = float(r @ r)
    n_evaluations = 1
    damping = 1e-3
    while True:
        J = jacobian(x)
        gradient = J.T @ r
        free = ~(((x <= lower) & (gradient > 0.0)) | ((x >= upper) & (gradient < 0.0)))
        if not np.any(gradient[free]):
            return x, True, n_evaluations
        if n_evaluations >= FIT_MAX_EVALUATIONS:
            return x, False, n_evaluations
        normal = (J.T @ J)[np.ix_(free, free)]
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(normal + damping * np.diag(np.diag(normal)), -gradient[free])
        trial = np.clip(x + step, lower, upper)
        r_trial = residuals(trial)
        n_evaluations += 1
        cost_trial = float(r_trial @ r_trial)
        small_step = np.linalg.norm(trial - x) <= 1e-14 * np.linalg.norm(x)
        if cost_trial > cost:
            if small_step:
                return x, True, n_evaluations
            damping *= 10.0
            continue
        if small_step or cost - cost_trial <= FIT_OBJECTIVE_TOLERANCE * cost:
            return trial, True, n_evaluations
        x, r, cost = trial, r_trial, cost_trial
        damping /= 10.0


def fit_model(sweep: DetuningSweep) -> LinewidthFit:
    """Weighted nonlinear least-squares fit of |rho| versus detuning.

    The model m follows the sweep's window shape (:data:`MODEL_FOR_SHAPE`).
    Minimizes sum(((|rho_k| - m(df_k)) / se_k)^2) with inverse-variance
    weights when per-point errors are available (unweighted otherwise),
    starting from the curve's peak and its half-maximum crossing.
    Follows the magnitude of the correlation since the analysis always
    targets the maximum positive correlation.

    The fit runs in the normalized detuning u = df / max|df| with scale
    s = xi max|df|, so that its arithmetic does not depend on the span's
    magnitude, and reports xi = s / max|df|. The solver is
    :func:`_least_squares` with A in [1e-12, MAX_AMPLITUDE] and xi >= 1e-15;
    ``converged`` is false when it ran out of its FIT_MAX_EVALUATIONS
    residual evaluations, and ``n_iterations`` counts those evaluations.
    """
    model = MODEL_FOR_SHAPE[sweep.window.shape]
    reach = float(np.max(np.abs(sweep.detunings)))
    detunings = sweep.detunings / reach
    magnitudes = np.abs(sweep.rho_values)
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("rho values must be finite to fit a linewidth model")
    if float(np.ptp(magnitudes)) < 1e-12:
        raise ValueError("flat sweep: cannot fit a linewidth model to constant data")

    errors = np.asarray(sweep.rho_errors, dtype=float)
    if errors.size == magnitudes.size and np.all(np.isfinite(errors)) and np.all(errors > 0.0):
        weights = 1.0 / errors
    else:
        weights = np.ones_like(magnitudes)

    amplitude0, scale0 = _initial_guess(model, detunings, magnitudes)
    amplitude0 = min(max(amplitude0, 1e-9), MAX_AMPLITUDE)
    scale0 = max(scale0, 1e-12 * reach)

    def residuals(params: np.ndarray) -> np.ndarray:
        amplitude, scale = params
        return (magnitudes - model_prediction(model, detunings, amplitude, scale)) * weights

    def jacobian(params: np.ndarray) -> np.ndarray:
        amplitude, scale = params
        return -_model_jacobian(model, detunings, amplitude, scale) * weights[:, np.newaxis]

    (amplitude, scale), converged, n_evaluations = _least_squares(
        residuals,
        jacobian,
        [amplitude0, scale0],
        np.array([1e-12, 1e-15 * reach]),
        np.array([MAX_AMPLITUDE, np.inf]),
    )
    fit_residuals = magnitudes - model_prediction(model, detunings, amplitude, scale)
    residual_rms = float(np.sqrt(np.mean(fit_residuals**2)))
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
        n_iterations=n_evaluations,
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
