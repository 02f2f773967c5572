"""Reference values for the benchmark's output checks.

Nothing here imports ``twpacorr``. Every value comes from the physics as the
paper states it: the closed-form two-mode squeezed covariance, window-overlap
integrals by adaptive quadrature, and the discretized emission comb written
out from its definition. A fault in the package therefore cannot hide in the
oracle it is checked against.

Units follow the package: quadrature variances in vacuum-1/4 units, angles in
radians unless a name says ``_deg``, frequencies in Hz, times in seconds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq, least_squares

#: Pearson correlation of the two-mode squeezed state at G_s = G_i = 2.
RHO_G2 = 2.0 * math.sqrt(2.0) / 3.0
#: The paper's FWHM * tau for a rectangular window.
FWHM_TAU_RECT = 1.2067

#: False-alarm probability shared by one family of tests. Each family splits
#: it evenly across its members (Bonferroni), so a check holds on any seed
#: with probability at least 1 - 1e-6 per family.
FAMILY_ALPHA = 1e-6

#: Jackknife blocks the package uses for every rho standard error; a
#: jackknife SE with B blocks makes (estimate - truth) / SE a Student t with
#: B - 1 degrees of freedom.
JACKKNIFE_DOF = 49


def family_quantile(members: int, dof: int | None = None) -> float:
    """Two-sided Bonferroni quantile for ``members`` tests sharing FAMILY_ALPHA."""
    tail = FAMILY_ALPHA / (2.0 * members)
    if dof is None:
        return float(stats.norm.isf(tail))
    return float(stats.t.isf(tail, dof))


# --- windows -----------------------------------------------------------------

_GAUSSIAN_BETA = math.exp(-2.0) / (1.0 - math.exp(-2.0))


def envelope(shape: str, tau: float, t):
    """Window envelope E(t) on [0, tau].

    The gaussian window is exp(-2 u^2) with u = 2t/tau - 1, shifted and
    rescaled so that E(0) = E(tau) = 0 and E(tau/2) = 1.
    """
    t = np.asarray(t, dtype=float)
    if shape == "rectangular":
        return np.ones_like(t)
    if shape == "gaussian":
        u = 2.0 * t / tau - 1.0
        return (1.0 + _GAUSSIAN_BETA) * np.exp(-2.0 * u * u) - _GAUSSIAN_BETA
    raise ValueError(f"unknown window shape {shape!r}")


def overlap_kernel(shape: str, tau: float, detunings) -> np.ndarray:
    """Normalized window overlap int E^2 cos(2 pi df (t - tau/2)) dt / int E^2 dt.

    rho(df) / rho(0) of a continuum emission band follows this kernel.
    """

    def e2(t: float) -> float:
        return float(envelope(shape, tau, t)) ** 2

    norm, _ = quad(e2, 0.0, tau, limit=400)
    values = []
    for df in np.asarray(detunings, dtype=float):
        integral, _ = quad(
            lambda t: e2(t) * math.cos(2.0 * math.pi * df * (t - tau / 2.0)),
            0.0,
            tau,
            limit=400,
        )
        values.append(integral / norm)
    return np.array(values)


def sinc_first_lobe() -> float:
    """Height of the first side lobe of |sin x / x|, whose peak solves tan x = x."""
    x = brentq(lambda v: math.tan(v) - v, math.pi + 1e-6, 1.5 * math.pi - 1e-6)
    return abs(math.sin(x) / x)


# --- two-mode squeezed state ---------------------------------------------------


def tmsvs_diag(g_s: float, g_i: float) -> float:
    """Variance of every output quadrature: (G_s + G_i - 1) / 4."""
    return (g_s + g_i - 1.0) / 4.0


def tmsvs_kappa(g_s: float, g_i: float) -> float:
    """Signal-idler correlation strength (sqrt(G_s(G_s-1)) + sqrt(G_i(G_i-1))) / 4."""
    return (math.sqrt(g_s * (g_s - 1.0)) + math.sqrt(g_i * (g_i - 1.0))) / 4.0


def tmsvs_covariance(g_s: float, g_i: float, theta: float) -> np.ndarray:
    """Closed-form covariance over (X_s, P_s, X_i, P_i) with phase mismatch theta."""
    d = tmsvs_diag(g_s, g_i)
    c = tmsvs_kappa(g_s, g_i) * math.cos(theta)
    s = tmsvs_kappa(g_s, g_i) * math.sin(theta)
    return np.array(
        [
            [d, 0.0, c, s],
            [0.0, d, s, -c],
            [c, s, d, 0.0],
            [s, -c, 0.0, d],
        ]
    )


def cosine_law(alphas, theta: float, amplitude: float) -> np.ndarray:
    """rho(alpha) = amplitude cos(alpha - theta) for an idler rotated by alpha."""
    return amplitude * np.cos(np.asarray(alphas, dtype=float) - theta)


def raw_shot_correlation(
    g_s: float, g_i: float, theta: float, alpha: float, noise_quanta: float
) -> float:
    """Pearson correlation of raw pump-on (X_s, X_i') with the idler rotated by alpha.

    Both channels carry the same added noise, noise_quanta / 4 per quadrature
    in chain-gain units, which dilutes kappa cos(theta - alpha) over the
    total variance diag + noise_quanta / 4.
    """
    total = tmsvs_diag(g_s, g_i) + noise_quanta / 4.0
    return tmsvs_kappa(g_s, g_i) * math.cos(theta - alpha) / total


# --- the discretized emission comb ---------------------------------------------


def comb_bins(halfwidth: float, bin_spacing: float) -> int:
    """Number of bins of width bin_spacing tiling [-halfwidth, halfwidth]."""
    return max(1, round(2.0 * halfwidth / bin_spacing))


def comb_trace_power(
    halfwidth: float,
    bin_spacing: float,
    shape: str,
    tau: float,
    g_s: float,
    g_i: float,
) -> float:
    """Mean |trace(t)|^2 per sample of one pump-on channel.

    Every bin has amplitude (X + iP) sqrt(bin_spacing) int E / sqrt(int E^2),
    the calibration that makes pump-off input demodulate to vacuum. Bins are
    independent and each has unit modulus phase, so the per-sample power is
    the sum over bins of E|amplitude|^2 = scale^2 * 2 * diag.
    """
    norm, _ = quad(lambda t: float(envelope(shape, tau, t)), 0.0, tau, limit=400)
    power, _ = quad(lambda t: float(envelope(shape, tau, t)) ** 2, 0.0, tau, limit=400)
    scale2 = bin_spacing * norm * norm / power
    return comb_bins(halfwidth, bin_spacing) * scale2 * 2.0 * tmsvs_diag(g_s, g_i)


def comb_rho(
    halfwidth: float,
    bin_spacing: float,
    shape: str,
    tau: float,
    n_samples: int,
    detuning: float,
    g_s: float,
    g_i: float,
) -> float:
    """Expected inferred rho of the discretized comb, with no sampling error.

    Each bin contributes to a channel through the window-weighted mean of its
    beat with the channel's demodulation frequency, sampled at interval
    midpoints and referenced to the window center. Comparing this to
    RHO_G2 * overlap_kernel gives the comb truncation bias.
    """
    n_bins = comb_bins(halfwidth, bin_spacing)
    offsets = -halfwidth + (np.arange(n_bins) + 0.5) * bin_spacing
    times = (np.arange(n_samples) + 0.5) * tau / n_samples
    weights = envelope(shape, tau, times)
    centered = times - tau / 2.0
    k_signal = np.exp(2j * np.pi * np.outer(detuning - offsets, centered)) @ weights
    k_idler = np.exp(2j * np.pi * np.outer(offsets, centered)) @ weights
    k_signal = k_signal.real / weights.sum()
    k_idler = k_idler.real / weights.sum()
    scale2 = bin_spacing * weights.sum() ** 2 / (weights @ weights) * (tau / n_samples)
    d, kappa = tmsvs_diag(g_s, g_i), tmsvs_kappa(g_s, g_i)
    var_s = scale2 * (k_signal @ k_signal) * (d - 0.25) + 0.25
    var_i = scale2 * (k_idler @ k_idler) * (d - 0.25) + 0.25
    cross = scale2 * (k_signal @ k_idler) * kappa
    return float(cross / math.sqrt(var_s * var_i))


# --- linewidth fits --------------------------------------------------------------


def linewidth_model(model: str, detunings, amplitude: float, xi: float) -> np.ndarray:
    """|A sin(x)/x| or A exp(-x^2/2) with x = xi * df."""
    x = xi * np.asarray(detunings, dtype=float)
    if model == "abs_sinc":
        return amplitude * np.abs(np.sinc(x / np.pi))
    return amplitude * np.exp(-0.5 * x * x)


def fwhm_constant(model: str) -> float:
    """Half width at half maximum in units of 1/xi."""
    if model == "abs_sinc":
        return brentq(lambda x: math.sin(x) / x - 0.5, 1.0, 3.0)
    return math.sqrt(2.0 * math.log(2.0))


def fit_linewidth(model: str, detunings, values, errors, guess: tuple[float, float]) -> np.ndarray:
    """Weighted least-squares (A, xi) of the model through the given values."""
    detunings = np.asarray(detunings, dtype=float)
    values = np.asarray(values, dtype=float)
    weights = 1.0 / np.asarray(errors, dtype=float)

    def residuals(p):
        return (values - linewidth_model(model, detunings, p[0], p[1])) * weights

    return least_squares(residuals, x0=list(guess), x_scale=list(guess)).x


def param_covariance(model, detunings, values, errors, amplitude, xi) -> np.ndarray:
    """Covariance of a weighted fit's (A, xi): (J^T W J)^-1 at the given
    parameters, inflated by the reduced chi-square when that exceeds one."""
    detunings = np.asarray(detunings, dtype=float)
    weights = 1.0 / np.asarray(errors, dtype=float)
    columns = []
    for index, value in enumerate((amplitude, xi)):
        step = 1e-6 * abs(value)
        upper = [amplitude, xi]
        lower = [amplitude, xi]
        upper[index] += step
        lower[index] -= step
        columns.append(
            (linewidth_model(model, detunings, *upper) - linewidth_model(model, detunings, *lower))
            / (2.0 * step)
        )
    jacobian = np.column_stack(columns) * weights[:, np.newaxis]
    residuals = (np.asarray(values) - linewidth_model(model, detunings, amplitude, xi)) * weights
    reduced_chi2 = float(residuals @ residuals) / max(1, detunings.size - 2)
    return np.linalg.inv(jacobian.T @ jacobian) * max(1.0, reduced_chi2)
