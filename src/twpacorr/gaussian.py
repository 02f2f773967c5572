"""Two-mode Gaussian state algebra for a traveling-wave parametric amplifier.

Everything operates on 4x4 real covariance matrices over the quadrature basis
``(X_s, P_s, X_i, P_i)`` in vacuum-normalized units: each quadrature of the
vacuum has variance 1/4. The closed forms here are the analytic oracle the
rest of the acquisition/estimation pipeline is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Variance of a single vacuum quadrature in these units.
VACUUM_VARIANCE = 0.25

#: Column order used for bulk quadrature arrays of shape (n, 4).
QUADRATURE_ORDER = ("x_signal", "p_signal", "x_idler", "p_idler")

#: Largest linear power gain (60 dB) of either amplifier mode. Every gain
#: pair up to it gives a covariance whose Cholesky factor exists; equal gains
#: of 3e7 do not.
MAX_GAIN = 1e6

#: Range of the measurement chain's power gain on either channel: g_s g_i
#: stays a normal float, and with acquisition.MAX_ADDED_NOISE_QUANTA the
#: moment sums of acquisition.MAX_SHOTS shots stay finite.
MIN_CHAIN_GAIN = 1e-100
MAX_CHAIN_GAIN = 1e100

#: Block-diagonal symplectic form for two modes in (X_s, P_s, X_i, P_i) order.
#: The quadrature commutator in vacuum-1/4 units is [R_j, R_k] = (i/2) OMEGA_jk.
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def _reduce_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    reduced = math.remainder(theta, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


@dataclass(frozen=True)
class TwpaParams:
    """Operating point of the amplifier.

    Parameters
    ----------
    gain_signal, gain_idler:
        Linear power gains at the signal and idler frequencies. Parametric
        gain cannot drop below unity, so both must lie in [1, MAX_GAIN].
    phase_mismatch:
        Pump/signal/idler phase mismatch in radians, stored reduced to
        (-pi, pi]. Zero maximizes the two-mode correlation.
    """

    gain_signal: float
    gain_idler: float
    phase_mismatch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gain_signal", "gain_idler"):
            if not 1.0 <= getattr(self, name) <= MAX_GAIN:
                raise ValueError(f"{name} must be in [1, {MAX_GAIN:g}], got {getattr(self, name)}")
        if not math.isfinite(self.phase_mismatch):
            raise ValueError(f"phase_mismatch must be finite, got {self.phase_mismatch}")
        object.__setattr__(
            self, "phase_mismatch", _reduce_angle(float(self.phase_mismatch))
        )


def tmsvs_covariance(params: TwpaParams) -> np.ndarray:
    """Covariance of the amplifier output seeded by two-mode vacuum.

    Each output quadrature variance is (G_s + G_i - 1)/4 and the
    signal-idler cross block carries the phase mismatch:

        cov(X_s, X_i) = +kappa cos(theta)    cov(X_s, P_i) = kappa sin(theta)
        cov(P_s, X_i) = +kappa sin(theta)    cov(P_s, P_i) = -kappa cos(theta)

    with kappa = (sqrt(G_s (G_s - 1)) + sqrt(G_i (G_i - 1)))/4. The opposite
    signs of the XX and PP correlations are what make the state physical: the
    collective quadratures X_s - X_i and P_s + P_i are squeezed together.
    """
    g_s = float(params.gain_signal)
    g_i = float(params.gain_idler)
    theta = params.phase_mismatch

    diag = (g_s + g_i - 1.0) / 4.0
    kappa = (math.sqrt(g_s * (g_s - 1.0)) + math.sqrt(g_i * (g_i - 1.0))) / 4.0
    c = kappa * math.cos(theta)
    s = kappa * math.sin(theta)

    return np.array(
        [
            [diag, 0.0, c, s],
            [0.0, diag, s, -c],
            [c, s, diag, 0.0],
            [s, -c, 0.0, diag],
        ]
    )


def rotate_quadrature_array(values: np.ndarray, angle: float) -> np.ndarray:
    """Rotate the idler's (X, P) pair by ``angle`` radians in every row.

    ``values`` is any (..., 4) array whose last axis is in
    :data:`QUADRATURE_ORDER`: an (n, 4) batch of shots, or the rows of a
    (..., 4, 4) covariance stack (rotating the rows and then the columns
    gives R C R^T). Applies
    (X_i', P_i') = (X_i cos a + P_i sin a, -X_i sin a + P_i cos a) and leaves
    the signal untouched. ``angle`` must be finite.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != 4:
        raise ValueError(f"expected a (..., 4) array, got shape {values.shape}")
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    out = values.copy()
    out[..., 2:4] = values[..., 2:4] @ rotation
    return out


def pearson_xx(cov: np.ndarray) -> float | np.ndarray:
    """Pearson correlation of the (X_s, X_i) pair of a covariance matrix.

    Takes one 4x4 matrix, giving a float, or a (..., 4, 4) stack, giving an
    array of the stack's shape. Raises if any X variance is non-positive
    rather than returning NaN.
    """
    cov = np.asarray(cov, dtype=float)
    v_s, v_i = cov[..., 0, 0], cov[..., 2, 2]
    if np.any(v_s <= 0.0) or np.any(v_i <= 0.0):
        raise ValueError(
            f"X variances must be strictly positive, got ({np.min(v_s)}, {np.min(v_i)})"
        )
    rho = cov[..., 0, 2] / np.sqrt(v_s * v_i)
    return float(rho) if rho.ndim == 0 else rho


def squeezing_db(cov: np.ndarray) -> float:
    """Squeezing of the collective quadrature X_s - X_i, in dB.

    Computes sigma^2(X_s - X_i) and returns 10 log10 of its ratio to 0.5,
    the two-mode vacuum reference. Negative values mean squeezing. Raises if
    the variance is non-positive, which an inferred covariance can give.
    """
    cov = np.asarray(cov, dtype=float)
    variance = cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2]
    if variance <= 0.0:
        raise ValueError(f"X_s - X_i variance must be strictly positive, got {variance}")
    return float(10.0 * math.log10(variance / 0.5))


def physicality_min_eigenvalue(cov: np.ndarray) -> float:
    """Minimum eigenvalue of the Heisenberg-uncertainty matrix.

    A covariance matrix describes a physical state iff
    ``cov + (i/2) * (OMEGA / 2) >= 0`` in these vacuum-1/4 units (the factor
    OMEGA/2 is the quadrature commutator matrix). Returns the smallest
    eigenvalue of that Hermitian matrix; physical states give >= 0 up to
    rounding, with pure states sitting at the boundary.
    """
    cov = np.asarray(cov, dtype=float)
    hermitian = cov + 0.25j * OMEGA
    return float(np.linalg.eigvalsh(hermitian)[0])
