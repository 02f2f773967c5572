"""Covariance and correlation estimation from demodulated shot records.

Turns (n, 4) quadrature arrays from the ON and OFF acquisition stages into
the inferred two-mode squeezed covariance (background subtraction plus
vacuum restoration) and its Pearson correlation, with standard errors from
a leave-one-block-out jackknife that sees the full inference chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import VACUUM_VARIANCE, pearson_xx, rotate_quadrature_array

#: Contiguous blocks of the leave-one-block-out jackknife (one shot each below 50 shots).
JACKKNIFE_BLOCKS = 50
#: Default number of angles in a phase grid over [0, 2 pi].
DEFAULT_PHASE_POINTS = 73


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sample covariance with entrywise standard errors."""

    matrix: np.ndarray
    standard_errors: np.ndarray


@dataclass(frozen=True)
class PhaseSweepResult:
    """Pearson correlation versus relative LO phase, with its maximizer.

    ``refined`` reports whether ``alpha_star`` came from parabolic
    interpolation around the grid maximum or is a bare grid point.
    """

    alphas: np.ndarray
    rho_values: np.ndarray
    rho_errors: np.ndarray
    alpha_star: float
    rho_max: float
    refined: bool


def _as_shot_array(shots) -> np.ndarray:
    values = np.asarray(shots, dtype=float)
    if values.ndim != 2 or values.shape[1] != 4:
        raise ValueError(f"expected shots with 4 quadratures, got shape {values.shape}")
    return values


def _covariance_stack(values: np.ndarray) -> np.ndarray:
    """Sample covariances (n - 1 divisor) of all shots and of each jackknife subsample.

    Returns a (B + 1, 4, 4) stack: entry 0 uses every shot, entry k + 1
    leaves out the k-th of B = min(JACKKNIFE_BLOCKS, n) contiguous blocks.
    The shots are centered on their overall mean before the per-block moment
    sums are taken, so a large common offset cannot cancel catastrophically;
    centering changes none of the covariances.
    """
    n = values.shape[0]
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    # Block 0 is empty, so leaving it out keeps every shot.
    counts = np.diff(np.linspace(0, n, n_blocks + 1, dtype=int), prepend=0)
    # Blocks are zero-padded to a common length; padding adds nothing to the sums.
    rows = np.arange(counts.max()) < counts[:, np.newaxis]
    blocks = np.zeros(rows.shape + (4,))
    blocks[rows] = values - values.mean(axis=0)
    block_first = blocks.sum(axis=1)
    block_second = np.swapaxes(blocks, 1, 2) @ blocks
    first = block_first.sum(axis=0) - block_first
    second = block_second.sum(axis=0) - block_second
    kept = (n - counts)[:, np.newaxis, np.newaxis]
    # With two shots each subsample keeps one, which has no covariance: NaN.
    # Acquired data has at least acquisition.MIN_SHOTS = 3 shots.
    with np.errstate(divide="ignore", invalid="ignore"):
        return (second - first[:, :, np.newaxis] * first[:, np.newaxis, :] / kept) / (kept - 1)


def estimate_covariance(shots) -> CovarianceEstimate:
    """Unbiased (n-1 divisor) sample covariance of the quadrature 4-vector.

    Standard errors use the Gaussian-theory formula
    ``SE(sigma_ij) = sqrt((sigma_ii sigma_jj + sigma_ij^2) / (n - 1))``.
    Accepts an (n, 4) array of shots.
    """
    values = _as_shot_array(shots)
    n = values.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 shots to estimate a covariance, got {n}")
    matrix = _covariance_stack(values)[0]
    diag = np.diag(matrix)
    standard_errors = np.sqrt((np.outer(diag, diag) + matrix**2) / (n - 1))
    return CovarianceEstimate(matrix=matrix, standard_errors=standard_errors)


def _subtract_background(
    cov_on: np.ndarray,
    cov_off: np.ndarray,
    chain_gain_signal: float,
    chain_gain_idler: float,
) -> np.ndarray:
    """ON - OFF referred to the amplifier output, with vacuum restored.

    Works entrywise on single matrices and on (..., 4, 4) stacks alike.
    """
    if chain_gain_signal <= 0.0 or chain_gain_idler <= 0.0:
        raise ValueError(
            f"chain gains must be positive, got ({chain_gain_signal}, {chain_gain_idler})"
        )
    gains = np.array([chain_gain_signal, chain_gain_signal, chain_gain_idler, chain_gain_idler])
    scale = 1.0 / np.sqrt(np.outer(gains, gains))
    return (cov_on - cov_off) * scale + VACUUM_VARIANCE * np.eye(4)


def infer_tmsvs(
    on: CovarianceEstimate,
    off: CovarianceEstimate,
    chain_gain_signal: float,
    chain_gain_idler: float,
) -> np.ndarray:
    """Background-subtracted squeezed-state covariance with vacuum restored.

    Scales signal rows/columns by 1/chain_gain_signal, idler ones by
    1/chain_gain_idler (cross blocks pick up the geometric mean), then
    returns ON - OFF + I/4. No positivity projection is applied; physicality
    is a downstream diagnostic.
    """
    return _subtract_background(on.matrix, off.matrix, chain_gain_signal, chain_gain_idler)


def _inferred_stack(
    shots_on, shots_off, chain_gain_signal: float, chain_gain_idler: float
) -> np.ndarray:
    """Inferred covariance of all shots, then of each leave-one-block-out subsample."""
    return _subtract_background(
        _covariance_stack(_as_shot_array(shots_on)),
        _covariance_stack(_as_shot_array(shots_off)),
        chain_gain_signal,
        chain_gain_idler,
    )


def _rotate_idler(stack: np.ndarray, angle: float) -> np.ndarray:
    """R C R^T for every covariance C of a stack, R rotating the idler by ``angle``.

    Rotating the inferred covariance equals inferring from rotated shots:
    the rotation acts on the idler block alone, where the chain scaling is
    a multiple of the identity, and it leaves the vacuum term unchanged.
    """
    rotated_rows = rotate_quadrature_array(stack, angle)
    return rotate_quadrature_array(np.swapaxes(rotated_rows, -1, -2), angle)


def _pearson_with_jackknife(stack: np.ndarray) -> tuple[float, float]:
    """Rho of a stack's first covariance, with the block-jackknife SE of the rest."""
    rho = pearson_xx(stack)
    replicates = rho[1:]
    spread = replicates - replicates.mean()
    n_blocks = replicates.size
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.dot(spread, spread)))
    return float(rho[0]), se


def inferred_pearson(
    shots_on,
    shots_off,
    chain_gain_signal: float,
    chain_gain_idler: float,
    idler_rotation: float = 0.0,
) -> tuple[float, float]:
    """Pearson rho of the inferred covariance, with a block-jackknife SE.

    Both stages get the same idler rotation, mirroring the phase-sweep
    convention; it is applied to the inferred covariances, not the shots.
    """
    stack = _inferred_stack(shots_on, shots_off, chain_gain_signal, chain_gain_idler)
    return _pearson_with_jackknife(_rotate_idler(stack, idler_rotation))


def phase_sweep(
    shots_on,
    shots_off,
    chain_gain_signal: float,
    chain_gain_idler: float,
    alphas: Sequence[float],
) -> PhaseSweepResult:
    """Pearson correlation versus idler rotation angle.

    The moment sums of each stage are built once. For every alpha the
    inferred covariance and its jackknife replicates are rotated as
    R C R^T, which equals rotating the idler quadratures of both stages
    before estimation, and rho is recorded. The OFF stage is thereby rotated
    too: a no-op for an isotropic background but bias-free if it is not. The
    maximizer is refined by a three-point parabola around the grid maximum
    when possible.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise ValueError("phase grid must contain at least one angle")
    stack = _inferred_stack(shots_on, shots_off, chain_gain_signal, chain_gain_idler)
    rho_values, rho_errors = np.array(
        [_pearson_with_jackknife(_rotate_idler(stack, alpha)) for alpha in alphas]
    ).T

    alpha_star, rho_max, refined = _refine_maximum(alphas, rho_values)
    return PhaseSweepResult(
        alphas=alphas,
        rho_values=rho_values,
        rho_errors=rho_errors,
        alpha_star=alpha_star,
        rho_max=rho_max,
        refined=refined,
    )


def _refine_maximum(alphas: np.ndarray, rho_values: np.ndarray) -> tuple[float, float, bool]:
    """Parabolic refinement of the grid maximum; falls back to the grid point."""
    peak = int(np.argmax(rho_values))
    alpha_star = float(alphas[peak])
    rho_max = float(rho_values[peak])
    if alphas.size < 3:
        return alpha_star, rho_max, False

    span = alphas[-1] - alphas[0]
    step = span / (alphas.size - 1)
    wraps = span >= 2.0 * math.pi - 1.5 * step
    # A full-circle grid listing both endpoints repeats one sample; wrap
    # around the distinct points only.
    period = alphas.size
    if wraps and abs(span - 2.0 * math.pi) < 1e-9:
        period = alphas.size - 1

    def neighbor(index: int) -> float | None:
        if 0 <= index < alphas.size:
            return float(rho_values[index])
        if wraps:
            return float(rho_values[index % period])
        return None

    left = neighbor(peak - 1)
    right = neighbor(peak + 1)
    if left is None or right is None:
        return alpha_star, rho_max, False
    denom = left - 2.0 * rho_max + right
    if denom >= 0.0 or not math.isfinite(denom):
        return alpha_star, rho_max, False
    shift = 0.5 * (left - right) / denom
    if abs(shift) > 1.0:
        return alpha_star, rho_max, False
    refined_alpha = alpha_star + shift * step
    refined_rho = rho_max - 0.25 * (left - right) * shift
    return float(refined_alpha), float(refined_rho), True
