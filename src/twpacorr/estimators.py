"""Covariance and correlation estimation from demodulated shot records.

Turns (n, 4) quadrature arrays from the ON and OFF acquisition stages into
(4, 4) sample covariances, the inferred two-mode squeezed covariance
(``infer_tmsvs``: background subtraction plus vacuum restoration) and its
Pearson correlation, with standard errors from a leave-one-block-out
jackknife that sees the full inference chain. Covariances are plain
arrays. The idler rotation that maximizes that correlation has a closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import MAX_CHAIN_GAIN, MIN_CHAIN_GAIN, VACUUM_VARIANCE, pearson_xx, rotate_quadrature_array

#: Contiguous blocks of the leave-one-block-out jackknife (one shot each below 50 shots).
JACKKNIFE_BLOCKS = 50


@dataclass(frozen=True)
class PhaseSweepResult:
    """Pearson correlation versus relative LO phase, with its maximizer.

    ``rho_values`` and ``rho_errors`` follow the angles given to ``phase_sweep``.
    ``alpha_star`` in [0, 2 pi) and ``rho_max`` are the exact maximizer and
    maximum of rho over all idler rotations, not read off those angles.
    """

    rho_values: np.ndarray
    rho_errors: np.ndarray
    alpha_star: float
    rho_max: float


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


def estimate_covariance(shots) -> np.ndarray:
    """Unbiased (n-1 divisor) (4, 4) sample covariance of an (n, 4) array of shots."""
    values = _as_shot_array(shots)
    n = values.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 shots to estimate a covariance, got {n}")
    return _covariance_stack(values)[0]


def infer_tmsvs(
    cov_on: np.ndarray,
    cov_off: np.ndarray,
    chain_gain_signal: float,
    chain_gain_idler: float,
) -> np.ndarray:
    """Background-subtracted squeezed-state covariance with vacuum restored.

    Scales signal rows/columns by 1/chain_gain_signal, idler ones by
    1/chain_gain_idler (cross blocks pick up the geometric mean), then
    returns ON - OFF + I/4. Works entrywise on (4, 4) matrices and on
    (..., 4, 4) stacks alike. No positivity projection is applied;
    physicality is a downstream diagnostic. Both gains must lie in
    [MIN_CHAIN_GAIN, MAX_CHAIN_GAIN], where their product is a normal float.
    """
    if not all(MIN_CHAIN_GAIN <= gain <= MAX_CHAIN_GAIN for gain in (chain_gain_signal, chain_gain_idler)):
        raise ValueError(
            f"chain gains must be in [{MIN_CHAIN_GAIN:g}, {MAX_CHAIN_GAIN:g}], "
            f"got ({chain_gain_signal}, {chain_gain_idler})"
        )
    gains = np.array([chain_gain_signal, chain_gain_signal, chain_gain_idler, chain_gain_idler])
    scale = 1.0 / np.sqrt(np.outer(gains, gains))
    return (cov_on - cov_off) * scale + VACUUM_VARIANCE * np.eye(4)


def _inferred_stack(
    shots_on, shots_off, chain_gain_signal: float, chain_gain_idler: float
) -> np.ndarray:
    """Inferred covariance of all shots, then of each leave-one-block-out subsample."""
    return infer_tmsvs(
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
    """Pearson correlation versus idler rotation angle, and its maximum.

    The moment sums of each stage are built once. For every alpha the
    inferred covariance and its jackknife replicates are rotated as
    R C R^T, which equals rotating the idler quadratures of both stages
    before estimation, and rho is recorded. The OFF stage is thereby rotated
    too: a no-op for an isotropic background but bias-free if it is not.
    The maximum comes from the inferred covariance of all shots in closed
    form (``_best_rotation``), whatever the angles; ``alphas`` may be empty.
    """
    stack = _inferred_stack(shots_on, shots_off, chain_gain_signal, chain_gain_idler)
    curve = [_pearson_with_jackknife(_rotate_idler(stack, alpha)) for alpha in alphas]
    rho_values, rho_errors = np.array(curve).reshape(-1, 2).T
    alpha_star, rho_max = _best_rotation(stack[0])
    return PhaseSweepResult(
        rho_values=rho_values, rho_errors=rho_errors, alpha_star=alpha_star, rho_max=rho_max
    )


def _best_rotation(cov: np.ndarray) -> tuple[float, float]:
    """The idler rotation in [0, 2 pi) that maximizes rho of ``cov``, and that rho.

    With w = (cos a, sin a), u = (C_02, C_03) and S the idler block, the
    rotated rho is w.u / sqrt(C_00 w^T S w). It is largest at w along
    S^-1 u, where it equals sqrt(u^T S^-1 u / C_00): the multiple
    correlation of X_s on (X_i, P_i) (Hotelling, Biometrika 28, 321, 1936).
    """
    u, idler = cov[0, 2:], cov[2:, 2:]
    if not (cov[0, 0] > 0.0 and idler[0, 0] > 0.0 and np.linalg.det(idler) > 0.0):
        raise ValueError(
            f"X_s variance and idler block must be positive definite, got "
            f"{cov[0, 0]} and {idler.tolist()}"
        )
    direction = np.linalg.solve(idler, u)
    alpha = math.atan2(direction[1], direction[0]) % math.tau
    # A tiny negative angle rounds up to a full turn, which is the angle 0.
    return (alpha if alpha < math.tau else 0.0), math.sqrt(float(u @ direction) / cov[0, 0])
