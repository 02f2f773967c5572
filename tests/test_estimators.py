"""Tests for covariance estimation, background subtraction and phase sweeps."""

import math

import numpy as np
import pytest

from twpacorr import (
    AcquisitionConfig,
    TwpaParams,
    WindowSpec,
    estimate_covariance,
    infer_tmsvs,
    inferred_pearson,
    pearson_xx,
    phase_sweep,
    rotate_quadrature_array,
    run_experiment,
    tmsvs_covariance,
)
from twpacorr.estimators import _best_rotation

from conftest import gaussian_shots, gaussian_standard_errors, make_acquisition, make_band


class TestEstimateCovariance:
    def test_constant_shots_give_zero_matrix(self):
        shots = np.tile([0.3, -0.2, 0.1, 0.5], (100, 1))
        np.testing.assert_allclose(estimate_covariance(shots), 0.0, atol=1e-16)

    def test_rejects_single_shot(self):
        with pytest.raises(ValueError):
            estimate_covariance(np.ones((1, 4)))

    def test_vacuum_samples_within_three_se(self):
        shots = gaussian_shots(0.25 * np.eye(4), 10**6, seed=8)
        est = estimate_covariance(shots)
        se = gaussian_standard_errors(est, 10**6)
        assert np.all(np.abs(est - 0.25 * np.eye(4)) <= 3.0 * se)

    def test_known_covariance_within_three_se(self):
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        est = estimate_covariance(gaussian_shots(cov, 10**5, seed=12))
        assert np.all(np.abs(est - cov) <= 3.0 * gaussian_standard_errors(est, 10**5))

    def test_consistency_rate(self):
        # Entrywise error should shrink like n^(-1/2) across three decades.
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        errors = []
        for j, n in enumerate((10**3, 10**4, 10**5)):
            runs = [
                np.linalg.norm(
                    estimate_covariance(gaussian_shots(cov, n, seed=300 + 37 * j + k)) - cov
                )
                for k in range(10)
            ]
            errors.append(np.mean(runs))
        for small, large in zip(errors[1:], errors[:-1]):
            assert 0.2 <= small / large <= 0.5


class TestInferTmsvs:
    def test_identical_stages_restore_vacuum_exactly(self):
        shots = gaussian_shots(tmsvs_covariance(TwpaParams(2.0, 3.0, 0.1)), 200, seed=6)
        est = estimate_covariance(shots)
        inferred = infer_tmsvs(est, est, 1.0, 1.0)
        assert np.array_equal(inferred, 0.25 * np.eye(4))

    def test_vacuum_restoration_any_gains(self):
        est = estimate_covariance(gaussian_shots(0.25 * np.eye(4), 100, seed=1))
        inferred = infer_tmsvs(est, est, 250.0, 9.0)
        assert np.array_equal(inferred, 0.25 * np.eye(4))

    @pytest.mark.parametrize(
        "gains", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf), (1e155, 1.0), (1.0, 1e-300)]
    )
    def test_rejects_non_positive_or_non_finite_gains(self, gains):
        est = estimate_covariance(np.zeros((10, 4)))
        with pytest.raises(ValueError, match="chain gains"):
            infer_tmsvs(est, est, *gains)

    def test_gain_normalization_uses_geometric_mean_cross_block(self):
        matrix = np.arange(16, dtype=float).reshape(4, 4)
        matrix = (matrix + matrix.T) / 2.0
        g_s, g_i = 4.0, 9.0
        inferred = infer_tmsvs(matrix, np.zeros((4, 4)), g_s, g_i) - 0.25 * np.eye(4)
        np.testing.assert_allclose(inferred[:2, :2], matrix[:2, :2] / g_s, rtol=1e-12)
        np.testing.assert_allclose(inferred[2:, 2:], matrix[2:, 2:] / g_i, rtol=1e-12)
        np.testing.assert_allclose(
            inferred[:2, 2:], matrix[:2, 2:] / math.sqrt(g_s * g_i), rtol=1e-12
        )

    def test_stack_is_inferred_matrix_by_matrix(self):
        rng = np.random.default_rng(3)
        on, off = rng.standard_normal((2, 3, 5, 4, 4))
        inferred = infer_tmsvs(on, off, 4.0, 9.0)
        assert inferred.shape == (3, 5, 4, 4)
        for index in np.ndindex(3, 5):
            assert np.array_equal(inferred[index], infer_tmsvs(on[index], off[index], 4.0, 9.0))

    def test_end_to_end_recovery_against_analytic(self, ideal_experiment):
        analytic = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        on = estimate_covariance(ideal_experiment.on)
        off = estimate_covariance(ideal_experiment.off)
        inferred = infer_tmsvs(on, off, 1.0, 1.0)
        n = ideal_experiment.on.shape[0]
        se_on, se_off = gaussian_standard_errors(on, n), gaussian_standard_errors(off, n)
        tol = 3.0 * np.sqrt(se_on**2 + se_off**2)
        assert np.all(np.abs(inferred - analytic) <= tol)

    def test_common_chain_gain_cancels(self):
        # A noiseless chain with equal gain on both channels must infer the
        # same state as unit gain, shot for shot.
        band = make_band()
        unit = make_acquisition(n_shots=400, seed=55, chain_gain=1.0)
        amplified = make_acquisition(n_shots=400, seed=55, chain_gain=4000.0)
        (data_unit,) = run_experiment(0.0, band, unit)
        (data_amp,) = run_experiment(0.0, band, amplified)
        inferred_unit = infer_tmsvs(
            estimate_covariance(data_unit.on), estimate_covariance(data_unit.off), 1.0, 1.0
        )
        inferred_amp = infer_tmsvs(
            estimate_covariance(data_amp.on), estimate_covariance(data_amp.off), 4000.0, 4000.0
        )
        np.testing.assert_allclose(inferred_amp, inferred_unit, atol=1e-12)


SWEPT_ALPHAS = np.linspace(0.0, 2.0 * math.pi, 73)


@pytest.fixture(scope="module")
def swept(ideal_experiment):
    return phase_sweep(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, SWEPT_ALPHAS)


class TestPhaseSweep:
    def test_maximum_at_zero_rotation_for_matched_phase(self, swept):
        step = math.degrees(SWEPT_ALPHAS[1] - SWEPT_ALPHAS[0])
        distance = math.degrees(swept.alpha_star) % 360.0
        assert min(distance, 360.0 - distance) <= step

    def test_opposite_signs_half_turn_apart(self, swept):
        quarter = len(SWEPT_ALPHAS) // 2
        for k in range(quarter):
            a, b = swept.rho_values[k], swept.rho_values[k + quarter]
            tol = 3.0 * math.hypot(swept.rho_errors[k], swept.rho_errors[k + quarter])
            assert abs(a + b) <= tol

    def test_curve_is_cosine(self, swept):
        # Linear LSQ on (cos, sin) basis; residual RMS should be at the
        # Monte-Carlo noise level.
        basis = np.column_stack([np.cos(SWEPT_ALPHAS), np.sin(SWEPT_ALPHAS)])
        coefficients, *_ = np.linalg.lstsq(basis, swept.rho_values, rcond=None)
        residuals = swept.rho_values - basis @ coefficients
        rms = float(np.sqrt(np.mean(residuals**2)))
        assert rms < 3.0 * float(np.mean(swept.rho_errors))

    def test_full_turn_periodicity(self, ideal_experiment):
        alphas = np.array([0.4, 0.4 + 2.0 * math.pi])
        result = phase_sweep(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, alphas)
        assert result.rho_values[0] == pytest.approx(result.rho_values[1], abs=1e-12)

    def test_idler_power_is_rotation_invariant(self, ideal_experiment):
        powers = []
        for alpha in (0.0, 0.9, 2.2):
            rotated = rotate_quadrature_array(ideal_experiment.on, alpha)
            est = estimate_covariance(rotated)
            powers.append(est[2, 2] + est[3, 3])
        assert max(powers) - min(powers) < 1e-10

    def test_empty_grid_gives_the_maximum_alone(self, ideal_experiment, swept):
        result = phase_sweep(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, [])
        assert result.rho_values.shape == result.rho_errors.shape == (0,)
        assert (result.alpha_star, result.rho_max) == (swept.alpha_star, swept.rho_max)

    def test_pearson_bound_with_statistical_slack(self, swept):
        assert np.all(np.abs(swept.rho_values) <= 1.0 + 5.0 * swept.rho_errors)

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_non_finite_angle_is_refused(self, ideal_experiment, angle):
        with pytest.raises(ValueError, match="^angle must be finite"):
            phase_sweep(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, [0.0, angle])


class TestBestRotation:
    @pytest.mark.parametrize(
        "theta", [0.0, 0.45, -0.45, -2.0, math.pi, -1e-17, 1e-13, 2.0 * math.pi - 1e-9, 7.0]
    )
    def test_exact_for_the_amplifier_state(self, theta):
        alpha_star, rho_max = _best_rotation(tmsvs_covariance(TwpaParams(2.0, 2.0, theta)))
        assert 0.0 <= alpha_star < 2.0 * math.pi
        assert abs(math.remainder(alpha_star - theta, 2.0 * math.pi)) <= 1e-12
        assert rho_max == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "entry, value", [((0, 0), 0.0), ((2, 2), -0.1), ((3, 3), 0.0), ((2, 3), 0.8)]
    )
    def test_idler_block_not_positive_definite_is_refused(self, entry, value):
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.3))
        cov[entry] = cov[entry[::-1]] = value
        with pytest.raises(ValueError, match="positive definite"):
            _best_rotation(cov)


class TestInferredPearson:
    def test_matches_closed_form_at_gain_two(self, ideal_experiment):
        rho, se = inferred_pearson(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0)
        assert se > 0.0
        assert rho == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=4.0 * se)

    def test_rotation_shifts_peak(self, ideal_experiment):
        rho_zero, _ = inferred_pearson(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0)
        rho_quarter, _ = inferred_pearson(
            ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, idler_rotation=math.pi / 2.0
        )
        assert abs(rho_quarter) < 0.2
        assert rho_zero > 0.8

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_rotation_is_refused(self, ideal_experiment, angle):
        with pytest.raises(ValueError, match="^angle must be finite"):
            inferred_pearson(ideal_experiment.on, ideal_experiment.off, 1.0, 1.0, idler_rotation=angle)


def reference_pearson(on, off, gain_signal, gain_idler, alpha, n_blocks):
    """Rho and its block-jackknife SE from rotated shots, by the definition.

    Rotates the shots, estimates each covariance with np.cov, and leaves
    out one contiguous block at a time in an explicit loop.
    """
    on = rotate_quadrature_array(on, alpha)
    off = rotate_quadrature_array(off, alpha)
    scale = np.diag(1.0 / np.sqrt([gain_signal, gain_signal, gain_idler, gain_idler]))

    def rho(on_part, off_part):
        cov_on = np.cov(on_part, rowvar=False)
        cov_off = np.cov(off_part, rowvar=False)
        cov = scale @ (cov_on - cov_off) @ scale + 0.25 * np.eye(4)
        return cov[0, 2] / math.sqrt(cov[0, 0] * cov[2, 2])

    bounds = np.linspace(0, on.shape[0], n_blocks + 1, dtype=int)
    replicates = np.array(
        [
            rho(np.delete(on, slice(a, b), axis=0), np.delete(off, slice(a, b), axis=0))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    )
    spread = replicates - replicates.mean()
    return rho(on, off), math.sqrt((n_blocks - 1) / n_blocks * np.sum(spread**2))


class TestAgainstShotDefinition:
    ALPHAS = (0.0, 0.45, 1.3, 2.9, -2.0)
    GAINS = (250.0, 9.0)

    @pytest.fixture(scope="class")
    def noisy(self):
        band = make_band(twpa=TwpaParams(2.0, 2.0, 0.45))
        acq = AcquisitionConfig(
            window=WindowSpec("gaussian", 6e-6),
            n_shots=3000,
            seed=2718,
            chain_gain_signal=self.GAINS[0],
            chain_gain_idler=self.GAINS[1],
            added_noise_quanta=2.0,
        )
        (data,) = run_experiment(0.0, band, acq)
        return data

    @pytest.fixture(scope="class")
    def reference(self, noisy):
        return np.array(
            [reference_pearson(noisy.on, noisy.off, *self.GAINS, a, 50) for a in self.ALPHAS]
        )

    def test_phase_sweep_matches_rotated_shots(self, noisy, reference):
        result = phase_sweep(noisy.on, noisy.off, *self.GAINS, self.ALPHAS)
        np.testing.assert_allclose(result.rho_values, reference[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(result.rho_errors, reference[:, 1], rtol=0.0, atol=1e-12)

    def test_inferred_pearson_matches_rotated_shots(self, noisy, reference):
        for alpha, (rho, se) in zip(self.ALPHAS, reference):
            got = inferred_pearson(noisy.on, noisy.off, *self.GAINS, idler_rotation=alpha)
            np.testing.assert_allclose(got, (rho, se), rtol=0.0, atol=1e-12)

    def test_maximum_is_the_rho_at_its_angle(self, noisy):
        # Unequal chain gains and added noise leave the idler block
        # anisotropic; the closed form must still be the curve's maximum.
        result = phase_sweep(noisy.on, noisy.off, *self.GAINS, [])
        rho, _ = inferred_pearson(noisy.on, noisy.off, *self.GAINS, idler_rotation=result.alpha_star)
        assert rho == pytest.approx(result.rho_max, abs=1e-12)
        grid = phase_sweep(noisy.on, noisy.off, *self.GAINS, np.linspace(0.0, 2.0 * math.pi, 3601))
        assert np.max(grid.rho_values) <= result.rho_max

    def test_common_offset_leaves_rho_unchanged(self, ideal_experiment):
        # Raw moment sums lose the spread of shots sitting on a large common
        # offset; the estimator must not.
        on, off = ideal_experiment.on, ideal_experiment.off
        rho, se = inferred_pearson(on, off, 1.0, 1.0)
        rho_shifted, se_shifted = inferred_pearson(on + 1e7, off + 1e7, 1.0, 1.0)
        assert rho_shifted == pytest.approx(rho, abs=1e-9)
        assert se_shifted == pytest.approx(se, abs=1e-9)

    def test_three_shots_leave_one_shot_out(self):
        # Below 50 shots every jackknife block holds one shot, so each of the
        # 3 subsamples keeps the two shots a covariance needs.
        rng = np.random.default_rng(5)
        on = 3.0 * rng.standard_normal((3, 4))
        off = 0.1 * rng.standard_normal((3, 4))
        expected = reference_pearson(on, off, 1.0, 1.0, 0.0, 3)
        got = inferred_pearson(on, off, 1.0, 1.0)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        swept = phase_sweep(on, off, 1.0, 1.0, [0.0])
        np.testing.assert_allclose(
            (swept.rho_values[0], swept.rho_errors[0]), expected, rtol=0.0, atol=1e-12
        )
