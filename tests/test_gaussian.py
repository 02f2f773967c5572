"""Tests for the two-mode Gaussian core: closed forms vs independent oracles."""

import math

import numpy as np
import pytest

from twpacorr.gaussian import MAX_GAIN
from twpacorr import (
    TwpaParams,
    VACUUM_VARIANCE,
    pearson_xx,
    physicality_min_eigenvalue,
    rotate_quadrature_array,
    squeezing_db,
    tmsvs_covariance,
)

RHO_G2 = 2.0 * math.sqrt(2.0) / 3.0  # 0.9428090415820634


def rotate_idler(cov: np.ndarray, angle: float) -> np.ndarray:
    """R C R^T for the idler rotation (X', P') = (X cos a + P sin a, -X sin a + P cos a)."""
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, c, s], [0.0, 0.0, -s, c]]
    )
    return rotation @ cov @ rotation.T


class TestTwpaParams:
    def test_rejects_gain_below_unity(self):
        with pytest.raises(ValueError):
            TwpaParams(0.99, 2.0)
        with pytest.raises(ValueError):
            TwpaParams(2.0, 0.5)

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi])
    def test_gains_up_to_the_bound_give_a_cholesky_factor(self, theta):
        for gains in [(MAX_GAIN, MAX_GAIN), (MAX_GAIN, 1.0), (1.0, MAX_GAIN), (MAX_GAIN, 2.0)]:
            cov = tmsvs_covariance(TwpaParams(*gains, theta))
            assert np.all(np.isfinite(np.linalg.cholesky(cov)))

    @pytest.mark.parametrize("field", ["gain_signal", "gain_idler"])
    @pytest.mark.parametrize("gain", [MAX_GAIN * (1.0 + 1e-12), 1e8, 1e200])
    def test_rejects_gain_above_the_bound(self, field, gain):
        gains = {"gain_signal": 2.0, "gain_idler": 2.0, field: gain}
        with pytest.raises(ValueError, match=f"^{field} "):
            TwpaParams(**gains)

    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 0.0), (3.5 * math.pi, -0.5 * math.pi), (math.pi, math.pi), (-math.pi, math.pi)],
    )
    def test_phase_reduced_to_half_open_interval(self, theta, expected):
        params = TwpaParams(2.0, 2.0, theta)
        assert params.phase_mismatch == pytest.approx(expected, abs=1e-12)
        assert -math.pi < params.phase_mismatch <= math.pi


class TestTmsvsCovariance:
    def test_unit_gain_is_vacuum(self):
        for theta in (0.0, 1.0, -2.0):
            cov = tmsvs_covariance(TwpaParams(1.0, 1.0, theta))
            np.testing.assert_allclose(cov, 0.25 * np.eye(4), atol=1e-15)

    def test_symmetric_gain_cross_covariance(self):
        G = 2.0
        cov = tmsvs_covariance(TwpaParams(G, G, 0.0))
        assert cov[0, 2] == pytest.approx(math.sqrt(G * (G - 1.0)) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("gain", [1.5, 2.0, 4.0, 10.0])
    def test_collective_variance_matches_exponential_form(self, gain):
        # sigma^2(X_s - X_i) at matched phase equals 0.5 exp(-2 arcosh(sqrt(G)))
        cov = tmsvs_covariance(TwpaParams(gain, gain, 0.0))
        variance = cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2]
        reference = 0.5 * math.exp(-2.0 * math.acosh(math.sqrt(gain)))
        assert variance == pytest.approx(reference, rel=1e-10)

    def test_full_matrix_against_monte_carlo_update(self):
        # Brute-force oracle: push 1e7 vacuum draws through the quadrature
        # update equations written out longhand and compare entrywise.
        g_s, g_i, theta = 2.0, 3.0, 0.3
        rng = np.random.default_rng(20240817)
        n = 10**7
        x_s, p_s, x_i, p_i = (rng.standard_normal(n) * 0.5 for _ in range(4))
        c, s = math.cos(theta), math.sin(theta)
        out = np.column_stack(
            [
                math.sqrt(g_s) * x_s + math.sqrt(g_i - 1) * (x_i * c + p_i * s),
                math.sqrt(g_s) * p_s + math.sqrt(g_i - 1) * (x_i * s - p_i * c),
                math.sqrt(g_i) * x_i + math.sqrt(g_s - 1) * (x_s * c + p_s * s),
                math.sqrt(g_i) * p_i + math.sqrt(g_s - 1) * (x_s * s - p_s * c),
            ]
        )
        empirical = np.cov(out, rowvar=False)
        analytic = tmsvs_covariance(TwpaParams(g_s, g_i, theta))
        diag = np.diag(analytic)
        tol = 3.0 * np.sqrt((np.outer(diag, diag) + analytic**2) / n)
        assert np.all(np.abs(empirical - analytic) <= tol)

    def test_rejects_sub_unity_gain(self):
        params = TwpaParams(1.0, 1.0)
        object.__setattr__(params, "gain_signal", 0.5)
        with pytest.raises(ValueError):
            tmsvs_covariance(params)

    @pytest.mark.parametrize("g_s", [1.0, 1.7, 3.0, 12.0])
    @pytest.mark.parametrize("g_i", [1.0, 2.4, 30.0])
    def test_gain_swap_leaves_pearson_invariant(self, g_s, g_i):
        rho_a = pearson_xx(tmsvs_covariance(TwpaParams(g_s, g_i, 0.4)))
        rho_b = pearson_xx(tmsvs_covariance(TwpaParams(g_i, g_s, 0.4)))
        assert rho_a == pytest.approx(rho_b, abs=1e-14)


class TestPhysicality:
    @pytest.mark.parametrize("g_s", [1.0, 1.3, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("g_i", [1.0, 2.0, 50.0])
    @pytest.mark.parametrize("theta", [-2.5, 0.0, 0.7, math.pi])
    def test_every_output_state_satisfies_uncertainty_bound(self, g_s, g_i, theta):
        cov = tmsvs_covariance(TwpaParams(g_s, g_i, theta))
        assert physicality_min_eigenvalue(cov) >= -1e-9

    def test_vacuum_sits_on_the_boundary(self):
        assert physicality_min_eigenvalue(0.25 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_simultaneous_xx_pp_correlation_is_unphysical(self):
        # Same-sign XX and PP correlations of equal strength squeeze two
        # conjugate collective quadratures at once; the check must flag it.
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        bad = cov.copy()
        bad[1, 3] = bad[3, 1] = bad[0, 2]
        assert physicality_min_eigenvalue(bad) < -1e-3


class TestRotateQuadrature:
    SHOTS = np.array([[0.3, -0.1, 0.7, 0.2], [-1.2, 0.4, 0.05, -0.6]])

    def test_zero_angle_is_identity(self):
        rotated = rotate_quadrature_array(self.SHOTS, 0.0)
        assert np.array_equal(rotated, self.SHOTS)

    def test_full_turn_is_identity(self):
        rotated = rotate_quadrature_array(self.SHOTS, 2.0 * math.pi)
        np.testing.assert_allclose(rotated, self.SHOTS, rtol=0.0, atol=1e-12)

    def test_quarter_turn_swaps_axes(self):
        rotated = rotate_quadrature_array(np.array([[0.0, 0.0, 1.0, 0.0]]), math.pi / 2.0)
        assert rotated[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert rotated[0, 3] == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="^angle must be finite"):
            rotate_quadrature_array(self.SHOTS, angle)

    def test_other_mode_untouched(self):
        rotated = rotate_quadrature_array(self.SHOTS, 1.234)
        assert np.array_equal(rotated[:, :2], self.SHOTS[:, :2])

    def test_rows_then_columns_rotate_a_covariance_stack(self):
        # Rotating each row and then each column of a (..., 4, 4) stack is
        # R C R^T, written out as a matrix product by rotate_idler.
        stack = np.stack(
            [tmsvs_covariance(TwpaParams(g, 2.0, 0.3 * g)) for g in (1.5, 2.0, 4.0)]
        )
        rows = rotate_quadrature_array(stack, 0.8)
        both = np.swapaxes(rotate_quadrature_array(np.swapaxes(rows, -1, -2), 0.8), -1, -2)
        for cov, rotated in zip(stack, both):
            np.testing.assert_allclose(rotated, rotate_idler(cov, 0.8), atol=1e-14)


class TestPearson:
    def test_symmetric_gain_closed_form(self):
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        assert pearson_xx(cov) == pytest.approx(RHO_G2, abs=1e-12)

    @pytest.mark.parametrize("g", [1.5, 2.0, 7.0])
    def test_quarter_phase_kills_xx_correlation(self, g):
        cov = tmsvs_covariance(TwpaParams(g, g, math.pi / 2.0))
        assert pearson_xx(cov) == pytest.approx(0.0, abs=1e-14)

    def test_unit_gain_gives_zero_not_error(self):
        assert pearson_xx(tmsvs_covariance(TwpaParams(1.0, 1.0))) == 0.0

    def test_degenerate_variance_raises(self):
        stack = np.stack([tmsvs_covariance(TwpaParams(2.0, 2.0)), np.zeros((4, 4))])
        for degenerate in (np.zeros((4, 4)), stack):
            with pytest.raises(ValueError):
                pearson_xx(degenerate)

    def test_stack_gives_one_rho_per_matrix(self):
        covs = [tmsvs_covariance(TwpaParams(g, 2.0, 0.4)) for g in (1.0, 3.0, 12.0)]
        rho = pearson_xx(np.stack([covs, covs]))
        assert rho.shape == (2, 3)
        np.testing.assert_array_equal(rho[1], [pearson_xx(cov) for cov in covs])

    def test_rotation_curve_periodic_with_opposite_extrema(self):
        # rho as a function of idler rotation is 2pi-periodic and its
        # extrema have opposite signs, pi apart.
        cov = tmsvs_covariance(TwpaParams(3.0, 2.0, 0.8))
        alphas = np.linspace(0.0, 2.0 * math.pi, 97)
        rho = np.array([pearson_xx(rotate_idler(cov, a)) for a in alphas])
        peak = alphas[np.argmax(rho)]
        rho_peak = pearson_xx(rotate_idler(cov, peak))
        rho_anti = pearson_xx(rotate_idler(cov, peak + math.pi))
        assert rho_anti == pytest.approx(-rho_peak, abs=1e-12)
        rho_wrapped = pearson_xx(rotate_idler(cov, peak + 2.0 * math.pi))
        assert rho_wrapped == pytest.approx(rho_peak, abs=1e-12)


class TestSqueezing:
    def test_vacuum_is_zero_db(self):
        assert squeezing_db(0.25 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_matched_gain_two(self):
        cov = tmsvs_covariance(TwpaParams(2.0, 2.0, 0.0))
        variance = cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2]
        assert variance == pytest.approx(0.0857864376269, rel=1e-10)
        assert squeezing_db(cov) == pytest.approx(-7.65551370676, rel=1e-9)

    def test_anti_phase_matched_is_antisqueezed(self):
        assert squeezing_db(tmsvs_covariance(TwpaParams(2.0, 2.0, math.pi))) > 0.0

