"""Tests for trace synthesis, windowing and IQ demodulation."""

import math

import numpy as np
import pytest

from twpacorr import (
    AcquisitionConfig,
    EmissionBandModel,
    TwpaParams,
    WindowSpec,
    demodulate,
    estimate_covariance,
    run_experiment,
    shot_rng,
    synthesize_baseband_pair,
)
from twpacorr.acquisition import (
    _CHUNK_SHOTS,
    GAUSSIAN_FLOOR,
    MAX_BINS,
    SAMPLES_PER_WINDOW,
    _StreamCursor,
)

from conftest import make_acquisition, make_band, overlap_kernel


class TestWindowSpec:
    @pytest.mark.parametrize("tau", [1e-6, 3e-6, 6e-6, 2.5e-5])
    def test_gaussian_envelope_endpoint_constraints(self, tau):
        window = WindowSpec("gaussian", tau)
        ends = window.envelope(np.array([0.0, tau / 2.0, tau]))
        assert abs(ends[0]) < 1e-12
        assert abs(ends[2]) < 1e-12
        assert abs(ends[1] - 1.0) < 1e-12

    def test_gaussian_floor_value(self):
        assert GAUSSIAN_FLOOR == pytest.approx(0.15651764274967, rel=1e-10)

    def test_rectangular_is_flat(self):
        window = WindowSpec("rectangular", 4e-6)
        np.testing.assert_array_equal(window.envelope(np.linspace(0, 4e-6, 7)), 1.0)

    def test_rejects_bad_shape_and_tau(self):
        with pytest.raises(ValueError):
            WindowSpec("hann", 1e-6)
        with pytest.raises(ValueError):
            WindowSpec("rectangular", 0.0)


class TestEmissionBandModel:
    def test_offsets_tile_the_band(self):
        band = make_band(halfwidth=1e6, spacing=100e3)
        offsets = band.offsets()
        assert offsets.size == 20
        assert offsets[0] == pytest.approx(-0.95e6)
        assert offsets[-1] == pytest.approx(0.95e6)

    def test_validate_for_flags_coarse_bins(self):
        band = make_band(halfwidth=5e6, spacing=100e3)
        with pytest.raises(ValueError, match="bin_spacing"):
            band.validate_for(6e-6)

    def test_rejects_more_bins_than_the_bound(self):
        assert make_band(halfwidth=MAX_BINS * 30e3, spacing=60e3).n_bins == MAX_BINS
        with pytest.raises(ValueError, match="^band_halfwidth"):
            make_band(halfwidth=1e12, spacing=60e3)

    def test_validate_for_flags_narrow_band(self):
        band = make_band(halfwidth=1e6, spacing=20e3)
        with pytest.raises(ValueError, match="band_halfwidth"):
            band.validate_for(6e-6)


def midpoints(tau: float) -> np.ndarray:
    """The window's sample times, written out longhand: midpoints of N equal steps."""
    return (np.arange(SAMPLES_PER_WINDOW) + 0.5) * tau / SAMPLES_PER_WINDOW


class TestDemodulate:
    def test_constant_trace_is_normalization_anchor(self):
        window = WindowSpec("rectangular", 2e-6)
        trace = np.ones(SAMPLES_PER_WINDOW, dtype=complex)
        assert demodulate(trace, window, 0.0) == (1.0, 0.0)

    def test_lo_phase_rotates_output(self):
        window = WindowSpec("rectangular", 2e-6)
        trace = np.ones(SAMPLES_PER_WINDOW, dtype=complex)
        x, p = demodulate(trace, window, math.pi / 2.0)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_integer_cycle_orthogonality(self, m):
        window = WindowSpec("rectangular", 2e-6)
        trace = np.exp(2j * np.pi * (m / window.tau) * midpoints(window.tau))
        x, p = demodulate(trace, window, 0.0)
        assert math.hypot(x, p) < 1e-10

    @pytest.mark.parametrize("cycles", [0.5, 2.5, 4.8])
    def test_rectangular_response_is_dirichlet_kernel(self, cycles):
        # Closed-form oracle: the midpoint sum of e^{i 2 pi f t} over N
        # samples of a flat window has magnitude
        # |sin(pi f tau) / (N sin(pi f tau / N))|, the sampled sinc.
        tau = 2e-6
        window = WindowSpec("rectangular", tau)
        f = cycles / tau
        trace = np.exp(2j * np.pi * f * midpoints(tau))
        x, p = demodulate(trace, window, 0.0)
        n = SAMPLES_PER_WINDOW
        expected = abs(math.sin(math.pi * f * tau) / (n * math.sin(math.pi * f * tau / n)))
        assert math.hypot(x, p) == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        window = WindowSpec("gaussian", 2e-6)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(SAMPLES_PER_WINDOW) + 1j * rng.standard_normal(SAMPLES_PER_WINDOW)
        v = rng.standard_normal(SAMPLES_PER_WINDOW) + 1j * rng.standard_normal(SAMPLES_PER_WINDOW)
        a, b = 0.7 - 0.2j, -1.1 + 0.5j

        def z(trace):
            x, p = demodulate(trace, window, 0.3)
            return complex(x, p)

        combined = z(a * u + b * v)
        separate = a * z(u) + b * z(v)
        assert abs(combined - separate) < 1e-12

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            demodulate(np.array([]), WindowSpec("rectangular", 1e-6), 0.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            demodulate(np.ones(10), WindowSpec("rectangular", 1e-6), 0.0)


class TestSynthesize:
    def test_pump_off_trace_matches_vacuum_density(self):
        # With the vacuum-calibrated amplitude scale, the pump-off complex
        # variance per unit bandwidth is (integral E)^2 / (2 integral E^2),
        # i.e. tau/2 for a flat window; the per-shot mean power integrates
        # that over the band. Checked to 3 sigma across shots.
        band = make_band()
        window = WindowSpec("rectangular", 6e-6)
        density = window.tau / 2.0
        expected = 2.0 * band.band_halfwidth * density
        rngs = (shot_rng(11, shot, "pump_off") for shot in range(1000))
        traces_s, _ = synthesize_baseband_pair(band, 0.0, window, "pump_off", rngs)
        powers = np.mean(np.abs(traces_s) ** 2, axis=1)
        se = powers.std(ddof=1) / math.sqrt(powers.size)
        assert abs(powers.mean() - expected) <= 3.0 * se

    def test_band_coverage_error_names_frequency(self):
        band = make_band(halfwidth=2.0e6, spacing=50e3)
        detuning = 0.5e6
        window = WindowSpec("rectangular", 6e-6)
        with pytest.raises(ValueError, match="detuning 500000 Hz"):
            synthesize_baseband_pair(band, detuning, window, "pump_on", [shot_rng(1, 0, "pump_on")])

    def test_rejects_unknown_stage(self):
        band = make_band()
        with pytest.raises(ValueError, match="stage"):
            synthesize_baseband_pair(
                band, 0.0, WindowSpec("rectangular", 6e-6), "idle", [shot_rng(1, 0, "pump_on")]
            )

    def test_trace_length(self):
        band = make_band()
        window = WindowSpec("gaussian", 4e-6)
        traces_s, traces_i = synthesize_baseband_pair(
            band, 0.0, window, "pump_on", [shot_rng(1, 0, "pump_on")]
        )
        assert traces_s.shape == traces_i.shape == (1, SAMPLES_PER_WINDOW)

    def test_one_call_matches_one_call_per_generator(self):
        # One kernel for several shots gives each shot's own traces and
        # leaves each generator just after its bin draws.
        band = make_band()
        detuning = 0.2e6
        window = WindowSpec("gaussian", 6e-6)
        shots = (0, 5, 9)
        batched = [shot_rng(3, shot, "pump_on", 1) for shot in shots]
        traces = np.stack(synthesize_baseband_pair(band, detuning, window, "pump_on", batched))
        for row, (shot, rng) in enumerate(zip(shots, batched)):
            single = shot_rng(3, shot, "pump_on", 1)
            expected = np.stack(synthesize_baseband_pair(band, detuning, window, "pump_on", [single]))
            np.testing.assert_allclose(
                traces[:, row], expected[:, 0], rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )
            np.testing.assert_array_equal(rng.standard_normal(4), single.standard_normal(4))

    def test_no_generators_give_no_traces(self):
        band = make_band()
        window = WindowSpec("rectangular", 6e-6)
        traces_s, traces_i = synthesize_baseband_pair(band, 0.0, window, "pump_on", [])
        assert traces_s.shape == traces_i.shape == (0, 100)


class TestStreams:
    def test_cursor_matches_fresh_generators(self):
        cursor = _StreamCursor(20260401)
        for shot, stage, stream in ((0, "pump_on", 0), (7, "pump_off", 3), (123, "pump_on", 1)):
            expected = shot_rng(20260401, shot, stage, stream).standard_normal(16)
            got = cursor.seek(shot, stage, stream).standard_normal(16)
            np.testing.assert_array_equal(expected, got)

    def test_seek_clears_buffered_state(self):
        cursor = _StreamCursor(99)
        # Three 32-bit draws leave half of a 64-bit output and the rest of a
        # Philox block buffered.
        cursor.seek(4, "pump_on", 1).integers(0, 2**32, size=3, dtype=np.uint32)
        got = cursor.seek(4, "pump_on", 1)
        expected = shot_rng(99, 4, "pump_on", 1)
        np.testing.assert_array_equal(
            expected.integers(0, 2**32, size=5, dtype=np.uint32),
            got.integers(0, 2**32, size=5, dtype=np.uint32),
        )
        np.testing.assert_array_equal(expected.standard_normal(8), got.standard_normal(8))

    def test_distinct_shots_and_stages_are_distinct_streams(self):
        a = shot_rng(5, 0, "pump_on").standard_normal(8)
        b = shot_rng(5, 1, "pump_on").standard_normal(8)
        c = shot_rng(5, 0, "pump_off").standard_normal(8)
        d = shot_rng(5, 0, "pump_on", stream=2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestRunExperiment:
    def test_same_seed_is_bit_identical(self):
        band = make_band()
        acq = make_acquisition(n_shots=50, seed=31)
        first = run_experiment(0.0, band, acq)
        second = run_experiment(0.0, band, acq)
        assert np.array_equal(first.on, second.on)
        assert np.array_equal(first.off, second.off)

    def test_matches_per_shot_operations(self):
        # The batched runner must reproduce what the public per-shot ops give.
        band = make_band()
        window = WindowSpec("gaussian", 6e-6)
        acq = make_acquisition(window=window, n_shots=5, seed=77)
        data = run_experiment(0.0, band, acq)
        for shot in (0, 3):
            rng = shot_rng(acq.seed, shot, "pump_on")
            (trace_s,), (trace_i,) = synthesize_baseband_pair(band, 0.0, window, "pump_on", [rng])
            x_s, p_s = demodulate(trace_s, window, acq.lo_phase_signal)
            x_i, p_i = demodulate(trace_i, window, acq.lo_phase_idler)
            np.testing.assert_allclose(
                data.on[shot], [x_s, p_s, x_i, p_i], rtol=0.0, atol=1e-12
            )

    def test_noise_and_both_stages_match_per_shot_operations(self):
        # Each shot is rebuilt trace by trace: synthesis from the shot's
        # substream, root chain gain and demodulation, then the added noise
        # from the next four normals, one per quadrature (X_s, P_s, X_i, P_i).
        band = make_band()
        detuning = 0.3e6
        window = WindowSpec("gaussian", 6e-6)
        gains = (4.0, 0.25)
        lo_phases = (0.4, -1.1)
        acq = AcquisitionConfig(
            window=window,
            n_shots=_CHUNK_SHOTS + 2,
            seed=2024,
            lo_phase_signal=lo_phases[0],
            lo_phase_idler=lo_phases[1],
            chain_gain_signal=gains[0],
            chain_gain_idler=gains[1],
            added_noise_quanta=3.0,
        )
        data = run_experiment(detuning, band, acq, stream=2)

        sigmas = np.sqrt(np.repeat(gains, 2) * acq.added_noise_quanta / 4.0)
        # The last two shots sit in a second chunk of the batched runner.
        shots = (0, 1, _CHUNK_SHOTS, _CHUNK_SHOTS + 1)
        for stage, quadratures in (("pump_on", data.on), ("pump_off", data.off)):
            expected = []
            for shot in shots:
                rng = shot_rng(acq.seed, shot, stage, stream=2)
                traces = [t[0] for t in synthesize_baseband_pair(band, detuning, window, stage, [rng])]
                row = []
                for trace, gain, lo_phase in zip(traces, gains, lo_phases):
                    row.extend(demodulate(math.sqrt(gain) * trace, window, lo_phase))
                expected.append(np.array(row) + sigmas * rng.standard_normal(4))
            expected = np.array(expected)
            np.testing.assert_allclose(
                quadratures[list(shots)], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
            )

    def test_off_stage_is_isotropic_vacuum(self, ideal_experiment):
        est = estimate_covariance(ideal_experiment.off)
        assert np.all(np.abs(np.diag(est.matrix) - 0.25) <= 3.0 * np.diag(est.standard_errors))
        off_diagonal = ~np.eye(4, dtype=bool)
        assert np.all(
            np.abs(est.matrix[off_diagonal]) <= 3.0 * est.standard_errors[off_diagonal]
        )

    def test_unit_gain_pump_matches_off_stage(self):
        band = make_band(twpa=TwpaParams(1.0, 1.0, 0.0))
        acq = make_acquisition(n_shots=3000, seed=91)
        data = run_experiment(0.0, band, acq)
        on = estimate_covariance(data.on)
        off = estimate_covariance(data.off)
        tol = 3.0 * np.sqrt(on.standard_errors**2 + off.standard_errors**2)
        assert np.all(np.abs(on.matrix - off.matrix) <= tol)

    def test_added_noise_raises_both_stages_equally(self):
        band = make_band()
        noisy = make_acquisition(n_shots=4000, seed=13, added_noise=8.0)
        data = run_experiment(0.0, band, noisy)
        off = estimate_covariance(data.off)
        # OFF variance should sit at vacuum + noise quanta (chain gain 1).
        expected = 0.25 + 8.0 / 4.0
        assert np.all(np.abs(np.diag(off.matrix) - expected) <= 3.0 * np.diag(off.standard_errors))

    def test_refinement_invariance(self):
        # Halving the bin spacing must not move the demodulated covariance
        # beyond the combined Monte-Carlo error.
        acq = make_acquisition(n_shots=10_000, seed=101)
        coarse = run_experiment(0.0, make_band(spacing=60e3), acq)
        fine = run_experiment(0.0, make_band(spacing=30e3), acq)
        est_coarse = estimate_covariance(coarse.on)
        est_fine = estimate_covariance(fine.on)
        tol = 3.0 * np.sqrt(est_coarse.standard_errors**2 + est_fine.standard_errors**2)
        assert np.all(np.abs(est_coarse.matrix - est_fine.matrix) <= tol)


class TestDetuningKernel:
    def test_cross_covariance_follows_window_overlap(self):
        # cov(X_s, X_i) versus detuning should be proportional to the
        # quadrature-integrated overlap kernel of the two window envelopes.
        band = make_band(halfwidth=4.4e6, spacing=50e3)
        window = WindowSpec("rectangular", 6e-6)
        acq = make_acquisition(window=window, n_shots=10_000, seed=40)
        detunings = np.linspace(-0.9e6, 0.9e6, 21)
        kernel = overlap_kernel(window, detunings)
        covariances = np.empty(detunings.size)
        errors = np.empty(detunings.size)
        for k, detuning in enumerate(detunings):
            data = run_experiment(detuning, band, acq, stream=k)
            est = estimate_covariance(data.on)
            covariances[k] = est.matrix[0, 2]
            errors[k] = est.standard_errors[0, 2]
        # One free proportionality constant, fitted by weighted least squares.
        weight = 1.0 / errors**2
        scale = np.sum(weight * covariances * kernel) / np.sum(weight * kernel**2)
        assert np.all(np.abs(covariances - scale * kernel) <= 3.0 * errors)


class TestAcquisitionConfig:
    def test_default_sample_rate_is_hundred_per_window(self):
        acq = make_acquisition(window=WindowSpec("rectangular", 4e-6))
        assert acq.sample_rate == pytest.approx(100.0 / 4e-6)

    def test_rejects_bad_counts_and_gains(self):
        with pytest.raises(ValueError):
            make_acquisition(n_shots=1)
        with pytest.raises(ValueError, match="n_shots"):
            make_acquisition(n_shots=2)
        with pytest.raises(ValueError):
            make_acquisition(chain_gain=0.0)
        with pytest.raises(ValueError):
            make_acquisition(added_noise=-1.0)
