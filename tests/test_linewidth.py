"""Tests for detuning sweeps, model fitting and window comparison."""

import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import least_squares

import twpacorr.linewidth as linewidth_module
from twpacorr import (
    DetuningSweep,
    WindowSpec,
    compare_windows,
    fit_model,
    fwhm_from_scale,
    inferred_pearson,
    model_prediction,
    run_experiment,
    sweep_detuning,
)
from twpacorr.linewidth import (
    GAUSSIAN_HALF_MAX_ARG,
    MAX_AMPLITUDE,
    SINC_FIRST_LOBE_ARG,
    SINC_FIRST_LOBE_LEVEL,
    SINC_HALF_MAX_ARG,
    _initial_guess,
    _model_jacobian,
)

from conftest import deadline, make_acquisition, make_band

TAU = 6e-6
XI_RECT = math.pi * TAU


def synthetic_sweep(model, detunings, amplitude, scale, window=None, errors=None):
    values = model_prediction(model, detunings, amplitude, scale)
    if errors is None:
        errors = np.zeros_like(values)
    if window is None:
        window = WindowSpec("rectangular" if model == "abs_sinc" else "gaussian", TAU)
    return DetuningSweep(np.asarray(detunings, float), values, errors, window)


def noisy_sweep(seed, model, amplitude, scale, weighted, noise=0.02):
    """25 points over 1.5 MHz, as the benchmark sweeps, with noise at its rho errors."""
    rng = np.random.default_rng(seed)
    detunings = np.linspace(-7.5e5, 7.5e5, 25)
    errors = noise * rng.uniform(0.7, 1.3, detunings.size)
    clean = model_prediction(model, detunings, amplitude, scale)
    values = np.abs(clean + errors * rng.standard_normal(detunings.size))
    window = WindowSpec("rectangular" if model == "abs_sinc" else "gaussian", TAU)
    return DetuningSweep(detunings, values, errors if weighted else np.zeros_like(errors), window)


class TestDetuningSweepType:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DetuningSweep(
                np.linspace(-1, 1, 5), np.zeros(4), np.zeros(5), WindowSpec("rectangular", TAU)
            )

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            DetuningSweep(
                np.linspace(-1, 1, 4), np.zeros(4), np.zeros(4), WindowSpec("rectangular", TAU)
            )

    def test_rejects_unsorted_detunings(self):
        with pytest.raises(ValueError):
            DetuningSweep(
                np.array([0.0, -1.0, 1.0, 2.0, 3.0]),
                np.zeros(5),
                np.zeros(5),
                WindowSpec("rectangular", TAU),
            )


class TestFitModel:
    def test_recovers_exact_sinc_kernel(self):
        detunings = np.linspace(-1e6, 1e6, 51)
        sweep = synthetic_sweep("abs_sinc", detunings, 0.93, XI_RECT)
        fit = fit_model(sweep)
        assert fit.converged
        assert fit.amplitude == pytest.approx(0.93, rel=1e-6)
        assert fit.scale_xi == pytest.approx(XI_RECT, rel=1e-6)
        assert fit.fwhm * TAU == pytest.approx(2.0 * SINC_HALF_MAX_ARG / math.pi, rel=1e-6)

    def test_recovers_exact_gaussian_kernel(self):
        detunings = np.linspace(-1e6, 1e6, 41)
        sweep = synthetic_sweep("gaussian", detunings, 0.88, 5.2e-6)
        fit = fit_model(sweep)
        assert fit.amplitude == pytest.approx(0.88, rel=1e-6)
        assert fit.scale_xi == pytest.approx(5.2e-6, rel=1e-6)

    @pytest.mark.parametrize("model,scale", [("abs_sinc", XI_RECT), ("gaussian", 5.2e-6)])
    def test_half_max_identity(self, model, scale):
        fwhm = fwhm_from_scale(model, scale)
        value = model_prediction(model, [fwhm / 2.0], 1.0, scale)[0]
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_scale_covariance(self):
        detunings = np.linspace(-1e6, 1e6, 51)
        sweep = synthetic_sweep("abs_sinc", detunings, 0.9, XI_RECT)
        fit = fit_model(sweep)
        factor = 4.0
        scaled = synthetic_sweep("abs_sinc", detunings * factor, 0.9, XI_RECT / factor)
        fit_scaled = fit_model(scaled)
        assert fit_scaled.scale_xi == pytest.approx(fit.scale_xi / factor, rel=1e-9)
        assert fit_scaled.fwhm == pytest.approx(fit.fwhm * factor, rel=1e-9)

    def test_jacobian_matches_central_differences(self):
        detunings = np.linspace(-1e6, 1e6, 31)
        for model, scale in (("abs_sinc", 1.7e-5), ("gaussian", 5.0e-6)):
            amplitude = 0.9
            jacobian = _model_jacobian(model, detunings, amplitude, scale)
            for column, (h_a, h_s) in enumerate(((amplitude * 1e-6, 0.0), (0.0, scale * 1e-6))):
                upper = model_prediction(model, detunings, amplitude + h_a, scale + h_s)
                lower = model_prediction(model, detunings, amplitude - h_a, scale - h_s)
                finite = (upper - lower) / (2.0 * (h_a or h_s))
                norm = np.max(np.abs(jacobian[:, column]))
                assert np.max(np.abs(finite - jacobian[:, column])) <= 1e-5 * norm

    def test_flat_data_raises(self):
        detunings = np.linspace(-1e6, 1e6, 11)
        sweep = DetuningSweep(
            detunings, np.full(11, 0.4), np.zeros(11), WindowSpec("rectangular", TAU)
        )
        with pytest.raises(ValueError, match="flat"):
            fit_model(sweep)

    def test_non_finite_data_raises(self):
        detunings = np.linspace(-1e6, 1e6, 11)
        values = model_prediction("abs_sinc", detunings, 0.9, XI_RECT)
        values[3] = np.nan
        sweep = DetuningSweep(detunings, values, np.zeros(11), WindowSpec("rectangular", TAU))
        with pytest.raises(ValueError, match="finite"):
            fit_model(sweep)

    def test_unknown_model_rejected(self):
        detunings = np.linspace(-1e6, 1e6, 11)
        with pytest.raises(ValueError, match="lorentzian"):
            model_prediction("lorentzian", detunings, 0.9, XI_RECT)

    def test_weighted_fit_uses_errors(self):
        # Corrupt one point and give it a huge error bar: the weighted fit
        # should ignore it while an unweighted fit is dragged away.
        detunings = np.linspace(-1e6, 1e6, 51)
        values = model_prediction("abs_sinc", detunings, 0.9, XI_RECT)
        values[25] = 0.2  # center point clobbered
        errors = np.full(values.size, 1e-4)
        errors[25] = 10.0
        weighted = fit_model(DetuningSweep(detunings, values, errors, WindowSpec("rectangular", TAU)))
        unweighted = fit_model(
            DetuningSweep(detunings, values, np.zeros_like(values), WindowSpec("rectangular", TAU))
        )
        assert weighted.amplitude == pytest.approx(0.9, rel=1e-3)
        assert abs(unweighted.amplitude - 0.9) > 10.0 * abs(weighted.amplitude - 0.9)

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize(
        "model,amplitude,scale",
        [
            ("abs_sinc", 0.93, 1.9e-5),
            ("gaussian", 0.93, 5.2e-6),
            ("abs_sinc", 1.08, 1.9e-5),
            ("gaussian", 1.08, 5.2e-6),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_tight_scipy_fit(self, seed, model, amplitude, scale, weighted):
        # scipy's bounded trust-region solver at tolerances far below the
        # fit's, from the same start, on the raw detunings.
        sweep = noisy_sweep(seed, model, amplitude, scale, weighted)
        fit = fit_model(sweep)
        detunings, values = sweep.detunings, sweep.rho_values
        weights = 1.0 / sweep.rho_errors if weighted else np.ones_like(values)

        def residuals(params):
            return (values - model_prediction(model, detunings, *params)) * weights

        def jacobian(params):
            return -_model_jacobian(model, detunings, *params) * weights[:, np.newaxis]

        amplitude0, scale0 = _initial_guess(model, detunings, values)
        reference = least_squares(
            residuals,
            [min(amplitude0, MAX_AMPLITUDE), scale0],
            jac=jacobian,
            bounds=([1e-12, 1e-15], [MAX_AMPLITUDE, np.inf]),
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
            x_scale="jac",
        )
        assert fit.converged
        if amplitude > MAX_AMPLITUDE:
            assert reference.x[0] == pytest.approx(MAX_AMPLITUDE, rel=1e-12)
        assert fit.amplitude == pytest.approx(reference.x[0], rel=1e-7)
        assert fit.scale_xi == pytest.approx(reference.x[1], rel=1e-7)
        cost = np.sum(residuals([fit.amplitude, fit.scale_xi]) ** 2)
        assert cost <= np.sum(reference.fun**2) * (1.0 + 1e-9)

    def test_running_out_of_evaluations_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(linewidth_module, "FIT_MAX_EVALUATIONS", 2)
        fit = fit_model(noisy_sweep(0, "abs_sinc", 0.93, 1.9e-5, weighted=True))
        assert not fit.converged
        assert fit.n_iterations == 2
        assert 1e-12 <= fit.amplitude <= MAX_AMPLITUDE
        assert fit.scale_xi >= 1e-15


class TestCompareWindows:
    def test_sinc_sidelobe_level_on_synthetic_data(self):
        detunings = np.linspace(-1.2e6, 1.2e6, 201)
        sweep = synthetic_sweep("abs_sinc", detunings, 0.9, XI_RECT)
        fit = fit_model(sweep)
        row = compare_windows(fit, sweep)
        assert row.sidelobe == pytest.approx(0.9 * SINC_FIRST_LOBE_LEVEL, rel=0.01)
        assert row.fwhm_tau == pytest.approx(1.2067, rel=1e-3)

    def test_gaussian_tail_is_empty_when_span_is_short(self):
        detunings = np.linspace(-0.3e6, 0.3e6, 21)
        sweep = synthetic_sweep("gaussian", detunings, 0.9, 5.2e-6)
        fit = fit_model(sweep)
        row = compare_windows(fit, sweep)
        assert row.n_sidelobe_points == 0
        assert math.isnan(row.sidelobe)

    def test_default_model_mapping(self):
        # The window shape picks the model, whatever the data look like.
        detunings = np.linspace(-1e6, 1e6, 21)
        for shape, model in (("rectangular", "abs_sinc"), ("gaussian", "gaussian")):
            sweep = synthetic_sweep("gaussian", detunings, 0.9, 5.2e-6, window=WindowSpec(shape, TAU))
            assert fit_model(sweep).model == model


@pytest.fixture(scope="module")
def small_sweep():
    band = make_band(halfwidth=2.2e6, spacing=80e3)
    acq = make_acquisition(n_shots=2500, seed=606)
    detunings = np.linspace(-0.3e6, 0.3e6, 13)
    (sweep,) = sweep_detuning(band, acq, detunings, windows=[acq.window])
    return sweep


class TestSweepDetuning:
    def test_center_matches_phase_optimized_maximum(self, small_sweep):
        from twpacorr import inferred_pearson, phase_sweep, run_experiment

        band = make_band(halfwidth=2.2e6, spacing=80e3)
        acq = make_acquisition(n_shots=2500, seed=606)
        (calibration,) = run_experiment(0.0, band, acq, stream=0)
        swept = phase_sweep(calibration.on, calibration.off, 1.0, 1.0, ())
        assert swept.alpha_star == small_sweep.alpha_star
        _, se_max = inferred_pearson(
            calibration.on, calibration.off, 1.0, 1.0, idler_rotation=swept.alpha_star
        )
        center = small_sweep.detunings.size // 2
        tol = 3.0 * math.hypot(small_sweep.rho_errors[center], se_max)
        assert small_sweep.rho_values[center] == pytest.approx(swept.rho_max, abs=tol)

    def test_curve_is_even_within_errors(self, small_sweep):
        rho = small_sweep.rho_values
        err = small_sweep.rho_errors
        n = rho.size
        for k in range(n // 2):
            mirrored = n - 1 - k
            tol = 3.0 * math.hypot(err[k], err[mirrored])
            assert abs(rho[k] - rho[mirrored]) <= tol

    def test_first_zero_near_reciprocal_window_time(self):
        # For a flat 6 us window the fitted kernel's first zero should land
        # near 1/tau ~ 166.7 kHz.
        band = make_band(halfwidth=2.6e6, spacing=80e3)
        acq = make_acquisition(n_shots=4000, seed=909)
        detunings = np.linspace(-0.4e6, 0.4e6, 17)
        (sweep,) = sweep_detuning(band, acq, detunings, windows=[acq.window])
        fit = fit_model(sweep)
        first_zero = math.pi / fit.scale_xi
        assert first_zero == pytest.approx(1.0 / TAU, rel=0.05)

    def test_sweep_carries_calibrated_phase(self, small_sweep):
        distance = math.degrees(small_sweep.alpha_star) % 360.0
        assert min(distance, 360.0 - distance) < 10.0

    def test_windows_of_one_sweep_equal_one_sweep_per_window(self):
        band = make_band(halfwidth=4e6, spacing=80e3)
        acq = make_acquisition(n_shots=600, seed=303, chain_gain=2.0, added_noise=1.0)
        detunings = np.linspace(-0.3e6, 0.3e6, 7)
        windows = [
            WindowSpec("rectangular", 6e-6),
            WindowSpec("gaussian", 6e-6),
            WindowSpec("rectangular", 3e-6),
        ]
        joint = sweep_detuning(band, acq, detunings, windows=windows)
        assert len(joint) == len(windows)
        for window, sweep in zip(windows, joint):
            (alone,) = sweep_detuning(band, acq, detunings, windows=[window])
            assert sweep.window == window
            assert sweep.alpha_star == alone.alpha_star
            assert np.array_equal(sweep.rho_values, alone.rho_values)
            assert np.array_equal(sweep.rho_errors, alone.rho_errors)

    def test_failed_window_is_returned_and_left_out(self, monkeypatch):
        from twpacorr import linewidth

        band, acq = make_band(), make_acquisition(n_shots=300, seed=8)
        detunings = np.linspace(-0.2e6, 0.2e6, 5)
        windows = [WindowSpec("rectangular", 6e-6), WindowSpec("gaussian", 6e-6)]
        (expected,) = sweep_detuning(band, acq, detunings, windows=windows[:1])
        real_run, real_calibrate = linewidth.run_experiment, linewidth.phase_sweep
        acquired, calibrations = [], []

        def run(*args, windows, **kwargs):
            acquired.append([window.shape for window in windows])
            return real_run(*args, windows=windows, **kwargs)

        def calibrate(*args):
            # Windows are calibrated in order: the gaussian one fails.
            calibrations.append(args)
            if len(calibrations) == 2:
                raise ValueError("synthetic calibration failure")
            return real_calibrate(*args)

        monkeypatch.setattr(linewidth, "run_experiment", run)
        monkeypatch.setattr(linewidth, "phase_sweep", calibrate)
        rectangular, failed = sweep_detuning(band, acq, detunings, windows=windows)
        assert isinstance(failed, ValueError) and "synthetic" in str(failed)
        assert rectangular.alpha_star == expected.alpha_star
        assert np.array_equal(rectangular.rho_values, expected.rho_values)
        assert np.array_equal(rectangular.rho_errors, expected.rho_errors)
        assert acquired == [["rectangular", "gaussian"]] + [["rectangular"]] * detunings.size

        # Alone, a window gets what stopped it, after its calibration run.
        def fail(*args):
            raise ValueError("synthetic calibration failure")

        monkeypatch.setattr(linewidth, "phase_sweep", fail)
        acquired.clear()
        (alone,) = sweep_detuning(band, acq, detunings, windows=windows[:1])
        assert isinstance(alone, ValueError) and "synthetic" in str(alone)
        assert acquired == [["rectangular"]]

    @pytest.mark.parametrize(
        "detunings,message",
        [
            ([0.0, 0.0, 1e5, 2e5, 3e5], "strictly increasing"),
            ([0.0, 1e5, math.nan, 2e5, 3e5], "strictly increasing"),
            ([0.0, 1e5, 2e5, 3e5], "at least 5 points"),
            (np.linspace(-5e-323, 5e-323, 9), "detunings must step"),
        ],
    )
    def test_grid_is_checked_before_acquiring(self, monkeypatch, detunings, message):
        from twpacorr import linewidth

        def run(*args, **kwargs):
            raise AssertionError("run_experiment called before the grid was checked")

        monkeypatch.setattr(linewidth, "run_experiment", run)
        acq = make_acquisition(n_shots=100, seed=2)
        with pytest.raises(ValueError, match=message):
            sweep_detuning(make_band(), acq, detunings, windows=[acq.window])

    def test_detuning_outside_band_is_rejected(self):
        band = make_band(halfwidth=2.2e6, spacing=80e3)
        acq = make_acquisition(n_shots=100, seed=2)
        detunings = np.linspace(-1.5e6, 1.5e6, 7)
        with pytest.raises(ValueError, match="band"):
            sweep_detuning(band, acq, detunings, windows=[acq.window])


#: Per process: the stream of the run in hand and the windows estimated since.
_CURRENT = {}
#: The process that imported this module; a forked worker has another pid.
_PARENT = os.getpid()


# Stand-ins for the sweep's run_experiment and inferred_pearson. They are
# module-level, so a points task that carries them pickles them by name and
# every process that takes a point calls them.
def run_noting_its_stream(*args, stream, **kwargs):
    _CURRENT.update(stream=stream, estimates=0)
    if stream > 0 and os.getpid() == _PARENT:
        time.sleep(0.05)  # leaves points to the workers
    return run_experiment(*args, stream=stream, **kwargs)


def pearson_marking_its_process(*args, **kwargs):
    # (rho, rho_se) = (the point's stream, the pid of the process that took it)
    return float(_CURRENT["stream"]), float(os.getpid())


def pearson_failing_gaussian(*args, **kwargs):
    # The windows of a point are estimated in order: the gaussian one fails
    # at points 2 and 5, on streams 3 and 6.
    _CURRENT["estimates"] += 1
    if _CURRENT["estimates"] == 2 and _CURRENT["stream"] in (3, 6):
        raise ValueError(f"synthetic failure on stream {_CURRENT['stream']}")
    return inferred_pearson(*args, **kwargs)


def run_dying_in_a_worker(*args, stream, **kwargs):
    if stream > 0:
        if os.getpid() != _PARENT:
            os._exit(1)
        time.sleep(0.2)  # a worker takes a point meanwhile
    return run_experiment(*args, stream=stream, **kwargs)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sweeps stay in one process")
class TestSplitSweep:
    """The points of a sweep, split over worker processes."""

    BAND = make_band()
    ACQ = make_acquisition(n_shots=300, seed=8)
    DETUNINGS = np.linspace(-0.2e6, 0.2e6, 7)
    WINDOWS = [WindowSpec("rectangular", 6e-6), WindowSpec("gaussian", 6e-6)]

    def alone(self, monkeypatch) -> DetuningSweep:
        from twpacorr import acquisition

        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 1)
        (sweep,) = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS[:1])
        return sweep

    @staticmethod
    def assert_same_sweep(sweep: DetuningSweep, expected: DetuningSweep) -> None:
        assert sweep.alpha_star == expected.alpha_star
        assert np.array_equal(sweep.rho_values, expected.rho_values)
        assert np.array_equal(sweep.rho_errors, expected.rho_errors)

    @pytest.mark.parametrize("count", [1, 3])
    def test_window_failing_at_several_points_reports_the_lowest(self, workers, monkeypatch, count):
        from twpacorr import acquisition, linewidth

        expected = self.alone(monkeypatch)
        monkeypatch.setattr(linewidth, "run_experiment", run_noting_its_stream)
        monkeypatch.setattr(linewidth, "inferred_pearson", pearson_failing_gaussian)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: count)
        with deadline(120):
            rectangular, failed = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS)
        assert len(workers._started) == count - 1
        assert isinstance(failed, ValueError) and str(failed) == "synthetic failure on stream 3"
        self.assert_same_sweep(rectangular, expected)

    def test_workers_call_the_stand_ins_the_task_carries(self, workers, monkeypatch):
        from twpacorr import acquisition, linewidth

        # Workers started before the stand-ins are set hold the package's functions.
        workers._connections(2)
        pool = {process.pid for process, _ in workers._started}
        monkeypatch.setattr(linewidth, "run_experiment", run_noting_its_stream)
        monkeypatch.setattr(linewidth, "inferred_pearson", pearson_marking_its_process)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        with deadline(120):
            (sweep,) = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS[:1])
        assert np.array_equal(sweep.rho_values, np.arange(1, self.DETUNINGS.size + 1))
        takers = set(sweep.rho_errors.astype(int).tolist())
        assert takers <= pool | {os.getpid()}
        assert takers & pool, "no worker took a point"

    def test_stand_in_that_cannot_be_pickled_sees_every_point(self, workers, monkeypatch):
        from twpacorr import acquisition, linewidth

        expected = self.alone(monkeypatch)
        streams, asked = [], []

        def run(*args, stream, **kwargs):
            streams.append(stream)
            return run_experiment(*args, stream=stream, **kwargs)

        def process_count(n_items):
            asked.append(n_items)
            return 3

        monkeypatch.setattr(linewidth, "run_experiment", run)
        monkeypatch.setattr(acquisition, "_process_count", process_count)
        with deadline(120):
            (sweep,) = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS[:1])
        # The points stay here, in order, and each run still splits its shots:
        # the split rule is asked for the calibration, the points, then each point.
        assert streams == list(range(self.DETUNINGS.size + 1))
        n_shots, points = self.ACQ.n_shots, self.DETUNINGS.size
        assert asked == [n_shots, points * n_shots] + [n_shots] * points
        assert len(workers._started) == 2
        self.assert_same_sweep(sweep, expected)

    def test_worker_dying_mid_sweep_makes_the_sweep_raise(self, workers, monkeypatch):
        from twpacorr import acquisition, linewidth

        monkeypatch.setattr(linewidth, "run_experiment", run_dying_in_a_worker)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 2)
        with deadline(60), pytest.raises(RuntimeError, match="worker process exited"):
            sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS)
        assert not workers._started


class TestSnrGrowth:
    def test_snr_nondecreasing_with_shots(self):
        # More shots shrink the residual RMS, so SNR = A / RMS must grow
        # (up to a one-sigma-scale slack).
        band = make_band(halfwidth=2.2e6, spacing=80e3)
        detunings = np.linspace(-0.3e6, 0.3e6, 9)
        snrs = []
        for n_shots in (10**3, 10**4, 10**5):
            acq = make_acquisition(n_shots=n_shots, seed=112)
            (sweep,) = sweep_detuning(band, acq, detunings, windows=[acq.window])
            snrs.append(fit_model(sweep).snr)
        assert snrs[1] >= snrs[0] * 0.9
        assert snrs[2] >= snrs[1] * 0.9
