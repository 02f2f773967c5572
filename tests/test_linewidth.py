"""Tests for detuning sweeps, model fitting and window comparison."""

import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import least_squares

from twpacorr import (
    DetuningSweep,
    ExperimentData,
    WindowSpec,
    compare_windows,
    fit_model,
    fwhm_from_scale,
    model_prediction,
    run_experiment,
    sweep_detuning,
)
from twpacorr.linewidth import (
    GAUSSIAN_HALF_MAX_ARG,
    MAX_AMPLITUDE,
    MIN_SCALE,
    SINC_FIRST_LOBE_ARG,
    SINC_FIRST_LOBE_LEVEL,
    SINC_HALF_MAX_ARG,
    _model_jacobian,
    _profile_starts,
)

from conftest import deadline, make_acquisition, make_band

TAU = 6e-6
XI_RECT = math.pi * TAU


def synthetic_sweep(model, detunings, amplitude, scale, window=None, errors=None):
    values = model_prediction(model, detunings, amplitude, scale)
    if errors is None:
        errors = np.zeros_like(values)
    if window is None:
        window = WindowSpec("rectangular" if model == "sinc" else "gaussian", TAU)
    return DetuningSweep(np.asarray(detunings, float), values, errors, window)


def sinc_cost_and_dense_minimum(sweep, fit):
    """The fit's cost, and the lowest profile cost on 200,000 xi: at each the best clipped amplitude, in closed form."""
    values = sweep.rho_values
    errors = sweep.rho_errors
    weights = 1.0 / errors if np.all(errors > 0.0) else np.ones_like(values)
    fitted = model_prediction("sinc", sweep.detunings, fit.amplitude, fit.scale_xi)
    profile = math.inf
    for xi in np.array_split(np.geomspace(1e-7, 1e-3, 200_000), 40):
        m = model_prediction("sinc", sweep.detunings, 1.0, xi[:, np.newaxis]) * weights
        a = np.clip(m @ (values * weights) / np.sum(m * m, axis=1), 1e-12, MAX_AMPLITUDE)
        profile = min(profile, np.min(np.sum((values * weights - a[:, np.newaxis] * m) ** 2, axis=1)))
    return np.sum(((values - fitted) * weights) ** 2), profile


def noisy_sweep(seed, model, amplitude, scale, weighted, noise=0.02, n_points=25):
    """``n_points`` over 1.5 MHz, 25 as the benchmark sweeps, with noise at its rho errors."""
    rng = np.random.default_rng(seed)
    detunings = np.linspace(-7.5e5, 7.5e5, n_points)
    errors = noise * rng.uniform(0.7, 1.3, detunings.size)
    clean = model_prediction(model, detunings, amplitude, scale)
    values = clean + errors * rng.standard_normal(detunings.size)
    window = WindowSpec("rectangular" if model == "sinc" else "gaussian", TAU)
    return DetuningSweep(detunings, values, errors if weighted else np.zeros_like(errors), window)


def random_sweep(seed):
    """A sinc sweep of the random-sweep make-up: 5-59 points over 1.5 MHz, noise 0.01-0.3, amplitude 1.08, unweighted."""
    rng = np.random.default_rng(seed)
    n, noise = rng.integers(5, 60), rng.uniform(0.01, 0.3)
    rng.random(3)  # the generator's picks of model, amplitude and weighting
    detunings = np.linspace(-7.5e5, 7.5e5, n)
    errors = noise * rng.uniform(0.7, 1.3, n)
    values = model_prediction("sinc", detunings, 1.08, 1.9e-5) + errors * rng.standard_normal(n)
    return DetuningSweep(detunings, values, np.zeros(n), WindowSpec("rectangular", TAU))


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
        sweep = synthetic_sweep("sinc", detunings, 0.93, XI_RECT)
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

    @pytest.mark.parametrize("model,scale", [("sinc", XI_RECT), ("gaussian", 5.2e-6)])
    def test_half_max_identity(self, model, scale):
        fwhm = fwhm_from_scale(model, scale)
        value = model_prediction(model, [fwhm / 2.0], 1.0, scale)[0]
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_scale_covariance(self):
        detunings = np.linspace(-1e6, 1e6, 51)
        sweep = synthetic_sweep("sinc", detunings, 0.9, XI_RECT)
        fit = fit_model(sweep)
        factor = 4.0
        scaled = synthetic_sweep("sinc", detunings * factor, 0.9, XI_RECT / factor)
        fit_scaled = fit_model(scaled)
        assert fit_scaled.scale_xi == pytest.approx(fit.scale_xi / factor, rel=1e-9)
        assert fit_scaled.fwhm == pytest.approx(fit.fwhm * factor, rel=1e-9)

    def test_jacobian_matches_central_differences(self):
        detunings = np.linspace(-1e6, 1e6, 31)
        for model, scale in (("sinc", 1.7e-5), ("gaussian", 5.0e-6)):
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
        values = model_prediction("sinc", detunings, 0.9, XI_RECT)
        values[3] = np.nan
        sweep = DetuningSweep(detunings, values, np.zeros(11), WindowSpec("rectangular", TAU))
        with pytest.raises(ValueError, match="finite"):
            fit_model(sweep)

    @pytest.mark.parametrize(
        "evaluate, arguments",
        [
            (model_prediction, (np.linspace(-1e6, 1e6, 11), 0.9, XI_RECT)),
            (_model_jacobian, (np.linspace(-1e6, 1e6, 11), 0.9, XI_RECT)),
            (fwhm_from_scale, (XI_RECT,)),
        ],
        ids=["model_prediction", "_model_jacobian", "fwhm_from_scale"],
    )
    def test_unknown_model_rejected(self, evaluate, arguments):
        with pytest.raises(ValueError, match="lorentzian"):
            evaluate("lorentzian", *arguments)

    def test_weighted_fit_uses_errors(self):
        # Corrupt one point and give it a huge error bar: the weighted fit
        # should ignore it while an unweighted fit is dragged away.
        detunings = np.linspace(-1e6, 1e6, 51)
        values = model_prediction("sinc", detunings, 0.9, XI_RECT)
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
            ("sinc", 0.93, 1.9e-5),
            ("gaussian", 0.93, 5.2e-6),
            ("sinc", 1.08, 1.9e-5),
            ("gaussian", 1.08, 5.2e-6),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_tight_scipy_fit(self, seed, model, amplitude, scale, weighted):
        # scipy's bounded trust-region solver at tolerances far below the
        # fit's, from the same starts, on the raw detunings: the profile-cost
        # starts in detuning over the span's edge, scaled back to xi. The
        # lower of its ends is the reference.
        sweep = noisy_sweep(seed, model, amplitude, scale, weighted)
        fit = fit_model(sweep)
        detunings, values = sweep.detunings, sweep.rho_values
        weights = 1.0 / sweep.rho_errors if weighted else np.ones_like(values)

        def residuals(params):
            return (values - model_prediction(model, detunings, *params)) * weights

        def jacobian(params):
            return -_model_jacobian(model, detunings, *params) * weights[:, np.newaxis]

        reach = np.max(np.abs(detunings))
        starts = _profile_starts(model, detunings / reach, values, weights)
        references = [
            least_squares(
                residuals,
                [amplitude0, scale0 / reach],
                jac=jacobian,
                bounds=([1e-12, 1e-15], [MAX_AMPLITUDE, np.inf]),
                ftol=1e-15,
                xtol=1e-15,
                gtol=1e-15,
                x_scale="jac",
            )
            for amplitude0, scale0 in starts
        ]
        reference = min(references, key=lambda result: result.cost)
        assert fit.converged
        if amplitude > MAX_AMPLITUDE:
            assert reference.x[0] == pytest.approx(MAX_AMPLITUDE, rel=1e-12)
        assert fit.amplitude == pytest.approx(reference.x[0], rel=1e-9)
        assert fit.scale_xi == pytest.approx(reference.x[1], rel=1e-9)
        cost = np.sum(residuals([fit.amplitude, fit.scale_xi]) ** 2)
        assert cost <= np.sum(reference.fun**2) * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "sweep,lowest",
        [
            pytest.param(noisy_sweep(1, "sinc", 0.93, 1.9e-5, False), 0.0078697083797, id="1-0.93-unweighted"),
            pytest.param(noisy_sweep(1, "sinc", 1.08, 1.9e-5, True), 19.630198555, id="1-1.08-weighted"),
            pytest.param(noisy_sweep(1, "sinc", 1.08, 1.9e-5, False), 0.0083182543670, id="1-1.08-unweighted"),
            pytest.param(noisy_sweep(44, "sinc", 1.08, 1.9e-5, False), 0.011665476529, id="44-1.08-unweighted"),
            pytest.param(noisy_sweep(29, "sinc", 0.93, 1.9e-5, True, 0.1), 36.154486209, id="29-0.93-weighted-noise0.1"),
            pytest.param(noisy_sweep(32, "sinc", 1.08, 1.9e-5, True, 0.1), 31.102798816, id="32-1.08-weighted-noise0.1"),
            pytest.param(noisy_sweep(44, "sinc", 0.93, 1.9e-5, False, 0.1), 0.15725702157, id="44-0.93-unweighted-noise0.1"),
            pytest.param(random_sweep(11757), 0.86401676054, id="random-11757"),
        ],
    )
    def test_reaches_the_lowest_profile_cost(self, sweep, lowest):
        # Sweeps that ended above the lowest profile cost while the fit took
        # |rho|, on the kinks and aliased wells of |sinc|: a side basin next
        # to the lowest one (seed 1), a kink in the bracket about the grid's
        # best (seed 44 at 0.02), the lowest cost about the coarse grid's
        # second lowest well (seeds 29, 32 and 44 at 0.1) and a minimum past
        # the edge of a refined window (random sweep 11757).
        fit = fit_model(sweep)
        cost, profile = sinc_cost_and_dense_minimum(sweep, fit)
        assert profile == pytest.approx(lowest, rel=1e-8)
        assert fit.converged
        assert cost <= profile * (1.0 + 1e-9)

    def test_gaussian_width_is_unbiased_at_the_benchmark_noise(self):
        # 300 sweeps on the benchmark's grid, 25 points over +-750 kHz, with
        # a flat noise of 0.05: a fit of |rho| rectified the noise into the
        # width, +1.2 % here, at 5.5 SE.
        truth = 2.41275  # FWHM tau of the window's own kernel
        detunings = np.linspace(-7.5e5, 7.5e5, 25)
        clean = model_prediction("gaussian", detunings, 0.943, 2.0 * GAUSSIAN_HALF_MAX_ARG * TAU / truth)
        errors = np.full(detunings.size, 0.05)
        rng = np.random.default_rng(0)
        widths = np.array([
            fit_model(DetuningSweep(detunings, clean + errors * rng.standard_normal(25), errors, WindowSpec("gaussian", TAU))).fwhm * TAU
            for _ in range(300)
        ])
        assert abs(widths.mean() - truth) <= 3.0 * widths.std(ddof=1) / math.sqrt(widths.size)

    def test_start_cost_does_not_grow_with_the_points(self, monkeypatch):
        # Count the trial scales at which the fit evaluates its model, on the
        # coarse grid and in the halvings about its wells, for sweeps of 25
        # and 2001 points. A refined grid about a well grew with the points.
        from twpacorr import linewidth

        counted = []

        def counting(evaluate):
            def wrapper(model, detunings, amplitude, scale_xi):
                counted.append(np.size(scale_xi))
                return evaluate(model, detunings, amplitude, scale_xi)

            return wrapper

        for name in ("model_prediction", "_model_jacobian"):
            monkeypatch.setattr(linewidth, name, counting(getattr(linewidth, name)))
        counts = {}
        for n in (25, 2001):
            counted.clear()
            fit_model(noisy_sweep(n, "sinc", 0.93, 1.9e-5, True, n_points=n))
            counts[n] = sum(counted)
        assert counts[2001] <= counts[25]

    def test_scale_on_its_lower_bound_is_not_converged(self):
        # A dip at zero detuning is best fitted by a flat model: no width resolved.
        detunings = np.linspace(-3e5, 3e5, 13)
        values = 0.5 + 0.2 * (detunings / 3e5) ** 2
        fit = fit_model(DetuningSweep(detunings, values, np.full(13, 0.01), WindowSpec("rectangular", TAU)))
        assert fit.scale_xi == MIN_SCALE / 3e5
        assert not fit.converged


class TestCompareWindows:
    def test_sinc_sidelobe_level_on_synthetic_data(self):
        detunings = np.linspace(-1.2e6, 1.2e6, 201)
        sweep = synthetic_sweep("sinc", detunings, 0.9, XI_RECT)
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
        for shape, model in (("rectangular", "sinc"), ("gaussian", "gaussian")):
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

    def test_failed_window_is_returned(self, monkeypatch):
        from twpacorr import linewidth

        band, acq = make_band(), make_acquisition(n_shots=300, seed=8)
        detunings = np.linspace(-0.2e6, 0.2e6, 5)
        windows = [WindowSpec("rectangular", 6e-6), WindowSpec("gaussian", 6e-6)]
        (expected,) = sweep_detuning(band, acq, detunings, windows=windows[:1])
        real_run, real_calibrate = linewidth.run_experiment, linewidth._best_rotation
        acquired, calibrations = [], []

        def run(*args, windows, **kwargs):
            acquired.append([window.shape for window in windows])
            return real_run(*args, windows=windows, **kwargs)

        def calibrate(cov):
            # Windows are calibrated in order: the gaussian one fails.
            calibrations.append(cov)
            if len(calibrations) == 2:
                raise ValueError("synthetic calibration failure")
            return real_calibrate(cov)

        monkeypatch.setattr(linewidth, "run_experiment", run)
        monkeypatch.setattr(linewidth, "_best_rotation", calibrate)
        rectangular, failed = sweep_detuning(band, acq, detunings, windows=windows)
        assert isinstance(failed, ValueError) and "synthetic" in str(failed)
        assert rectangular.alpha_star == expected.alpha_star
        assert np.array_equal(rectangular.rho_values, expected.rho_values)
        assert np.array_equal(rectangular.rho_errors, expected.rho_errors)
        # Every run acquires every window; the estimate is made after the runs.
        assert acquired == [["rectangular", "gaussian"]] * (detunings.size + 1)

        # Alone, a window gets what stopped it.
        def fail(cov):
            raise ValueError("synthetic calibration failure")

        monkeypatch.setattr(linewidth, "_best_rotation", fail)
        (alone,) = sweep_detuning(band, acq, detunings, windows=windows[:1])
        assert isinstance(alone, ValueError) and "synthetic" in str(alone)

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


#: The process that imported this module; a forked worker has another pid.
_PARENT = os.getpid()


# Stand-ins for the sweep's run_experiment. They are module-level, so a sweep
# task that carries them pickles them by name and every process that takes
# a run calls them.
def run_marking_its_process(detuning, band, config, stream, windows):
    # Shot 0 of the pump-on stage holds the taker's pid in X_s and the stream
    # in X_i; every other quadrature is 0. The inferred X variances are then
    # pid^2 / n + 1/4 and stream^2 / n + 1/4.
    if stream > 0 and os.getpid() == _PARENT:
        time.sleep(0.05)  # leaves runs to the workers
    on = np.zeros((config.n_shots, 4))
    on[0, 0], on[0, 2] = os.getpid(), stream
    return [ExperimentData(on=on, off=np.zeros_like(on)) for _ in windows]


def run_with_a_loud_background(*args, stream, windows, **kwargs):
    # Window 1's pump-off rows of the calibration run, scaled by 3: nine
    # times the vacuum's variance is taken off, so the inferred X variances
    # are negative.
    runs = run_experiment(*args, stream=stream, windows=windows, **kwargs)
    if stream == 0:
        runs[1] = ExperimentData(on=runs[1].on, off=3.0 * runs[1].off)
    return runs


def run_dying_in_a_worker(*args, stream, **kwargs):
    if stream > 0:
        if os.getpid() != _PARENT:
            os._exit(1)
        time.sleep(0.2)  # a worker takes a run meanwhile
    return run_experiment(*args, stream=stream, **kwargs)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sweeps stay in one process")
class TestSplitSweep:
    """The runs of a sweep, split over worker processes."""

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
        real_pearson, points = linewidth._pearson_with_jackknife, self.DETUNINGS.size
        calls = []

        def pearson_failing_gaussian(stack):
            # The windows are estimated in order, each over its points in
            # order: the gaussian one fails at points 2 and 5.
            window, point = divmod(len(calls), points)
            calls.append(stack)
            if window == 1 and point in (2, 5):
                raise ValueError(f"synthetic failure at point {point}")
            return real_pearson(stack)

        monkeypatch.setattr(linewidth, "_pearson_with_jackknife", pearson_failing_gaussian)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: count)
        with deadline(120):
            rectangular, failed = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS)
        assert len(workers._started) == count - 1
        assert isinstance(failed, ValueError) and str(failed) == "synthetic failure at point 2"
        self.assert_same_sweep(rectangular, expected)

    @pytest.mark.parametrize("count", [1, 3])
    def test_window_whose_calibration_fails_returns_its_error(self, workers, monkeypatch, count):
        from twpacorr import acquisition, linewidth

        expected = self.alone(monkeypatch)
        monkeypatch.setattr(linewidth, "run_experiment", run_with_a_loud_background)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: count)
        with deadline(120):
            rectangular, failed = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS)
        assert len(workers._started) == count - 1
        assert isinstance(failed, ValueError) and "positive definite" in str(failed)
        self.assert_same_sweep(rectangular, expected)

    def test_two_points_start_one_worker(self, workers, monkeypatch):
        from twpacorr import acquisition, linewidth
        from twpacorr.estimators import _best_rotation, _pearson_with_jackknife, _rotate_idler

        expected = self.alone(monkeypatch)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        n_shots, stacks = self.ACQ.n_shots, {}
        runs = np.array([0.0, self.DETUNINGS[0]])
        with deadline(120):
            workers.run(
                linewidth._measure_runs,
                (run_experiment, self.BAND, self.ACQ, runs, self.WINDOWS[:1]),
                2 * n_shots,
                stacks.__setitem__,
                chunk_size=n_shots,
            )
        # Two chunks, the calibration and one point: the task starts one worker, not two.
        assert len(workers._started) == 1
        assert sorted(stacks) == [0, n_shots]
        (calibration,), (point,) = stacks[0], stacks[n_shots]
        assert _best_rotation(calibration[0])[0] == expected.alpha_star
        rho = _pearson_with_jackknife(_rotate_idler(point, expected.alpha_star))
        assert rho == (expected.rho_values[0], expected.rho_errors[0])

    def test_workers_call_the_stand_ins_the_task_carries(self, workers, monkeypatch):
        from twpacorr import acquisition, linewidth

        # Workers started before the stand-in is set hold the package's functions.
        workers._connections(2)
        pool = {process.pid for process, _ in workers._started}
        real_rotate, seen = linewidth._rotate_idler, []

        def rotate_noting_the_stack(stack, angle):
            # Called in this process for each point's stack, in order.
            seen.append(stack[0])
            return real_rotate(stack, angle)

        monkeypatch.setattr(linewidth, "run_experiment", run_marking_its_process)
        monkeypatch.setattr(linewidth, "_rotate_idler", rotate_noting_the_stack)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        with deadline(120):
            (sweep,) = sweep_detuning(self.BAND, self.ACQ, self.DETUNINGS, windows=self.WINDOWS[:1])
        assert isinstance(sweep, DetuningSweep)
        n_shots = self.ACQ.n_shots
        takers, streams = (
            np.rint(np.sqrt((np.array([cov[i, i] for cov in seen]) - 0.25) * n_shots)).astype(int).tolist()
            for i in (0, 2)
        )
        assert streams == list(range(1, self.DETUNINGS.size + 1))
        assert set(takers) <= pool | {os.getpid()}
        assert set(takers) & pool, "no worker took a point"

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
        # The runs stay here, in order, and each run still splits its shots:
        # the split rule is asked for the calibration and the points, then each run.
        assert streams == list(range(self.DETUNINGS.size + 1))
        n_shots, runs = self.ACQ.n_shots, self.DETUNINGS.size + 1
        assert asked == [runs * n_shots] + [n_shots] * runs
        # A run's 300 shots are two chunks, which one worker shares.
        assert len(workers._started) == 1
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
