"""Tests for trace synthesis, windowing and IQ demodulation."""

import contextlib
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

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
from twpacorr import acquisition
from twpacorr.acquisition import (
    _CHUNK_SHOTS,
    _MIN_SHOTS_PER_PROCESS,
    GAUSSIAN_FLOOR,
    MAX_BINS,
    MAX_SHOTS,
    SAMPLES_PER_WINDOW,
    _StreamCursor,
)

from conftest import (
    deadline,
    gaussian_standard_errors,
    make_acquisition,
    make_band,
    overlap_kernel,
    source_env,
)
from test_cli import write_config


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

    def test_shot_rng_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="^stage"):
            shot_rng(1, 0, "pump")

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


def philox(seed: int, shot: int, code: int, stream: int) -> np.random.Generator:
    """A new generator on the substream whose counter words are (0, shot, stage code, stream)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, shot, code, stream]))


class TestStreams:
    def test_cursor_matches_fresh_generators(self):
        # Stage codes: pump_on 1, pump_off 2.
        cursor = _StreamCursor(20260401)
        for shot, stage, code, stream in ((0, "pump_on", 1, 0), (7, "pump_off", 2, 3), (123, "pump_on", 1, 1)):
            expected = philox(20260401, shot, code, stream).standard_normal(16)
            np.testing.assert_array_equal(cursor.seek(shot, stage, stream).standard_normal(16), expected)
            np.testing.assert_array_equal(shot_rng(20260401, shot, stage, stream).standard_normal(16), expected)

    def test_seek_clears_buffered_state(self):
        cursor = _StreamCursor(99)
        # Three 32-bit draws leave half of a 64-bit output and the rest of a
        # Philox block buffered.
        cursor.seek(4, "pump_on", 1).integers(0, 2**32, size=3, dtype=np.uint32)
        got = cursor.seek(4, "pump_on", 1)
        expected = philox(99, 4, 1, 1)
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
        (first,) = run_experiment(0.0, band, acq)
        (second,) = run_experiment(0.0, band, acq)
        assert np.array_equal(first.on, second.on)
        assert np.array_equal(first.off, second.off)

    def test_matches_per_shot_operations(self):
        # The batched runner must reproduce what the public per-shot ops give.
        band = make_band()
        window = WindowSpec("gaussian", 6e-6)
        acq = make_acquisition(window=window, n_shots=5, seed=77)
        (data,) = run_experiment(0.0, band, acq)
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
        (data,) = run_experiment(detuning, band, acq, stream=2)

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
        se = gaussian_standard_errors(est, ideal_experiment.off.shape[0])
        assert np.all(np.abs(np.diag(est) - 0.25) <= 3.0 * np.diag(se))
        off_diagonal = ~np.eye(4, dtype=bool)
        assert np.all(np.abs(est[off_diagonal]) <= 3.0 * se[off_diagonal])

    def test_unit_gain_pump_matches_off_stage(self):
        band = make_band(twpa=TwpaParams(1.0, 1.0, 0.0))
        acq = make_acquisition(n_shots=3000, seed=91)
        (data,) = run_experiment(0.0, band, acq)
        on = estimate_covariance(data.on)
        off = estimate_covariance(data.off)
        se_on, se_off = gaussian_standard_errors(on, 3000), gaussian_standard_errors(off, 3000)
        tol = 3.0 * np.sqrt(se_on**2 + se_off**2)
        assert np.all(np.abs(on - off) <= tol)

    def test_added_noise_raises_both_stages_equally(self):
        band = make_band()
        noisy = make_acquisition(n_shots=4000, seed=13, added_noise=8.0)
        (data,) = run_experiment(0.0, band, noisy)
        off = estimate_covariance(data.off)
        # OFF variance should sit at vacuum + noise quanta (chain gain 1).
        expected = 0.25 + 8.0 / 4.0
        se = gaussian_standard_errors(off, 4000)
        assert np.all(np.abs(np.diag(off) - expected) <= 3.0 * np.diag(se))

    def test_refinement_invariance(self):
        # Halving the bin spacing must not move the demodulated covariance
        # beyond the combined Monte-Carlo error.
        acq = make_acquisition(n_shots=10_000, seed=101)
        (coarse,) = run_experiment(0.0, make_band(spacing=60e3), acq)
        (fine,) = run_experiment(0.0, make_band(spacing=30e3), acq)
        est_coarse = estimate_covariance(coarse.on)
        est_fine = estimate_covariance(fine.on)
        se_coarse = gaussian_standard_errors(est_coarse, 10_000)
        se_fine = gaussian_standard_errors(est_fine, 10_000)
        tol = 3.0 * np.sqrt(se_coarse**2 + se_fine**2)
        assert np.all(np.abs(est_coarse - est_fine) <= tol)


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
            (data,) = run_experiment(detuning, band, acq, stream=k)
            est = estimate_covariance(data.on)
            covariances[k] = est[0, 2]
            errors[k] = gaussian_standard_errors(est, 10_000)[0, 2]
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
        assert make_acquisition(n_shots=MAX_SHOTS).n_shots == MAX_SHOTS
        with pytest.raises(ValueError, match="^n_shots"):
            make_acquisition(n_shots=MAX_SHOTS + 1)
        with pytest.raises(ValueError):
            make_acquisition(chain_gain=0.0)
        with pytest.raises(ValueError):
            make_acquisition(added_noise=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lo_phase_signal", math.nan),
            ("lo_phase_idler", -math.inf),
            ("chain_gain_signal", math.inf),
            ("chain_gain_idler", math.inf),
            ("added_noise_quanta", math.inf),
            ("added_noise_quanta", math.nan),
            ("gain_signal", math.inf),
            ("gain_idler", math.inf),
            ("phase_mismatch", math.nan),
            ("phase_mismatch", math.inf),
            ("tau", math.inf),
        ],
    )
    def test_rejects_non_finite_numbers(self, field, value):
        valid = (make_acquisition(), TwpaParams(2.0, 2.0), WindowSpec("gaussian", 6e-6))
        owner = next(instance for instance in valid if hasattr(instance, field))
        # Each message begins with the field, which config._checked names.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            replace(owner, **{field: value})


def exited(pid: int) -> bool:
    """Whether process ``pid`` has ended: gone, or a zombie left for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@contextlib.contextmanager
def busy_thread():
    """A thread that holds a lock and multiplies matrices until the block ends.

    Yields the lock; on leaving, the thread must finish within 10 s.
    """
    lock, holding, stop = threading.Lock(), threading.Event(), threading.Event()

    def multiply():
        matrix = np.random.default_rng(5).standard_normal((200, 200))
        with lock:
            holding.set()
            while not stop.is_set():
                matrix = matrix @ matrix.T
                matrix /= np.linalg.norm(matrix)

    thread = threading.Thread(target=multiply, daemon=True)
    thread.start()
    try:
        assert holding.wait(10)
        yield lock
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


#: Starts two acquisition processes, prints the worker's pid, then acquires
#: until it is killed.
ACQUIRE_FOREVER = """
from twpacorr import AcquisitionConfig, WindowSpec, acquisition, run_experiment
from twpacorr import EmissionBandModel, TwpaParams

acquisition._process_count = lambda n_shots: 2
band = EmissionBandModel(TwpaParams(2.0, 2.0, 0.0), 2.7e6, 60e3)
config = AcquisitionConfig(WindowSpec("rectangular", 6e-6), 20000, 1)
run_experiment(0.0, band, config)
print(*(process.pid for process, _ in acquisition._WORKERS._started), flush=True)
while True:
    run_experiment(0.0, band, config)
"""


def experiment_chunks(band, config, n_items, starts):
    """Chunk function: the run on stream k for each start k, acquired by the process that takes it.

    Each result carries that process's pid and the pids of its live children.
    """
    import multiprocessing

    for first in starts:
        (data,) = run_experiment(0.1e6, band, config, stream=first)
        children = sorted(process.pid for process in multiprocessing.active_children())
        yield first, (os.getpid(), children, data)


def calling_chunks(function, n_items, starts):
    """Chunk function: ``function(start)`` and the pid of the process that called it, for each start."""
    for first in starts:
        yield first, (os.getpid(), function(first))


def refusing_chunks(parent, n_items, starts):
    """Chunk function that refuses every chunk taken by a process other than ``parent``."""
    for first in starts:
        if os.getpid() != parent:
            raise LookupError(f"chunk {first} refused in a worker")
        time.sleep(0.05)
        yield first, first


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs stay in one process")
class TestWorkers:
    def test_split_run_equals_one_process_byte_for_byte(self, workers, monkeypatch):
        # 1025 shots over three processes: five chunks, the last of one shot.
        band = make_band()
        acq = AcquisitionConfig(
            window=WindowSpec("gaussian", 6e-6),
            n_shots=4 * _CHUNK_SHOTS + 1,
            seed=2024,
            lo_phase_signal=0.4,
            lo_phase_idler=-1.1,
            chain_gain_signal=4.0,
            chain_gain_idler=0.25,
            added_noise_quanta=3.0,
        )
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 1)
        (serial,) = run_experiment(0.3e6, band, acq, stream=2)
        assert not workers._started
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 3)
        # The second run reuses the workers that the first started.
        for _ in range(2):
            with deadline(60):
                (split,) = run_experiment(0.3e6, band, acq, stream=2)
            assert len(workers._started) == 2
            assert np.array_equal(split.on, serial.on)
            assert np.array_equal(split.off, serial.off)

    def test_windows_of_one_run_equal_one_run_per_window_byte_for_byte(self, workers, monkeypatch):
        # Three windows demodulate one set of draws, split over three processes.
        band = make_band(halfwidth=4e6, spacing=80e3)
        acq = AcquisitionConfig(
            window=WindowSpec("gaussian", 4e-6),
            n_shots=4 * _CHUNK_SHOTS + 1,
            seed=2024,
            lo_phase_signal=0.4,
            lo_phase_idler=-1.1,
            chain_gain_signal=4.0,
            chain_gain_idler=0.25,
            added_noise_quanta=3.0,
        )
        windows = [
            WindowSpec("rectangular", 6e-6),
            WindowSpec("gaussian", 6e-6),
            WindowSpec("rectangular", 3e-6),
        ]
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 1)
        alone = [run_experiment(0.3e6, band, replace(acq, window=window), stream=2)[0] for window in windows]
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 3)
        with deadline(60):
            joint = run_experiment(0.3e6, band, acq, stream=2, windows=windows)
        assert len(workers._started) == 2
        assert len(joint) == len(windows)
        for one, data in zip(alone, joint):
            assert np.array_equal(data.on, one.on)
            assert np.array_equal(data.off, one.off)

    def test_run_inside_a_chunk_stays_in_its_process(self, workers, monkeypatch):
        # Each chunk acquires a run that would be split over three processes
        # on its own; inside a task it runs where the chunk runs.
        band = make_band()
        acq = make_acquisition(n_shots=2 * _MIN_SHOTS_PER_PROCESS, added_noise=1.0)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 1)
        expected = [run_experiment(0.1e6, band, acq, stream=k)[0] for k in range(6)]
        assert not workers._started
        import multiprocessing

        # Children of this process from before the test, such as another pool's workers.
        others = {process.pid for process in multiprocessing.active_children()}
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        results = {}
        takers = set()
        # The second task finds the workers that the first started waiting.
        for _ in range(2):
            results.clear()
            with deadline(120):
                workers.run(experiment_chunks, (band, acq), 6, results.__setitem__, chunk_size=1)
            pool = sorted(process.pid for process, _ in workers._started)
            assert len(pool) == 2
            assert sorted(results) == list(range(6))
            for k, (pid, children, data) in results.items():
                takers.add(pid)
                # A worker starts no process; this one has its pool's alone.
                if pid == os.getpid():
                    assert set(children) <= others | set(pool), k
                else:
                    assert children == [], k
                assert np.array_equal(data.on, expected[k].on), k
                assert np.array_equal(data.off, expected[k].off), k
        assert takers - {os.getpid()}, "no worker took a chunk"
        # The pool still serves a split run.
        with deadline(60):
            (split,) = run_experiment(0.1e6, band, acq, stream=4)
        assert sorted(process.pid for process, _ in workers._started) == pool
        assert np.array_equal(split.on, expected[4].on)
        assert np.array_equal(split.off, expected[4].off)

    def test_error_raised_in_a_worker_reaches_the_caller(self, workers, monkeypatch):
        band, acq = make_band(), make_acquisition(n_shots=2 * _MIN_SHOTS_PER_PROCESS)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 1)
        (expected,) = run_experiment(0.0, band, acq)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        workers._connections(2)
        with deadline(60), pytest.raises(LookupError, match="refused in a worker"):
            workers.run(refusing_chunks, (os.getpid(),), 8, lambda first, result: None, chunk_size=1)
        assert not workers._started
        # The next run starts new workers.
        with deadline(60):
            (again,) = run_experiment(0.0, band, acq)
        assert len(workers._started) == 2
        assert np.array_equal(again.on, expected.on)
        assert np.array_equal(again.off, expected.off)

    def test_task_that_cannot_be_pickled_runs_in_this_process(self, workers, monkeypatch):
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        results = {}
        with deadline(60):
            workers.run(calling_chunks, (lambda first: -first,), 6, results.__setitem__, chunk_size=1)
        assert results == {k: (os.getpid(), -k) for k in range(6)}
        assert not workers._started
        # With a function pickled by name, the same task is split.
        with deadline(60):
            workers.run(calling_chunks, (abs,), 6, results.__setitem__, chunk_size=1)
        assert len(workers._started) == 2
        assert {k: value for k, (_, value) in results.items()} == {k: k for k in range(6)}

    def test_split_task_freezes_the_heap_before_the_fork(self, workers, monkeypatch):
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        gc.unfreeze()
        results = {}
        with deadline(60):
            workers.run(calling_chunks, (abs,), 6, results.__setitem__, chunk_size=1)
        assert len(workers._started) == 2
        assert gc.get_freeze_count() > 0

    def test_no_windows_acquire_nothing(self, workers):
        assert run_experiment(0.0, make_band(), make_acquisition(), windows=[]) == []
        assert not workers._started

    def test_threaded_caller_starts_no_worker(self, workers, monkeypatch):
        # Forked under a thread that is inside a multithreaded BLAS product,
        # that thread could hang for good; the run stays in this process.
        band = make_band()
        acq = make_acquisition(n_shots=4 * _MIN_SHOTS_PER_PROCESS + 3, added_noise=2.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (serial,) = run_experiment(0.1e6, band, acq, stream=3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with busy_thread() as lock, deadline(60):
            (split,) = run_experiment(0.1e6, band, acq, stream=3)
            assert lock.locked()
        assert not workers._started
        assert np.array_equal(split.on, serial.on)
        assert np.array_equal(split.off, serial.off)

    def test_workers_started_before_a_thread_stay_idle(self, workers, monkeypatch):
        band = make_band()
        acq = make_acquisition(n_shots=4 * _MIN_SHOTS_PER_PROCESS + 3, added_noise=2.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (serial,) = run_experiment(0.1e6, band, acq, stream=3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with deadline(60):
            run_experiment(0.1e6, band, acq, stream=3)
        pids = [process.pid for process, _ in workers._started]
        assert len(pids) == 2
        workers._next_chunk.value = 0
        with busy_thread(), deadline(60):
            (during,) = run_experiment(0.1e6, band, acq, stream=3)
        # The run stayed in this process: no chunk was taken from the shared counter.
        assert workers._next_chunk.value == 0
        assert [process.pid for process, _ in workers._started] == pids
        assert np.array_equal(during.on, serial.on)
        assert np.array_equal(during.off, serial.off)

    @pytest.mark.parametrize(
        "n_shots, cpus, threads",
        [
            (2 * _MIN_SHOTS_PER_PROCESS - 1, 8, 1),
            (4 * _MIN_SHOTS_PER_PROCESS, 1, 1),
            (4 * _MIN_SHOTS_PER_PROCESS, 8, 2),  # a caller that is not the one thread
        ],
    )
    def test_small_run_or_one_cpu_starts_no_worker(self, workers, monkeypatch, n_shots, cpus, threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(threading, "active_count", lambda: threads)
        assert acquisition._process_count(n_shots) == 1
        run_experiment(0.0, make_band(), make_acquisition(n_shots=n_shots))
        assert not workers._started
        assert acquisition._process_count(2 * _MIN_SHOTS_PER_PROCESS) == (min(cpus, 2) if threads == 1 else 1)

    def test_slow_worker_leaves_its_chunks_to_the_others(self, workers, monkeypatch):
        serve = acquisition._serve

        def slow(*args):
            # By the time a worker asks, the parent has taken every chunk.
            time.sleep(0.5)
            serve(*args)

        band, acq = make_band(), make_acquisition(n_shots=4 * _MIN_SHOTS_PER_PROCESS + 3)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 1)
        (serial,) = run_experiment(0.2e6, band, acq, stream=4)
        monkeypatch.setattr(acquisition, "_serve", slow)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 3)
        with deadline(60):
            (split,) = run_experiment(0.2e6, band, acq, stream=4)
        assert np.array_equal(split.on, serial.on)
        assert np.array_equal(split.off, serial.off)

    def test_dead_worker_makes_the_run_raise(self, workers, monkeypatch):
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 2)
        band, acq = make_band(), make_acquisition(n_shots=2 * _MIN_SHOTS_PER_PROCESS)
        with deadline(60):
            (expected,) = run_experiment(0.0, band, acq)
            ((process, _),) = workers._started
            process.kill()
            process.join(timeout=5)
            assert not process.is_alive()
            with pytest.raises(RuntimeError, match="worker"):
                run_experiment(0.0, band, acq)
            assert not workers._started
            # The next run starts a new worker.
            (again,) = run_experiment(0.0, band, acq)
        assert np.array_equal(again.on, expected.on)
        assert np.array_equal(again.off, expected.off)

    def test_worker_dying_mid_task_makes_the_run_raise(self, workers, monkeypatch):
        def die(connection, *inherited):
            connection.recv()
            os._exit(1)

        monkeypatch.setattr(acquisition, "_serve", die)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_shots: 2)
        with deadline(60), pytest.raises(RuntimeError, match="worker"):
            run_experiment(0.0, make_band(), make_acquisition(n_shots=2 * _MIN_SHOTS_PER_PROCESS))
        assert not workers._started

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU starts no worker")
    def test_no_worker_outlives_its_command(self, tmp_path):
        config = write_config(tmp_path, {"acquisition.n_shots": 4 * _MIN_SHOTS_PER_PROCESS})
        command = subprocess.Popen(
            [sys.executable, "-m", "twpacorr.cli", "simulate", "--config", str(config), "--out", str(tmp_path / "out")],
            env=source_env(),
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            assert command.wait(timeout=120) == 0
            # The command led its own process group; nothing of it is left.
            with pytest.raises(ProcessLookupError):
                os.killpg(command.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(command.pid, signal.SIGKILL)
            command.wait()

    def test_worker_exits_when_its_parent_is_killed(self):
        parent = subprocess.Popen(
            [sys.executable, "-c", ACQUIRE_FOREVER],
            env=source_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 1
            time.sleep(0.3)  # into a later run's acquisition
            assert not exited(pids[0])
            parent.kill()
            parent.wait(timeout=10)
            give_up = time.monotonic() + 5.0
            while not exited(pids[0]) and time.monotonic() < give_up:
                time.sleep(0.05)
            assert exited(pids[0])
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(parent.pid, signal.SIGKILL)
            parent.wait()
            parent.stdout.close()
