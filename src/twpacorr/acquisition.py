"""Time-domain synthesis of the two-mode correlation experiment.

The amplifier's broadband emission is modeled as a comb of independent
frequency-bin pairs placed symmetrically about the pump: the bin at
``f_pump + delta`` and its mirror at ``f_pump - delta`` share one two-mode
squeezed sample, while pump-off stages replace every bin with vacuum. Each
acquisition channel (signal/idler) accumulates its bins into a complex
baseband trace relative to its demodulation frequency, so digital IQ
demodulation reduces to a window-weighted integral with an LO phase factor.
At baseband the absolute frequencies drop out: the only frequency the
simulation reads is the detuning, ``2 f_pump - f_signal - f_idler`` in Hz,
which shifts the signal channel's bins against the idler's. The pump and
demodulation frequencies are checked where the configuration is read.

Synthesis and demodulation are linear in a shot's standard-normal draws, so
``run_experiment`` folds them, with the chain gains and the LO phases, into
one real matrix per stage and maps each shot's draws to its four quadratures
with one matrix product. The window is a processing choice, as in the lab,
where one digitized record is demodulated through each window:
``run_experiment`` returns one result per window it is given, all
demodulated from the same draws, which are made once. The detection
chain's added noise is added after
demodulation, where it is measured: four more normals per shot and stage,
one per quadrature. ``synthesize_baseband_pair`` forms the traces
themselves, for any number of shots from one synthesis kernel; with
``demodulate`` it is the per-shot reference for that map, and
``simulate --dump-traces`` writes its traces out, drawn from the
substreams of the acquired pump-on shots.

Conventions baked in here:

* Every window is sampled the same way, by ``WindowSpec.samples``:
  ``SAMPLES_PER_WINDOW`` = 100 samples at the midpoints of [0, tau), at
  ``(k + 0.5) / rate`` with ``rate = SAMPLES_PER_WINDOW / tau`` and
  ``dt = 1 / rate``. Every trace has that many samples, and demodulation
  is the midpoint rule on that grid.
* The synthesis phase reference is the window center, which makes the
  detuning kernel of a symmetric window purely real (a start-referenced
  phase would tilt it by a linear spectral phase and shift the kernel zeros).
* Bin amplitudes carry ``sqrt(bin_spacing)`` so band statistics are invariant
  under bin refinement, times a window calibration factor chosen so that the
  windowed-mean demodulation below returns exactly vacuum variance 1/4 per
  quadrature for pump-off input.
* Every (shot, stage) pair draws from its own counter-derived Philox
  substream, so results are bit-reproducible and independent of scheduling.
  ``run_experiment`` splits a run's shots over the CPUs in the process's
  affinity, in forked worker processes, when its caller is the process's
  one Python thread (``_process_count``). Its bytes do not depend on the split.
  The same pool and split rule serve any task of items taken a chunk at a
  time (``_Workers.run``): the shots of a run, the shots of the points of a
  detuning sweep, one point per chunk, or the rows or dumped traces of a CSV
  table. A chunk carries its items to the small result the caller keeps; a
  task run from inside a chunk of a split task stays in the process that
  runs the chunk, and a task that cannot be pickled stays in the caller's.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import TwpaParams, tmsvs_covariance

#: Floor constant of the gaussian acquisition envelope. Forcing
#: E(0) = E(tau) = 0 and E(tau/2) = 1 on
#: E(t) = (1 + beta) exp(-2 (2 t / tau - 1)^2) - beta pins
#: beta = e^-2 / (1 - e^-2).
GAUSSIAN_FLOOR = math.exp(-2.0) / (1.0 - math.exp(-2.0))

WINDOW_SHAPES = ("rectangular", "gaussian")

#: Trace samples per acquisition window, whatever its shape and tau.
SAMPLES_PER_WINDOW = 100

#: Half-width of the window kernel support assumed when checking that the
#: emission band covers a demodulation offset, as a multiple of 1/tau.
KERNEL_MARGIN_CYCLES = 10.0

_STAGE_CODES = {"pump_on": 1, "pump_off": 2}

#: Fewest shots per stage: every leave-one-block-out jackknife subsample
#: then keeps at least two, enough for a sample covariance.
MIN_SHOTS = 3

#: Seeds key a Philox generator, whose key is 128 bits wide.
MAX_SEED = 2**128

#: Most shots one experiment may acquire: its quadratures alone take
#: 64 bytes per shot, 6.4 GB at this bound.
MAX_SHOTS = 10**8

#: Most comb bins one band may hold; each bin costs two rows of
#: SAMPLES_PER_WINDOW complex phases in every synthesis kernel.
MAX_BINS = 10_000

# Every ValueError that the dataclasses below and validate_for raise begins
# with the name of the field or argument it refuses, so the config can name
# the dotted path of what was refused.


@dataclass(frozen=True)
class WindowSpec:
    """Acquisition window: shape plus acquisition time ``tau`` in seconds."""

    shape: str
    tau: float

    def __post_init__(self) -> None:
        if self.shape not in WINDOW_SHAPES:
            raise ValueError(f"shape must be one of {WINDOW_SHAPES}, got {self.shape!r}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    def envelope(self, times: np.ndarray) -> np.ndarray:
        """Envelope E(t) for ``times`` measured from the window start, in [0, tau]."""
        times = np.asarray(times, dtype=float)
        if self.shape == "rectangular":
            return np.ones_like(times)
        u = 2.0 * times / self.tau - 1.0
        return (1.0 + GAUSSIAN_FLOOR) * np.exp(-2.0 * u * u) - GAUSSIAN_FLOOR

    def samples(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The sampled window: midpoint times, E(t) at them, dt and int E = sum E dt.

        The ``SAMPLES_PER_WINDOW`` times are measured from the window start.
        A trace demodulates to ``sum(trace * E) * dt * exp(-i lo_phase) / int E``.
        """
        rate = SAMPLES_PER_WINDOW / self.tau
        times = (np.arange(SAMPLES_PER_WINDOW) + 0.5) / rate
        envelope = self.envelope(times)
        dt = 1.0 / rate
        return times, envelope, dt, float(np.sum(envelope) * dt)


@dataclass(frozen=True)
class EmissionBandModel:
    """Discretized broadband emission: uniform-gain bins around each channel.

    ``band_halfwidth`` is the half-width of the simulated band around each
    demodulation frequency and ``bin_spacing`` the comb pitch; every
    symmetric bin pair shares ``per_bin_params`` (flat-gain approximation).
    """

    per_bin_params: TwpaParams
    band_halfwidth: float
    bin_spacing: float

    def __post_init__(self) -> None:
        if not self.band_halfwidth > 0.0:
            raise ValueError(f"band_halfwidth must be positive, got {self.band_halfwidth}")
        if not 0.0 < self.bin_spacing <= self.band_halfwidth:
            raise ValueError(f"bin_spacing must lie in (0, band_halfwidth], got {self.bin_spacing}")
        # round(ratio) > MAX_BINS, tested before rounding: the ratio can overflow to inf.
        ratio = 2.0 * self.band_halfwidth / self.bin_spacing
        if ratio > MAX_BINS + 0.5:
            raise ValueError(
                f"band_halfwidth {self.band_halfwidth:.6g} Hz holds {ratio:.6g} bins of "
                f"{self.bin_spacing:.6g} Hz, more than the {MAX_BINS} allowed"
            )

    @property
    def n_bins(self) -> int:
        return round(2.0 * self.band_halfwidth / self.bin_spacing)

    def offsets(self) -> np.ndarray:
        """Bin-center offsets from the idler demodulation frequency."""
        return -self.band_halfwidth + (np.arange(self.n_bins) + 0.5) * self.bin_spacing

    def validate_for(self, tau: float, detuning: float = 0.0) -> None:
        """Check that the comb stands for the continuum in one acquisition.

        The bins must be fine against 1/tau, and the band must cover the
        window kernel, KERNEL_MARGIN_CYCLES / tau wide, around ``detuning``.
        """
        margin = KERNEL_MARGIN_CYCLES / tau
        if self.bin_spacing > 1.0 / (2.0 * tau):
            raise ValueError(
                f"tau {tau:.3g} s is too long for bin_spacing {self.bin_spacing:.6g} Hz "
                f"(needs bin_spacing <= {1.0 / (2.0 * tau):.6g} Hz)"
            )
        if self.band_halfwidth < margin:
            raise ValueError(
                f"tau {tau:.3g} s is too short for band_halfwidth {self.band_halfwidth:.6g} Hz "
                f"(needs band_halfwidth >= {margin:.6g} Hz)"
            )
        if abs(detuning) > self.band_halfwidth - margin:
            raise ValueError(
                f"detuning {detuning:.6g} Hz is not covered by the emission band: "
                f"band_halfwidth {self.band_halfwidth:.6g} Hz covers "
                f"+/-{self.band_halfwidth - margin:.6g} Hz at tau {tau:.3g} s"
            )


@dataclass(frozen=True)
class AcquisitionConfig:
    """Per-shot acquisition settings shared by the ON and OFF stages."""

    window: WindowSpec
    n_shots: int
    seed: int
    lo_phase_signal: float = 0.0
    lo_phase_idler: float = 0.0
    chain_gain_signal: float = 1.0
    chain_gain_idler: float = 1.0
    added_noise_quanta: float = 0.0

    def __post_init__(self) -> None:
        if not MIN_SHOTS <= self.n_shots <= MAX_SHOTS:
            raise ValueError(f"n_shots must lie in [{MIN_SHOTS}, {MAX_SHOTS}], got {self.n_shots}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        for name in ("lo_phase_signal", "lo_phase_idler"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("chain_gain_signal", "chain_gain_idler"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.added_noise_quanta < math.inf:
            raise ValueError(
                f"added_noise_quanta must be finite and >= 0, got {self.added_noise_quanta}"
            )

    @property
    def sample_rate(self) -> float:
        """Trace sample rate in Hz: ``SAMPLES_PER_WINDOW`` samples per window."""
        return SAMPLES_PER_WINDOW / self.window.tau


@dataclass(frozen=True)
class ExperimentData:
    """Demodulated quadratures for every shot of a pump-on/off experiment.

    ``on`` and ``off`` are (n_shots, 4) arrays in the column order
    (X_s, P_s, X_i, P_i); row k of each holds shot k of that stage.
    """

    on: np.ndarray
    off: np.ndarray


def _stage_code(stage: str) -> int:
    """The Philox counter word of ``stage``, which must be 'pump_on' or 'pump_off'."""
    try:
        return _STAGE_CODES[stage]
    except KeyError:
        raise ValueError(f"stage must be 'pump_on' or 'pump_off', got {stage!r}") from None


def shot_rng(seed: int, shot_index: int, stage: str, stream: int = 0) -> np.random.Generator:
    """Counter-derived random substream for one (shot, stage) of one experiment.

    The Philox counter words are (0, shot, stage, stream) under a key set by
    the master seed, so any scheduling of shots draws identical numbers, and
    distinct experiments of a sweep use distinct ``stream`` values.
    """
    return _StreamCursor(seed).seek(shot_index, stage, stream)


class _StreamCursor:
    """Reusable generator that jumps between counter-derived substreams.

    Writing the Philox state in place sidesteps the entropy pull of a new
    bit generator per substream; ``seek`` is the one place that writes a
    counter, (0, shot, stage, stream). The state mapping is built once: a
    seek rewrites its counter words and clears any buffered output, then
    hands it to the bit generator.
    """

    def __init__(self, seed: int) -> None:
        self._bit_generator = np.random.Philox(key=seed)
        self.generator = np.random.Generator(self._bit_generator)
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {
                "counter": self._counter,
                "key": [seed & 0xFFFFFFFFFFFFFFFF, seed >> 64],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, shot_index: int, stage: str, stream: int) -> np.random.Generator:
        counter = self._counter
        counter[1] = shot_index
        counter[2] = _stage_code(stage)
        counter[3] = stream
        self._bit_generator.state = self._state
        return self.generator


def _complex_rows(coefficients: np.ndarray) -> np.ndarray:
    """(n, 2, 2) real blocks mapping the row (Re u, Im u) to (Re, Im) of ``c u``."""
    re, im = coefficients.real, coefficients.imag
    return np.stack([np.stack([re, im], axis=-1), np.stack([-im, re], axis=-1)], axis=-2)


class _SynthesisKernel:
    """Precomputed geometry shared by every shot of one experiment."""

    def __init__(
        self,
        band: EmissionBandModel,
        detuning: float,
        window: WindowSpec,
    ) -> None:
        tau = window.tau
        band.validate_for(tau, detuning)
        times, self.envelope, self.dt, self.norm = window.samples()
        power = float(np.sum(self.envelope**2) * self.dt)

        offsets = band.offsets()
        # Phase evolution is referenced to the window center; bins beat at
        # their offset from each channel's demodulation frequency.
        centered = times - tau / 2.0
        self.phases_signal = np.exp(2j * np.pi * np.outer(detuning - offsets, centered))
        self.phases_idler = np.exp(2j * np.pi * np.outer(offsets, centered))
        self.n_bins = offsets.size
        # sqrt(bin_spacing) keeps band statistics invariant under refinement;
        # norm/sqrt(power) calibrates the windowed-mean demodulation so that
        # pump-off input lands exactly at vacuum variance 1/4 per quadrature.
        self.amplitude_scale = math.sqrt(band.bin_spacing) * self.norm / math.sqrt(power)
        self.cholesky_on = np.linalg.cholesky(tmsvs_covariance(band.per_bin_params))
        self.cholesky_off = 0.5 * np.eye(4)

    def traces(self, draws: np.ndarray, stage: str) -> tuple[np.ndarray, np.ndarray]:
        """Complex (signal, idler) traces of a (..., n_bins, 4) stack of bin draws.

        The stage's Cholesky factor mixes each bin pair's four draws into its
        quadratures; the traces have shape (..., SAMPLES_PER_WINDOW).
        """
        factor = self.cholesky_on if stage == "pump_on" else self.cholesky_off
        quads = draws @ factor.T
        amp_signal = (quads[..., 0] + 1j * quads[..., 1]) * self.amplitude_scale
        amp_idler = (quads[..., 2] + 1j * quads[..., 3]) * self.amplitude_scale
        return amp_signal @ self.phases_signal, amp_idler @ self.phases_idler

    def linear_map(self, stage: str, config: AcquisitionConfig) -> np.ndarray:
        """Real W with one shot's (X_s, P_s, X_i, P_i) = its draws @ W.

        The rows follow the draw order of one (shot, stage) substream: four
        per bin pair, which the stage's Cholesky factor mixes, then, with
        added noise, one per quadrature (X_s, P_s, X_i, P_i): the noise is
        added after demodulation, with variance
        ``chain_gain * added_noise_quanta / 4`` per quadrature. The shape is
        (4 n_bins, 4), or (4 n_bins + 4, 4) with noise.
        """
        factor = self.cholesky_on if stage == "pump_on" else self.cholesky_off
        bins = np.zeros((self.n_bins, 4, 4))
        channels = (
            (self.phases_signal, config.lo_phase_signal, config.chain_gain_signal),
            (self.phases_idler, config.lo_phase_idler, config.chain_gain_idler),
        )
        for index, (phases, lo_phase, chain_gain) in enumerate(channels):
            columns = slice(2 * index, 2 * index + 2)
            weights = self.envelope * self.dt * np.exp(-1j * lo_phase) / self.norm
            # Bin b reaches the demodulated channel through sum_t phases[b, t] weights[t].
            gain = self.amplitude_scale * math.sqrt(chain_gain)
            bins[:, columns, columns] = _complex_rows(gain * (phases @ weights))
        # Bin rows act on the draws before the Cholesky mix: W_b = L^T M_b.
        rows = (factor.T @ bins).reshape(-1, 4)
        if config.added_noise_quanta == 0.0:
            return rows
        gains = np.repeat([config.chain_gain_signal, config.chain_gain_idler], 2)
        return np.concatenate([rows, np.diag(np.sqrt(gains * config.added_noise_quanta / 4.0))])


def synthesize_baseband_pair(
    band: EmissionBandModel,
    detuning: float,
    window: WindowSpec,
    stage: str,
    rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Complex baseband (signal, idler) traces, one shot per generator in ``rngs``.

    ``detuning`` (Hz) is the only frequency read. Returns two
    (n_shots, n_samples) arrays; row k is the shot drawn from the k-th
    generator, which is left just after its 4 n_bins bin draws. For
    ``pump_on`` every symmetric bin pair contributes one two-mode squeezed
    sample; ``pump_off`` replaces the bins with independent vacuum. The
    traces carry no detection-chain gain or added noise. One synthesis
    kernel serves every shot of the call.
    """
    _stage_code(stage)
    kernel = _SynthesisKernel(band, detuning, window)
    draws = np.array([rng.standard_normal((kernel.n_bins, 4)) for rng in rngs])
    return kernel.traces(draws.reshape(-1, kernel.n_bins, 4), stage)


def demodulate(
    trace: np.ndarray,
    window: WindowSpec,
    lo_phase: float,
) -> tuple[float, float]:
    """Window-weighted IQ integration of a complex baseband trace.

    Computes ``z = sum(trace * E * dt) * exp(-i lo_phase) / integral(E)`` on
    the window's samples (``WindowSpec.samples``), so a constant unit trace
    demodulates to ``exp(-i lo_phase)``; the trace is already at baseband,
    so LO multiplication is just the phase factor. Returns (Re z, Im z).
    """
    trace = np.asarray(trace)
    _, envelope, dt, norm = window.samples()
    if trace.size != envelope.size:
        raise ValueError(
            f"trace length {trace.size} does not match the {envelope.size} samples of a window"
        )
    z = np.sum(trace * envelope) * dt * np.exp(-1j * lo_phase) / norm
    return float(z.real), float(z.imag)


#: Items of one chunk: the shots whose draws are buffered before one matrix
#: product maps them, or the table rows or dumped traces formatted together.
#: The processes of a split task take the items
#: this many at a time, unless the task names its own chunk size.
_CHUNK_SHOTS = 256

#: Most processes that share the items of one task, the calling one included.
_MAX_PROCESSES = 8

#: Fewest items per process: a smaller share does not repay sending its results.
_MIN_SHOTS_PER_PROCESS = 512

#: Seconds a process waits for the shared chunk counter. A process holds it
#: for microseconds, so only one killed while holding it makes others wait.
_COUNTER_TIMEOUT_S = 60.0


def _process_count(n_items: int) -> int:
    """Processes that share a task of ``n_items`` items (shots or rows), the calling one included: the split rule.

    One per CPU in the process's affinity, within the bounds above, and one
    alone for a caller that is not the process's one Python thread: a thread
    that was inside a multithreaded OpenBLAS product while the process forked
    was seen to hang there for good.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        # Not Linux (no CPU affinity to read, no fork to rely on), or threaded.
        return 1
    return max(1, min(_MAX_PROCESSES, len(os.sched_getaffinity(0)), n_items // _MIN_SHOTS_PER_PROCESS))


def _acquire(maps: list, seed: int, stream: int, n_shots: int, starts: Iterable[int]) -> Iterator[tuple]:
    """Yield (first shot, (windows, 2, rows, 4) quadratures) of the chunk at each of ``starts``.

    ``maps`` holds one ``{stage: _SynthesisKernel.linear_map}`` per window.
    A chunk is the ``_CHUNK_SHOTS`` shots from its start, pump-on then
    pump-off; each (shot, stage) substream fills one row of a reusable draw
    buffer once, and each chunk ends in one matrix product per window and
    stage, so every window demodulates the same draws. Every start is a
    multiple of ``_CHUNK_SHOTS``, so every product maps the same rows
    whichever process takes the chunk, and the bytes do not depend on the
    split. BLAS can round a row differently in a product of another shape,
    so the windows' maps are not stacked into one product either.
    """
    draws = np.empty((min(n_shots, _CHUNK_SHOTS), maps[0]["pump_on"].shape[0]))
    rows = list(draws)
    cursor = _StreamCursor(seed)
    for first in starts:
        last = min(first + _CHUNK_SHOTS, n_shots)
        out = np.empty((len(maps), 2, last - first, 4))
        for index, stage in enumerate(_STAGE_CODES):
            for row, shot in zip(rows, range(first, last)):
                cursor.seek(shot, stage, stream).standard_normal(out=row)
            for block, window_maps in zip(out, maps):
                np.matmul(draws[: last - first], window_maps[stage], out=block[index])
        yield first, out


def _claimed(next_chunk, n_items: int, chunk_size: int) -> Iterator[int]:
    """Chunk starts that this process takes from the shared counter ``next_chunk``.

    Every process of a task takes its next chunk from the one counter, so a
    process that the machine slows down takes fewer chunks, and none waits
    long for another at the end of the task.
    """
    lock = next_chunk.get_lock()
    while True:
        if not lock.acquire(timeout=_COUNTER_TIMEOUT_S):
            raise RuntimeError("the chunk counter was never released: a process died holding it")
        chunk = next_chunk.value
        next_chunk.value = chunk + 1
        lock.release()
        if chunk * chunk_size >= n_items:
            return
        yield chunk * chunk_size


def _pickled(task: tuple) -> bytes | None:
    """``task`` pickled once for every worker, or None if it holds what a worker cannot be sent."""
    try:
        return pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError):
        # A local or replaced function, say, which pickle cannot find by name.
        return None


#: Whether this process is running the chunks of a split task: always in a
#: worker, and in the parent while it runs its own share. A task started from a
#: chunk runs in that process alone: the pool is busy with the task that
#: holds the chunk, and a worker's pool is a copy of the parent's, whose pipe
#: ends the worker has closed.
_inside_task = False


def _serve(connection, inherited: list, next_chunk) -> None:
    """Worker loop: run each task received over its ``_claimed`` chunks and send back the results.

    A task is (chunk function, its leading arguments, item count, chunk
    size), as ``_Workers.run`` sends it. The reply is the list of the
    worker's (start, result) pairs, or the exception that a chunk raised.

    ``inherited`` are the parent's ends of the pipes, this worker's included,
    which the fork copied; closing them here lets the worker see its pipe
    reach end of file, and return, once the parent has gone.
    """
    import signal

    global _inside_task
    _inside_task = True
    # An interrupt is the parent's to handle; the parent then stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            chunk, args, n_items, chunk_size = connection.recv()
            try:
                reply = list(chunk(*args, n_items, _claimed(next_chunk, n_items, chunk_size)))
            except Exception as error:
                reply = error
            connection.send(reply)


class _Workers:
    """Forked processes that help with a task of items, started when a task first needs them.

    A task of ``n_items`` items, shots or table rows, uses
    ``_process_count(n_items) - 1`` of them, so only a caller that is the
    process's one Python thread starts or uses a worker. Each worker
    has its own pipe, and all share one chunk counter with the parent. A
    task carries everything else the worker reads, since module state in a
    worker may be older than the parent's. The workers are daemons: they are
    stopped when the parent exits, and one whose parent is killed sees its
    pipe reach end of file.
    """

    def __init__(self) -> None:
        self._started: list = []  # (process, the parent's end of its pipe)
        self._next_chunk = None

    def _connections(self, count: int) -> list:
        """The parent's ends of the pipes to ``count`` workers, started as needed."""
        if len(self._started) < count:
            # Imported here, so that a task that is not split never pays for it.
            import multiprocessing

            # fork, not spawn: a worker starts in milliseconds with the
            # parent's modules, where spawn would import numpy again.
            context = multiprocessing.get_context("fork")
            if not self._started:
                self._next_chunk = context.Value("q", 0)
            while len(self._started) < count:
                ours, theirs = context.Pipe()
                inherited = [end for _, end in self._started] + [ours]
                process = context.Process(
                    target=_serve, args=(theirs, inherited, self._next_chunk), daemon=True
                )
                process.start()
                theirs.close()
                self._started.append((process, ours))
        return [end for _, end in self._started[:count]]

    def close(self) -> None:
        """Stop every worker; the next run that needs one starts it afresh."""
        for process, end in self._started:
            end.close()
            process.terminate()
            process.join()
        self._started = []

    def run(self, chunk, args: tuple, n_items: int, take, chunk_size: int = _CHUNK_SHOTS) -> None:
        """Call ``take(first item, result)`` for every chunk of a task of ``n_items`` items.

        ``chunk(*args, n_items, starts)`` is a module-level generator function,
        which a worker receives by name: it yields (start, result) for the
        chunk of ``chunk_size`` items at each of ``starts``, and a result may
        depend only on its own chunk. The chunks are split over
        ``_process_count(n_items)`` processes, each taking the next chunk
        whenever it finishes one. A task that cannot be pickled for a worker,
        as when ``args`` hold a local function, runs in this process alone:
        a function that stands in for a package one, a test's stand-in or a
        tracer's wrapper, then sees every call. A task started from inside a
        chunk of a split task, in a worker or in this process, runs in the
        process that started it alone. ``take`` sees this process's chunks
        as it makes them, then each worker's, so not in the order of their
        starts. An exception that a chunk raises in a worker is raised here,
        as in one process; the workers are then stopped, as when one exits
        during the task.
        """
        global _inside_task
        outer = _inside_task
        helpers = 0 if outer else _process_count(n_items) - 1
        task = _pickled((chunk, args, n_items, chunk_size)) if helpers else None
        connections = [] if task is None else self._connections(helpers)
        starts = range(0, n_items, chunk_size)
        if connections:
            self._next_chunk.value = 0
            starts = _claimed(self._next_chunk, n_items, chunk_size)
            _inside_task = True
        reply = None
        try:
            for end in connections:
                end.send_bytes(task)
            for first, result in chunk(*args, n_items, starts):
                take(first, result)
            for end in connections:
                reply = end.recv()
                if isinstance(reply, Exception):
                    raise reply
                for first, result in reply:
                    take(first, result)
        except BaseException as error:
            # Results still in flight would answer the next task.
            self.close()
            if error is not reply and isinstance(error, (EOFError, ConnectionError)):
                raise RuntimeError("a worker process exited during a task") from error
            raise
        finally:
            _inside_task = outer


_WORKERS = _Workers()


def run_experiment(
    detuning: float,
    band: EmissionBandModel,
    config: AcquisitionConfig,
    stream: int = 0,
    *,
    windows: Sequence[WindowSpec] | None = None,
) -> list[ExperimentData]:
    """Acquire ``n_shots`` pump-on/pump-off shot pairs at ``detuning`` (Hz), one result per window.

    The detuning is the only frequency read. Each shot synthesizes both
    channel traces, scales them by the square root of the per-channel chain
    gain and demodulates them with the channel LO phases; the detection
    noise is then added after demodulation, four more normals of the shot's
    substream with variance ``chain_gain * added_noise_quanta / 4`` per
    quadrature. All of that is linear in the shot's draws, so it runs as
    one matrix product per chunk of shots (``_SynthesisKernel.linear_map``);
    the traces are never formed.
    Every shot is drawn once and demodulated through each of ``windows``
    (``config.window`` alone when None), and one ``ExperimentData`` per
    window is returned, in order. A window's rows depend only on the
    shots' draws and its own map, not on the other windows.
    The shots are split over ``_process_count(n_shots)`` processes: this
    process and forked worker processes each take the next chunk of
    ``_CHUNK_SHOTS`` shots whenever they finish one, until none is left. Every shot draws from its own substream, and
    every chunk is mapped alone, so the bytes do not depend on the split.
    With unit chain gains and no added noise, shot k's pump-on row is the
    ``demodulate``d trace that ``synthesize_baseband_pair`` draws from the
    (shot k, pump_on, ``stream``) substream, so the traces that
    ``simulate --dump-traces`` writes from stream 0 are the ones behind
    these quadratures.
    ``stream`` selects an independent substream family so sweep points stay
    independent under a common master seed.
    """
    maps = []
    for window in [config.window] if windows is None else windows:
        kernel = _SynthesisKernel(band, detuning, window)
        maps.append({stage: kernel.linear_map(stage, config) for stage in _STAGE_CODES})
    if not maps:
        return []

    n = config.n_shots
    rows = np.empty((len(maps), 2, n, 4))

    def take(first: int, chunk: np.ndarray) -> None:
        rows[:, :, first : first + chunk.shape[2]] = chunk

    _WORKERS.run(_acquire, (maps, config.seed, stream), n, take)
    return [ExperimentData(on=on, off=off) for on, off in rows]
