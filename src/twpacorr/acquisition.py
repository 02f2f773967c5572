"""Time-domain synthesis of the two-mode correlation experiment.

The amplifier's broadband emission is modeled as a comb of independent
frequency-bin pairs placed symmetrically about the pump: the bin at
``f_pump + delta`` and its mirror at ``f_pump - delta`` share one two-mode
squeezed sample, while pump-off stages replace every bin with vacuum. Each
acquisition channel (signal/idler) accumulates its bins into a complex
baseband trace relative to its demodulation frequency, so digital IQ
demodulation reduces to a window-weighted integral with an LO phase factor.

Synthesis and demodulation are linear in a shot's standard-normal draws, so
``run_experiment`` folds them, with the chain gains, the LO phases and the
detection noise, into one real matrix per stage and maps each shot's draws to
its four quadratures with one matrix product. ``synthesize_baseband_pair``
forms the traces themselves, for any number of shots from one synthesis
kernel; with ``demodulate`` it is the per-shot reference for that map, and
it is what ``simulate --dump-traces`` writes out.

Conventions baked in here:

* Time samples sit at interval midpoints, and the synthesis phase reference
  is the window center, which makes the detuning kernel of a symmetric
  window purely real (a start-referenced phase would tilt it by a linear
  spectral phase and shift the kernel zeros).
* Bin amplitudes carry ``sqrt(bin_spacing)`` so band statistics are invariant
  under bin refinement, times a window calibration factor chosen so that the
  windowed-mean demodulation below returns exactly vacuum variance 1/4 per
  quadrature for pump-off input.
* Every (shot, stage) pair draws from its own counter-derived Philox
  substream, so results are bit-reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .gaussian import TwpaParams, tmsvs_covariance

#: Floor constant of the gaussian acquisition envelope. Forcing
#: E(0) = E(tau) = 0 and E(tau/2) = 1 on
#: E(t) = (1 + beta) exp(-2 (2 t / tau - 1)^2) - beta pins
#: beta = e^-2 / (1 - e^-2).
GAUSSIAN_FLOOR = math.exp(-2.0) / (1.0 - math.exp(-2.0))

WINDOW_SHAPES = ("rectangular", "gaussian")

#: Half-width of the window kernel support assumed when checking that the
#: emission band covers a demodulation offset, as a multiple of 1/tau.
KERNEL_MARGIN_CYCLES = 10.0

_STAGE_CODES = {"pump_on": 1, "pump_off": 2}

#: Fewest shots per stage: every leave-one-block-out jackknife subsample
#: then keeps at least two, enough for a sample covariance.
MIN_SHOTS = 3

#: Seeds key a Philox generator, whose key is 128 bits wide.
MAX_SEED = 2**128

#: Most comb bins one band may hold; each bin costs two rows of n_samples
#: complex phases in every synthesis kernel.
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
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def envelope(self, times: np.ndarray) -> np.ndarray:
        """Envelope E(t) for ``times`` measured from the window start, in [0, tau]."""
        times = np.asarray(times, dtype=float)
        if self.shape == "rectangular":
            return np.ones_like(times)
        u = 2.0 * times / self.tau - 1.0
        return (1.0 + GAUSSIAN_FLOOR) * np.exp(-2.0 * u * u) - GAUSSIAN_FLOOR


@dataclass(frozen=True)
class FrequencyPlan:
    """Pump and per-channel demodulation frequencies, all in Hz.

    The detuning is always derived from the three frequencies, never stored:
    ``detuning = 2 f_pump - f_signal_demod - f_idler_demod``.
    """

    f_pump: float
    f_idler_demod: float
    f_signal_demod: float

    MAX_DETUNING = 10e6

    def __post_init__(self) -> None:
        if self.f_signal_demod == self.f_idler_demod:
            raise ValueError(f"f_signal_demod equals f_idler_demod ({self.f_idler_demod:.6g} Hz)")
        if abs(self.detuning) > self.MAX_DETUNING:
            raise ValueError(
                f"detuning {self.detuning:.6g} Hz outside the supported "
                f"+/-{self.MAX_DETUNING:.0f} Hz range"
            )

    @property
    def detuning(self) -> float:
        return 2.0 * self.f_pump - self.f_signal_demod - self.f_idler_demod

    @classmethod
    def for_detuning(
        cls, f_pump: float, f_idler_demod: float, detuning: float = 0.0
    ) -> "FrequencyPlan":
        """Plan with the signal demodulation placed to realize ``detuning``."""
        return cls(
            f_pump=f_pump,
            f_idler_demod=f_idler_demod,
            f_signal_demod=2.0 * f_pump - f_idler_demod - detuning,
        )


@dataclass(frozen=True)
class EmissionBandModel:
    """Discretized broadband emission: uniform-gain bins around each channel.

    ``band_halfwidth`` is the half-width of the simulated band around each
    demodulation frequency and ``bin_spacing`` the comb pitch; every
    symmetric bin pair shares ``per_bin_params`` (flat-gain approximation).
    """

    per_bin_params: TwpaParams
    band_halfwidth: float = 5e6
    bin_spacing: float = 25e3

    def __post_init__(self) -> None:
        if not self.band_halfwidth > 0.0:
            raise ValueError(f"band_halfwidth must be positive, got {self.band_halfwidth}")
        if not 0.0 < self.bin_spacing <= self.band_halfwidth:
            raise ValueError(f"bin_spacing must lie in (0, band_halfwidth], got {self.bin_spacing}")
        if self.n_bins > MAX_BINS:
            raise ValueError(
                f"band_halfwidth {self.band_halfwidth:.6g} Hz holds {self.n_bins} bins of "
                f"{self.bin_spacing:.6g} Hz, more than the {MAX_BINS} allowed"
            )

    @property
    def n_bins(self) -> int:
        return max(1, round(2.0 * self.band_halfwidth / self.bin_spacing))

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
        if self.n_shots < MIN_SHOTS:
            raise ValueError(f"n_shots must be >= {MIN_SHOTS}, got {self.n_shots}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if not self.chain_gain_signal > 0.0:
            raise ValueError(f"chain_gain_signal must be positive, got {self.chain_gain_signal}")
        if not self.chain_gain_idler > 0.0:
            raise ValueError(f"chain_gain_idler must be positive, got {self.chain_gain_idler}")
        if not self.added_noise_quanta >= 0.0:
            raise ValueError(f"added_noise_quanta must be >= 0, got {self.added_noise_quanta}")

    @property
    def sample_rate(self) -> float:
        """Trace sample rate in Hz: 100 samples per window."""
        return 100.0 / self.window.tau


@dataclass(frozen=True)
class ExperimentData:
    """Demodulated quadratures for every shot of a pump-on/off experiment.

    ``on`` and ``off`` are (n_shots, 4) arrays in the column order
    (X_s, P_s, X_i, P_i); row k of each holds shot k of that stage.
    """

    on: np.ndarray
    off: np.ndarray


def shot_rng(seed: int, shot_index: int, stage: str, stream: int = 0) -> np.random.Generator:
    """Counter-derived random substream for one (shot, stage) of one experiment.

    The Philox counter words are (0, shot, stage, stream) under a key set by
    the master seed, so any scheduling of shots draws identical numbers, and
    distinct experiments of a sweep use distinct ``stream`` values.
    """
    bit_generator = np.random.Philox(
        key=seed, counter=[0, shot_index, _STAGE_CODES[stage], stream]
    )
    return np.random.Generator(bit_generator)


class _StreamCursor:
    """Reusable generator that jumps between counter-derived substreams.

    Writing the Philox state in place sidesteps the per-construction entropy
    pull of ``shot_rng`` while producing bit-identical draws; the equivalence
    is pinned by a regression test. The state mapping is built once: a seek
    rewrites its counter words and clears any buffered output, then hands it
    to the bit generator.
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
        counter[2] = _STAGE_CODES[stage]
        counter[3] = stream
        self._bit_generator.state = self._state
        return self.generator


def _midpoint_times(n_samples: int, sample_rate: float) -> np.ndarray:
    """Sample times measured from the window start: midpoints of [0, tau)."""
    return (np.arange(n_samples) + 0.5) / sample_rate


def _trace_length(window: WindowSpec, sample_rate: float) -> int:
    return round(sample_rate * window.tau)


def _window_weights(window: WindowSpec, sample_rate: float) -> tuple[np.ndarray, float, float]:
    """The sampled window integral: E(t) at the sample midpoints, dt, and int E = sum E dt.

    A trace demodulates to ``sum(trace * E) * dt * exp(-i lo_phase) / int E``.
    """
    dt = 1.0 / sample_rate
    envelope = window.envelope(_midpoint_times(_trace_length(window, sample_rate), sample_rate))
    return envelope, dt, float(np.sum(envelope) * dt)


def _complex_rows(coefficients: np.ndarray) -> np.ndarray:
    """(n, 2, 2) real blocks mapping the row (Re u, Im u) to (Re, Im) of ``c u``."""
    re, im = coefficients.real, coefficients.imag
    return np.stack([np.stack([re, im], axis=-1), np.stack([-im, re], axis=-1)], axis=-2)


class _SynthesisKernel:
    """Precomputed geometry shared by every shot of one experiment."""

    def __init__(
        self,
        band: EmissionBandModel,
        plan: FrequencyPlan,
        window: WindowSpec,
        sample_rate: float,
    ) -> None:
        tau = window.tau
        detuning = plan.detuning
        band.validate_for(tau, detuning)
        self.envelope, self.dt, self.norm = _window_weights(window, sample_rate)
        self.n_samples = self.envelope.size
        if self.n_samples < 1:
            raise ValueError("window shorter than one sample at this rate")
        self.power = float(np.sum(self.envelope**2) * self.dt)

        offsets = band.offsets()
        # Phase evolution is referenced to the window center; bins beat at
        # their offset from each channel's demodulation frequency.
        centered = _midpoint_times(self.n_samples, sample_rate) - tau / 2.0
        self.phases_signal = np.exp(2j * np.pi * np.outer(detuning - offsets, centered))
        self.phases_idler = np.exp(2j * np.pi * np.outer(offsets, centered))
        self.n_bins = offsets.size
        # sqrt(bin_spacing) keeps band statistics invariant under refinement;
        # norm/sqrt(power) calibrates the windowed-mean demodulation so that
        # pump-off input lands exactly at vacuum variance 1/4 per quadrature.
        self.amplitude_scale = math.sqrt(band.bin_spacing) * self.norm / math.sqrt(self.power)
        self.cholesky_on = np.linalg.cholesky(tmsvs_covariance(band.per_bin_params))
        self.cholesky_off = 0.5 * np.eye(4)

    def traces(self, draws: np.ndarray, stage: str) -> tuple[np.ndarray, np.ndarray]:
        """Complex (signal, idler) traces of a (..., n_bins, 4) stack of bin draws.

        The stage's Cholesky factor mixes each bin pair's four draws into its
        quadratures; the traces have shape (..., n_samples).
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
        added noise, the signal and the idler trace noise, real and imaginary
        parts interleaved per sample. The shape is (4 n_bins, 4), or
        (4 n_bins + 4 n_samples, 4) with noise.
        """
        factor = self.cholesky_on if stage == "pump_on" else self.cholesky_off
        bins = np.zeros((self.n_bins, 4, 4))
        noise = np.zeros((2, 2 * self.n_samples, 4))
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
            # Per-sample noise sized so the demodulated added-noise variance
            # per quadrature equals chain_gain * added_noise_quanta / 4.
            sigma = math.sqrt(
                chain_gain
                * config.added_noise_quanta
                / 4.0
                * self.norm**2
                / (self.power * self.dt)
            )
            noise[index, :, columns] = _complex_rows(sigma * weights).reshape(-1, 2)
        # Bin rows act on the draws before the Cholesky mix: W_b = L^T M_b.
        rows = (factor.T @ bins).reshape(-1, 4)
        if config.added_noise_quanta == 0.0:
            return rows
        return np.concatenate([rows, noise.reshape(-1, 4)])


def synthesize_baseband_pair(
    band: EmissionBandModel,
    plan: FrequencyPlan,
    window: WindowSpec,
    stage: str,
    rngs: Iterable[np.random.Generator],
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Complex baseband (signal, idler) traces, one shot per generator in ``rngs``.

    Returns two (n_shots, n_samples) arrays; row k is the shot drawn from the
    k-th generator, which is left just after its 4 n_bins bin draws. For
    ``pump_on`` every symmetric bin pair contributes one two-mode squeezed
    sample; ``pump_off`` replaces the bins with independent vacuum. The
    traces carry no detection-chain gain or added noise. One synthesis
    kernel serves every shot of the call.
    """
    if stage not in _STAGE_CODES:
        raise ValueError(f"stage must be 'pump_on' or 'pump_off', got {stage!r}")
    kernel = _SynthesisKernel(band, plan, window, sample_rate)
    draws = np.array([rng.standard_normal((kernel.n_bins, 4)) for rng in rngs])
    return kernel.traces(draws.reshape(-1, kernel.n_bins, 4), stage)


def demodulate(
    trace: np.ndarray,
    window: WindowSpec,
    lo_phase: float,
    sample_rate: float,
) -> tuple[float, float]:
    """Window-weighted IQ integration of a complex baseband trace.

    Computes ``z = sum(trace * E * dt) * exp(-i lo_phase) / integral(E)`` so
    a constant unit trace demodulates to ``exp(-i lo_phase)``; the trace is
    already at baseband, so LO multiplication is just the phase factor.
    Returns (Re z, Im z).
    """
    trace = np.asarray(trace)
    if trace.size == 0:
        raise ValueError("cannot demodulate an empty trace")
    envelope, dt, norm = _window_weights(window, sample_rate)
    if trace.size != envelope.size:
        raise ValueError(
            f"trace length {trace.size} does not match window tau {window.tau:.3g} s "
            f"at sample rate {sample_rate:.6g} Hz (expected {envelope.size})"
        )
    z = np.sum(trace * envelope) * dt * np.exp(-1j * lo_phase) / norm
    return float(z.real), float(z.imag)


#: Shots whose draws are buffered before one matrix product maps them.
_CHUNK_SHOTS = 256


def run_experiment(
    plan: FrequencyPlan,
    band: EmissionBandModel,
    config: AcquisitionConfig,
    stream: int = 0,
) -> ExperimentData:
    """Acquire ``n_shots`` pump-on/pump-off shot pairs.

    Each shot synthesizes both channel traces, scales them by the square root
    of the per-channel chain gain, adds white detection noise at trace level
    (sized so it demodulates to ``chain_gain * added_noise_quanta / 4`` per
    quadrature), and demodulates with the channel LO phases. All of that is
    linear in the shot's draws, so it runs as one matrix product per chunk of
    shots (``_SynthesisKernel.linear_map``); the traces are never formed.
    With unit chain gains and no added noise, shot k's pump-on row is the
    ``demodulate``d trace that ``synthesize_baseband_pair`` draws from
    ``shot_rng(seed, k, "pump_on", stream)``, so the traces that
    ``simulate --dump-traces`` writes are the ones behind these quadratures.
    ``stream`` selects an independent substream family so sweep points stay
    independent under a common master seed.
    """
    kernel = _SynthesisKernel(band, plan, config.window, config.sample_rate)
    maps = {stage: kernel.linear_map(stage, config) for stage in _STAGE_CODES}

    n = config.n_shots
    chunk = min(n, _CHUNK_SHOTS)
    draws = np.empty((chunk, maps["pump_on"].shape[0]))
    rows = list(draws)
    cursor = _StreamCursor(config.seed)
    results = {}
    for stage, linear_map in maps.items():
        out = results[stage] = np.empty((n, 4))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            for row, shot in zip(rows, range(start, stop)):
                cursor.seek(shot, stage, stream).standard_normal(out=row)
            np.matmul(draws[: stop - start], linear_map, out=out[start:stop])

    return ExperimentData(on=results["pump_on"], off=results["pump_off"])
