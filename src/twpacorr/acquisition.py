"""Time-domain synthesis of the two-mode correlation experiment.

The amplifier's broadband emission is modeled as a comb of independent
frequency-bin pairs placed symmetrically about the pump: the bin at
``f_pump + delta`` and its mirror at ``f_pump - delta`` share one two-mode
squeezed sample, while pump-off stages replace every bin with vacuum. Each
acquisition channel (signal/idler) accumulates its bins into a complex
baseband trace relative to its demodulation frequency, so digital IQ
demodulation reduces to a window-weighted integral with an LO phase factor.

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
from dataclasses import dataclass, field
from typing import Optional

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


@dataclass(frozen=True)
class WindowSpec:
    """Acquisition window: shape plus acquisition time ``tau`` in seconds."""

    shape: str
    tau: float
    gaussian_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shape not in WINDOW_SHAPES:
            raise ValueError(
                f"window shape must be one of {WINDOW_SHAPES}, got {self.shape!r}"
            )
        if not self.tau > 0.0:
            raise ValueError(f"window tau must be positive, got {self.tau}")
        if self.shape == "gaussian":
            floor = GAUSSIAN_FLOOR if self.gaussian_floor is None else float(self.gaussian_floor)
            object.__setattr__(self, "gaussian_floor", floor)
        elif self.gaussian_floor is not None:
            raise ValueError("gaussian_floor only applies to gaussian windows")

    def envelope(self, times: np.ndarray) -> np.ndarray:
        """Envelope E(t) for ``times`` measured from the window start, in [0, tau]."""
        times = np.asarray(times, dtype=float)
        if self.shape == "rectangular":
            return np.ones_like(times)
        u = 2.0 * times / self.tau - 1.0
        beta = self.gaussian_floor
        return (1.0 + beta) * np.exp(-2.0 * u * u) - beta


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
            raise ValueError("signal and idler demodulation frequencies must differ")
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
            raise ValueError("band_halfwidth must be positive")
        if not 0.0 < self.bin_spacing <= self.band_halfwidth:
            raise ValueError("bin_spacing must lie in (0, band_halfwidth]")

    def offsets(self) -> np.ndarray:
        """Bin-center offsets from the idler demodulation frequency."""
        n_bins = max(1, round(2.0 * self.band_halfwidth / self.bin_spacing))
        return -self.band_halfwidth + (np.arange(n_bins) + 0.5) * self.bin_spacing

    def validate_for(self, tau: float) -> None:
        """Check the quasi-continuum conditions against an acquisition time."""
        if self.bin_spacing > 1.0 / (2.0 * tau):
            raise ValueError(
                f"bin_spacing {self.bin_spacing:.6g} Hz too coarse for tau "
                f"{tau:.3g} s (needs <= {1.0 / (2.0 * tau):.6g} Hz)"
            )
        if self.band_halfwidth < KERNEL_MARGIN_CYCLES / tau:
            raise ValueError(
                f"band_halfwidth {self.band_halfwidth:.6g} Hz too narrow for tau "
                f"{tau:.3g} s (needs >= {KERNEL_MARGIN_CYCLES / tau:.6g} Hz)"
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
    sample_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_shots < 2:
            raise ValueError(f"n_shots must be >= 2, got {self.n_shots}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.chain_gain_signal <= 0.0 or self.chain_gain_idler <= 0.0:
            raise ValueError("chain gains must be positive")
        if self.added_noise_quanta < 0.0:
            raise ValueError("added_noise_quanta must be >= 0")
        if self.sample_rate is None:
            object.__setattr__(self, "sample_rate", 100.0 / self.window.tau)
        if self.sample_rate * self.window.tau < 50.0 - 1e-9:
            raise ValueError(
                f"sample_rate {self.sample_rate:.6g} Hz gives fewer than 50 "
                f"samples per window of tau {self.window.tau:.3g} s"
            )


@dataclass(frozen=True)
class ExperimentData:
    """Demodulated quadratures for every shot of a pump-on/off experiment.

    ``on`` and ``off`` are (n_shots, 4) arrays in the column order
    (X_s, P_s, X_i, P_i); row k of each holds shot k of that stage.
    """

    plan: FrequencyPlan
    config: AcquisitionConfig
    on: np.ndarray
    off: np.ndarray
    stream: int = 0


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

    Resetting the Philox counter in place sidesteps the per-construction
    entropy pull of ``shot_rng`` while producing bit-identical draws; the
    equivalence is pinned by a regression test.
    """

    def __init__(self, seed: int) -> None:
        self._bit_generator = np.random.Philox(key=seed)
        self.generator = np.random.Generator(self._bit_generator)
        self._key = [seed & 0xFFFFFFFFFFFFFFFF, seed >> 64]

    def seek(self, shot_index: int, stage: str, stream: int) -> np.random.Generator:
        state = self._bit_generator.state
        state["state"]["counter"][:] = (0, shot_index, _STAGE_CODES[stage], stream)
        state["state"]["key"][:] = self._key
        state["buffer"][:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bit_generator.state = state
        return self.generator


def _midpoint_times(n_samples: int, sample_rate: float) -> np.ndarray:
    """Sample times measured from the window start: midpoints of [0, tau)."""
    return (np.arange(n_samples) + 0.5) / sample_rate


def _trace_length(window: WindowSpec, sample_rate: float) -> int:
    return round(sample_rate * window.tau)


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
        self.n_samples = _trace_length(window, sample_rate)
        if self.n_samples < 1:
            raise ValueError("window shorter than one sample at this rate")
        self.dt = 1.0 / sample_rate
        times = _midpoint_times(self.n_samples, sample_rate)
        self.envelope = window.envelope(times)
        self.norm = float(np.sum(self.envelope) * self.dt)
        self.power = float(np.sum(self.envelope**2) * self.dt)

        detuning = plan.detuning
        margin = KERNEL_MARGIN_CYCLES / tau
        if abs(detuning) > band.band_halfwidth - margin:
            raise ValueError(
                f"emission band (halfwidth {band.band_halfwidth:.6g} Hz) does not "
                f"cover the signal demodulation at {plan.f_signal_demod:.6g} Hz "
                f"(detuning {detuning:.6g} Hz needs {margin:.6g} Hz of margin)"
            )

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
        self.amplitude_scale = math.sqrt(band.bin_spacing) * self.norm / math.sqrt(self.power)
        self.cholesky_on = np.linalg.cholesky(tmsvs_covariance(band.per_bin_params))
        self.cholesky_off = 0.5 * np.eye(4)

    def bin_amplitudes(
        self, rng: np.random.Generator, stage: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Complex (signal, idler) amplitudes for every bin pair of one shot."""
        factor = self.cholesky_on if stage == "pump_on" else self.cholesky_off
        quads = rng.standard_normal((self.n_bins, 4)) @ factor.T
        amp_signal = (quads[:, 0] + 1j * quads[:, 1]) * self.amplitude_scale
        amp_idler = (quads[:, 2] + 1j * quads[:, 3]) * self.amplitude_scale
        return amp_signal, amp_idler


def synthesize_baseband_pair(
    band: EmissionBandModel,
    plan: FrequencyPlan,
    window: WindowSpec,
    stage: str,
    rng: np.random.Generator,
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One shot of complex baseband traces for the (signal, idler) channels.

    For ``pump_on`` every symmetric bin pair contributes one two-mode
    squeezed sample; ``pump_off`` replaces the bins with independent vacuum.
    The returned traces carry no detection-chain gain or added noise.
    """
    if stage not in _STAGE_CODES:
        raise ValueError(f"stage must be 'pump_on' or 'pump_off', got {stage!r}")
    band.validate_for(window.tau)
    kernel = _SynthesisKernel(band, plan, window, sample_rate)
    amp_signal, amp_idler = kernel.bin_amplitudes(rng, stage)
    return amp_signal @ kernel.phases_signal, amp_idler @ kernel.phases_idler


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
    expected = _trace_length(window, sample_rate)
    if trace.size != expected:
        raise ValueError(
            f"trace length {trace.size} does not match window tau {window.tau:.3g} s "
            f"at sample rate {sample_rate:.6g} Hz (expected {expected})"
        )
    dt = 1.0 / sample_rate
    envelope = window.envelope(_midpoint_times(trace.size, sample_rate))
    norm = float(np.sum(envelope) * dt)
    z = np.sum(trace * envelope) * dt * np.exp(-1j * lo_phase) / norm
    return float(z.real), float(z.imag)


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
    quadrature), and demodulates with the channel LO phases. ``stream``
    selects an independent substream family so sweep points stay independent
    under a common master seed.
    """
    band.validate_for(config.window.tau)
    kernel = _SynthesisKernel(band, plan, config.window, config.sample_rate)

    demod_signal = (
        kernel.envelope
        * kernel.dt
        * np.exp(-1j * config.lo_phase_signal)
        / kernel.norm
    )
    demod_idler = (
        kernel.envelope * kernel.dt * np.exp(-1j * config.lo_phase_idler) / kernel.norm
    )

    # Per-sample noise sized so the demodulated added-noise variance per
    # quadrature equals chain_gain * added_noise_quanta / 4.
    def noise_std(chain_gain: float) -> float:
        if config.added_noise_quanta == 0.0:
            return 0.0
        variance = (
            chain_gain
            * config.added_noise_quanta
            / 4.0
            * kernel.norm**2
            / (kernel.power * kernel.dt)
        )
        return math.sqrt(variance)

    sigma_signal = noise_std(config.chain_gain_signal)
    sigma_idler = noise_std(config.chain_gain_idler)
    root_gain_signal = math.sqrt(config.chain_gain_signal)
    root_gain_idler = math.sqrt(config.chain_gain_idler)

    n = config.n_shots
    n_t = kernel.n_samples
    results = {"pump_on": np.empty((n, 4)), "pump_off": np.empty((n, 4))}
    chunk = 4096
    cursor = _StreamCursor(config.seed)
    with_noise = bool(sigma_signal or sigma_idler)

    for stage in ("pump_on", "pump_off"):
        out = results[stage]
        factor = kernel.cholesky_on if stage == "pump_on" else kernel.cholesky_off
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            m = stop - start
            raw = np.empty((m, kernel.n_bins, 4))
            raw_noise = np.empty((m, 2, 2 * n_t)) if with_noise else None
            for local, shot in enumerate(range(start, stop)):
                rng = cursor.seek(shot, stage, stream)
                rng.standard_normal(out=raw[local])
                if with_noise:
                    rng.standard_normal(out=raw_noise[local])

            quads = raw.reshape(-1, 4) @ factor.T
            amps_signal = (quads[:, 0] + 1j * quads[:, 1]).reshape(m, kernel.n_bins)
            amps_signal *= kernel.amplitude_scale
            amps_idler = (quads[:, 2] + 1j * quads[:, 3]).reshape(m, kernel.n_bins)
            amps_idler *= kernel.amplitude_scale

            traces_signal = amps_signal @ kernel.phases_signal
            traces_signal *= root_gain_signal
            traces_idler = amps_idler @ kernel.phases_idler
            traces_idler *= root_gain_idler
            if with_noise:
                traces_signal += sigma_signal * (
                    raw_noise[:, 0, 0::2] + 1j * raw_noise[:, 0, 1::2]
                )
                traces_idler += sigma_idler * (
                    raw_noise[:, 1, 0::2] + 1j * raw_noise[:, 1, 1::2]
                )

            z_signal = traces_signal @ demod_signal
            z_idler = traces_idler @ demod_idler
            out[start:stop, 0] = z_signal.real
            out[start:stop, 1] = z_signal.imag
            out[start:stop, 2] = z_idler.real
            out[start:stop, 3] = z_idler.imag

    return ExperimentData(
        plan=plan,
        config=config,
        on=results["pump_on"],
        off=results["pump_off"],
        stream=stream,
    )
