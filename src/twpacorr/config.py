"""Experiment configuration: YAML schema, validation and canonical hashing.

The config file is a single nested document; angles are degrees, frequencies
Hz, times seconds. Validation errors always name the offending field by its
dotted path (e.g. ``acquisition.window.tau``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import yaml

from .acquisition import (
    MIN_SHOTS,
    AcquisitionConfig,
    EmissionBandModel,
    FrequencyPlan,
    WindowSpec,
)
from .estimators import DEFAULT_PHASE_POINTS
from .gaussian import TwpaParams

DEFAULT_LINEWIDTH_POINTS = 201
DEFAULT_LINEWIDTH_SPAN = 2e6
DEFAULT_CASE_TAUS = (3e-6, 4e-6, 5e-6, 6e-6)


#: Seeds key a Philox generator, whose key is 128 bits wide.
MAX_SEED = 2**128


class ConfigError(Exception):
    """Raised for missing, ill-typed or out-of-range configuration fields."""


def _deg_to_rad(value: float) -> float:
    return value * math.pi / 180.0


def _section(data: dict, key: str, path: str) -> dict:
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"field '{path}' must be a mapping")
    return value


def _get_number(
    data: dict,
    key: str,
    path: str,
    required: bool = False,
    default: Any = None,
) -> Optional[float]:
    if key not in data or data[key] is None:
        if required:
            raise ConfigError(f"missing required field '{path}'")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}")
    try:
        # YAML 1.1 reads exponents without a sign ("6.331e9") as strings.
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"field '{path}' must be finite, got {value!r}")
    return number


def _get_int(data: dict, key: str, path: str, required: bool = False, default: Any = None):
    value = data.get(key)
    if isinstance(value, int) and not isinstance(value, bool):
        # Taken as written: going through float would round values above
        # 2**53, such as large seeds.
        return value
    value = _get_number(data, key, path, required=required, default=default)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
    return int(value)


def _get_str(data: dict, key: str, path: str, required: bool = False, default: Any = None):
    if key not in data or data[key] is None:
        if required:
            raise ConfigError(f"missing required field '{path}'")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ConfigError(f"field '{path}' must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment definition: physics, acquisition, sweeps, output."""

    f_pump: float
    f_idler_demod: float
    detuning: float
    twpa: TwpaParams
    band: EmissionBandModel
    acquisition: AcquisitionConfig
    phase_points: int
    linewidth_points: int
    linewidth_span: float
    cases: tuple[WindowSpec, ...]
    output_dir: Path
    seed: int

    def plan(self) -> FrequencyPlan:
        return FrequencyPlan.for_detuning(self.f_pump, self.f_idler_demod, self.detuning)

    def acquisition_for(self, window: WindowSpec) -> AcquisitionConfig:
        """Base acquisition rebound to another window (sample rate re-derived)."""
        return replace(self.acquisition, window=window, sample_rate=None)

    def resolved(self) -> dict:
        """Canonical dict of the experiment-defining configuration.

        Used for hashing; deliberately excludes the output directory, which
        has no bearing on the data.
        """
        return {
            "frequency": {
                "f_pump": self.f_pump,
                "f_idler_demod": self.f_idler_demod,
                "detuning": self.detuning,
            },
            "twpa": {
                "gain_signal": self.twpa.gain_signal,
                "gain_idler": self.twpa.gain_idler,
                "phase_mismatch_deg": math.degrees(self.twpa.phase_mismatch),
            },
            "band": {
                "halfwidth": self.band.band_halfwidth,
                "bin_spacing": self.band.bin_spacing,
            },
            "acquisition": {
                "window": {
                    "shape": self.acquisition.window.shape,
                    "tau": self.acquisition.window.tau,
                },
                "n_shots": self.acquisition.n_shots,
                "lo_phase_signal_deg": math.degrees(self.acquisition.lo_phase_signal),
                "lo_phase_idler_deg": math.degrees(self.acquisition.lo_phase_idler),
                "chain_gain_signal": self.acquisition.chain_gain_signal,
                "chain_gain_idler": self.acquisition.chain_gain_idler,
                "added_noise_quanta": self.acquisition.added_noise_quanta,
                "sample_rate": self.acquisition.sample_rate,
            },
            "phase_sweep": {"points": self.phase_points},
            "linewidth": {
                "points": self.linewidth_points,
                "span": self.linewidth_span,
                "cases": [{"window": c.shape, "tau": c.tau} for c in self.cases],
            },
            "seed": self.seed,
        }

    def hash(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def parse_config(data: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")

    frequency = _section(data, "frequency", "frequency")
    f_pump = _get_number(frequency, "f_pump", "frequency.f_pump", required=True)
    f_idler = _get_number(
        frequency, "f_idler_demod", "frequency.f_idler_demod", required=True
    )
    detuning = _get_number(frequency, "detuning", "frequency.detuning", default=0.0)

    twpa_section = _section(data, "twpa", "twpa")
    gain_signal = _get_number(twpa_section, "gain_signal", "twpa.gain_signal", required=True)
    gain_idler = _get_number(twpa_section, "gain_idler", "twpa.gain_idler", required=True)
    mismatch_deg = _get_number(
        twpa_section, "phase_mismatch_deg", "twpa.phase_mismatch_deg", default=0.0
    )
    try:
        twpa = TwpaParams(gain_signal, gain_idler, _deg_to_rad(mismatch_deg))
    except ValueError as err:
        raise ConfigError(f"invalid 'twpa' section: {err}") from err

    band_section = _section(data, "band", "band")
    try:
        band = EmissionBandModel(
            per_bin_params=twpa,
            band_halfwidth=_get_number(band_section, "halfwidth", "band.halfwidth", default=5e6),
            bin_spacing=_get_number(band_section, "bin_spacing", "band.bin_spacing", default=25e3),
        )
    except ValueError as err:
        raise ConfigError(f"invalid 'band' section: {err}") from err

    acq_section = _section(data, "acquisition", "acquisition")
    if not acq_section:
        raise ConfigError("missing required field 'acquisition'")
    window = _parse_window(
        _section(acq_section, "window", "acquisition.window"), "acquisition.window"
    )
    seed = _get_int(data, "seed", "seed", required=True)
    if not 0 <= seed < MAX_SEED:
        raise ConfigError(f"field 'seed' must lie in [0, 2**128), got {seed}")
    n_shots = _get_int(acq_section, "n_shots", "acquisition.n_shots", required=True)
    if n_shots < MIN_SHOTS:
        raise ConfigError(f"field 'acquisition.n_shots' must be >= {MIN_SHOTS}, got {n_shots}")
    try:
        acquisition = AcquisitionConfig(
            window=window,
            n_shots=n_shots,
            seed=seed,
            lo_phase_signal=_deg_to_rad(
                _get_number(
                    acq_section, "lo_phase_signal_deg", "acquisition.lo_phase_signal_deg", default=0.0
                )
            ),
            lo_phase_idler=_deg_to_rad(
                _get_number(
                    acq_section, "lo_phase_idler_deg", "acquisition.lo_phase_idler_deg", default=0.0
                )
            ),
            chain_gain_signal=_get_number(
                acq_section, "chain_gain_signal", "acquisition.chain_gain_signal", default=1e6
            ),
            chain_gain_idler=_get_number(
                acq_section, "chain_gain_idler", "acquisition.chain_gain_idler", default=1e6
            ),
            added_noise_quanta=_get_number(
                acq_section, "added_noise_quanta", "acquisition.added_noise_quanta", default=10.0
            ),
            sample_rate=_get_number(acq_section, "sample_rate", "acquisition.sample_rate"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid 'acquisition' section: {err}") from err

    phase_section = _section(data, "phase_sweep", "phase_sweep")
    phase_points = _get_int(
        phase_section, "points", "phase_sweep.points", default=DEFAULT_PHASE_POINTS
    )
    if phase_points < 1:
        raise ConfigError("field 'phase_sweep.points' must be >= 1")

    linewidth_section = _section(data, "linewidth", "linewidth")
    linewidth_points = _get_int(
        linewidth_section, "points", "linewidth.points", default=DEFAULT_LINEWIDTH_POINTS
    )
    if linewidth_points < 5:
        raise ConfigError("field 'linewidth.points' must be >= 5")
    linewidth_span = _get_number(
        linewidth_section, "span", "linewidth.span", default=DEFAULT_LINEWIDTH_SPAN
    )
    if linewidth_span <= 0:
        raise ConfigError("field 'linewidth.span' must be positive")
    cases = _parse_cases(linewidth_section.get("cases"), "linewidth.cases")

    output_dir = _get_str(data, "output_dir", "output_dir", default="runs/output")

    try:
        FrequencyPlan.for_detuning(f_pump, f_idler, detuning)
    except ValueError as err:
        raise ConfigError(f"invalid 'frequency' section: {err}") from err

    return ExperimentConfig(
        f_pump=f_pump,
        f_idler_demod=f_idler,
        detuning=detuning,
        twpa=twpa,
        band=band,
        acquisition=acquisition,
        phase_points=phase_points,
        linewidth_points=linewidth_points,
        linewidth_span=linewidth_span,
        cases=cases,
        output_dir=base_dir / output_dir,
        seed=seed,
    )


def _parse_window(section: dict, path: str) -> WindowSpec:
    if not section:
        raise ConfigError(f"missing required field '{path}'")
    shape = _get_str(section, "shape", f"{path}.shape", required=True)
    tau = _get_number(section, "tau", f"{path}.tau", required=True)
    try:
        return WindowSpec(shape=shape, tau=tau)
    except ValueError as err:
        raise ConfigError(f"invalid '{path}': {err}") from err


def _parse_cases(raw: Any, path: str) -> tuple[WindowSpec, ...]:
    if raw is None:
        # Default grid: both window families at the four standard times.
        return tuple(
            WindowSpec(shape=shape, tau=tau)
            for shape in ("rectangular", "gaussian")
            for tau in DEFAULT_CASE_TAUS
        )
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"field '{path}' must be a non-empty list")
    cases = []
    for index, entry in enumerate(raw):
        entry_path = f"{path}[{index}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"field '{entry_path}' must be a mapping")
        shape = _get_str(entry, "window", f"{entry_path}.window", required=True)
        tau = _get_number(entry, "tau", f"{entry_path}.tau", required=True)
        try:
            cases.append(WindowSpec(shape=shape, tau=tau))
        except ValueError as err:
            raise ConfigError(f"invalid '{entry_path}': {err}") from err
    return tuple(cases)


def load_config(path: str | Path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration.

    ``overrides`` maps dotted field paths (``"linewidth.points"``) to values
    that replace the file's before validation, so command-line settings
    pass the same checks as the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed YAML in {path}: {err}") from err
    if data is None:
        raise ConfigError(f"empty configuration file {path}")
    for dotted, value in (overrides or {}).items():
        *sections, key = dotted.split(".")
        node = data
        for section in sections:
            if isinstance(node, dict) and node.get(section) is None:
                node[section] = {}
            node = node.get(section) if isinstance(node, dict) else None
        # A node that is not a mapping is left for parse_config to report.
        if isinstance(node, dict):
            node[key] = value
    return parse_config(data, base_dir=path.parent)
