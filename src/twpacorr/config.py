"""Experiment configuration: one table of fields, validation and canonical hashing.

The config file is a single nested YAML document. ``FIELDS`` is the reference
for every field: its dotted path, how it is read, its default and, in the
comment beside it, its unit (angles are degrees, frequencies Hz, times
seconds). Reading flattens the document into ``{dotted path: value}``, so
command-line overrides, which are dotted paths too, merge by a dict update,
and a field the table does not know is refused by its path. Every error
names the offending field by its dotted path (e.g. ``acquisition.window.tau``),
also when the check that fails belongs to the object the value goes into.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
import yaml

from .acquisition import AcquisitionConfig, EmissionBandModel, WindowSpec
from .gaussian import TwpaParams

#: Linewidth cases of a config that lists none: both window families at the
#: four standard times.
DEFAULT_CASES = tuple(
    WindowSpec(shape=shape, tau=tau)
    for shape in ("rectangular", "gaussian")
    for tau in (3e-6, 4e-6, 5e-6, 6e-6)
)

#: Angles of the phase-sweep curve over [0, 360] degrees when ``phase_sweep.points``
#: is unset. No calibration reads a grid: its best idler phase is exact.
DEFAULT_PHASE_POINTS = 73

#: Largest |detuning| in Hz that any command acquires.
MAX_DETUNING = 10e6


class ConfigError(Exception):
    """Raised for missing, ill-typed or out-of-range configuration fields."""


def _deg_to_rad(value: float) -> float:
    return value * math.pi / 180.0


def _number(value: Any, path: str) -> float:
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


def _integer(value: Any, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        # Taken as written: going through float would round values above
        # 2**53, such as large seeds.
        return value
    number = _number(value, path)
    if number != int(number):
        raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
    return int(number)


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field '{path}' must be a string, got {value!r}")
    return value


def _above(low: float, read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``read``, refusing values at or below ``low``."""

    def bounded(value: Any, path: str):
        number = read(value, path)
        if not number > low:
            raise ConfigError(f"field '{path}' must be > {low}, got {number}")
        return number

    return bounded


#: Marks a field without a default.
REQUIRED = object()

#: Every config field by dotted path: (reader, default). ``[]`` stands for
#: the index of an entry in a list of mappings. Ranges that an object the
#: value goes into checks are noted in brackets; the frequencies are checked
#: by ``_check_frequencies``, on loading and, for sweeps, in ``check_coverage``.
FIELDS: dict[str, tuple[Callable[[Any, str], Any], Any]] = {
    "frequency.f_pump": (_number, REQUIRED),  # Hz
    # Hz; the signal demodulates at 2 f_pump - f_idler_demod - detuning [!= f_idler_demod]
    "frequency.f_idler_demod": (_number, REQUIRED),
    "frequency.detuning": (_number, 0.0),  # Hz, the only frequency acquisition reads [|detuning| <= 10 MHz]
    "twpa.gain_signal": (_number, REQUIRED),  # linear power gain [>= 1]
    "twpa.gain_idler": (_number, REQUIRED),  # linear power gain [>= 1]
    "twpa.phase_mismatch_deg": (_number, 0.0),  # deg
    "band.halfwidth": (_number, 5e6),  # Hz around each demodulation frequency [> 0]
    "band.bin_spacing": (_number, 25e3),  # Hz between comb bins [(0, halfwidth]]
    "acquisition.window.shape": (_text, REQUIRED),  # rectangular or gaussian
    "acquisition.window.tau": (_number, REQUIRED),  # s [> 0]
    "acquisition.n_shots": (_integer, REQUIRED),  # shot pairs per experiment [3, 10**8]
    "acquisition.lo_phase_signal_deg": (_number, 0.0),  # deg
    "acquisition.lo_phase_idler_deg": (_number, 0.0),  # deg
    "acquisition.chain_gain_signal": (_number, 1e6),  # linear power gain [> 0]
    "acquisition.chain_gain_idler": (_number, 1e6),  # linear power gain [> 0]
    "acquisition.added_noise_quanta": (_number, 10.0),  # quanta at the chain input [>= 0]
    "phase_sweep.points": (_above(0, _integer), DEFAULT_PHASE_POINTS),  # curve angles over [0, 360] deg
    "linewidth.points": (_above(4, _integer), 201),  # detunings per case
    "linewidth.span": (_above(0.0, _number), 2e6),  # Hz, whole detuning grid
    # Without a list of cases, the linewidth sweeps run DEFAULT_CASES.
    "linewidth.cases[].window": (_text, REQUIRED),  # rectangular or gaussian
    "linewidth.cases[].tau": (_number, REQUIRED),  # s [> 0]
    "output_dir": (_text, "runs/output"),  # relative to the config file
    "seed": (_integer, REQUIRED),  # master seed [0, 2**128)
}

#: Dotted paths of the mappings and lists of mappings that hold fields.
_SECTIONS = {path[:i] for path in FIELDS for i, char in enumerate(path) if char in ".["}
_INDEX = re.compile(r"\[\d+\]")


def _flatten(node: dict, path: str, flat: dict) -> None:
    """Put the fields of mapping ``node`` into ``flat`` by dotted path.

    A list of mappings is stored as its length, and its entries' fields
    under ``[index]``. Null stands for the default.
    """
    for key, value in node.items():
        child = f"{path}{key}"
        pattern = _INDEX.sub("[]", child) if "[" in child else child
        listed = f"{pattern}[]" in _SECTIONS
        if pattern in FIELDS:
            flat[child] = value
        elif pattern not in _SECTIONS:
            raise ConfigError(f"unknown field '{child}'")
        elif isinstance(value, dict) and not listed:
            _flatten(value, f"{child}.", flat)
        elif isinstance(value, list) and value and listed:
            flat[child] = len(value)
            _flatten({f"[{index}]": entry for index, entry in enumerate(value)}, child, flat)
        elif value is not None:
            raise ConfigError(f"field '{child}' must be a {'non-empty list' if listed else 'mapping'}")


def _read(flat: dict) -> dict:
    """Every field of the table, read from ``flat`` or defaulted, by dotted path."""
    values = {}
    for pattern, (read, default) in FIELDS.items():
        listed, _, rest = pattern.partition("[]")
        paths = [f"{listed}[{i}]{rest}" for i in range(flat.get(listed, 0))] if rest else [pattern]
        for path in paths:
            value = flat.get(path)
            if value is not None:
                values[path] = read(value, path)
            elif default is REQUIRED:
                raise ConfigError(f"missing required field '{path}'")
            else:
                values[path] = default
    return values


def _checked(paths: dict, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, with its ValueError as a ConfigError on a field.

    ``paths`` maps the argument names that ``build``'s messages begin with
    to the dotted paths of the fields they came from.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        name = str(err).split(" ", 1)[0]
        raise ConfigError(f"field '{paths.get(name, name)}': {err}") from None


def _check_frequencies(f_pump: float, f_idler_demod: float, detunings, path: str) -> None:
    """Refuse acquiring at any of ``detunings`` (Hz), whose field is ``path``.

    The detuning must lie within +/-MAX_DETUNING, and the signal
    demodulation frequency it puts at ``2 f_pump - f_idler_demod - detuning``
    must differ from the idler's.
    """
    for detuning in detunings:
        if 2.0 * f_pump - f_idler_demod - detuning == f_idler_demod:
            raise ConfigError(
                f"field 'frequency.f_idler_demod': f_signal_demod equals f_idler_demod "
                f"({f_idler_demod:.6g} Hz) at detuning {detuning:.6g} Hz"
            )
        if abs(detuning) > MAX_DETUNING:
            raise ConfigError(
                f"field '{path}': detuning {detuning:.6g} Hz outside the supported "
                f"+/-{MAX_DETUNING:.0f} Hz range"
            )


def _window(values: dict, path: str, shape_key: str) -> WindowSpec:
    shape, tau = f"{path}.{shape_key}", f"{path}.tau"
    return _checked({"shape": shape, "tau": tau}, WindowSpec, values[shape], values[tau])


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment definition: physics, acquisition, sweeps, output."""

    f_pump: float
    f_idler_demod: float
    detuning: float
    band: EmissionBandModel
    acquisition: AcquisitionConfig
    phase_points: int
    linewidth_points: int
    linewidth_span: float
    cases: tuple[WindowSpec, ...]
    output_dir: Path

    def detunings(self) -> np.ndarray:
        """The linewidth sweeps' detuning grid in Hz: ``points`` over ``span`` about 0."""
        edge = self.linewidth_span / 2.0
        return np.linspace(-edge, edge, self.linewidth_points)

    def check_coverage(self, sweep: bool) -> None:
        """Refuse, before any shot is drawn, an acquisition the band cannot simulate.

        A single run acquires ``acquisition.window`` at ``frequency.detuning``,
        which loading has checked; a sweep acquires every linewidth case at
        detuning 0 and at every point of ``detunings()``, so only sweeps need
        linewidth cases that suit the band.
        """
        if not sweep:
            paths = {"tau": "acquisition.window.tau", "detuning": "frequency.detuning"}
            _checked(paths, self.band.validate_for, self.acquisition.window.tau, self.detuning)
            return
        grid = self.detunings()
        _check_frequencies(self.f_pump, self.f_idler_demod, [0.0, *grid], "linewidth.span")
        edge = self.linewidth_span / 2.0
        for index, case in enumerate(self.cases):
            paths = {"tau": f"linewidth.cases[{index}].tau", "detuning": "linewidth.span"}
            _checked(paths, self.band.validate_for, case.tau, edge)

    def resolved(self) -> dict:
        """Canonical dict of the experiment-defining configuration.

        Used for hashing; deliberately excludes the output directory, which
        has no bearing on the data.
        """
        twpa = self.band.per_bin_params
        return {
            "frequency": {
                "f_pump": self.f_pump,
                "f_idler_demod": self.f_idler_demod,
                "detuning": self.detuning,
            },
            "twpa": {
                "gain_signal": twpa.gain_signal,
                "gain_idler": twpa.gain_idler,
                "phase_mismatch_deg": math.degrees(twpa.phase_mismatch),
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
                # Derived from tau; kept so that hashes match older files.
                "sample_rate": self.acquisition.sample_rate,
            },
            "phase_sweep": {"points": self.phase_points},
            "linewidth": {
                "points": self.linewidth_points,
                "span": self.linewidth_span,
                "cases": [{"window": c.shape, "tau": c.tau} for c in self.cases],
            },
            "seed": self.acquisition.seed,
        }

    def hash(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def parse_config(
    data: Any, base_dir: Path = Path("."), overrides: Optional[dict] = None
) -> ExperimentConfig:
    """Validate a config mapping, with ``overrides`` (dotted path: value) merged in."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    flat: dict = {}
    _flatten(data, "", flat)
    # Overrides are dotted paths already: flattening them checks and merges them.
    _flatten(overrides or {}, "", flat)
    values = _read(flat)

    twpa = _checked(
        {"gain_signal": "twpa.gain_signal", "gain_idler": "twpa.gain_idler"},
        TwpaParams,
        values["twpa.gain_signal"],
        values["twpa.gain_idler"],
        _deg_to_rad(values["twpa.phase_mismatch_deg"]),
    )
    band = _checked(
        {"band_halfwidth": "band.halfwidth", "bin_spacing": "band.bin_spacing"},
        EmissionBandModel,
        twpa,
        values["band.halfwidth"],
        values["band.bin_spacing"],
    )
    acquisition_fields = ("n_shots", "chain_gain_signal", "chain_gain_idler", "added_noise_quanta")
    acquisition = _checked(
        {"seed": "seed", **{name: f"acquisition.{name}" for name in acquisition_fields}},
        AcquisitionConfig,
        window=_window(values, "acquisition.window", "shape"),
        seed=values["seed"],
        lo_phase_signal=_deg_to_rad(values["acquisition.lo_phase_signal_deg"]),
        lo_phase_idler=_deg_to_rad(values["acquisition.lo_phase_idler_deg"]),
        **{name: values[f"acquisition.{name}"] for name in acquisition_fields},
    )
    n_cases = flat.get("linewidth.cases", 0)
    cases = tuple(_window(values, f"linewidth.cases[{i}]", "window") for i in range(n_cases))
    f_pump, f_idler_demod = values["frequency.f_pump"], values["frequency.f_idler_demod"]
    detuning = values["frequency.detuning"]
    _check_frequencies(f_pump, f_idler_demod, [detuning], "frequency.detuning")
    return ExperimentConfig(
        f_pump=f_pump,
        f_idler_demod=f_idler_demod,
        detuning=detuning,
        band=band,
        acquisition=acquisition,
        phase_points=values["phase_sweep.points"],
        linewidth_points=values["linewidth.points"],
        linewidth_span=values["linewidth.span"],
        cases=cases or DEFAULT_CASES,
        output_dir=base_dir / values["output_dir"],
    )


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
    return parse_config(data, base_dir=path.parent, overrides=overrides)
