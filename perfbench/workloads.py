"""The benchmark's three workloads: seeded configs and the CLI command each runs.

Every workload is one ``twpacorr`` command on a YAML config generated here
from the benchmark seed. The seed picks the simulator seed and, for the
phase calibration, the amplifier phase mismatch; it never changes the amount
of work, so timings compare across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

F_PUMP = 6.331e9
F_IDLER = 6.481e9
GAIN = 2.0
TAU = 6e-6
#: 90 bins: wide enough that the comb truncation bias in rho stays below
#: 0.006 at every swept detuning (see README), narrow enough to keep runs short.
BAND = {"halfwidth": 2.7e6, "bin_spacing": 60e3}
#: The package's default samples per window (sample_rate = 100 / tau).
SAMPLES_PER_WINDOW = 100

LINEWIDTH_SHOTS = 2000
LINEWIDTH_POINTS = 25
LINEWIDTH_SPAN = 1.5e6

PHASE_SHOTS = 20000
PHASE_POINTS = 361
#: The config defaults the phase calibration relies on, stated for the checks.
DEFAULT_CHAIN_GAIN = 1e6
DEFAULT_NOISE_QUANTA = 10.0
#: Dumped angles relative to the phase mismatch: the peak, half height, zero.
DUMP_OFFSETS_DEG = (0.0, 60.0, 90.0)

TRACE_SHOTS = 4000
TRACE_DUMPS = 2000

NAMES = ("linewidth_sweep", "phase_calibration", "trace_dump")


@dataclass(frozen=True)
class Workload:
    """One generated workload: its config, command and what the checks need."""

    name: str
    seed: int
    config: dict
    command: str
    options: tuple[str, ...]
    #: Pump-on/off shot pairs acquired by run_experiment (n_shots x experiments).
    shot_pairs: int
    params: dict = field(default_factory=dict)

    def write_config(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "config.yaml"
        path.write_text(yaml.safe_dump(self.config, sort_keys=True))
        return path

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        """CLI arguments after the program name."""
        return [self.command, "--config", str(config_path), "--out", str(out_dir), *self.options]


def _base_config(sim_seed: int, theta_deg: float) -> dict:
    return {
        "frequency": {"f_pump": F_PUMP, "f_idler_demod": F_IDLER, "detuning": 0.0},
        "twpa": {"gain_signal": GAIN, "gain_idler": GAIN, "phase_mismatch_deg": theta_deg},
        "band": dict(BAND),
        "output_dir": "out",
        "seed": sim_seed,
    }


def make(name: str, seed: int) -> Workload:
    """Build workload ``name`` for benchmark seed ``seed``; same seed, same inputs."""
    rng = random.Random(f"twpacorr-perfbench:{name}:{seed}")
    sim_seed = rng.randrange(2**63)
    if name == "linewidth_sweep":
        config = _base_config(sim_seed, 0.0)
        config["acquisition"] = {
            "window": {"shape": "rectangular", "tau": TAU},
            "n_shots": LINEWIDTH_SHOTS,
            "chain_gain_signal": 1.0,
            "chain_gain_idler": 1.0,
            "added_noise_quanta": 0.0,
        }
        config["linewidth"] = {
            "points": LINEWIDTH_POINTS,
            "span": LINEWIDTH_SPAN,
            "cases": [
                {"window": "rectangular", "tau": TAU},
                {"window": "gaussian", "tau": TAU},
            ],
        }
        cases = len(config["linewidth"]["cases"])
        # One zero-detuning calibration run plus one run per point, per case.
        pairs = LINEWIDTH_SHOTS * (LINEWIDTH_POINTS + 1) * cases
        return Workload(name, seed, config, "compare-windows", (), pairs)
    if name == "phase_calibration":
        theta_deg = round(rng.uniform(-180.0, 180.0), 1)
        config = _base_config(sim_seed, theta_deg)
        # Chain gain and added noise are left to the config defaults.
        config["acquisition"] = {
            "window": {"shape": "gaussian", "tau": TAU},
            "n_shots": PHASE_SHOTS,
        }
        config["phase_sweep"] = {"points": PHASE_POINTS}
        angles = [round((theta_deg + offset) % 360.0, 1) for offset in DUMP_OFFSETS_DEG]
        options = ("--dump-shots", ",".join(f"{a:g}" for a in angles))
        params = {"theta_deg": theta_deg, "dump_angles_deg": angles}
        return Workload(name, seed, config, "phase-sweep", options, PHASE_SHOTS, params)
    if name == "trace_dump":
        config = _base_config(sim_seed, 0.0)
        config["acquisition"] = {
            "window": {"shape": "rectangular", "tau": TAU},
            "n_shots": TRACE_SHOTS,
            "chain_gain_signal": 1.0,
            "chain_gain_idler": 1.0,
            "added_noise_quanta": 0.0,
        }
        options = ("--dump-traces", str(TRACE_DUMPS))
        return Workload(name, seed, config, "simulate", options, TRACE_SHOTS)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
