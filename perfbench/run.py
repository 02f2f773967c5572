"""Benchmark entry point: run one workload, check its outputs, print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload linewidth_sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every workload command runs in a fresh process with
tracing off, and the end-to-end metrics are medians over the rounds of the
run. With ``--trace 1`` the command runs in this process, alternately plain
and with spans recorded around each layer, and the per-layer metrics come
from the traced rounds. Either way the outputs are checked against the
oracles, and every round must write byte-identical data files. The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# One BLAS thread for the benchmark and every command it starts, so that
# the figures do not depend on load on the machine's other core. This has to
# be set before numpy is first imported.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"

#: Fresh-process set-up measurements per run; the median is reported.
SETUP_REPEATS = 5
#: Every run repeats the command at least twice, to compare the data files.
MIN_ROUNDS = 2
#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0

SETUP_SNIPPET = (
    "import sys\n"
    "import twpacorr.cli\n"
    "from twpacorr.config import load_config\n"
    "load_config(sys.argv[1])\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "shot_pairs_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.load_config_s": "s",
    "acquisition.self_s": "s",
    "acquisition.run_experiment_s": "s",
    "acquisition.run_experiment_calls": "count",
    "acquisition.normals_drawn": "count",
    "acquisition.ns_per_normal": "ns",
    "acquisition.synthesize_baseband_pair_s": "s",
    "acquisition.synthesize_baseband_pair_calls": "count",
    "estimators.self_s": "s",
    "estimators.phase_sweep_s": "s",
    "estimators.phase_sweep_angles": "count",
    "estimators.inferred_pearson_s": "s",
    "estimators.inferred_pearson_calls": "count",
    "estimators.estimate_covariance_s": "s",
    "gaussian.self_s": "s",
    "gaussian.pearson_xx_calls": "count",
    "gaussian.rotate_quadrature_array_calls": "count",
    "linewidth.self_s": "s",
    "linewidth.sweep_detuning_self_s": "s",
    "linewidth.fit_model_s": "s",
    "linewidth.fit_nfev": "count",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("config", "acquisition", "estimators", "gaussian", "linewidth", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one fresh process."""
    with open(cwd / "stderr.txt", "ab") as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return process.returncode, wall, usage.ru_maxrss / 1024.0


def data_digest(directory: Path) -> dict:
    """SHA-256 of every file a command wrote, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def written(directory: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) of every file a command wrote."""
    rows = size = 0
    for path in directory.rglob("*"):
        if path.is_file():
            size += path.stat().st_size
            if path.suffix == ".csv":
                lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
                rows += max(0, len(lines) - 1)
    return rows, size


class Rounds:
    """Outputs of the repeated command: keeps the first, compares the rest to it."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.first: Path | None = None
        self.digest: dict | None = None
        self.mismatches: list[str] = []

    def out_dir(self) -> Path:
        return self.workdir / f"out{self.attempted}"

    def record(self, out: Path, exit_code: int) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            return
        digest = data_digest(out)
        if self.first is None:
            self.first, self.digest = out, digest
            return
        if digest != self.digest:
            changed = sorted(k for k in set(digest) | set(self.digest) if digest.get(k) != self.digest.get(k))
            self.mismatches.append(f"rerun {out.name} differs in {', '.join(changed)}")
        shutil.rmtree(out)


def run_end_to_end(workload: workloads.Workload, seconds: float, workdir: Path) -> tuple[dict, Rounds]:
    config_path = workload.write_config(workdir)
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
    # The first start compiles the package's bytecode, which users pay once.
    run_process(setup_argv, workdir)
    setup = [run_process(setup_argv, workdir)[1] for _ in range(SETUP_REPEATS)]

    rounds = Rounds(workdir)
    walls, rss = [], []
    start = time.perf_counter()
    while rounds.attempted < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out = rounds.out_dir()
        argv = [sys.executable, "-m", "twpacorr.cli", *workload.argv(config_path, out)]
        exit_code, wall, peak = run_process(argv, workdir)
        rounds.record(out, exit_code)
        if exit_code == 0:
            walls.append(wall)
            rss.append(peak)
    if not walls:
        return {}, rounds
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "shot_pairs_per_s": statistics.median(workload.shot_pairs / w for w in walls),
        "peak_rss_mb": statistics.median(rss),
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}, rounds


def _invoke(cli, argv: list[str]) -> int:
    """Run the CLI in this process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=argv, prog_name="twpacorr", standalone_mode=False)
        except SystemExit as exit_:
            return exit_.code if isinstance(exit_.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1
    return 0


def layer_metrics(tracer: Tracer, out: Path) -> dict:
    inclusive, self_time, calls = tracer.summary()
    counts = tracer.counts
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_time.items():
        layer_self[name.split(".", 1)[0]] += seconds
    normals = counts["acquisition.run_experiment_normals"]
    rows, size = written(out)
    return {
        "config.load_config_s": inclusive["config.load_config"],
        "acquisition.self_s": layer_self["acquisition"],
        "acquisition.run_experiment_s": inclusive["acquisition.run_experiment"],
        "acquisition.run_experiment_calls": calls["acquisition.run_experiment"],
        "acquisition.normals_drawn": normals + counts["acquisition.synthesize_normals"],
        "acquisition.ns_per_normal": 1e9 * inclusive["acquisition.run_experiment"] / normals if normals else 0.0,
        "acquisition.synthesize_baseband_pair_s": inclusive["acquisition.synthesize_baseband_pair"],
        "acquisition.synthesize_baseband_pair_calls": calls["acquisition.synthesize_baseband_pair"],
        "estimators.self_s": layer_self["estimators"],
        "estimators.phase_sweep_s": inclusive["estimators.phase_sweep"],
        "estimators.phase_sweep_angles": counts["estimators.phase_sweep_angles"],
        "estimators.inferred_pearson_s": inclusive["estimators.inferred_pearson"],
        "estimators.inferred_pearson_calls": calls["estimators.inferred_pearson"],
        "estimators.estimate_covariance_s": inclusive["estimators.estimate_covariance"],
        "gaussian.self_s": layer_self["gaussian"],
        "gaussian.pearson_xx_calls": calls["gaussian.pearson_xx"],
        "gaussian.rotate_quadrature_array_calls": calls["gaussian.rotate_quadrature_array"],
        "linewidth.self_s": layer_self["linewidth"],
        "linewidth.sweep_detuning_self_s": self_time["linewidth.sweep_detuning"],
        "linewidth.fit_model_s": inclusive["linewidth.fit_model"],
        "linewidth.fit_nfev": counts["linewidth.fit_nfev"],
        "cli.self_s": layer_self["cli"],
        "cli.rows_written": rows,
        "cli.bytes_written": size,
    }


def run_traced(workload: workloads.Workload, seconds: float, workdir: Path) -> tuple[dict, Rounds]:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"twpacorr.{name}") for name in ("cli", "linewidth", "estimators")}
    cli = modules["cli"]
    config_path = workload.write_config(workdir)
    rounds = Rounds(workdir)

    def plain() -> float:
        out = rounds.out_dir()
        began = time.perf_counter()
        exit_code = _invoke(cli, workload.argv(config_path, out))
        wall = time.perf_counter() - began
        rounds.record(out, exit_code)
        return wall

    def traced() -> tuple[float, dict | None]:
        out = rounds.out_dir()
        tracer = Tracer()
        began = time.perf_counter()
        with tracer.installed(modules), tracer.span(f"cli.{workload.command}"):
            exit_code = _invoke(cli, workload.argv(config_path, out))
        wall = time.perf_counter() - began
        metrics = layer_metrics(tracer, out) if exit_code == 0 else None
        rounds.record(out, exit_code)
        return wall, metrics

    # A first plain run lets lazy imports and first-call set-up finish.
    plain()
    per_round, overheads = [], []
    start = time.perf_counter()
    while not rounds.failed and (not per_round or time.perf_counter() - start < seconds):
        # Alternate the order within a pair so that drift in machine speed
        # does not read as tracing overhead.
        if len(per_round) % 2:
            wall, metrics = traced()
            base = plain()
        else:
            base = plain()
            wall, metrics = traced()
        if metrics is not None:
            per_round.append(dict(metrics, **{"trace.wall_s": wall}))
            overheads.append(wall - base)
    if rounds.failed or not per_round:
        return {}, rounds
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}, rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twpacorr" / "__init__.py").is_file():
        print(f"perfbench: no twpacorr sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, rounds = runner(workload, args.seconds, workdir)
        problems = list(rounds.mismatches)
        if rounds.first is None:
            problems.append("no round of the command succeeded")
            sys.stderr.write((workdir / "stderr.txt").read_text() if (workdir / "stderr.txt").exists() else "")
        else:
            problems += checks.check(workload, rounds.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": rounds.attempted, "failed": rounds.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
