"""Tests for the package surface: exported names and the names the benchmark wraps."""

import ast
import importlib
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import twpacorr

from conftest import source_env

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the WRAPPED table in perfbench/spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return [(module, attribute) for module, attribute, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_exported_names_resolve():
    missing = [name for name in twpacorr.__all__ if not hasattr(twpacorr, name)]
    assert not missing


def test_benchmark_wrapped_names_are_bound():
    # The traced benchmark run wraps these names where the table says they
    # are looked up; an unbound one breaks that run.
    unbound = [
        f"twpacorr.{module}.{attribute}"
        for module, attribute in wrapped_names()
        if not callable(getattr(importlib.import_module(f"twpacorr.{module}"), attribute, None))
    ]
    assert not unbound


def test_benchmark_counters_bind_arguments_that_exist():
    # The tracer's counters bind these arguments by name on the functions
    # that WRAPPED names; a renamed one makes every traced run fail.
    bound = {
        "run_experiment": ("band", "config"),
        "phase_sweep": ("alphas",),
        "synthesize_baseband_pair": ("band",),
    }
    wrapped = wrapped_names()
    assert set(bound) <= {attribute for _, attribute in wrapped}
    for module, attribute in wrapped:
        function = getattr(importlib.import_module(f"twpacorr.{module}"), attribute)
        missing = set(bound.get(attribute, ())) - set(inspect.signature(function).parameters)
        assert not missing, f"twpacorr.{module}.{attribute} lacks {sorted(missing)}"


def test_benchmark_counters_still_read_the_package(tmp_path, monkeypatch):
    # The tracer's counters bind arguments and results by name (band, config,
    # alphas, n_iterations); a signature change would zero them silently.
    from click.testing import CliRunner

    from twpacorr import cli, estimators, linewidth
    from test_cli import BASE_CONFIG, write_config

    monkeypatch.syspath_prepend(str(SPANS.parent))
    spans = importlib.import_module("spans")
    cases = [{"window": "rectangular", "tau": 6.0e-6}, {"window": "gaussian", "tau": 6.0e-6}]
    config = str(write_config(tmp_path, overrides={"linewidth.cases": cases}))
    commands = (
        ["simulate", "--dump-traces", "2"],
        ["phase-sweep", "--dump-shots", "0"],
        ["compare-windows"],
    )
    modules = {"cli": cli, "linewidth": linewidth, "estimators": estimators}
    tracers = {}
    for command in commands:
        tracer = tracers[command[0]] = spans.Tracer()
        with tracer.installed(modules):
            out = str(tmp_path / command[0])
            result = CliRunner().invoke(cli.main, [*command, "--config", config, "--out", out])
            assert result.exit_code == 0, result.output
    counts = sum((tracer.counts for tracer in tracers.values()), Counter())
    for counter in (
        "acquisition.run_experiment_normals",
        "acquisition.synthesize_normals",
        "estimators.phase_sweep_angles",
        "linewidth.fit_nfev",
    ):
        assert counts[counter] > 0, counter

    # compare-windows draws each of its P + 1 runs once for both cases, and
    # the tracer counts the normals of each run once.
    points, n_shots = BASE_CONFIG["linewidth"]["points"], BASE_CONFIG["acquisition"]["n_shots"]
    band = BASE_CONFIG["band"]
    n_bins = round(2 * band["halfwidth"] / band["bin_spacing"])
    compare = tracers["compare-windows"]
    assert compare.summary()[2]["acquisition.run_experiment"] == points + 1
    # Each single-window command acquires its one run with one call.
    for command in ("simulate", "phase-sweep"):
        assert tracers[command].summary()[2]["acquisition.run_experiment"] == 1, command
    assert tracers["simulate"].summary()[2]["acquisition.synthesize_baseband_pair"] == 1
    assert compare.counts["acquisition.run_experiment_normals"] == (points + 1) * 2 * n_shots * 4 * n_bins


def test_benchmark_samples_per_window_match_the_package(monkeypatch):
    # The benchmark's trace check reshapes the dumped traces by its own
    # SAMPLES_PER_WINDOW; it must be the package's.
    from twpacorr import acquisition

    monkeypatch.syspath_prepend(str(SPANS.parent))
    workloads = importlib.import_module("workloads")
    assert workloads.SAMPLES_PER_WINDOW == acquisition.SAMPLES_PER_WINDOW


def test_cli_import_loads_no_process_machinery():
    # Acquisition imports multiprocessing when a run first splits its shots,
    # so that starting a command does not pay for it.
    code = (
        "import sys\n"
        "import twpacorr.cli\n"
        "print(*(name for name in ('multiprocessing', 'concurrent.futures') if name in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_fitting_loads_no_scipy():
    # The fit has its own solver; scipy is a test and benchmark reference only.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import twpacorr.cli\n"
        "from twpacorr import DetuningSweep, WindowSpec, fit_model, model_prediction\n"
        "detunings = np.linspace(-1e6, 1e6, 21)\n"
        "values = model_prediction('sinc', detunings, 0.93, 1.9e-5)\n"
        "fit = fit_model(DetuningSweep(detunings, values, np.zeros(21), WindowSpec('rectangular', 6e-6)))\n"
        "assert fit.converged\n"
        "print(*sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
