"""Tests for the package surface: exported names and the names the benchmark wraps."""

import ast
import importlib
from pathlib import Path

import twpacorr

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


def test_benchmark_counters_still_read_the_package(tmp_path, monkeypatch):
    # The tracer's counters bind arguments and results by name (band, config,
    # alphas, n_iterations); a signature change would zero them silently.
    from click.testing import CliRunner

    from twpacorr import cli, estimators, linewidth
    from test_cli import write_config

    monkeypatch.syspath_prepend(str(SPANS.parent))
    tracer = importlib.import_module("spans").Tracer()
    config = str(write_config(tmp_path))
    commands = (
        ["simulate", "--dump-traces", "2"],
        ["phase-sweep", "--dump-shots", "0"],
        ["compare-windows"],
    )
    modules = {"cli": cli, "linewidth": linewidth, "estimators": estimators}
    with tracer.installed(modules):
        for command in commands:
            out = str(tmp_path / command[0])
            result = CliRunner().invoke(cli.main, [*command, "--config", config, "--out", out])
            assert result.exit_code == 0, result.output
    for counter in (
        "acquisition.run_experiment_normals",
        "acquisition.synthesize_normals",
        "estimators.phase_sweep_angles",
        "linewidth.fit_nfev",
    ):
        assert tracer.counts[counter] > 0, counter


def test_benchmark_samples_per_window_match_the_package(monkeypatch):
    # The benchmark's trace check reshapes the dumped traces by its own
    # SAMPLES_PER_WINDOW; it must be the package's.
    from twpacorr import acquisition

    monkeypatch.syspath_prepend(str(SPANS.parent))
    workloads = importlib.import_module("workloads")
    assert workloads.SAMPLES_PER_WINDOW == acquisition.SAMPLES_PER_WINDOW
