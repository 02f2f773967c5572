"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py [--seeds 2,3,4]

1. Every workload passes its output checks on several seeds besides the
   one the benchmark was tuned on.
2. Deliberately corrupted copies of real outputs fail the check meant to
   catch them, so each check can see a fault.
3. The comb truncation bias of the simulated band stays far below the
   tolerance of every rho check.
4. A rerun whose files differ is reported, and the metric names here match
   BENCHMARK.json.

Prints one line per test and exits non-zero if any fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run  # sets the BLAS thread count before numpy does any work
import checks
import oracles
import workloads

RESULTS: list[bool] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  -- ' + detail if detail and not ok else ''}", flush=True)


def produce(name: str, seed: int, directory: Path) -> tuple[workloads.Workload, Path]:
    workload = workloads.make(name, seed)
    config = workload.write_config(directory)
    out = directory / "out"
    argv = [sys.executable, "-m", "twpacorr.cli", *workload.argv(config, out)]
    exit_code, _, _ = run.run_process(argv, directory)
    if exit_code != 0:
        raise RuntimeError(f"{name} seed {seed} exited {exit_code}: {(directory / 'stderr.txt').read_text()}")
    return workload, out


def edit_csv(path: Path, column: str, change) -> None:
    """Rewrite one column of a CLI CSV through ``change(values) -> values``."""
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    index = body[0].index(column)
    values = change([row[index] for row in body[1:]])
    for row, value in zip(body[1:], values):
        row[index] = value
    path.write_text("\n".join(meta + [",".join(row) for row in body]) + "\n")


def scaled(factor: float):
    return lambda values: [format(float(v) * factor, ".9g") for v in values]


def corruptions(workload: workloads.Workload):
    """(description, text the failure must contain, function editing an output dir)."""
    if workload.name == "linewidth_sweep":
        rect = "linewidth_rectangular_6us.csv"
        return [
            ("rho scaled by 0.9", "rho scale", lambda d: edit_csv(d / rect, "rho_abs", scaled(0.9))),
            ("FWHM halved", "FWHM*tau", lambda d: (
                edit_csv(d / "fits.csv", "fwhm_hz", scaled(0.5)),
                edit_csv(d / "comparison.csv", "fwhm_tau", scaled(0.5)),
            )),
            ("fit not converged", "converge", lambda d: edit_csv(
                d / "fits.csv", "converged", lambda v: ["false"] * len(v))),
            ("side lobe lost", "side lobe", lambda d: edit_csv(
                d / "fits.csv", "sidelobe", lambda v: ["0"] * len(v))),
            ("one point off the kernel", "oracle", lambda d: edit_csv(
                d / rect, "rho_abs", lambda v: v[:12] + ["0.5"] + v[13:])),
        ]
    if workload.name == "phase_calibration":
        angles = workload.params["dump_angles_deg"]
        peak_file = f"shots_alpha_{angles[0]:g}deg.csv"

        def shift_alpha_star(d: Path) -> None:
            path = d / "phase_sweep_summary.json"
            summary = json.loads(path.read_text())
            summary["alpha_star_deg"] += 30.0
            path.write_text(json.dumps(summary))

        return [
            ("alpha_star off by 30 deg", "alpha_star", shift_alpha_star),
            ("phase curve shifted by 90 deg", "cosine law", lambda d: edit_csv(
                d / "phase_sweep.csv", "rho", lambda v: list(np.roll(v, 90)))),
            ("dumped idler scaled by 0.9", "var(x_idler)", lambda d: edit_csv(
                d / peak_file, "x_idler", scaled(0.9))),
            ("dumped idler sign flipped", "raw correlation", lambda d: edit_csv(
                d / peak_file, "x_idler", scaled(-1.0))),
        ]
    traces = "traces_pump_on.csv"
    return [
        ("wrong trace power", "trace power", lambda d: [
            edit_csv(d / traces, column, scaled(1.05))
            for column in ("signal_re", "signal_im", "idler_re", "idler_im")
        ]),
        ("signal trace conjugated", "demodulated traces", lambda d: edit_csv(
            d / traces, "signal_im", scaled(-1.0))),
        ("inferred cross block negated", "covariance_tmsvs", lambda d: [
            edit_csv(d / "covariance_tmsvs.csv", column, lambda v: [
                format(-float(x), ".9g") if i in rows else x for i, x in enumerate(v)
            ])
            for column, rows in (("x_signal", (2, 3)), ("p_signal", (2, 3)),
                                 ("x_idler", (0, 1)), ("p_idler", (0, 1)))
        ]),
    ]


def check_bias(workload: workloads.Workload, out: Path) -> None:
    """On the detuning sweep, the discretized comb's exact rho differs from
    the continuum oracle by far less than any rho tolerance the checks apply."""
    band = workload.config["band"]
    z = oracles.family_quantile(2 * workloads.LINEWIDTH_POINTS, oracles.JACKKNIFE_DOF)
    for case in workload.config["linewidth"]["cases"]:
        shape, tau = case["window"], case["tau"]
        _, curve = checks.read_csv(out / f"linewidth_{shape}_{tau * 1e6:g}us.csv")
        detunings = checks._floats(curve["delta_f_hz"])
        se = checks._floats(curve["rho_se"])
        continuum = oracles.RHO_G2 * oracles.overlap_kernel(shape, tau, detunings)
        comb = np.array([
            oracles.comb_rho(band["halfwidth"], band["bin_spacing"], shape, tau,
                             workloads.SAMPLES_PER_WINDOW, df, 2.0, 2.0)
            for df in detunings
        ])
        bias = float(np.max(np.abs(comb - continuum)))
        tolerance = float(z * se.min())
        report(f"comb bias {shape}: {bias:.5f} below a tenth of {tolerance:.4f}", bias < 0.1 * tolerance)
        central = abs(comb[detunings.size // 2] / continuum[detunings.size // 2] - 1.0)
        report(f"comb bias {shape} at zero detuning: {central:.2%} below 0.5%", central < 0.005)


def check_rerun_mismatch(out: Path) -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        rounds = run.Rounds(Path(scratch))
        first = Path(scratch) / "first"
        shutil.copytree(out, first)
        rounds.record(first, 0)
        second = Path(scratch) / "second"
        shutil.copytree(out, second)
        victim = sorted(p for p in second.iterdir() if p.suffix == ".csv")[0]
        victim.write_text(victim.read_text().replace("1", "2", 1))
        rounds.record(second, 0)
        report("a rerun with a changed file is reported", len(rounds.mismatches) == 1)


def check_metric_names() -> None:
    spec_path = run.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        report("BENCHMARK.json present", False, f"missing {spec_path}")
        return
    spec = json.loads(spec_path.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report("end-to-end metrics match BENCHMARK.json", end_to_end == run.END_TO_END_UNITS)
    report("per-layer metrics match BENCHMARK.json", per_layer == run.PER_LAYER_UNITS)
    report("workloads match BENCHMARK.json", [w["name"] for w in spec["workloads"]] == list(workloads.NAMES))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="2,3,4", help="comma-separated benchmark seeds")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]

    check_metric_names()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        scratch = Path(scratch)
        for name in workloads.NAMES:
            for seed in seeds:
                workload, out = produce(name, seed, scratch / f"{name}-{seed}")
                failures = checks.check(workload, out)
                report(f"{name} seed {seed} passes its checks", not failures, "; ".join(failures))
            if name == "linewidth_sweep":
                check_bias(workload, out)
            for description, expected, corrupt in corruptions(workload):
                copy = scratch / f"{name}-corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out, copy)
                corrupt(copy)
                failures = checks.check(workload, copy)
                caught = any(expected in failure for failure in failures)
                report(f"{name}: {description} is caught", caught, "; ".join(failures) or "no failure")
            if name == "trace_dump":
                check_rerun_mismatch(out)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    print(f"{sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
