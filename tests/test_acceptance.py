"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Runs the full pipeline at realistic scale (10^4 shots, 51-point detuning
grids, both window families at 3/4/5/6 us) against analytic closed forms and
independent quadrature oracles. Everything is seeded, so the suite is
deterministic; the statistical tolerances are three-sigma style bounds
computed from the data itself.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from twpacorr import (
    AcquisitionConfig,
    EmissionBandModel,
    TwpaParams,
    WindowSpec,
    estimate_covariance,
    infer_tmsvs,
    inferred_pearson,
    pearson_xx,
    phase_sweep,
    physicality_min_eigenvalue,
    run_experiment,
    tmsvs_covariance,
)
from twpacorr.cli import main as cli_main
from twpacorr.linewidth import compare_windows, fit_model, model_prediction, sweep_detuning
from twpacorr.linewidth import SINC_FIRST_LOBE_LEVEL, _model_jacobian

from conftest import F_IDLER, F_PUMP, gaussian_standard_errors, overlap_kernel

# Deselect with -m "not acceptance" for a quick loop; tier-1 runs it.
pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 20260810
ALT_SEED = 977003

RHO_G2 = 2.0 * math.sqrt(2.0) / 3.0
FWHM_TAU_RECT = 1.2067

TAUS = (3e-6, 4e-6, 5e-6, 6e-6)
SWEEP_POINTS = 51
SWEEP_SPAN = 2e6
N_SHOTS = 10_000

TWPA = TwpaParams(2.0, 2.0, 0.0)
BAND = EmissionBandModel(per_bin_params=TWPA, band_halfwidth=4.4e6, bin_spacing=50e3)


def _acquisition(tau: float, shape: str, seed: int = ACCEPT_SEED) -> AcquisitionConfig:
    return AcquisitionConfig(
        window=WindowSpec(shape, tau),
        n_shots=N_SHOTS,
        seed=seed,
        chain_gain_signal=1.0,
        chain_gain_idler=1.0,
        added_noise_quanta=0.0,
    )


def _finish(criterion: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {criterion} ({name}): {status}")
    assert not failures, f"criterion {criterion} ({name}): " + "; ".join(failures)


def _run_sweep_case(shape: str, tau: float, seed: int = ACCEPT_SEED):
    detunings = np.linspace(-SWEEP_SPAN / 2.0, SWEEP_SPAN / 2.0, SWEEP_POINTS)
    acq = _acquisition(tau, shape, seed)
    (sweep,) = sweep_detuning(BAND, acq, detunings, windows=[acq.window])
    return sweep, fit_model(sweep)


@pytest.fixture(scope="session")
def recovery_experiment():
    start = time.perf_counter()
    (data,) = run_experiment(0.0, BAND, _acquisition(6e-6, "rectangular"))
    return data, time.perf_counter() - start


@pytest.fixture(scope="session")
def joint_cases():
    """Every (shape, tau) case from one sweep that draws each run once, and its time.

    Each case's sweep is bit-identical to ``_run_sweep_case(shape, tau)``.
    """
    start = time.perf_counter()
    windows = [WindowSpec(shape, tau) for shape in ("rectangular", "gaussian") for tau in TAUS]
    detunings = np.linspace(-SWEEP_SPAN / 2.0, SWEEP_SPAN / 2.0, SWEEP_POINTS)
    sweeps = sweep_detuning(BAND, _acquisition(TAUS[-1], "rectangular"), detunings, windows=windows)
    cases = {}
    for window, sweep in zip(windows, sweeps):
        if isinstance(sweep, ValueError):
            raise sweep
        cases[window.shape, window.tau] = sweep, fit_model(sweep)
    return cases, time.perf_counter() - start


@pytest.fixture(scope="session")
def rect_cases(joint_cases):
    cases, elapsed = joint_cases
    return {tau: cases["rectangular", tau] for tau in TAUS}, elapsed


@pytest.fixture(scope="session")
def gauss_cases(joint_cases):
    cases, _ = joint_cases
    return {tau: cases["gaussian", tau] for tau in TAUS}


def _kernel_agreement_failures(shape: str, seed: int = ACCEPT_SEED) -> list:
    """Pointwise |rho(df)/rho(0) - kernel| <= 3 SE over a 21-point grid."""
    window = WindowSpec(shape, 6e-6)
    detunings = np.linspace(-1e6, 1e6, 21)
    acq = AcquisitionConfig(
        window=window,
        n_shots=N_SHOTS,
        seed=seed,
        chain_gain_signal=1.0,
        chain_gain_idler=1.0,
        added_noise_quanta=0.0,
    )
    (sweep,) = sweep_detuning(BAND, acq, detunings, windows=[window])
    kernel = overlap_kernel(window, detunings)
    center = detunings.size // 2
    rho0, se0 = sweep.rho_values[center], sweep.rho_errors[center]
    failures = []
    for k in range(detunings.size):
        ratio = sweep.rho_values[k] / rho0
        se_ratio = math.sqrt(
            (sweep.rho_errors[k] / rho0) ** 2 + (ratio * se0 / rho0) ** 2
        )
        if abs(ratio - kernel[k]) > 3.0 * se_ratio:
            failures.append(
                f"{shape} df={detunings[k]/1e3:+.0f} kHz: ratio {ratio:+.4f} vs "
                f"kernel {kernel[k]:+.4f} (3se {3*se_ratio:.4f})"
            )
    return failures


def test_criterion_1_collective_quadrature_consistency():
    failures = []
    start = time.perf_counter()
    for gain in (1.5, 2.0, 4.0, 10.0):
        cov = tmsvs_covariance(TwpaParams(gain, gain, 0.0))
        variance = cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2]
        reference = 0.5 * math.exp(-2.0 * math.acosh(math.sqrt(gain)))
        if abs(variance - reference) > 1e-10 * reference:
            failures.append(f"G={gain}: {variance} vs {reference}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s exceeds 1 s")
    _finish(1, "collective quadrature variance vs closed form", failures)


def test_criterion_2_end_to_end_covariance_recovery(recovery_experiment):
    data, elapsed = recovery_experiment
    failures = []
    on = estimate_covariance(data.on)
    off = estimate_covariance(data.off)
    inferred = infer_tmsvs(on, off, 1.0, 1.0)
    analytic = tmsvs_covariance(TWPA)
    n = data.on.shape[0]
    se_on, se_off = gaussian_standard_errors(on, n), gaussian_standard_errors(off, n)
    tolerance = 3.0 * np.sqrt(se_on**2 + se_off**2)
    deviation = np.abs(inferred - analytic)
    if not np.all(deviation <= tolerance):
        worst = np.unravel_index(np.argmax(deviation - tolerance), deviation.shape)
        failures.append(
            f"entry {worst}: |dev| {deviation[worst]:.4f} > 3se {tolerance[worst]:.4f}"
        )
    rho = pearson_xx(inferred)
    if abs(rho - RHO_G2) > 0.01:
        failures.append(f"rho {rho:.5f} not within 0.01 of {RHO_G2:.5f}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 60 s")
    _finish(2, "end-to-end covariance recovery", failures)


def test_criterion_3_phase_sweep_cosine_shape(recovery_experiment):
    data, _ = recovery_experiment
    alphas = np.linspace(0.0, 2.0 * math.pi, 73)
    result = phase_sweep(data.on, data.off, 1.0, 1.0, alphas)
    failures = []

    basis = np.column_stack([np.cos(alphas), np.sin(alphas)])
    coefficients, *_ = np.linalg.lstsq(basis, result.rho_values, rcond=None)
    residual_rms = float(np.sqrt(np.mean((result.rho_values - basis @ coefficients) ** 2)))
    mean_se = float(np.mean(result.rho_errors))
    if residual_rms >= 3.0 * mean_se:
        failures.append(f"cosine residual rms {residual_rms:.4f} >= 3x mean se {mean_se:.4f}")

    step_deg = 5.0
    peak = math.degrees(alphas[int(np.argmax(result.rho_values))])
    trough = math.degrees(alphas[int(np.argmin(result.rho_values))])
    separation = abs(((peak - trough) + 180.0) % 360.0 - 180.0)
    if abs(separation - 180.0) > step_deg + 1e-9:
        failures.append(f"extrema separated by {separation:.1f} deg, not 180 +- {step_deg}")
    _finish(3, "phase sweep fits a cosine with opposite extrema", failures)


def test_criterion_4_rectangular_linewidth_scaling(rect_cases):
    cases, elapsed = rect_cases
    failures = []
    for tau, (sweep, fit) in cases.items():
        product = fit.fwhm * tau
        if not fit.converged:
            failures.append(f"tau={tau*1e6:g}us fit did not converge")
        if abs(product - FWHM_TAU_RECT) > 0.05 * FWHM_TAU_RECT:
            failures.append(
                f"tau={tau*1e6:g}us: FWHM*tau {product:.4f} outside {FWHM_TAU_RECT}+-5%"
            )
    if elapsed >= 900.0:
        failures.append(f"the joint sweep of every case took {elapsed:.0f} s, over the 15 min budget")
    _finish(4, "rectangular FWHM scales as 1.2067/tau", failures)


def test_criterion_5_window_comparison(rect_cases, gauss_cases):
    rect, _ = rect_cases
    failures = []
    for tau in TAUS:
        rect_sweep, rect_fit = rect[tau]
        gauss_sweep, gauss_fit = gauss_cases[tau]
        if gauss_fit.fwhm <= rect_fit.fwhm:
            failures.append(
                f"tau={tau*1e6:g}us: gaussian FWHM {gauss_fit.fwhm:.0f} <= "
                f"rectangular {rect_fit.fwhm:.0f}"
            )
        rect_row = compare_windows(rect_fit, rect_sweep)
        expected_lobe = SINC_FIRST_LOBE_LEVEL * rect_fit.amplitude
        if not (0.7 * expected_lobe <= rect_row.sidelobe <= 1.3 * expected_lobe):
            failures.append(
                f"tau={tau*1e6:g}us: rectangular side lobe {rect_row.sidelobe:.4f} outside "
                f"{expected_lobe:.4f}+-30%"
            )
        gauss_row = compare_windows(gauss_fit, gauss_sweep)
        if gauss_row.n_sidelobe_points > 0 and gauss_row.sidelobe > 3.0 * gauss_row.sidelobe_se:
            failures.append(
                f"tau={tau*1e6:g}us: gaussian tail {gauss_row.sidelobe:.4f} exceeds "
                f"3se {3*gauss_row.sidelobe_se:.4f}"
            )
    _finish(5, "gaussian window is wider and lobe-free", failures)


def test_criterion_6_kernel_oracle_agreement():
    failures = []
    for shape in ("rectangular", "gaussian"):
        failures.extend(_kernel_agreement_failures(shape))
    _finish(6, "swept correlation follows the window-overlap kernel", failures)


def test_criterion_7_symplectic_physicality():
    failures = []
    grid = [
        (g_s, g_i)
        for g_s in (1.0, 1.5, 3.0, 10.0)
        for g_i in (1.0, 2.0, 25.0)
        if (g_s, g_i) != (1.0, 1.0)
    ]
    thetas = (-2.0, 0.0, 1.1, math.pi)
    points = [(g_s, g_i, theta) for g_s, g_i in grid[:5] for theta in thetas]
    points = points[:20]
    for g_s, g_i, theta in points:
        cov = tmsvs_covariance(TwpaParams(g_s, g_i, theta))
        smallest = physicality_min_eigenvalue(cov)
        if smallest < -1e-9:
            failures.append(f"(G_s={g_s}, G_i={g_i}, theta={theta}): min eig {smallest:.2e}")
    assert len(points) == 20
    _finish(7, "output states satisfy the uncertainty bound", failures)


def _small_cli_config(tmp_path: Path, seed: int) -> Path:
    config = {
        "frequency": {"f_pump": F_PUMP, "f_idler_demod": F_IDLER, "detuning": 0.0},
        "twpa": {"gain_signal": 2.0, "gain_idler": 2.0, "phase_mismatch_deg": 0.0},
        "band": {"halfwidth": 2.9e6, "bin_spacing": 80.0e3},
        "acquisition": {
            "window": {"shape": "rectangular", "tau": 6.0e-6},
            "n_shots": 800,
            "chain_gain_signal": 1.0,
            "chain_gain_idler": 1.0,
            "added_noise_quanta": 0.0,
        },
        "phase_sweep": {"points": 25},
        "linewidth": {
            "points": 11,
            "span": 0.4e6,
            "cases": [
                {"window": "rectangular", "tau": 6.0e-6},
                {"window": "gaussian", "tau": 4.0e-6},
            ],
        },
        "output_dir": "out",
        "seed": seed,
    }
    path = tmp_path / f"accept_{seed}.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def test_criterion_8_determinism_and_seed_independence(tmp_path):
    failures = []
    runner = CliRunner()
    config_path = _small_cli_config(tmp_path, ACCEPT_SEED)

    result_a = runner.invoke(
        cli_main, ["linewidth", "--config", str(config_path), "--out", str(tmp_path / "a")]
    )
    result_b = runner.invoke(
        cli_main, ["linewidth", "--config", str(config_path), "--out", str(tmp_path / "b")]
    )
    if result_a.exit_code != 0 or result_b.exit_code != 0:
        failures.append("linewidth command failed")
    for name in ("fits.csv", "linewidth_rectangular_6us.csv", "linewidth_gaussian_4us.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"{name} differs between identical runs")

    result_c = runner.invoke(
        cli_main,
        [
            "linewidth", "--config", str(config_path), "--out", str(tmp_path / "c"),
            "--seed", str(ALT_SEED),
        ],
    )
    if result_c.exit_code != 0:
        failures.append("seed-override run failed")
    if (tmp_path / "a" / "fits.csv").read_bytes() == (tmp_path / "c" / "fits.csv").read_bytes():
        failures.append("changing the master seed left fits.csv unchanged")

    # The statistical criteria must hold at the new seed too: covariance
    # recovery, the rectangular FWHM law, and kernel agreement.
    (data,) = run_experiment(0.0, BAND, _acquisition(6e-6, "rectangular", seed=ALT_SEED))
    on = estimate_covariance(data.on)
    off = estimate_covariance(data.off)
    inferred = infer_tmsvs(on, off, 1.0, 1.0)
    n = data.on.shape[0]
    se_on, se_off = gaussian_standard_errors(on, n), gaussian_standard_errors(off, n)
    tolerance = 3.0 * np.sqrt(se_on**2 + se_off**2)
    if not np.all(np.abs(inferred - tmsvs_covariance(TWPA)) <= tolerance):
        failures.append("alt seed: covariance recovery outside 3 se")
    rho = pearson_xx(inferred)
    if abs(rho - RHO_G2) > 0.01:
        failures.append(f"alt seed: rho {rho:.5f} not within 0.01")

    _, fit = _run_sweep_case("rectangular", 6e-6, seed=ALT_SEED)
    product = fit.fwhm * 6e-6
    if abs(product - FWHM_TAU_RECT) > 0.05 * FWHM_TAU_RECT:
        failures.append(f"alt seed: FWHM*tau {product:.4f} outside 5%")

    failures.extend(
        f"alt seed: {message}" for message in _kernel_agreement_failures("rectangular", ALT_SEED)
    )
    _finish(8, "byte-identical reruns, seed changes preserve physics", failures)


def test_criterion_9_fit_gradients_match_finite_differences(rect_cases):
    cases, _ = rect_cases
    sweep, fit = cases[6e-6]
    failures = []
    detunings = sweep.detunings
    for model, amplitude, scale in (
        ("sinc", fit.amplitude, fit.scale_xi),
        ("gaussian", 0.9, 5.0e-6),
    ):
        jacobian = _model_jacobian(model, detunings, amplitude, scale)
        steps = (amplitude * 1e-6, scale * 1e-6)
        for column, step in enumerate(steps):
            upper_args = [amplitude, scale]
            lower_args = [amplitude, scale]
            upper_args[column] += step
            lower_args[column] -= step
            finite = (
                model_prediction(model, detunings, *upper_args)
                - model_prediction(model, detunings, *lower_args)
            ) / (2.0 * step)
            scale_norm = float(np.max(np.abs(jacobian[:, column])))
            worst = float(np.max(np.abs(finite - jacobian[:, column])))
            if worst > 1e-5 * scale_norm:
                failures.append(f"{model} param {column}: dev {worst:.2e} > 1e-5 rel")
    _finish(9, "analytic fit gradients match finite differences", failures)
