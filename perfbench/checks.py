"""Output checks for each workload, against the independent oracles.

Every statistical bound is family-wise: a family of tests shares the false
alarm probability ``oracles.FAMILY_ALPHA``, split across its members, so the
checks hold on any seed, not only on the seeds they were written against.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles
from oracles import JACKKNIFE_DOF, RHO_G2, family_quantile
from workloads import (
    DEFAULT_CHAIN_GAIN,
    DEFAULT_NOISE_QUANTA,
    GAIN,
    SAMPLES_PER_WINDOW,
    Workload,
)

#: Height of the first side lobe of |sinc| relative to its peak.
_LOBE_LEVEL = oracles.sinc_first_lobe()
#: Main-lobe points used to estimate the overall rho scale; away from the
#: kernel zeros |rho| is an unbiased estimate of |rho * kernel|.
_SCALE_KERNEL_FLOOR = 0.3


def read_csv(path: Path) -> tuple[dict, dict]:
    """(metadata, columns) of a CSV written by the CLI; columns are string lists."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return meta, columns


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _case_label(shape: str, tau: float) -> str:
    return f"{shape}_{tau * 1e6:g}us"


def check_linewidth_sweep(workload: Workload, out: Path) -> list[str]:
    failures = []
    section = workload.config["linewidth"]
    span, points = section["span"], section["points"]
    grid = np.linspace(-span / 2.0, span / 2.0, points)
    cases = [(c["window"], c["tau"]) for c in section["cases"]]
    _, fits = read_csv(out / "fits.csv")
    _, comparison = read_csv(out / "comparison.csv")

    z_point = family_quantile(len(cases) * points, JACKKNIFE_DOF)
    z_case = family_quantile(len(cases), JACKKNIFE_DOF)
    fwhm = {}
    for row, (shape, tau) in enumerate(cases):
        label = _case_label(shape, tau)
        model = "abs_sinc" if shape == "rectangular" else "gaussian"
        _, curve = read_csv(out / f"linewidth_{label}.csv")
        detunings = _floats(curve["delta_f_hz"])
        rho = _floats(curve["rho_abs"])
        se = _floats(curve["rho_se"])
        if detunings.size != points or not np.allclose(detunings, grid, rtol=0, atol=1e-3):
            failures.append(f"{label}: detuning grid differs from the configured one")
            continue
        expected = RHO_G2 * np.abs(oracles.overlap_kernel(shape, tau, detunings))

        # rho(df) follows rho * kernel(df), point by point ...
        worst = int(np.argmax(np.abs(rho - expected) / se))
        if abs(rho[worst] - expected[worst]) > z_point * se[worst]:
            failures.append(
                f"{label}: rho({detunings[worst]:.0f} Hz) = {rho[worst]:.4f}, oracle "
                f"{expected[worst]:.4f} +- {z_point * se[worst]:.4f}"
            )
        # ... and in overall scale, which a single point cannot resolve.
        main = expected >= _SCALE_KERNEL_FLOOR * RHO_G2
        weights = 1.0 / se[main] ** 2
        information = float(np.sum(weights * expected[main] ** 2))
        scale = float(np.sum(weights * expected[main] * rho[main])) / information
        scale_bound = z_case / math.sqrt(information)
        if abs(scale - 1.0) > scale_bound:
            failures.append(f"{label}: rho scale {scale:.4f} vs oracle 1 +- {scale_bound:.4f}")

        if fits["converged"][row] != "true":
            failures.append(f"{label}: fit did not converge")
        amplitude = float(fits["A"][row])
        xi = float(fits["xi_s"][row])
        cov = oracles.param_covariance(model, detunings, rho, se, amplitude, xi)
        rel_se = math.sqrt(cov[1, 1]) / xi
        if model == "abs_sinc":
            target = oracles.FWHM_TAU_RECT
        else:
            guess = (RHO_G2, oracles.fwhm_constant(model) * tau)
            params = oracles.fit_linewidth(model, detunings, expected, se, guess)
            target = 2.0 * oracles.fwhm_constant(model) / params[1] * tau
        for source, value in (
            ("fits.csv", float(fits["fwhm_hz"][row]) * tau),
            ("comparison.csv", float(comparison["fwhm_tau"][row])),
        ):
            bound = z_case * rel_se * target
            if abs(value - target) > bound:
                failures.append(
                    f"{label}: {source} FWHM*tau {value:.4f}, oracle {target:.4f} +- {bound:.4f}"
                )
        fwhm[shape] = float(fits["fwhm_hz"][row])

        if model == "abs_sinc":
            failures += _check_side_lobe(label, float(fits["sidelobe"][row]), detunings, se, xi, expected)

    if "rectangular" in fwhm and "gaussian" in fwhm and not fwhm["gaussian"] > fwhm["rectangular"]:
        failures.append(
            f"gaussian FWHM {fwhm['gaussian']:.0f} Hz not above rectangular "
            f"{fwhm['rectangular']:.0f} Hz"
        )
    return failures


def _check_side_lobe(label, value, detunings, se, xi, expected) -> list[str]:
    """The largest |rho| beyond the first fitted zero lies near 0.2172 rho.

    Each point there is within z se of its oracle, so their maximum lies
    between the best oracle point minus z se and the lobe peak plus z se.
    """
    lobe = np.abs(detunings) > math.pi / xi
    if not np.any(lobe):
        return [f"{label}: sweep never reaches the side lobe"]
    z = family_quantile(int(np.count_nonzero(lobe)), JACKKNIFE_DOF)
    upper = RHO_G2 * _LOBE_LEVEL + z * float(se[lobe].max())
    lower = float(np.max(expected[lobe] - z * se[lobe]))
    if not lower <= value <= upper:
        return [
            f"{label}: side lobe {value:.4f} outside [{lower:.4f}, {upper:.4f}] "
            f"around {_LOBE_LEVEL:.4f} x {RHO_G2:.4f}"
        ]
    return []


def _wrap_deg(angle: float) -> float:
    return (angle + 180.0) % 360.0 - 180.0


def check_phase_calibration(workload: Workload, out: Path) -> list[str]:
    failures = []
    theta_deg = workload.params["theta_deg"]
    theta = math.radians(theta_deg)
    points = workload.config["phase_sweep"]["points"]
    _, curve = read_csv(out / "phase_sweep.csv")
    alphas_deg = _floats(curve["alpha_deg"])
    rho = _floats(curve["rho"])
    se = _floats(curve["rho_se"])
    if alphas_deg.size != points or not np.allclose(alphas_deg, np.linspace(0, 360, points)):
        return [f"phase grid differs from {points} points over [0, 360] deg"]

    # The curve follows the cosine law rho(alpha) = rho_G2 cos(alpha - theta).
    expected = oracles.cosine_law(np.radians(alphas_deg), theta, RHO_G2)
    z = family_quantile(points - 1, JACKKNIFE_DOF)
    worst = int(np.argmax(np.abs(rho - expected) / se))
    if abs(rho[worst] - expected[worst]) > z * se[worst]:
        failures.append(
            f"rho({alphas_deg[worst]:g} deg) = {rho[worst]:.4f}, cosine law "
            f"{expected[worst]:.4f} +- {z * se[worst]:.4f}"
        )

    summary = json.loads((out / "phase_sweep_summary.json").read_text())
    z1 = family_quantile(2, JACKKNIFE_DOF)
    peak = int(np.argmin(np.abs([_wrap_deg(a - theta_deg) for a in alphas_deg])))
    if abs(summary["rho_max"] - RHO_G2) > z1 * se[peak]:
        failures.append(
            f"rho_max {summary['rho_max']:.4f} vs {RHO_G2:.4f} +- {z1 * se[peak]:.4f}"
        )
    # The idler phase error is the rho error in quadrature to the peak,
    # measured by the jackknife SE a quarter turn away, over rho.
    quarter = int(np.argmin(np.abs([_wrap_deg(a - theta_deg - 90.0) for a in alphas_deg])))
    step = 360.0 / (points - 1)
    phase_bound = math.degrees(z1 * se[quarter] / RHO_G2) + step / 2.0
    offset = _wrap_deg(summary["alpha_star_deg"] - theta_deg)
    if abs(offset) > phase_bound:
        failures.append(
            f"alpha_star {summary['alpha_star_deg']:.2f} deg vs theta {theta_deg:.2f} "
            f"+- {phase_bound:.2f} deg"
        )

    # Dumped pump-on shots: raw correlation and variances at each angle.
    angles = workload.params["dump_angles_deg"]
    z_shot = family_quantile(3 * len(angles))
    total_variance = oracles.tmsvs_diag(GAIN, GAIN) + DEFAULT_NOISE_QUANTA / 4.0
    n_shots = workload.config["acquisition"]["n_shots"]
    for angle in angles:
        _, shots = read_csv(out / f"shots_alpha_{angle:g}deg.csv")
        x_s, x_i = _floats(shots["x_signal"]), _floats(shots["x_idler"])
        if x_s.size != n_shots:
            failures.append(f"alpha {angle:g}: {x_s.size} shots dumped, expected {n_shots}")
            continue
        r = float(np.corrcoef(x_s, x_i)[0, 1])
        r0 = oracles.raw_shot_correlation(
            GAIN, GAIN, theta, math.radians(angle), DEFAULT_NOISE_QUANTA
        )
        fisher_bound = z_shot / math.sqrt(n_shots - 3)
        if abs(math.atanh(r) - math.atanh(r0)) > fisher_bound:
            failures.append(f"alpha {angle:g}: raw correlation {r:.4f}, oracle {r0:.4f}")
        for name, values in (("x_signal", x_s), ("x_idler", x_i)):
            ratio = float(np.var(values, ddof=1)) / total_variance
            if abs(ratio - 1.0) > z_shot * math.sqrt(2.0 / (n_shots - 1)):
                failures.append(
                    f"alpha {angle:g}: var({name}) {ratio * total_variance:.4f}, "
                    f"oracle {total_variance:.4f} (chain gain {DEFAULT_CHAIN_GAIN:g} divided out)"
                )
    return failures


def _covariance_failures(label: str, measured, expected, standard_errors) -> list[str]:
    """Entrywise check of a 4x4 covariance over its 10 distinct entries."""
    z = family_quantile(10)
    upper = np.triu_indices(4)
    deviation = np.abs(measured - expected)[upper] / standard_errors[upper]
    worst = int(np.argmax(deviation))
    if deviation[worst] > z:
        i, j = upper[0][worst], upper[1][worst]
        return [
            f"{label}[{i},{j}] = {measured[i, j]:.4f}, closed form {expected[i, j]:.4f} "
            f"+- {z * standard_errors[i, j]:.4f}"
        ]
    return []


def _wishart_variance(cov: np.ndarray, n: int) -> np.ndarray:
    """Entrywise variance of a Gaussian sample covariance with n shots."""
    diag = np.diag(cov)
    return (np.outer(diag, diag) + cov**2) / (n - 1)


def check_trace_dump(workload: Workload, out: Path) -> list[str]:
    failures = []
    acq = workload.config["acquisition"]
    shape, tau = acq["window"]["shape"], acq["window"]["tau"]
    closed_form = oracles.tmsvs_covariance(GAIN, GAIN, 0.0)
    vacuum = 0.25 * np.eye(4)

    _, table = read_csv(out / "covariance_tmsvs.csv")
    inferred = np.array([_floats(table[c]) for c in table if c != "row"]).T
    # ON - OFF + I/4: the sampling errors of both stages add.
    variance = _wishart_variance(closed_form, acq["n_shots"]) + _wishart_variance(vacuum, acq["n_shots"])
    failures += _covariance_failures("covariance_tmsvs", inferred, closed_form, np.sqrt(variance))

    lines = (out / "traces_pump_on.csv").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    data = np.loadtxt(lines[header + 1 :], delimiter=",", ndmin=2)
    dumps = int(workload.options[workload.options.index("--dump-traces") + 1])
    n_samples = SAMPLES_PER_WINDOW
    if data.shape != (dumps * n_samples, 6) or not (
        np.array_equal(data[:, 0], np.repeat(np.arange(dumps), n_samples))
        and np.array_equal(data[:, 1], np.tile(np.arange(n_samples), dumps))
    ):
        return failures + [f"traces_pump_on.csv is not {dumps} shots x {n_samples} samples"]
    signal = (data[:, 2] + 1j * data[:, 3]).reshape(dumps, n_samples)
    idler = (data[:, 4] + 1j * data[:, 5]).reshape(dumps, n_samples)

    # Demodulate with the benchmark's own window integral at sample midpoints.
    weights = oracles.envelope(shape, tau, (np.arange(n_samples) + 0.5) * tau / n_samples)
    z_s = signal @ weights / weights.sum()
    z_i = idler @ weights / weights.sum()
    quads = np.column_stack([z_s.real, z_s.imag, z_i.real, z_i.imag])
    sample_cov = np.cov(quads, rowvar=False)
    failures += _covariance_failures(
        "demodulated traces", sample_cov, closed_form, np.sqrt(_wishart_variance(closed_form, dumps))
    )

    power = oracles.comb_trace_power(
        workload.config["band"]["halfwidth"], workload.config["band"]["bin_spacing"],
        shape, tau, GAIN, GAIN,
    )
    z = family_quantile(2)
    for name, trace in (("signal", signal), ("idler", idler)):
        per_shot = np.mean(np.abs(trace) ** 2, axis=1)
        mean = float(per_shot.mean())
        bound = z * float(per_shot.std(ddof=1)) / math.sqrt(dumps)
        if abs(mean - power) > bound:
            failures.append(f"{name} trace power {mean:.4f}, oracle {power:.4f} +- {bound:.4f}")
    return failures


CHECKS = {
    "linewidth_sweep": check_linewidth_sweep,
    "phase_calibration": check_phase_calibration,
    "trace_dump": check_trace_dump,
}


def check(workload: Workload, out: Path) -> list[str]:
    """Run the workload's output checks; a missing or malformed file is a failure."""
    try:
        return CHECKS[workload.name](workload, out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        return [f"{workload.name}: unreadable output: {type(err).__name__}: {err}"]
