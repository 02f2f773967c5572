"""Configuration-driven command line for simulation, sweeps and reports.

Every output file embeds the config hash, master seed and tool version in
``# key=value`` header lines. Each table is written through one row
template, built from its first row: integers in full, floats with 9
significant digits, strings as they are. Re-running a command with an
identical config and seed reproduces byte-identical files. Angles are
degrees at this boundary, radians inside.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .acquisition import FrequencyPlan, run_experiment, synthesize_baseband_pair, shot_rng
from .config import ConfigError, ExperimentConfig, load_config
from .estimators import estimate_covariance, infer_tmsvs, phase_sweep
from .gaussian import (
    QUADRATURE_ORDER,
    pearson_xx,
    physicality_min_eigenvalue,
    rotate_quadrature_array,
    squeezing_db,
)
from .linewidth import compare_windows, fit_model, sweep_detuning

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

PHASE_SWEEP_COLUMNS = ("alpha_deg", "rho", "rho_se")
LINEWIDTH_COLUMNS = ("delta_f_hz", "rho_abs", "rho_se")
FITS_COLUMNS = (
    "window",
    "tau_us",
    "A",
    "xi_s",
    "fwhm_hz",
    "snr",
    "sidelobe",
    "residual_rms",
    "converged",
    "n_iterations",
)
COMPARISON_COLUMNS = (
    "window",
    "tau_us",
    "fwhm_hz",
    "snr",
    "fwhm_tau",
    "sidelobe",
    "sidelobe_se",
    "n_sidelobe_points",
)


def _row_template(row) -> str:
    """The ``%`` template of one CSV line with the cell kinds of ``row``.

    Integers are written in full, floats with 9 significant digits (``%.9g``
    shares ``format(x, ".9g")``'s float-to-string path) and strings as they
    are. Other kinds, bool among them, are refused: write flags as strings.
    """
    cells = []
    for value in row:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            cells.append("%d")
        elif isinstance(value, (float, np.floating)):
            cells.append("%.9g")
        elif isinstance(value, str):
            cells.append("%s")
        else:
            raise TypeError(f"no CSV cell format for {value!r} of type {type(value).__name__}")
    return ",".join(cells) + "\n"


def _metadata(config: ExperimentConfig) -> dict:
    return {
        "config_hash": config.hash(),
        "seed": config.acquisition.seed,
        "version": f"twpacorr {__version__}",
    }


def _write_csv(path: Path, meta: dict, columns, rows) -> None:
    """Write the header lines, then ``rows`` (any iterable of tuples) one line at a time.

    Every row is formatted by the template of the first (``_row_template``),
    so every row must have the first row's cell kinds.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    first = next(rows, None)
    with path.open("w") as file:
        for key, value in meta.items():
            file.write(f"# {key}={value}\n")
        file.write(",".join(columns) + "\n")
        if first is not None:
            line = _row_template(first)
            file.write(line % first)
            file.writelines(map(line.__mod__, rows))
    click.echo(f"wrote {path}")


def _write_json(path: Path, meta: dict, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.update(meta)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {path}")


def _load(config_path: str, out: str | None, overrides: dict, sweep: bool) -> ExperimentConfig:
    """Validated config with the set command-line options merged in; exits 2 on error.

    ``overrides`` maps dotted config paths to option values; unset options
    (None) keep the file's value. ``sweep`` says whether the command
    acquires the linewidth cases or the single window (``check_coverage``).
    """
    fields = {path: value for path, value in overrides.items() if value is not None}
    try:
        config = load_config(config_path, fields)
        config.check_coverage(sweep)
        if out is not None:
            config = replace(config, output_dir=Path(out))
        _check_output_dir(config.output_dir)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    return config


def _check_output_dir(path: Path) -> None:
    """Refuse an output directory that names, or lies under, something not a directory."""
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigError(
                    f"field 'output_dir': cannot write into {path}: {existing} is not a directory"
                )
            return


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config file (YAML).")(fn)
    fn = click.option("--out", default=None, type=click.Path(), help="Output directory (overrides config).")(fn)
    fn = click.option("--seed", default=None, type=int, help="Master seed (overrides config).")(fn)
    return fn


def _sweep_options(fn):
    fn = _config_options(fn)
    fn = click.option("--points", default=None, type=int, help="Detuning grid points per sweep.")(fn)
    fn = click.option("--span", default=None, type=float, help="Total detuning span in Hz.")(fn)
    fn = click.option("--strict", is_flag=True, help="Exit with code 3 on any numerical failure.")(fn)
    return fn


def _phase_grid_deg(config: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, 360.0, config.phase_points)


@click.group()
@click.version_option(version=__version__, prog_name="twpacorr")
def main() -> None:
    """Simulate two-mode correlation measurements and their linewidth analysis."""


@main.command()
@_config_options
@click.option("--dump-traces", default=0, type=click.IntRange(min=0), help="Also dump the first N pump-on baseband traces.")
def simulate(config_path, out, seed, dump_traces) -> None:
    """Run one pump-on/off experiment and report the inferred covariance."""
    config = _load(config_path, out, {"seed": seed}, sweep=False)
    acq = config.acquisition
    if dump_traces > acq.n_shots:
        raise click.BadParameter(
            f"{dump_traces} traces asked, but acquisition.n_shots is {acq.n_shots}",
            param_hint="'--dump-traces'",
        )
    data = run_experiment(config.plan(), config.band, acq)
    on = estimate_covariance(data.on)
    off = estimate_covariance(data.off)
    inferred = infer_tmsvs(on, off, acq.chain_gain_signal, acq.chain_gain_idler)
    meta = _metadata(config)

    rows = [
        (name, *inferred[index]) for index, name in enumerate(QUADRATURE_ORDER)
    ]
    _write_csv(
        config.output_dir / "covariance_tmsvs.csv",
        meta,
        ("row", *QUADRATURE_ORDER),
        rows,
    )
    try:
        summary = {
            "n_shots": acq.n_shots,
            "detuning_hz": config.plan().detuning,
            "rho_xx": pearson_xx(inferred),
            "squeezing_db": squeezing_db(inferred),
            "physicality_min_eigenvalue": physicality_min_eigenvalue(inferred),
            "variance_x_signal": float(inferred[0, 0]),
            "variance_x_idler": float(inferred[2, 2]),
        }
    except ValueError as err:
        click.echo(f"numerical failure: {err}", err=True)
        sys.exit(EXIT_NUMERICAL_FAILURE)
    _write_json(config.output_dir / "summary.json", meta, summary)

    if dump_traces > 0:
        shots = range(dump_traces)
        traces_s, traces_i = synthesize_baseband_pair(
            config.band,
            config.plan(),
            acq.window,
            "pump_on",
            (shot_rng(acq.seed, shot, "pump_on") for shot in shots),
            acq.sample_rate,
        )
        table = np.stack([traces_s.real, traces_s.imag, traces_i.real, traces_i.imag], axis=-1)
        _write_csv(
            config.output_dir / "traces_pump_on.csv",
            meta,
            ("shot", "sample", "signal_re", "signal_im", "idler_re", "idler_im"),
            (
                (shot, sample, *values)
                for shot, trace in zip(shots, table)
                for sample, values in enumerate(trace.tolist())
            ),
        )


def _shots_file_name(angle_deg: float) -> str:
    return f"shots_alpha_{angle_deg:g}deg.csv"


def _parse_angle_list(ctx, param, raw: str | None) -> list[float]:
    """Finite angles in degrees, each with a shot file name of its own."""
    if raw is None or raw.strip() == "":
        return []
    try:
        angles = [float(part) for part in raw.split(",")]
    except ValueError:
        raise click.BadParameter(f"invalid angle list {raw!r}") from None
    if not all(math.isfinite(angle) for angle in angles):
        raise click.BadParameter(f"angles must be finite, got {raw!r}")
    first_angle = {}
    for angle in angles:
        name = _shots_file_name(angle)
        if name in first_angle:
            raise click.BadParameter(f"angles {first_angle[name]!r} and {angle!r} both write {name}")
        first_angle[name] = angle
    return angles


@main.command("phase-sweep")
@_config_options
@click.option("--points", default=None, type=int, help="Phase grid points over [0, 360] degrees.")
@click.option(
    "--dump-shots",
    default=None,
    callback=_parse_angle_list,
    help="Comma-separated angles (deg) whose rotated (X_s, X_i) shots are dumped for histograms.",
)
def cmd_phase_sweep(config_path, out, seed, points, dump_shots) -> None:
    """Sweep the relative LO phase and locate the correlation maximum."""
    config = _load(config_path, out, {"seed": seed, "phase_sweep.points": points}, sweep=False)
    acq = config.acquisition
    alphas_deg = _phase_grid_deg(config)
    data = run_experiment(config.plan(), config.band, acq)
    result = phase_sweep(
        data.on,
        data.off,
        acq.chain_gain_signal,
        acq.chain_gain_idler,
        np.radians(alphas_deg),
    )
    meta = _metadata(config)
    rows = zip(alphas_deg, result.rho_values, result.rho_errors)
    _write_csv(config.output_dir / "phase_sweep.csv", meta, PHASE_SWEEP_COLUMNS, rows)
    _write_json(
        config.output_dir / "phase_sweep_summary.json",
        meta,
        {
            "alpha_star_deg": math.degrees(result.alpha_star),
            "rho_max": result.rho_max,
            "refined": result.refined,
            "n_points": config.phase_points,
        },
    )

    for angle_deg in dump_shots:
        rotated = rotate_quadrature_array(data.on, math.radians(angle_deg))
        x_signal = rotated[:, 0] / math.sqrt(acq.chain_gain_signal)
        x_idler = rotated[:, 2] / math.sqrt(acq.chain_gain_idler)
        _write_csv(
            config.output_dir / _shots_file_name(angle_deg),
            meta,
            ("x_signal", "x_idler"),
            zip(x_signal.tolist(), x_idler.tolist()),
        )


def _case_label(window) -> str:
    return f"{window.shape}_{window.tau * 1e6:g}us"


def _run_linewidth_cases(config: ExperimentConfig, strict):
    """Run every configured (window, tau) case; returns (fits, sweeps)."""
    span = config.linewidth_span
    detunings = np.linspace(-span / 2.0, span / 2.0, config.linewidth_points)
    alpha_grid = np.radians(_phase_grid_deg(config))
    plan = FrequencyPlan.for_detuning(config.f_pump, config.f_idler_demod, 0.0)
    meta = _metadata(config)

    fit_rows = []
    fits = []
    sweeps = []
    for window in config.cases:
        label = _case_label(window)
        acq = replace(config.acquisition, window=window)
        try:
            sweep = sweep_detuning(plan, config.band, acq, detunings, alpha_grid=alpha_grid)
            fit = fit_model(sweep)
        except ValueError as err:
            click.echo(f"case {label}: numerical failure: {err}", err=True)
            if strict:
                sys.exit(EXIT_NUMERICAL_FAILURE)
            fit_rows.append(
                (window.shape, window.tau * 1e6, math.nan, math.nan, math.nan,
                 math.nan, math.nan, math.nan, "false", 0)
            )
            continue
        if strict and not fit.converged:
            click.echo(f"case {label}: fit did not converge", err=True)
            sys.exit(EXIT_NUMERICAL_FAILURE)
        _write_csv(
            config.output_dir / f"linewidth_{label}.csv",
            meta,
            LINEWIDTH_COLUMNS,
            list(zip(sweep.detunings, np.abs(sweep.rho_values), sweep.rho_errors)),
        )
        comparison = compare_windows([fit], [sweep])[0]
        fit_rows.append(
            (
                window.shape,
                window.tau * 1e6,
                fit.amplitude,
                fit.scale_xi,
                fit.fwhm,
                fit.snr,
                comparison.sidelobe,
                fit.residual_rms,
                "true" if fit.converged else "false",
                fit.n_iterations,
            )
        )
        fits.append(fit)
        sweeps.append(sweep)

    _write_csv(config.output_dir / "fits.csv", meta, FITS_COLUMNS, fit_rows)
    return fits, sweeps


@main.command()
@_sweep_options
def linewidth(config_path, out, seed, points, span, strict) -> None:
    """Sweep detuning for every configured (window, tau) case and fit linewidths."""
    overrides = {"seed": seed, "linewidth.points": points, "linewidth.span": span}
    config = _load(config_path, out, overrides, sweep=True)
    _run_linewidth_cases(config, strict)


@main.command("compare-windows")
@_sweep_options
def cmd_compare_windows(config_path, out, seed, points, span, strict) -> None:
    """Run the linewidth cases and emit the cross-window comparison table."""
    overrides = {"seed": seed, "linewidth.points": points, "linewidth.span": span}
    config = _load(config_path, out, overrides, sweep=True)
    fits, sweeps = _run_linewidth_cases(config, strict)
    rows = [
        (
            row.window,
            row.tau * 1e6,
            row.fwhm,
            row.snr,
            row.fwhm_tau,
            row.sidelobe,
            row.sidelobe_se,
            row.n_sidelobe_points,
        )
        for row in compare_windows(fits, sweeps)
    ]
    _write_csv(
        config.output_dir / "comparison.csv", _metadata(config), COMPARISON_COLUMNS, rows
    )


if __name__ == "__main__":
    main()
