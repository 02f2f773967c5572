"""Configuration-driven command line for simulation, sweeps and reports.

Every output file embeds the config hash, master seed and tool version in
``# key=value`` header lines. Each table is handed over as columns of equal
length and written through one row template, built from its first row:
integers in full, floats with 9 significant digits, strings as they are.
The rows are formatted a block at a time, and a large table's blocks are
split over the acquisition worker processes; a block's text depends only on
its own rows, so the bytes do not depend on the split. Dumped traces are
synthesized where they are formatted: each process draws the traces of the
shots it takes and formats their rows, and the parent writes the blocks in
order. Re-running a command
with an identical config and seed reproduces byte-identical files. Angles are
degrees at this boundary, radians inside. Bad input exits with code 2; a
numerical failure exits with code 3, after the sweep commands write every table.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__, acquisition
from .acquisition import _CHUNK_SHOTS, run_experiment, synthesize_baseband_pair
from .acquisition import shot_rng  # unused here: perfbench/spans.py wraps cli.shot_rng
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
TRACE_COLUMNS = ("shot", "sample", "signal_re", "signal_im", "idler_re", "idler_im")
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


def _format_rows(line: str, columns) -> str:
    """The rows of ``columns`` formatted by one ``%``: ``line`` once per row, over the cells in row order.

    Array columns are turned into Python numbers first, which ``%`` reads
    fastest.
    """
    width, n_rows = len(columns), len(columns[0])
    cells = [None] * (n_rows * width)
    for index, column in enumerate(columns):
        cells[index::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return (line * n_rows) % tuple(cells)


def _format_blocks(line: str, columns: tuple, n_rows: int, starts: Iterable[int]) -> Iterator[tuple[int, str]]:
    """Yield (first row, text) of the block of ``_CHUNK_SHOTS`` rows at each of ``starts``."""
    for first in starts:
        yield first, _format_rows(line, [column[first : first + _CHUNK_SHOTS] for column in columns])


def _trace_blocks(
    synthesize, band, detuning: float, window, seed: int, n_shots: int, starts: Iterable[int]
) -> Iterator[tuple[int, str]]:
    """Yield (first shot, text) of the pump-on traces of the ``_CHUNK_SHOTS`` shots at each of ``starts``.

    Shot k's traces are drawn by ``synthesize`` (``synthesize_baseband_pair``)
    from its (k, pump_on, 0) substream, the draws behind its pump-on
    quadratures at stream 0 of ``run_experiment``, through one cursor that
    seeks each shot in turn. One ``%`` formats a chunk's rows: shot, sample,
    then the real and imaginary parts of the signal and idler traces.
    ``synthesize`` travels with the task, so a stand-in for it that cannot
    be pickled keeps the dump in this process (``_Workers.run``).
    """
    cursor = acquisition._StreamCursor(seed)
    line = _row_template([0, 0, 0.0, 0.0, 0.0, 0.0])
    for first in starts:
        shots = np.arange(first, min(first + _CHUNK_SHOTS, n_shots))
        signal, idler = synthesize(
            band, detuning, window, "pump_on", (cursor.seek(shot, "pump_on", 0) for shot in shots.tolist())
        )
        n_samples = signal.shape[1]
        columns = (
            np.repeat(shots, n_samples),
            np.tile(np.arange(n_samples), shots.size),
            *(part.ravel() for part in (signal.real, signal.imag, idler.real, idler.imag)),
        )
        yield first, _format_rows(line, columns)


def _write_table(path: Path, meta: dict, names, chunk, args: tuple, n_items: int) -> None:
    """Write the header lines and the column ``names``, then the text of every chunk of a pool task.

    ``chunk`` and ``args`` make a task of ``n_items`` items for the
    acquisition's worker pool and split rule (``_Workers.run``), whose every
    chunk of ``_CHUNK_SHOTS`` items yields its rows' text. The blocks are
    written in order as they arrive.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as file:
        for key, value in meta.items():
            file.write(f"# {key}={value}\n")
        file.write(",".join(names) + "\n")
        pending = {}
        written = 0

        def take(first: int, text: str) -> None:
            # A block waits here only until the blocks before it have arrived.
            nonlocal written
            pending[first] = text
            while written in pending:
                file.write(pending.pop(written))
                written += _CHUNK_SHOTS

        if n_items:
            acquisition._WORKERS.run(chunk, args, n_items, take)
    click.echo(f"wrote {path}")


def _write_csv(path: Path, meta: dict, names, columns) -> None:
    """Write the header lines, then the table of ``columns`` under the column ``names``.

    ``columns`` are numpy arrays or sequences of equal length; unequal ones
    are refused before the file is opened. Every row is formatted by the
    template of the first (``_row_template``), so every row must have the
    first row's cell kinds. The rows are formatted a block per ``%``
    (``_format_blocks``), and a large table's blocks are shared out by the
    worker pool (``_write_table``).
    """
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"cannot write {path}: its columns have unequal lengths {lengths}")
    n_rows = lengths[0] if lengths else 0
    line = _row_template([column[0] for column in columns]) if n_rows else ""
    _write_table(path, meta, names, _format_blocks, (line, tuple(columns)), n_rows)


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
        if sweep:
            _check_case_labels(config)
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
    return fn


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
    (data,) = run_experiment(config.detuning, config.band, acq)
    on = estimate_covariance(data.on)
    off = estimate_covariance(data.off)
    inferred = infer_tmsvs(on, off, acq.chain_gain_signal, acq.chain_gain_idler)
    meta = _metadata(config)

    _write_csv(
        config.output_dir / "covariance_tmsvs.csv",
        meta,
        ("row", *QUADRATURE_ORDER),
        (QUADRATURE_ORDER, *inferred.T),
    )
    try:
        summary = {
            "n_shots": acq.n_shots,
            "detuning_hz": config.detuning,
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
        _write_table(
            config.output_dir / "traces_pump_on.csv",
            meta,
            TRACE_COLUMNS,
            _trace_blocks,
            (synthesize_baseband_pair, config.band, config.detuning, acq.window, acq.seed),
            dump_traces,
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
    """Sweep the relative LO phase and locate the correlation maximum.

    The curve is sampled at ``phase_sweep.points`` angles; the maximum and
    its angle are exact, not read off that grid.
    """
    config = _load(config_path, out, {"seed": seed, "phase_sweep.points": points}, sweep=False)
    acq = config.acquisition
    alphas_deg = np.linspace(0.0, 360.0, config.phase_points)
    (data,) = run_experiment(config.detuning, config.band, acq)
    try:
        result = phase_sweep(
            data.on, data.off, acq.chain_gain_signal, acq.chain_gain_idler, np.radians(alphas_deg)
        )
    except ValueError as err:
        click.echo(f"numerical failure: {err}", err=True)
        sys.exit(EXIT_NUMERICAL_FAILURE)
    meta = _metadata(config)
    columns = (alphas_deg, result.rho_values, result.rho_errors)
    _write_csv(config.output_dir / "phase_sweep.csv", meta, PHASE_SWEEP_COLUMNS, columns)
    _write_json(
        config.output_dir / "phase_sweep_summary.json",
        meta,
        {
            "alpha_star_deg": math.degrees(result.alpha_star),
            "rho_max": result.rho_max,
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
            (x_signal, x_idler),
        )


def _case_label(window) -> str:
    """A linewidth case's name in messages and in its file, ``linewidth_<label>.csv``."""
    return f"{window.shape}_{window.tau * 1e6:g}us"


def _check_case_labels(config: ExperimentConfig) -> None:
    """Refuse two linewidth cases that would write the same file."""
    first_case = {}
    for index, window in enumerate(config.cases):
        label = _case_label(window)
        if label in first_case:
            raise ConfigError(
                f"field 'linewidth.cases[{index}]': cases [{first_case[label]}] and "
                f"[{index}] both write linewidth_{label}.csv"
            )
        first_case[label] = index


def _run_linewidth_cases(config: ExperimentConfig) -> tuple[list, bool]:
    """Run every configured (window, tau) case and write its tables.

    One sweep acquires every case: each run draws its shots once and
    demodulates them through every case's window. A case that fails gets a
    NaN row in ``fits.csv``, with converged=false, and the others go on.
    Returns the fitted cases' comparisons, and whether every case was fitted
    and converged.
    """
    sweeps = sweep_detuning(
        config.band, config.acquisition, config.detunings(), windows=config.cases
    )
    meta = _metadata(config)

    fit_rows = []
    comparisons = []
    all_converged = True
    for window, sweep in zip(config.cases, sweeps):
        label = _case_label(window)
        try:
            if isinstance(sweep, ValueError):
                raise sweep
            fit = fit_model(sweep)
        except ValueError as err:
            click.echo(f"case {label}: numerical failure: {err}", err=True)
            all_converged = False
            fit_rows.append(
                (window.shape, window.tau * 1e6, math.nan, math.nan, math.nan,
                 math.nan, math.nan, math.nan, "false", 0)
            )
            continue
        if not fit.converged:
            click.echo(f"case {label}: fit did not converge", err=True)
            all_converged = False
        _write_csv(
            config.output_dir / f"linewidth_{label}.csv",
            meta,
            LINEWIDTH_COLUMNS,
            (sweep.detunings, np.abs(sweep.rho_values), sweep.rho_errors),
        )
        comparison = compare_windows(fit, sweep)
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
        comparisons.append(comparison)

    _write_csv(config.output_dir / "fits.csv", meta, FITS_COLUMNS, tuple(zip(*fit_rows)))
    return comparisons, all_converged


@main.command()
@_sweep_options
def linewidth(config_path, out, seed, points, span) -> None:
    """Sweep detuning for every configured (window, tau) case and fit linewidths."""
    overrides = {"seed": seed, "linewidth.points": points, "linewidth.span": span}
    config = _load(config_path, out, overrides, sweep=True)
    _, all_converged = _run_linewidth_cases(config)
    if not all_converged:
        sys.exit(EXIT_NUMERICAL_FAILURE)


@main.command("compare-windows")
@_sweep_options
def cmd_compare_windows(config_path, out, seed, points, span) -> None:
    """Run the linewidth cases and emit the cross-window comparison table."""
    overrides = {"seed": seed, "linewidth.points": points, "linewidth.span": span}
    config = _load(config_path, out, overrides, sweep=True)
    comparisons, all_converged = _run_linewidth_cases(config)
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
        for row in comparisons
    ]
    _write_csv(
        config.output_dir / "comparison.csv", _metadata(config), COMPARISON_COLUMNS, tuple(zip(*rows))
    )
    if not all_converged:
        sys.exit(EXIT_NUMERICAL_FAILURE)


if __name__ == "__main__":
    main()
