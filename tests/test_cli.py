"""Tests for the command-line front end: config validation, outputs, determinism."""

import json
import math
import os
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from twpacorr import ExperimentData, __version__, acquisition, demodulate, run_experiment, shot_rng
from twpacorr.acquisition import _CHUNK_SHOTS, synthesize_baseband_pair
from twpacorr.cli import COMPARISON_COLUMNS, _write_csv, main
from twpacorr.config import ConfigError, load_config

from conftest import deadline

BASE_CONFIG = {
    "frequency": {"f_pump": 6.331e9, "f_idler_demod": 6.481e9, "detuning": 0.0},
    "twpa": {"gain_signal": 2.0, "gain_idler": 2.0, "phase_mismatch_deg": 0.0},
    "band": {"halfwidth": 2.7e6, "bin_spacing": 60.0e3},
    "acquisition": {
        "window": {"shape": "rectangular", "tau": 6.0e-6},
        "n_shots": 400,
        "chain_gain_signal": 1.0,
        "chain_gain_idler": 1.0,
        "added_noise_quanta": 0.0,
    },
    "phase_sweep": {"points": 13},
    "linewidth": {
        "points": 9,
        "span": 0.6e6,
        "cases": [{"window": "rectangular", "tau": 6.0e-6}],
    },
    "output_dir": "out",
    "seed": 42,
}


def write_config(tmp_path: Path, overrides=None, drop=None) -> Path:
    data = json.loads(json.dumps(BASE_CONFIG))  # deep copy
    for path, value in (overrides or {}).items():
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    for path in drop or []:
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        node.pop(keys[-1], None)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(data))
    return config_path


def read_csv_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


#: The process that imported this module; a forked worker has another pid.
_PARENT = os.getpid()


def synthesize_marking_its_process(band, detuning, window, stage, rngs):
    """Stand-in for synthesize_baseband_pair: traces that hold the pid of the process that made them."""
    if os.getpid() == _PARENT:
        time.sleep(0.1)  # leaves chunks to the workers
    traces = np.full((len(list(rngs)), 100), float(os.getpid()), dtype=complex)
    return traces, traces


def nine_digit_line(values) -> str:
    """One CSV line by the cell rule of every earlier release, written out longhand."""
    cells = []
    for value in values:
        if isinstance(value, str):
            cells.append(value)
        elif isinstance(value, (int, np.integer)):
            cells.append(str(int(value)))
        else:
            cells.append(format(float(value), ".9g"))
    return ",".join(cells) + "\n"


@pytest.fixture
def no_acquisition(monkeypatch):
    """Make any acquisition fail, for options that must be refused before one."""
    import twpacorr.cli as cli_module

    def acquire(*args, **kwargs):
        raise AssertionError("acquisition ran")

    monkeypatch.setattr(cli_module, "run_experiment", acquire)


class TestCsvFormat:
    FLOATS = [
        0.5, np.float64(-2.25), math.nan, np.float64(math.nan), math.inf, -math.inf,
        -0.0, 1e-300, 1e16, 123456789.123, np.float64(6.02214076e23), 1.0 / 3.0,
    ]

    def test_cells_follow_the_nine_digit_rule(self, tmp_path):
        meta = {"config_hash": "0123456789abcdef", "seed": 2**128 - 1, "version": "twpacorr 0"}
        columns = ("n", "n64", "x", "x64", "label", "flag")
        rows = [
            (k - 5, np.int64(-(10**17) * k), value, np.float64(self.FLOATS[-k - 1]), f"case_{k}", flag)
            for k, (value, flag) in enumerate(zip(self.FLOATS, ["true", "false"] * 6))
        ]
        path = tmp_path / "table.csv"
        # The writer takes columns: lists, and arrays for the numpy columns.
        table = [list(column) for column in zip(*rows)]
        table[1], table[3] = np.array(table[1]), np.array(table[3])
        _write_csv(path, meta, columns, table)
        expected = "".join(f"# {key}={nine_digit_line([value])}" for key, value in meta.items())
        expected += "n,n64,x,x64,label,flag\n" + "".join(nine_digit_line(row) for row in rows)
        assert path.read_bytes() == expected.encode()
        for cell in ("nan", "inf", "-inf", "-0", "1e-300", "1e+16", "123456789", "-1100000000000000000"):
            assert f",{cell}," in path.read_text(), cell

    @pytest.mark.parametrize("flag", [True, np.bool_(False)], ids=["bool", "numpy-bool"])
    def test_bool_cells_are_refused(self, tmp_path, flag):
        with pytest.raises(TypeError, match="no CSV cell format"):
            _write_csv(tmp_path / "flags.csv", {}, ("x", "flag"), ([1.0], [flag]))

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        # One % per block would shift the cells of a short column silently.
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="ragged.csv.*unequal lengths"):
            _write_csv(path, {}, ("x", "y"), (np.zeros(3), [1.0, 2.0]))
        assert not path.exists()

    def test_trace_dump_bytes_follow_the_nine_digit_rule(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(out), "--dump-traces", "3"]
        )
        assert result.exit_code == 0, result.output
        config = replace(load_config(path), output_dir=out)
        acq = config.acquisition
        rngs = (shot_rng(acq.seed, shot, "pump_on") for shot in range(3))
        signal, idler = synthesize_baseband_pair(
            config.band, config.values["frequency.detuning"], acq.window, "pump_on", rngs
        )
        expected = [
            f"# config_hash={config.hash()}\n",
            "# seed=42\n",
            f"# version=twpacorr {__version__}\n",
            "shot,sample,signal_re,signal_im,idler_re,idler_im\n",
        ]
        for shot in range(3):
            for sample in range(signal.shape[1]):
                s, i = signal[shot, sample], idler[shot, sample]
                expected.append(nine_digit_line([shot, sample, s.real, s.imag, i.real, i.imag]))
        assert (out / "traces_pump_on.csv").read_bytes() == "".join(expected).encode()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="tables stay in one process")
class TestSplitTables:
    """A table split over worker processes is written byte for byte as by one process."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e-300, -1e-300]
    BIG_INTS = [12345678901234567, -98765432109876543, 0, 2**63 - 1]

    def table(self, n_rows: int) -> tuple:
        rng = np.random.default_rng(n_rows)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        floats[::5] = np.resize(self.SPECIAL, floats[::5].size)
        return (
            np.resize(np.array(self.BIG_INTS, dtype=np.int64), n_rows),
            floats,
            rng.standard_normal(n_rows).tolist(),
            [f"row_{k}" for k in range(n_rows)],
            [-(10**16) - k for k in range(n_rows)],
        )

    @pytest.mark.parametrize("n_rows", [0, 1, _CHUNK_SHOTS, _CHUNK_SHOTS + 1, 4 * _CHUNK_SHOTS + 1])
    def test_split_table_equals_one_process_byte_for_byte(self, workers, monkeypatch, tmp_path, n_rows):
        columns = self.table(n_rows)
        names = ("n", "x", "y", "label", "m")
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 1)
        _write_csv(tmp_path / "alone.csv", {"seed": 1}, names, columns)
        assert not workers._started
        expected = "# seed=1\nn,x,y,label,m\n" + "".join(map(nine_digit_line, zip(*columns)))
        assert (tmp_path / "alone.csv").read_bytes() == expected.encode()
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 3)
        # The second write finds the workers that the first started waiting.
        for _ in range(2):
            with deadline(60):
                _write_csv(tmp_path / "split.csv", {"seed": 1}, names, columns)
            # One worker per block beyond the first, at most two: an empty
            # table and a table of one block stay in this process.
            assert len(workers._started) == max(min(3, -(-n_rows // _CHUNK_SHOTS)) - 1, 0)
            assert (tmp_path / "split.csv").read_bytes() == expected.encode()

    def outputs_at(self, monkeypatch, tmp_path, config: str, command: list, count: int) -> Path:
        """The output directory of ``command`` run with ``count`` processes per task."""
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: count)
        out = tmp_path / f"processes_{count}"
        with deadline(120):
            result = CliRunner().invoke(main, [*command, "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

    def assert_same_files(self, alone: Path, split: Path) -> None:
        names = sorted(path.name for path in alone.iterdir())
        assert sorted(path.name for path in split.iterdir()) == names
        for name in names:
            assert (split / name).read_bytes() == (alone / name).read_bytes(), name

    def test_split_dumps_equal_one_process_byte_for_byte(self, workers, monkeypatch, tmp_path):
        config = str(write_config(tmp_path, {"acquisition.n_shots": 4 * _CHUNK_SHOTS + 1}))
        commands = (["simulate", "--dump-traces", "300"], ["phase-sweep", "--dump-shots", "0,45"])
        for count in (1, 3):
            for command in commands:
                self.outputs_at(monkeypatch, tmp_path, config, command, count)
        assert len(workers._started) == 2
        alone, split = tmp_path / "processes_1", tmp_path / "processes_3"
        assert {"traces_pump_on.csv", "shots_alpha_0deg.csv", "shots_alpha_45deg.csv"} <= {
            path.name for path in alone.iterdir()
        }
        self.assert_same_files(alone, split)

    # A trace dump is one task of chunks of _CHUNK_SHOTS shots: one shot, a
    # chunk less one, a chunk and one, and two chunks and one.
    @pytest.mark.parametrize("n_traces", [1, _CHUNK_SHOTS - 1, _CHUNK_SHOTS + 1, 2 * _CHUNK_SHOTS + 1])
    def test_split_trace_dump_equals_one_process_byte_for_byte(self, workers, monkeypatch, tmp_path, n_traces):
        config = str(write_config(tmp_path, {"acquisition.n_shots": 2 * _CHUNK_SHOTS + 1}))
        command = ["simulate", "--dump-traces", str(n_traces)]
        alone = self.outputs_at(monkeypatch, tmp_path, config, command, 1)
        assert not workers._started
        split = self.outputs_at(monkeypatch, tmp_path, config, command, 3)
        assert len(workers._started) == 2
        assert len(read_csv_rows(split / "traces_pump_on.csv")) == 1 + 100 * n_traces
        self.assert_same_files(alone, split)

    def test_dump_stand_in_that_cannot_be_pickled_sees_every_chunk(self, workers, monkeypatch, tmp_path):
        from twpacorr import cli

        config = str(write_config(tmp_path, {"acquisition.n_shots": 2 * _CHUNK_SHOTS + 1}))
        command = ["simulate", "--dump-traces", str(2 * _CHUNK_SHOTS + 1)]
        alone = self.outputs_at(monkeypatch, tmp_path, config, command, 1)
        calls = []

        def synthesize(*args):
            calls.append(os.getpid())
            return synthesize_baseband_pair(*args)

        monkeypatch.setattr(cli, "synthesize_baseband_pair", synthesize)
        split = self.outputs_at(monkeypatch, tmp_path, config, command, 3)
        # The run splits its shots; the dump keeps its three chunks here.
        assert len(workers._started) == 2
        assert calls == [os.getpid()] * 3
        self.assert_same_files(alone, split)

    def test_dump_workers_call_the_stand_in_the_task_carries(self, workers, monkeypatch, tmp_path):
        from twpacorr import cli

        config = str(write_config(tmp_path, {"acquisition.n_shots": 2 * _CHUNK_SHOTS + 1}))
        # Workers started before the stand-in is set hold the package's function.
        workers._connections(2)
        pool = {process.pid for process, _ in workers._started}
        monkeypatch.setattr(cli, "synthesize_baseband_pair", synthesize_marking_its_process)
        command = ["simulate", "--dump-traces", str(2 * _CHUNK_SHOTS + 1)]
        out = self.outputs_at(monkeypatch, tmp_path, config, command, 3)
        rows = read_csv_rows(out / "traces_pump_on.csv")[1:]
        makers = {float(row.split(",")[2]) for row in rows}
        assert makers <= {float(pid) for pid in pool | {os.getpid()}}
        assert makers - {float(os.getpid())}, "no worker took a chunk"

    def test_split_sweep_equals_one_process_byte_for_byte(self, workers, monkeypatch, tmp_path):
        # Every sweep point is one chunk of the points task.
        cases = [{"window": "rectangular", "tau": 6.0e-6}, {"window": "gaussian", "tau": 6.0e-6}]
        config = str(write_config(tmp_path, {"linewidth.cases": cases, "acquisition.added_noise_quanta": 0.5}))
        alone = self.outputs_at(monkeypatch, tmp_path, config, ["compare-windows"], 1)
        assert not workers._started
        split = self.outputs_at(monkeypatch, tmp_path, config, ["compare-windows"], 3)
        assert len(workers._started) == 2
        assert len(read_csv_rows(split / "comparison.csv")) == 3
        self.assert_same_files(alone, split)

    def test_worker_dying_mid_table_makes_the_write_raise(self, workers, monkeypatch, tmp_path):
        def die(connection, *inherited):
            connection.recv()
            os._exit(1)

        monkeypatch.setattr(acquisition, "_serve", die)
        monkeypatch.setattr(acquisition, "_process_count", lambda n_items: 2)
        with deadline(60), pytest.raises(RuntimeError, match="worker process exited"):
            _write_csv(tmp_path / "table.csv", {}, ("x",), (np.zeros(4 * _CHUNK_SHOTS),))
        assert not workers._started


class TestConfigValidation:
    def test_missing_tau_names_field(self, tmp_path):
        path = write_config(tmp_path, drop=["acquisition.window.tau"])
        with pytest.raises(ConfigError, match="window.tau"):
            load_config(path)

    def test_missing_gain_names_field(self, tmp_path):
        path = write_config(tmp_path, drop=["twpa.gain_signal"])
        with pytest.raises(ConfigError, match="twpa.gain_signal"):
            load_config(path)

    def test_bad_gain_value_reported(self, tmp_path):
        path = write_config(tmp_path, overrides={"twpa.gain_signal": 0.5})
        with pytest.raises(ConfigError, match="twpa"):
            load_config(path)

    def test_string_exponents_accepted(self, tmp_path):
        path = write_config(tmp_path, overrides={"frequency.f_pump": "6.331e9"})
        config = load_config(path)
        assert config.values["frequency.f_pump"] == pytest.approx(6.331e9)

    def test_default_case_grid_is_eight_cases(self, tmp_path):
        path = write_config(tmp_path, drop=["linewidth.cases"])
        config = load_config(path)
        assert len(config.cases) == 8
        shapes = {case.shape for case in config.cases}
        assert shapes == {"rectangular", "gaussian"}

    def test_cli_reports_config_error_with_exit_code_2(self, tmp_path):
        path = write_config(tmp_path, drop=["acquisition.window.tau"])
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert "window.tau" in result.output

    def test_cli_missing_file_is_config_error(self, tmp_path):
        result = CliRunner().invoke(main, ["simulate", "--config", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2


class TestCommandLineOverrides:
    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
    def test_out_of_range_seed_is_config_error(self, tmp_path, seed):
        path = write_config(tmp_path)
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--seed", seed])
        assert result.exit_code == 2, result.output
        assert "'seed'" in result.output

    def test_largest_seed_is_kept_exactly(self, tmp_path):
        path = write_config(tmp_path, overrides={"seed": 2**128 - 1})
        assert load_config(path).acquisition.seed == 2**128 - 1

    def test_zero_phase_points_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(main, ["phase-sweep", "--config", str(path), "--points", "0"])
        assert result.exit_code == 2, result.output
        assert "phase_sweep.points" in result.output

    def test_too_few_linewidth_points_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["linewidth", "--config", str(path), "--out", str(tmp_path / "run"), "--points", "3"]
        )
        assert result.exit_code == 2, result.output
        assert "linewidth.points" in result.output
        assert not (tmp_path / "run" / "fits.csv").exists()

    def test_non_finite_number_is_config_error(self, tmp_path):
        path = write_config(tmp_path, overrides={"frequency.f_pump": float("nan")})
        with pytest.raises(ConfigError, match="frequency.f_pump"):
            load_config(path)

    def test_linewidth_calibration_reads_no_phase_grid(self, tmp_path):
        rows = []
        for points in (13, 721):
            path = write_config(tmp_path, overrides={"phase_sweep.points": points})
            out = tmp_path / f"run_{points}"
            result = CliRunner().invoke(main, ["linewidth", "--config", str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            rows.append(read_csv_rows(out / "linewidth_rectangular_6us.csv"))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("command", ["simulate", "phase-sweep", "linewidth", "compare-windows"])
    @pytest.mark.parametrize("option", ["--jobs=2", "--strict"])
    def test_removed_options_are_refused(self, tmp_path, command, option):
        path = write_config(tmp_path)
        result = CliRunner().invoke(main, [command, "--config", str(path), option])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize("command", ["phase-sweep", "linewidth"])
    def test_two_shots_is_config_error(self, tmp_path, command):
        # Two shots leave one per jackknife subsample, whose SE is undefined.
        path = write_config(tmp_path, overrides={"acquisition.n_shots": 2})
        out = tmp_path / "run"
        result = CliRunner().invoke(main, [command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "acquisition.n_shots" in result.output
        assert not out.exists()


class TestSimulate:
    def test_writes_covariance_and_summary(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "run" / "covariance_tmsvs.csv")
        assert rows[0].startswith("row,x_signal")
        assert len(rows) == 5
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        for key in ("rho_xx", "squeezing_db", "config_hash", "seed", "version", "n_shots"):
            assert key in summary
        assert summary["seed"] == 42
        assert 0.5 < summary["rho_xx"] <= 1.05

    def test_summary_reports_the_configured_detuning(self, tmp_path):
        path = write_config(tmp_path, overrides={"frequency.detuning": 123456.789})
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["detuning_hz"] == 123456.789

    def test_headers_carry_hash_seed_version(self, tmp_path):
        path = write_config(tmp_path)
        CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        header = (tmp_path / "run" / "covariance_tmsvs.csv").read_text().splitlines()[:3]
        assert header[0].startswith("# config_hash=")
        assert header[1] == "# seed=42"
        assert header[2].startswith("# version=twpacorr ")

    def test_dump_traces_option(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main,
            ["simulate", "--config", str(path), "--out", str(tmp_path / "run"), "--dump-traces", "2"],
        )
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "run" / "traces_pump_on.csv")
        assert rows[0] == "shot,sample,signal_re,signal_im,idler_re,idler_im"
        assert len(rows) == 1 + 2 * 100  # header + 2 shots x 100 samples

    def test_negative_dump_traces_is_usage_error(self, tmp_path, no_acquisition):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(out), "--dump-traces", "-5"]
        )
        assert result.exit_code == 2, result.output
        assert "--dump-traces" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_dump_traces_beyond_shot_count_is_usage_error(self, tmp_path, no_acquisition):
        # The dumped traces are the ones behind the acquired shots; there are n_shots of them.
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(out), "--dump-traces", "401"]
        )
        assert result.exit_code == 2, result.output
        assert "--dump-traces" in result.output and "acquisition.n_shots" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_dump_traces_may_equal_shot_count(self, tmp_path):
        path = write_config(tmp_path, overrides={"acquisition.n_shots": 5})
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(out), "--dump-traces", "5"]
        )
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(out / "traces_pump_on.csv")
        assert len(rows) == 1 + 5 * 100
        assert rows[-1].startswith("4,99,")

    def test_dumped_traces_demodulate_to_the_acquired_shots(self, tmp_path):
        # Unit chain gains and no added noise: demodulating dumped trace k
        # gives shot k of the pump-on stage, to the CSV's 9 digits.
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main,
            ["simulate", "--config", str(path), "--out", str(tmp_path / "run"), "--dump-traces", "3"],
        )
        assert result.exit_code == 0, result.output
        config = load_config(path)
        acq = config.acquisition
        (data,) = run_experiment(config.values["frequency.detuning"], config.band, acq)
        shots = data.on
        rows = read_csv_rows(tmp_path / "run" / "traces_pump_on.csv")[1:]
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        traces = table[:, 2:].reshape(3, 100, 4)
        for shot, trace in enumerate(traces):
            assert np.array_equal(table[100 * shot : 100 * (shot + 1), :2].T, [[shot] * 100, range(100)])
            x_s, p_s = demodulate(trace[:, 0] + 1j * trace[:, 1], acq.window, 0.0)
            x_i, p_i = demodulate(trace[:, 2] + 1j * trace[:, 3], acq.window, 0.0)
            np.testing.assert_allclose(
                [x_s, p_s, x_i, p_i], shots[shot], rtol=0.0, atol=1e-8 * np.abs(trace).max()
            )

    def test_unphysical_inference_is_numerical_failure(self, tmp_path, monkeypatch):
        # Constant ON shots against unit-variance OFF shots, at unit chain
        # gains, infer X variances of 0 - 1 + 1/4 < 0.
        import twpacorr.cli as cli_module

        n_shots = BASE_CONFIG["acquisition"]["n_shots"]
        column = np.linspace(-1.0, 1.0, n_shots)
        off = np.repeat((column / column.std(ddof=1))[:, None], 4, axis=1)
        data = ExperimentData(on=np.ones((n_shots, 4)), off=off)
        monkeypatch.setattr(cli_module, "run_experiment", lambda *args, **kwargs: [data])
        path = write_config(
            tmp_path,
            overrides={"acquisition.chain_gain_signal": 1.0, "acquisition.chain_gain_idler": 1.0},
        )
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert "numerical failure" in result.output
        assert "variance" in result.output
        assert isinstance(result.exception, SystemExit)


class TestPhaseSweepCommand:
    def test_curve_covers_full_turn(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "run" / "phase_sweep.csv")
        assert rows[0] == "alpha_deg,rho,rho_se"
        assert len(rows) == 1 + 13
        first = [float(x) for x in rows[1].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[0] == 0.0 and last[0] == 360.0
        # periodic endpoints measure the same rotation
        assert abs(first[1] - last[1]) < 1e-9

    def test_sign_reversal_half_turn_from_peak(self, tmp_path):
        path = write_config(tmp_path)
        CliRunner().invoke(
            main, ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        rows = read_csv_rows(tmp_path / "run" / "phase_sweep.csv")[1:]
        values = np.array([[float(x) for x in row.split(",")] for row in rows])
        peak = int(np.argmax(values[:, 1]))
        anti = (peak + 6) % 12  # 13 points over 360 deg -> 30 deg steps
        tol = 3.0 * np.hypot(values[peak, 2], values[anti, 2])
        assert abs(values[peak, 1] + values[anti, 1]) <= tol

    def test_maximum_does_not_depend_on_the_grid(self, tmp_path):
        path = write_config(tmp_path, overrides={"twpa.phase_mismatch_deg": -20.0})
        summaries = []
        for points in ("1", "13"):
            out = tmp_path / f"run_{points}"
            result = CliRunner().invoke(
                main, ["phase-sweep", "--config", str(path), "--out", str(out), "--points", points]
            )
            assert result.exit_code == 0, result.output
            assert len(read_csv_rows(out / "phase_sweep.csv")) == 1 + int(points)
            summary = json.loads((out / "phase_sweep_summary.json").read_text())
            summaries.append({key: summary[key] for key in ("alpha_star_deg", "rho_max")})
            assert "refined" not in summary
        assert summaries[0] == summaries[1]
        assert 330.0 < summaries[0]["alpha_star_deg"] < 350.0

    def test_unphysical_inference_is_numerical_failure(self, tmp_path, monkeypatch):
        # Constant ON shots against unit-variance OFF shots, at unit chain
        # gains, infer X variances of 0 - 1 + 1/4 < 0.
        import twpacorr.cli as cli_module

        n_shots = BASE_CONFIG["acquisition"]["n_shots"]
        column = np.linspace(-1.0, 1.0, n_shots)
        off = np.repeat((column / column.std(ddof=1))[:, None], 4, axis=1)
        data = ExperimentData(on=np.ones((n_shots, 4)), off=off)
        monkeypatch.setattr(cli_module, "run_experiment", lambda *args, **kwargs: [data])
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["phase-sweep", "--config", str(path), "--out", str(out), "--dump-shots", "0"]
        )
        assert result.exit_code == 3, result.output
        assert "numerical failure" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_dump_shots_writes_scatter_files(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main,
            [
                "phase-sweep", "--config", str(path), "--out", str(tmp_path / "run"),
                "--dump-shots", "0,90",
            ],
        )
        assert result.exit_code == 0
        for angle in (0, 90):
            rows = read_csv_rows(tmp_path / "run" / f"shots_alpha_{angle}deg.csv")
            assert rows[0] == "x_signal,x_idler"
            assert len(rows) == 1 + 400

    @pytest.mark.parametrize("angles", ["inf,10", "nan", "-inf"])
    def test_non_finite_dump_angle_is_usage_error(self, tmp_path, no_acquisition, angles):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["phase-sweep", "--config", str(path), "--out", str(out), "--dump-shots", angles],
        )
        assert result.exit_code == 2, result.output
        assert "--dump-shots" in result.output and "finite" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "angles", ["0.1234567,0.1234571", "10,10", "90,45,90.0000001"], ids=["6-digits", "repeat", "third"]
    )
    def test_dump_angles_sharing_a_file_name_are_usage_error(self, tmp_path, no_acquisition, angles):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["phase-sweep", "--config", str(path), "--out", str(out), "--dump-shots", angles],
        )
        assert result.exit_code == 2, result.output
        assert "--dump-shots" in result.output and "both write shots_alpha_" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


class TestLinewidthCommand:
    def test_single_case_produces_one_fit_row(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["linewidth", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == 0, result.output
        fits = read_csv_rows(tmp_path / "run" / "fits.csv")
        assert fits[0] == "window,tau_us,A,xi_s,fwhm_hz,snr,sidelobe,residual_rms,converged,n_iterations"
        assert len(fits) == 2
        assert fits[1].startswith("rectangular,6,")
        sweep_rows = read_csv_rows(tmp_path / "run" / "linewidth_rectangular_6us.csv")
        assert sweep_rows[0] == "delta_f_hz,rho_abs,rho_se"
        assert len(sweep_rows) == 1 + 9

    def test_points_and_span_overrides(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main,
            [
                "linewidth", "--config", str(path), "--out", str(tmp_path / "run"),
                "--points", "7", "--span", "4e5",
            ],
        )
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "run" / "linewidth_rectangular_6us.csv")[1:]
        assert len(rows) == 7
        detunings = [float(r.split(",")[0]) for r in rows]
        assert detunings[0] == -2e5 and detunings[-1] == 2e5

    def run_at_span(self, tmp_path, span, seed=42, exit_code=0):
        out = tmp_path / f"run-{span}-{seed}"
        config = str(write_config(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(
                main, ["linewidth", "--config", config, "--out", str(out), "--span", span, "--seed", str(seed)]
            )
        assert result.exit_code == exit_code, result.output
        assert "Warning" not in result.output
        assert "numerical failure" not in result.output
        header, row = read_csv_rows(out / "fits.csv")
        rho = [line.split(",")[1:] for line in read_csv_rows(out / "linewidth_rectangular_6us.csv")[1:]]
        return dict(zip(header.split(","), row.split(","))), rho

    @pytest.mark.parametrize("span", ["1.84e-307", "1e-200"])
    def test_near_subnormal_span_fits_without_warnings(self, tmp_path, span):
        fit, _ = self.run_at_span(tmp_path, span)
        assert fit["converged"] == "true"
        assert math.isfinite(float(fit["xi_s"])) and math.isfinite(float(fit["fwhm_hz"]))

    # Spans well below the window's linewidth resolve no width: the scale
    # falls to its bound, where the scale's Jacobian column vanishes.
    @pytest.mark.parametrize("seed,span", [(3, "1e-200"), (5, "1e-200"), (7, "1e-200"), (3, "3e4")])
    def test_fit_on_the_least_scale_is_not_converged(self, tmp_path, seed, span):
        from twpacorr.linewidth import MIN_SCALE

        fit, rho = self.run_at_span(tmp_path, span, seed, exit_code=3)
        assert len(rho) == BASE_CONFIG["linewidth"]["points"]
        assert fit["converged"] == "false"
        assert float(fit["xi_s"]) * float(span) / 2.0 == pytest.approx(MIN_SCALE, rel=1e-8)

    def test_fit_scales_with_the_span(self, tmp_path):
        # Both spans are far below any detuning the simulation resolves, so
        # their sweeps hold the same rho values; the fit runs in detuning
        # over the span's edge and must give one answer, to the printed digits.
        tiny, tiny_rho = self.run_at_span(tmp_path, "1e-200")
        small, small_rho = self.run_at_span(tmp_path, "1e-100")
        assert tiny_rho == small_rho
        assert tiny["A"] == small["A"]
        assert float(tiny["xi_s"]) * 1e-200 == pytest.approx(float(small["xi_s"]) * 1e-100, rel=1e-9)
        assert float(tiny["fwhm_hz"]) / 1e-200 == pytest.approx(float(small["fwhm_hz"]) / 1e-100, rel=1e-9)

    def test_numerical_failure_writes_nan_row_and_exits_three(self, tmp_path, monkeypatch):
        import twpacorr.cli as cli_module

        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli_module, "fit_model", explode)
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["linewidth", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == 3, result.output
        assert "case rectangular_6us: numerical failure: synthetic failure" in result.output
        assert isinstance(result.exception, SystemExit)
        fits = read_csv_rows(tmp_path / "run" / "fits.csv")
        assert len(fits) == 2
        assert fits[1] == "rectangular,6,nan,nan,nan,nan,nan,nan,false,0"

    @pytest.mark.parametrize("converged", [True, False])
    def test_fits_write_converged_as_true_or_false(self, tmp_path, monkeypatch, converged):
        import twpacorr.cli as cli_module

        real_fit = cli_module.fit_model
        monkeypatch.setattr(cli_module, "fit_model", lambda sweep: replace(real_fit(sweep), converged=converged))
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["linewidth", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == (0 if converged else 3), result.output
        assert ("did not converge" in result.output) is not converged
        cells = read_csv_rows(tmp_path / "run" / "fits.csv")[1].split(",")
        assert cells[8] == ("true" if converged else "false")
        assert int(cells[9]) > 0


class TestCompareWindowsCommand:
    def test_comparison_table(self, tmp_path):
        path = write_config(
            tmp_path,
            overrides={
                "linewidth.cases": [
                    {"window": "rectangular", "tau": 6.0e-6},
                    {"window": "gaussian", "tau": 6.0e-6},
                ]
            },
        )
        result = CliRunner().invoke(
            main, ["compare-windows", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "run" / "comparison.csv")
        assert rows[0].startswith("window,tau_us,fwhm_hz,snr,fwhm_tau")
        assert len(rows) == 3

    def test_failed_calibration_stops_only_its_case(self, tmp_path, monkeypatch):
        from twpacorr import linewidth

        cases = [{"window": "rectangular", "tau": 6.0e-6}, {"window": "gaussian", "tau": 6.0e-6}]
        path = write_config(tmp_path, overrides={"linewidth.cases": cases})
        runner = CliRunner()
        result = runner.invoke(main, ["compare-windows", "--config", str(path), "--out", str(tmp_path / "all")])
        assert result.exit_code == 0, result.output

        real_calibrate = linewidth._best_rotation
        calibrations = []

        def calibrate(cov):
            # The cases are calibrated in order: the gaussian one fails.
            calibrations.append(cov)
            if len(calibrations) == 2:
                raise ValueError("synthetic calibration failure")
            return real_calibrate(cov)

        monkeypatch.setattr(linewidth, "_best_rotation", calibrate)
        result = runner.invoke(main, ["compare-windows", "--config", str(path), "--out", str(tmp_path / "one")])
        assert result.exit_code == 3, result.output
        assert "case gaussian_6us: numerical failure: synthetic calibration failure" in result.output
        name = "linewidth_rectangular_6us.csv"
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
        assert not (tmp_path / "one" / "linewidth_gaussian_6us.csv").exists()
        fits = read_csv_rows(tmp_path / "one" / "fits.csv")
        assert fits[1] == read_csv_rows(tmp_path / "all" / "fits.csv")[1]
        assert fits[2] == "gaussian,6,nan,nan,nan,nan,nan,nan,false,0"
        assert len(read_csv_rows(tmp_path / "one" / "comparison.csv")) == 2

    def test_no_fitted_case_writes_the_header_alone(self, tmp_path, monkeypatch):
        import twpacorr.cli as cli_module

        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli_module, "fit_model", explode)
        path = write_config(tmp_path)
        result = CliRunner().invoke(
            main, ["compare-windows", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert result.exit_code == 3, result.output
        assert len(read_csv_rows(tmp_path / "run" / "fits.csv")) == 2
        lines = (tmp_path / "run" / "comparison.csv").read_text().splitlines()
        assert [line.split("=")[0] for line in lines] == [
            "# config_hash", "# seed", "# version", ",".join(COMPARISON_COLUMNS)
        ]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        runner = CliRunner()
        runner.invoke(main, ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "a")])
        runner.invoke(main, ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "phase_sweep.csv").read_bytes() == (
            tmp_path / "b" / "phase_sweep.csv"
        ).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        path = write_config(tmp_path)
        runner = CliRunner()
        runner.invoke(main, ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "a")])
        runner.invoke(
            main,
            ["phase-sweep", "--config", str(path), "--out", str(tmp_path / "c"), "--seed", "43"],
        )
        bytes_a = (tmp_path / "a" / "phase_sweep.csv").read_bytes()
        bytes_c = (tmp_path / "c" / "phase_sweep.csv").read_bytes()
        assert bytes_a != bytes_c
        # seed lines differ as well as the data
        assert b"# seed=43" in bytes_c
