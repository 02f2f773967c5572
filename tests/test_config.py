"""Config validation as the command line sees it: every refused value exits 2 and names its field."""

import importlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from twpacorr.cli import main
from twpacorr.config import FIELDS, MAX_POINTS, ConfigError, load_config

from test_cli import write_config

COMMANDS = ("simulate", "phase-sweep", "linewidth", "compare-windows")
SINGLE_RUNS = ("simulate", "phase-sweep")
SWEEPS = ("linewidth", "compare-windows")

NAN, INF = float("nan"), float("inf")
RECTANGULAR_6US = {"window": "rectangular", "tau": 6.0e-6}
#: Puts the signal demodulation frequency at the idler's at the -150 kHz
#: point of BASE_CONFIG's linewidth grid, and at no other detuning acquired.
DEGENERATE_SWEEP_POINT = {"frequency.f_idler_demod": 6.331075e9}
#: Linewidth cases that would both write linewidth_rectangular_6us.csv.
SHARED_FILE_CASES = {
    "6-digits": [RECTANGULAR_6US, {"window": "rectangular", "tau": 6.0000001e-6}],
    "repeat": [RECTANGULAR_6US, RECTANGULAR_6US],
}

#: (case id, {dotted path: value} written into BASE_CONFIG, field the error must name).
#: Every command loads the whole config, so each of these must fail in all of them.
BAD_VALUES = [
    ("f_pump-text", {"frequency.f_pump": "six GHz"}, "frequency.f_pump"),
    ("f_pump-nan", {"frequency.f_pump": NAN}, "frequency.f_pump"),
    ("f_pump-missing", {"frequency.f_pump": None}, "frequency.f_pump"),
    ("f_idler-list", {"frequency.f_idler_demod": [6.481e9]}, "frequency.f_idler_demod"),
    ("f_idler-inf", {"frequency.f_idler_demod": INF}, "frequency.f_idler_demod"),
    ("f_idler-at-pump", {"frequency.f_idler_demod": 6.331e9}, "frequency.f_idler_demod"),
    ("detuning-bool", {"frequency.detuning": True}, "frequency.detuning"),
    ("detuning-nan", {"frequency.detuning": NAN}, "frequency.detuning"),
    ("detuning-11MHz", {"frequency.detuning": 11e6}, "frequency.detuning"),
    ("gain_signal-text", {"twpa.gain_signal": "two"}, "twpa.gain_signal"),
    ("gain_signal-inf", {"twpa.gain_signal": INF}, "twpa.gain_signal"),
    ("gain_signal-below-1", {"twpa.gain_signal": 0.5}, "twpa.gain_signal"),
    ("gains-1e8", {"twpa.gain_signal": 1e8, "twpa.gain_idler": 1e8}, "twpa.gain_signal"),
    ("gain_signal-1e200", {"twpa.gain_signal": 1e200}, "twpa.gain_signal"),
    ("gain_idler-mapping", {"twpa.gain_idler": {"value": 2.0}}, "twpa.gain_idler"),
    ("gain_idler-nan", {"twpa.gain_idler": NAN}, "twpa.gain_idler"),
    ("gain_idler-below-1", {"twpa.gain_idler": 0.9}, "twpa.gain_idler"),
    ("gain_idler-above-60dB", {"twpa.gain_idler": 1.000001e6}, "twpa.gain_idler"),
    ("phase_mismatch-text", {"twpa.phase_mismatch_deg": "ninety"}, "twpa.phase_mismatch_deg"),
    ("phase_mismatch-inf", {"twpa.phase_mismatch_deg": -INF}, "twpa.phase_mismatch_deg"),
    ("phase_mismatch-1e308", {"twpa.phase_mismatch_deg": 1e308}, "twpa.phase_mismatch_deg"),
    ("halfwidth-text", {"band.halfwidth": "wide"}, "band.halfwidth"),
    ("halfwidth-nan", {"band.halfwidth": NAN}, "band.halfwidth"),
    ("halfwidth-zero", {"band.halfwidth": 0.0}, "band.halfwidth"),
    ("halfwidth-too-many-bins", {"band.halfwidth": 1e12}, "band.halfwidth"),
    ("bin-count-overflow", {"band.halfwidth": 1e300, "band.bin_spacing": 1e-300}, "band.halfwidth"),
    ("halfwidth-overflow", {"band.halfwidth": 1e308, "band.bin_spacing": 1e308}, "band.halfwidth"),
    ("bin_spacing-list", {"band.bin_spacing": [60e3]}, "band.bin_spacing"),
    ("bin_spacing-inf", {"band.bin_spacing": INF}, "band.bin_spacing"),
    ("bin_spacing-negative", {"band.bin_spacing": -60e3}, "band.bin_spacing"),
    ("bin_spacing-above-halfwidth", {"band.bin_spacing": 3e6}, "band.bin_spacing"),
    ("shape-number", {"acquisition.window.shape": 1}, "acquisition.window.shape"),
    ("shape-hann", {"acquisition.window.shape": "hann"}, "acquisition.window.shape"),
    ("tau-text", {"acquisition.window.tau": "short"}, "acquisition.window.tau"),
    ("tau-nan", {"acquisition.window.tau": NAN}, "acquisition.window.tau"),
    ("tau-zero", {"acquisition.window.tau": 0.0}, "acquisition.window.tau"),
    ("tau-missing", {"acquisition.window.tau": None}, "acquisition.window.tau"),
    ("n_shots-fraction", {"acquisition.n_shots": 400.5}, "acquisition.n_shots"),
    ("n_shots-inf", {"acquisition.n_shots": INF}, "acquisition.n_shots"),
    ("n_shots-two", {"acquisition.n_shots": 2}, "acquisition.n_shots"),
    ("n_shots-huge", {"acquisition.n_shots": 10**12}, "acquisition.n_shots"),
    ("lo_signal-text", {"acquisition.lo_phase_signal_deg": "x"}, "acquisition.lo_phase_signal_deg"),
    ("lo_signal-nan", {"acquisition.lo_phase_signal_deg": NAN}, "acquisition.lo_phase_signal_deg"),
    ("lo_signal--1e308", {"acquisition.lo_phase_signal_deg": -1e308}, "acquisition.lo_phase_signal_deg"),
    ("lo_idler-list", {"acquisition.lo_phase_idler_deg": [0.0]}, "acquisition.lo_phase_idler_deg"),
    ("lo_idler-inf", {"acquisition.lo_phase_idler_deg": INF}, "acquisition.lo_phase_idler_deg"),
    ("lo_idler-1e308", {"acquisition.lo_phase_idler_deg": 1e308}, "acquisition.lo_phase_idler_deg"),
    ("chain_signal-text", {"acquisition.chain_gain_signal": "high"}, "acquisition.chain_gain_signal"),
    ("chain_signal-nan", {"acquisition.chain_gain_signal": NAN}, "acquisition.chain_gain_signal"),
    ("chain_signal-zero", {"acquisition.chain_gain_signal": 0.0}, "acquisition.chain_gain_signal"),
    ("chain_idler-bool", {"acquisition.chain_gain_idler": False}, "acquisition.chain_gain_idler"),
    ("chain_idler-inf", {"acquisition.chain_gain_idler": INF}, "acquisition.chain_gain_idler"),
    ("chain_idler-negative", {"acquisition.chain_gain_idler": -1.0}, "acquisition.chain_gain_idler"),
    ("chain_signal-1e155", {"acquisition.chain_gain_signal": 1e155}, "acquisition.chain_gain_signal"),
    ("chain_signal-1e-300", {"acquisition.chain_gain_signal": 1e-300}, "acquisition.chain_gain_signal"),
    ("noise-text", {"acquisition.added_noise_quanta": "some"}, "acquisition.added_noise_quanta"),
    ("noise-nan", {"acquisition.added_noise_quanta": NAN}, "acquisition.added_noise_quanta"),
    ("noise-negative", {"acquisition.added_noise_quanta": -1.0}, "acquisition.added_noise_quanta"),
    ("noise-1e299", {"acquisition.added_noise_quanta": 1e299}, "acquisition.added_noise_quanta"),
    ("phase_points-fraction", {"phase_sweep.points": 12.5}, "phase_sweep.points"),
    ("phase_points-nan", {"phase_sweep.points": NAN}, "phase_sweep.points"),
    ("phase_points-zero", {"phase_sweep.points": 0}, "phase_sweep.points"),
    ("phase_points-huge", {"phase_sweep.points": 10**12}, "phase_sweep.points"),
    ("points-text", {"linewidth.points": "nine"}, "linewidth.points"),
    ("points-inf", {"linewidth.points": INF}, "linewidth.points"),
    ("points-four", {"linewidth.points": 4}, "linewidth.points"),
    ("points-above-max", {"linewidth.points": MAX_POINTS + 1}, "linewidth.points"),
    ("span-list", {"linewidth.span": [0.6e6]}, "linewidth.span"),
    ("span-nan", {"linewidth.span": NAN}, "linewidth.span"),
    ("span-zero", {"linewidth.span": 0.0}, "linewidth.span"),
    ("cases-empty", {"linewidth.cases": []}, "linewidth.cases"),
    ("cases-entry-number", {"linewidth.cases": [RECTANGULAR_6US, 6e-6]}, "linewidth.cases[1]"),
    ("case-window-number", {"linewidth.cases": [{"window": 1, "tau": 6e-6}]}, "linewidth.cases[0].window"),
    ("case-window-hann", {"linewidth.cases": [{"window": "hann", "tau": 6e-6}]}, "linewidth.cases[0].window"),
    ("case-window-missing", {"linewidth.cases": [{"tau": 6e-6}]}, "linewidth.cases[0].window"),
    ("case-tau-text", {"linewidth.cases": [{"window": "gaussian", "tau": "x"}]}, "linewidth.cases[0].tau"),
    ("case-tau-inf", {"linewidth.cases": [{"window": "gaussian", "tau": INF}]}, "linewidth.cases[0].tau"),
    ("case-tau-negative", {"linewidth.cases": [{"window": "gaussian", "tau": -6e-6}]}, "linewidth.cases[0].tau"),
    ("output_dir-number", {"output_dir": 5}, "output_dir"),
    ("seed-fraction", {"seed": 42.5}, "seed"),
    ("seed-nan", {"seed": NAN}, "seed"),
    ("seed-negative", {"seed": -1}, "seed"),
    ("seed-2**128", {"seed": 2**128}, "seed"),
    ("section-not-mapping", {"twpa": 5}, "twpa"),
    ("window-not-mapping", {"acquisition.window": "rectangular"}, "acquisition.window"),
    ("unknown-field", {"acquisition.added_noise_quant": 1.0}, "acquisition.added_noise_quant"),
    ("unknown-section", {"phase_sweeps": {"points": 13}}, "phase_sweeps"),
    ("unknown-case-field", {"linewidth.cases": [dict(RECTANGULAR_6US, floor=0.1)]}, "linewidth.cases[0].floor"),
]

#: Configs that load but ask for an acquisition the band cannot simulate:
#: (case id, changes to BASE_CONFIG, extra options, commands, field named).
UNCOVERED = [
    ("coarse-bins", {"band.bin_spacing": 200e3}, [], SINGLE_RUNS, "acquisition.window.tau"),
    ("coarse-bins", {"band.bin_spacing": 200e3}, [], SWEEPS, "linewidth.cases[0].tau"),
    ("detuning-off-band", {"frequency.detuning": 2e6}, [], SINGLE_RUNS, "frequency.detuning"),
    ("span-off-band", {"linewidth.span": 8e6}, [], SWEEPS, "linewidth.span"),
    ("span-option-off-band", {}, ["--span", "8e6"], SWEEPS, "linewidth.span"),
    # 201 points over this span collapse onto 21 subnormal numbers.
    ("span-subnormal", {"linewidth.span": 1e-322, "linewidth.points": 201}, [], SWEEPS, "linewidth.span"),
    ("span-option-subnormal", {"linewidth.points": 201}, ["--span", "1e-322"], SWEEPS, "linewidth.span"),
    # 9 points over this span are distinct, but a step is subnormal.
    ("span-subnormal-9-points", {"linewidth.span": 1e-322, "linewidth.points": 9}, [], SWEEPS, "linewidth.span"),
    ("span-option-subnormal-9-points", {"linewidth.points": 9}, ["--span", "1e-322"], SWEEPS, "linewidth.span"),
    (
        "case-tau-too-short",
        {"linewidth.cases": [RECTANGULAR_6US, {"window": "gaussian", "tau": 1e-6}]},
        [],
        SWEEPS,
        "linewidth.cases[1].tau",
    ),
    ("default-cases-off-band", {"linewidth": None}, [], SWEEPS, "linewidth.cases[0].tau"),
    ("interior-degenerate-point", DEGENERATE_SWEEP_POINT, [], SWEEPS, "frequency.f_idler_demod"),
]


def assert_refused(tmp_path, changes, options, command, field):
    config = write_config(tmp_path, overrides=changes)
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out), *options])
    assert result.exit_code == 2, result.output
    assert f"'{field}'" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()
    return result


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "changes, field", [pytest.param(changes, field, id=case_id) for case_id, changes, field in BAD_VALUES]
)
def test_bad_value_is_refused_by_field(tmp_path, command, changes, field):
    assert_refused(tmp_path, changes, [], command, field)


@pytest.mark.parametrize(
    "changes, options, command, field",
    [
        pytest.param(changes, options, command, field, id=f"{case_id}-{command}")
        for case_id, changes, options, commands, field in UNCOVERED
        for command in commands
    ],
)
def test_uncovered_acquisition_is_refused_before_any_shot(tmp_path, changes, options, command, field):
    assert_refused(tmp_path, changes, options, command, field)


@pytest.mark.parametrize("command", SWEEPS)
@pytest.mark.parametrize("cases", SHARED_FILE_CASES.values(), ids=SHARED_FILE_CASES.keys())
def test_cases_sharing_a_file_are_refused(tmp_path, command, cases):
    result = assert_refused(tmp_path, {"linewidth.cases": cases}, [], command, "linewidth.cases[1]")
    assert "linewidth_rectangular_6us.csv" in result.output


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("where", ["--out", "output_dir"])
def test_output_path_through_a_file_is_refused(tmp_path, monkeypatch, command, where):
    import twpacorr.cli as cli_module

    def acquire(*args, **kwargs):
        raise AssertionError("acquisition ran")

    monkeypatch.setattr(cli_module, "run_experiment", acquire)
    monkeypatch.setattr(cli_module, "sweep_detuning", acquire)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    # --out names the file itself; output_dir names a directory under it.
    out = blocker if where == "--out" else blocker / "run"
    changes = {"output_dir": str(out)} if where == "output_dir" else {}
    options = ["--out", str(out)] if where == "--out" else []
    config = write_config(tmp_path, overrides=changes)
    result = CliRunner().invoke(main, [command, "--config", str(config), *options])
    assert result.exit_code == 2, result.output
    assert "'output_dir'" in result.output and str(out) in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
    assert blocker.read_text() == "keep\n"


def test_every_field_has_a_bad_value_case():
    named = {field for _, _, field in BAD_VALUES}
    patterns = {field.replace("[0]", "[]").replace("[1]", "[]") for field in named}
    assert set(FIELDS) <= patterns


@pytest.mark.parametrize("command", SINGLE_RUNS)
@pytest.mark.parametrize(
    "changes",
    [
        # The default linewidth cases do not suit this band, but single runs never use them.
        pytest.param({"linewidth": None}, id="no-linewidth-section"),
        # Single runs acquire frequency.detuning alone, where the frequencies differ.
        pytest.param(DEGENERATE_SWEEP_POINT, id="degenerate-sweep-point"),
        # Single runs write no linewidth files.
        pytest.param({"linewidth.cases": SHARED_FILE_CASES["repeat"]}, id="cases-sharing-a-file"),
    ],
)
def test_single_runs_accept_what_only_sweeps_refuse(tmp_path, command, changes):
    config = write_config(tmp_path, overrides=changes)
    result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "changes, drop, expected",
    [
        pytest.param({}, None, "9aada617c8feca29", id="base"),
        # The degrees of the radians the data use: not always the degrees read.
        pytest.param(
            {"acquisition.lo_phase_signal_deg": 12.3, "acquisition.lo_phase_idler_deg": -45.6},
            None,
            "83223fdb812e0356",
            id="lo-phases",
        ),
        pytest.param({"twpa.phase_mismatch_deg": 370.0}, None, "a7634320b62e6b6c", id="mismatch-reduced-down"),
        pytest.param({"twpa.phase_mismatch_deg": -190.0}, None, "1d351be2e4e77090", id="mismatch-reduced-up"),
        pytest.param({}, ["linewidth.cases"], "cd2e43cfd56c48a9", id="default-cases"),
        # Read as a float, so the base config's hash.
        pytest.param({"band.halfwidth": 2700000}, None, "9aada617c8feca29", id="integer-halfwidth"),
    ],
)
def test_hash_of_base_config_and_each_departure_is_pinned(tmp_path, changes, drop, expected):
    assert load_config(write_config(tmp_path, overrides=changes, drop=drop)).hash() == expected


def test_hash_holds_every_field_but_the_output_directory(tmp_path):
    def leaves(node, path=""):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{path}{key}.")
            else:
                yield f"{path}{key}"

    config = load_config(write_config(tmp_path))
    # The cases are hashed as one list, and the derived sample rate with them.
    fields = {path for path in FIELDS if path != "output_dir" and "[]" not in path}
    assert set(leaves(config.resolved())) == fields | {"acquisition.sample_rate", "linewidth.cases"}
    # --out replaces output_dir, and leaves no copy of the file's value behind.
    assert "output_dir" not in config.values
    with pytest.raises(TypeError):
        config.values["seed"] = 0


@pytest.mark.parametrize(
    "name, expected",
    [
        ("linewidth_sweep", "831d54aeb5ce6095"),
        ("phase_calibration", "880decb1609f0156"),
        ("trace_dump", "cf27f9572aee0826"),
    ],
)
def test_hash_of_benchmark_config_is_pinned(tmp_path, monkeypatch, name, expected):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").make(name, 11)
    assert load_config(workload.write_config(tmp_path)).hash() == expected


def test_overrides_merge_as_dotted_paths(tmp_path):
    path = write_config(tmp_path, overrides={"linewidth": None})
    config = load_config(path, {"linewidth.points": 7, "linewidth.span": 4e5})
    assert (config.values["linewidth.points"], config.values["linewidth.span"]) == (7, 4e5)
    with pytest.raises(ConfigError, match="unknown field 'linewidth.point'"):
        load_config(path, {"linewidth.point": 7})
