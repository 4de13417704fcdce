import argparse
import base64
import csv
import functools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from smol import calibrate, campaign, cli, forest
from smol.calibrate import FeatureMode, ModelKind, ModelSpec
from smol.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from smol.sweepproto import MeasurementLog


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A quick three-cell campaign log shared across CLI tests."""
    path = tmp_path_factory.mktemp("logs") / "small.csv"
    cfg = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("bench", 15.0, 0.0),),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=2,
        seed=5,
    )
    campaign.write_measurements(path, campaign.run_campaign(cfg))
    return path


def test_simulate_writes_a_log(tmp_path, capsys):
    out = tmp_path / "log.csv"
    code = main(["simulate", "--out", str(out), "--seed", "3"])
    assert code == EXIT_OK
    assert "1296 measurements" in capsys.readouterr().out
    log = campaign.read_measurements(out)
    assert len(log) == 1296


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_config_round_trip(tmp_path):
    """A campaign value is set by editing a dumped config; the config that
    ``simulate --config`` dumps in turn reproduces its log."""
    stock, edited, dumped = (tmp_path / f"{name}.json" for name in ("stock", "edited", "dumped"))
    argv = ["simulate", "--out", str(tmp_path / "stock.csv"), "--seed", "4"]
    assert main([*argv, "--dump-config", str(stock)]) == EXIT_OK
    data = json.loads(stock.read_text())
    assert data["seed"] == 4
    data["rssi_sigma_db"] = 1.0
    edited.write_text(json.dumps(data))
    out, again = tmp_path / "log.csv", tmp_path / "again.csv"
    argv = ["simulate", "--out", str(out), "--config", str(edited)]
    assert main([*argv, "--dump-config", str(dumped)]) == EXIT_OK
    assert out.read_bytes() != (tmp_path / "stock.csv").read_bytes()
    assert main(["simulate", "--out", str(again), "--config", str(dumped)]) == EXIT_OK
    assert out.read_bytes() == again.read_bytes()


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit code, also where argparse refuses the command line."""
    try:
        return main(argv)
    except SystemExit as refused:
        return refused.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frob"], "smol: error: argument command: invalid choice: 'frob'"),
        (["train", "--out", "m.json"],
         "smol train: error: the following arguments are required: --log"),
        (["train", "--log", "x.csv", "--out", "m.json", "--split-seed", "x"],
         "smol train: error: argument --split-seed: invalid int value: 'x'"),
        (["train", "--log", "x.csv", "--out", "m.json", "--train-fraction", "0.5"],
         "smol: error: unrecognized arguments: --train-fraction 0.5"),
    ],
)
def test_command_line_refusals_are_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(message), captured.err
    assert list(tmp_path.iterdir()) == []


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


def _edit(change):
    """Apply ``change`` to the config dict in place, then return the dict."""
    def mutate(data):
        change(data)
        return data
    return mutate


BAD_CONFIGS = {
    "missing top-level key": _edit(lambda d: d.pop("scenarios")),
    "missing seed": _edit(lambda d: d.pop("seed")),
    "missing rssi_sigma_db": _edit(lambda d: d.pop("rssi_sigma_db")),
    "extra top-level key": _edit(lambda d: d.update(mystery_knob=1)),
    "scenario missing a key": _edit(lambda d: d["scenarios"][0].pop("label")),
    "scenario with an extra key": _edit(lambda d: d["scenarios"][0].update(tilt_deg=3.0)),
    "top-level list": lambda d: [d],
    "scenarios not a list": _edit(lambda d: d.update(scenarios={"label": "x"})),
    "frequency_hz NaN": _edit(lambda d: d.update(frequency_hz=math.nan)),
    "fractional tdr_spots": _edit(lambda d: d.update(tdr_spots=2.5)),
    "fractional seed": _edit(lambda d: d.update(seed=1.5)),
    "fractional power level": _edit(lambda d: d["power_levels"].append(23.5)),
    "string for a bool": _edit(lambda d: d.update(quantize_rssi="no")),
    "bool for a grid level": _edit(lambda d: d["vwc_grid"].append(False)),
    "bool for a scenario height": _edit(
        lambda d: d["scenarios"][0].update(receiver_height_cm=True)
    ),
    "number for a scenario label": _edit(lambda d: d["scenarios"][0].update(label=7)),
    # A lone surrogate is valid JSON, but no UTF-8 log can hold it.
    "label UTF-8 cannot encode": _edit(lambda d: d["scenarios"][0].update(label="a\udc80")),
    "tdr_error_bound above one": _edit(lambda d: d.update(tdr_error_bound=1e308)),
    "negative seed": _edit(lambda d: d.update(seed=-1)),
    "drop_prob above one": _edit(lambda d: d.update(drop_prob=1.5)),
    "device_id above a u16": _edit(lambda d: d.update(device_id=70000)),
    # A JSON integer that no float can hold is not a finite number.
    "epoch beyond float range": _edit(lambda d: d.update(epoch=10**400)),
    "version 1": _edit(lambda d: d.update(version=1, spread_factor=7, bandwidth_hz=125e3)),
    # Finite values whose sums and products overflow in the simulated log.
    "overflowing timestamps": _edit(lambda d: d.update(epoch=1e308, sweep_interval_s=1e308)),
    "overflowing antenna gains": _edit(lambda d: d.update(tx_gain_db=1e308, rx_gain_db=1e308)),
    "overflowing burial depth": _edit(lambda d: d["scenarios"][0].update(burial_depth_cm=1e308)),
    # Finite timestamps that round two sweeps to one (device_id, timestamp).
    "sweeps rounded to one timestamp": _edit(lambda d: d.update(epoch=1e17, sweep_interval_s=1.0)),
    "sub-ulp interval after a unix epoch": _edit(
        lambda d: d.update(epoch=1.7e9, sweep_interval_s=1e-7)
    ),
    # Sizes whose arrays cannot be allocated, so they fail at once.
    "tdr_spots beyond memory": _edit(lambda d: d.update(tdr_spots=10**15)),
    "sweeps_per_cell beyond memory": _edit(lambda d: d.update(sweeps_per_cell=10**15)),
}

# What a case's error line must name, where the value itself is bad.
NAMED_FIELDS = {
    "negative seed": ["seed"],
    "drop_prob above one": ["drop_prob"],
    "device_id above a u16": ["device_id 70000 not a u16"],
    "epoch beyond float range": ["epoch must be a finite number"],
    "label UTF-8 cannot encode": ["scenario 'a\\udc80': label is not UTF-8 text"],
    "version 1": ["version 1", "version 2", "spread_factor", "bandwidth_hz"],
    **dict.fromkeys(
        ["overflowing timestamps", "overflowing antenna gains", "overflowing burial depth"],
        ["non-finite timestamp or rssi"],
    ),
    **dict.fromkeys(
        ["sweeps rounded to one timestamp", "sub-ulp interval after a unix epoch"],
        ["epoch", "sweep_interval_s", "stamps two sweeps alike"],
    ),
    **dict.fromkeys(
        ["tdr_spots beyond memory", "sweeps_per_cell beyond memory"], ["out of memory"]
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_simulate_rejects_a_malformed_config_file(tmp_path, capsys, case):
    stock = json.loads(json.dumps(campaign.config_to_dict(campaign.CampaignConfig())))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(BAD_CONFIGS[case](stock)))
    out, dumped = tmp_path / "x.csv", tmp_path / "dumped.json"
    argv = ["simulate", "--out", str(out), "--config", str(cfg_path), "--dump-config", str(dumped)]
    assert main(argv) == EXIT_VALIDATION
    line = _one_error_line(capsys)
    assert all(name in line for name in NAMED_FIELDS.get(case, [])), line
    assert not out.exists() and not dumped.exists()


# Campaign values are set in the config file only: simulate sets the seed
# and refuses the flags that once set the noise sigma, epoch and drop
# probability, as argparse refuses any unknown flag.
@pytest.mark.parametrize(
    "flags",
    [
        ["--noise-sigma", "nan"], ["--epoch", "inf"], ["--drop-prob", "nan"], ["--seed", "-1"],
        ["--noise-sigma", "-1"], ["--drop-prob", "1.5"],
    ],
)
def test_simulate_rejects_non_finite_flags(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert _exit_code(["simulate", "--out", str(out), *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    if flags[0] == "--seed":
        assert err.startswith("error: ") and "seed" in err
    else:
        assert f"unrecognized arguments: {flags[0]}" in err
    assert not out.exists()


# Each model family is fit at its fixed hyperparameters: train refuses the
# flags that once set them, as argparse refuses any unknown flag.
@pytest.mark.parametrize(
    "flag",
    ["--poly-degree", "--ridge-lambda", "--trees", "--max-depth", "--min-leaf", "--model-seed"],
)
def test_train_refuses_the_hyperparameter_flags(tmp_path, small_log, capsys, flag):
    out = tmp_path / "m.json"
    argv = ["train", "--log", str(small_log), "--out", str(out), flag, "2"]
    assert _exit_code(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"smol: error: unrecognized arguments: {flag} 2\n"
    assert not out.exists()


def test_main_builds_its_parser_once_per_process(tmp_path):
    # A caller that runs several commands in one process, as the benchmark's
    # client does, parses each command line with the one parser.
    made, init = [], cli._Parser.__init__

    def note(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        made.append(parser.prog)

    missing = [str(tmp_path / name) for name in ("model.json", "log.csv", "out.csv")]
    argv = ["predict", "--model", missing[0], "--log", missing[1], "--out", missing[2]]
    cli._build_parser.cache_clear()
    with mock.patch.object(cli._Parser, "__init__", note):
        assert main(argv) == main(argv) == EXIT_IO
    assert made.count("smol") == 1 and len(made) == len(set(made)), made


def test_readme_names_only_flags_that_exist():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in (parser, *commands.choices.values()) for o in p._option_string_actions}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert named <= options, sorted(named - options)  # the one left out above is pip's


def test_readme_speed_list_names_only_code_that_exists():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Code that exists only for speed\n")[1].split("\n#")[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| ")][1:]
    modules = {"calibrate": calibrate, "campaign": campaign, "forest": forest}
    for mechanism, where, _ in rows:
        names = re.findall(r"`(\w+)\.([\w.]+)`", where)
        assert names, mechanism
        for module, path in names:
            *owners, name = path.split(".")
            assert hasattr(functools.reduce(getattr, owners, modules[module]), name), path


def test_readme_names_the_file_versions_this_smol_writes():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.findall(r'"(smol-model|smol-campaign)",\s+"version": (\d+)', readme)
    assert sorted(set(named)) == [
        ("smol-campaign", str(campaign.CONFIG_FILE_VERSION)),
        ("smol-model", str(calibrate.MODEL_FILE_VERSION)),
    ]


# Valid JSON nested deeper than the parser's recursion limit.
DEEPLY_NESTED = "[" * 200_000 + "]" * 200_000


def test_simulate_rejects_a_deeply_nested_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text(DEEPLY_NESTED)
    code = main(["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(cfg_path)])
    assert code == EXIT_VALIDATION
    assert f"{cfg_path}: " in _one_error_line(capsys)


def test_predict_rejects_a_deeply_nested_model_file(tmp_path, small_log, capsys):
    model_path = tmp_path / "deep.json"
    model_path.write_text(DEEPLY_NESTED)
    code = main(["predict", "--model", str(model_path), "--log", str(small_log),
                 "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_VALIDATION
    assert f"{model_path}: " in _one_error_line(capsys)


def test_simulate_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    data = campaign.config_to_dict(campaign.CampaignConfig())
    data["vwc_grid"] = [0.9]  # above porosity
    cfg_path.write_text(json.dumps(data))
    code = main(["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(cfg_path)])
    assert code == EXIT_VALIDATION


def test_train_then_predict_all_tx(tmp_path, small_log, capsys):
    model_path = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--log",
            str(small_log),
            "--model",
            "random_forest",
            "--mode",
            "all_tx",
            "--out",
            str(model_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "r_squared=" in out and "mae=" in out

    preds_path = tmp_path / "preds.csv"
    assert (
        main(["predict", "--model", str(model_path), "--log", str(small_log),
              "--out", str(preds_path)])
        == EXIT_OK
    )
    with open(preds_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(campaign.read_measurements(small_log))
    assert all(r["vwc_pred_pct"] for r in rows)


def test_predict_median_mode_keeps_median_rows_only(tmp_path, small_log):
    model_path = tmp_path / "median.json"
    assert (
        main(["train", "--log", str(small_log), "--model", "linear",
              "--mode", "median_tx", "--out", str(model_path)])
        == EXIT_OK
    )
    preds_path = tmp_path / "preds.csv"
    assert (
        main(["predict", "--model", str(model_path), "--log", str(small_log),
              "--out", str(preds_path)])
        == EXIT_OK
    )
    with open(preds_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # one median packet per sweep
    assert {r["tx_power_dbm"] for r in rows} == {"13"}


def test_predict_median_mode_needs_median_rows(tmp_path, small_log):
    model_path = tmp_path / "median.json"
    main(["train", "--log", str(small_log), "--model", "linear",
          "--mode", "median_tx", "--out", str(model_path)])
    # strip the median power from the log
    log = campaign.read_measurements(small_log)
    log = log.take(log.tx_power != 13)
    stripped = tmp_path / "stripped.csv"
    campaign.write_measurements(stripped, log)
    code = main(["predict", "--model", str(model_path), "--log", str(stripped),
                 "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_VALIDATION


def test_train_requires_ground_truth(tmp_path, capsys):
    log_path = tmp_path / "inference.csv"
    cfg = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("bench", 15.0, 0.0),),
        vwc_grid=(0.05, 0.20),
        sweeps_per_cell=1,
        training_mode=False,
    )
    campaign.write_measurements(log_path, campaign.run_campaign(cfg))
    code = main(["train", "--log", str(log_path), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION
    assert "ground truth" in capsys.readouterr().err


def test_train_determinism(tmp_path, small_log):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            main(["train", "--log", str(small_log), "--model", "random_forest",
                  "--out", str(out)])
            == EXIT_OK
        )
    assert a.read_bytes() == b.read_bytes()


def test_missing_log_is_an_io_error(tmp_path):
    code = main(["train", "--log", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_IO


def test_singular_fit_is_a_numerical_error(tmp_path, capsys):
    # constant features make the linear design rank-deficient
    log = MeasurementLog(
        timestamp=np.arange(10.0),
        device_id=[1] * 10,
        tx_power=[13] * 10,
        rssi=[-50.0] * 10,
        height_cm=[0.0] * 10,
        depth_cm=[15.0] * 10,
        scenario=["flat"] * 10,
        vwc_truth=0.01 * np.arange(10),
    )
    log_path = tmp_path / "flat.csv"
    campaign.write_measurements(log_path, log)
    code = main(["train", "--log", str(log_path), "--model", "linear",
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: design matrix rank")
    assert not (tmp_path / "m.json").exists()


def test_an_overflowing_design_is_a_numerical_error(tmp_path, capfd):
    """Every 7th RSSI at -1e200, which the reader accepts: its square
    overflows, and no polynomial design with it reaches LAPACK."""
    log = campaign.run_campaign(campaign.CampaignConfig())
    rssi = np.where(np.arange(len(log)) % 7, log.rssi, -1e200)
    huge = tmp_path / "huge.csv"
    campaign.write_measurements(huge, replace(log, rssi=rssi))
    model = tmp_path / "model.json"
    code = main(["train", "--log", str(huge), "--model", "polynomial", "--out", str(model)])
    out, err = capfd.readouterr()
    assert code == EXIT_NUMERICAL and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: "), err
    assert not model.exists()
    assert main(["report", "--log", str(huge), "--out-dir", str(tmp_path / "r")]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == "" and "DLASCL" not in out
    assert out.count("design matrix values are not finite") == 2


def test_report_writes_table_and_curves(tmp_path, small_log, capsys):
    out_dir = tmp_path / "report"
    code = main(["report", "--log", str(small_log), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Random Forest" in out
    assert (out_dir / "table.txt").exists()
    with open(out_dir / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert sum(int(r["best"]) for r in rows) == 1
    curves = sorted(out_dir.glob("curve_*.csv"))
    assert len(curves) == 1  # one scenario in this log
    with open(curves[0]) as fh:
        curve_rows = list(csv.DictReader(fh))
    assert list(curve_rows[0]) == ["scenario", "height_cm", "vwc_truth_pct", "mean_rssi_dbm"]
    assert len(curve_rows) == 6  # 3 vwc cells x 2 sweeps with distinct readings


def test_report_refuses_two_scenarios_with_one_curve_file(tmp_path, capsys):
    # "a b" and "a_b" both sanitise to curve_a_b_h0cm.csv
    cfg = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("a b", 15.0, 0.0), campaign.Scenario("a_b", 15.0, 0.0)),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=2,
    )
    log = tmp_path / "log.csv"
    campaign.write_measurements(log, campaign.run_campaign(cfg))
    out_dir = tmp_path / "report"
    code = main(["report", "--log", str(log), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    err = _one_error_line(capsys)
    assert "'a b'" in err and "'a_b'" in err and "curve_a_b_h0cm.csv" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("length", [240, 241])
def test_report_refuses_a_curve_file_name_past_255_bytes(tmp_path, capsys, length):
    # "curve_<label>_h0cm.csv" is 15 bytes longer than its label. The short
    # scenario's curve comes first, and must not be written either.
    cfg = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("a", 15.0, 0.0), campaign.Scenario("b" * length, 15.0, 0.0)),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=2,
    )
    log = tmp_path / "log.csv"
    campaign.write_measurements(log, campaign.run_campaign(cfg))
    out_dir = tmp_path / "report"
    code = main(["report", "--log", str(log), "--out-dir", str(out_dir)])
    if length == 240:
        assert code == EXIT_OK
        assert (out_dir / f"curve_{'b' * length}_h0cm.csv").exists()
        return
    assert code == EXIT_VALIDATION
    err = _one_error_line(capsys)
    assert err.endswith("cm makes a 256-byte curve file name, past 255 bytes\n"), err
    assert not out_dir.exists()


def test_report_refuses_a_curve_that_would_blend_burial_depths(tmp_path, capsys):
    # One label at two depths: each noise-free point would average both.
    cfg = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("a", 10.0, 0.0), campaign.Scenario("a", 30.0, 0.0)),
    ).without_noise()
    log = tmp_path / "log.csv"
    campaign.write_measurements(log, campaign.run_campaign(cfg))
    out_dir = tmp_path / "report"
    code = main(["report", "--log", str(log), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    err = _one_error_line(capsys)
    assert "'a'" in err and "height 0.0 cm" in err and "[10.0, 30.0]" in err, err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "report"])
@pytest.mark.parametrize(
    "flags",
    [["--train-fraction", "1.5"], ["--train-fraction", "nan"], ["--train-fraction", "0"],
     ["--split-seed", "-1"]],
)
def test_bad_split_flags_are_refused_before_anything_is_written(
    tmp_path, small_log, capsys, command, flags
):
    """The split is a fixed 80/20 one, so ``--train-fraction`` is refused as
    an unknown flag; a bad ``--split-seed`` by one line naming it."""
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "train" else ["--out-dir", str(out)]
    code = _exit_code([command, "--log", str(small_log), *target, *flags])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    if flags[0] == "--train-fraction":
        assert "unrecognized arguments: --train-fraction" in captured.err
    else:
        assert "split_seed" in captured.err
    assert not out.exists()


def test_report_determinism(tmp_path, small_log):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["report", "--log", str(small_log), "--out-dir", str(d)]) == EXIT_OK
    for name in ("table.txt", "table.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_model_zoo_via_cli(tmp_path, small_log):
    for kind in ("linear", "ridge", "polynomial", "random_forest"):
        out = tmp_path / f"{kind}.json"
        assert (
            main(["train", "--log", str(small_log), "--model", kind,
                  "--out", str(out)])
            == EXIT_OK
        )
        model = calibrate.load_model(out)
        assert model.spec.kind.value == kind


@pytest.mark.parametrize("mode", [m.value for m in FeatureMode])
@pytest.mark.parametrize("kind", [k.value for k in ModelKind])
def test_predict_writes_predict_many_outputs(tmp_path, small_log, kind, mode):
    model_path = tmp_path / "model.json"
    assert (
        main(["train", "--log", str(small_log), "--model", kind, "--mode", mode,
              "--out", str(model_path)])
        == EXIT_OK
    )
    preds_path = tmp_path / "preds.csv"
    assert (
        main(["predict", "--model", str(model_path), "--log", str(small_log),
              "--out", str(preds_path)])
        == EXIT_OK
    )
    model = calibrate.load_model(model_path)
    log = campaign.read_measurements(small_log)
    if mode == "all_tx":
        X = np.column_stack([log.rssi, log.tx_power])
    else:
        X = log.rssi[log.tx_power == 13].reshape(-1, 1)
    with open(preds_path) as fh:
        written = [row["vwc_pred_pct"] for row in csv.DictReader(fh)]
    assert written == [repr(p) for p in model.predict_many(X).tolist()]


def _save_small_model(log_path, kind, path):
    """The model file ``smol train`` writes for ``kind``, at the default
    mode and split seed, but with a two-tree forest."""
    spec, log = ModelSpec(ModelKind(kind)), campaign.read_measurements(log_path)
    with mock.patch.object(forest, "grow", functools.partial(forest.grow, n_trees=2)):
        model = calibrate.train_and_score(spec, log, FeatureMode.ALL_TX, 0)[0]
    calibrate.save_model(model, path)


def _dtype(params, array) -> np.dtype:
    """The type of one of the forest's arrays in a model file: the index's
    follows from the table's length."""
    if array == "value_index":
        return forest._index_dtype(len(_decoded(params, "value_table")))
    return forest.DTYPES[array]


def _encoded(values, dtype) -> str:
    return base64.b64encode(np.array(values, dtype).tobytes()).decode("ascii")


def _edit_array(array, change):
    """Decode one of the forest's arrays, let ``change`` edit it as a list,
    and encode it back."""
    def mutate(payload):
        forest = payload["params"]
        dtype = _dtype(forest, array)
        values = np.frombuffer(base64.b64decode(forest[array]), dtype).tolist()
        change(values, forest)
        forest[array] = _encoded(values, dtype)
    return mutate


def _decoded(params, array) -> list:
    return np.frombuffer(base64.b64decode(params[array]), _dtype(params, array)).tolist()


def _node_values(params) -> list:
    """Each node's value: its entry of the table."""
    table = _decoded(params, "value_table")
    return [table[i] for i in _decoded(params, "value_index")]


def _edit_values(change):
    """Let ``change`` edit each node's value as a list, and store the values
    back as a table and an index, as a model file holds them."""
    def mutate(payload):
        params = payload["params"]
        values = _node_values(params)
        change(values, params)
        arrays = {key: np.array(_decoded(params, key)) for key in ("feature", "tree_sizes")}
        params.update(forest.encode({**arrays, "value": np.array(values)}))
    return mutate


def _set_root(array, value):
    """Set the first tree's root entry in one of the forest's arrays."""
    def change(values, forest):
        values[0] = value
    return _edit_array(array, change)


def _nan_leaf(values, forest):
    values[_decoded(forest, "feature").index(-1)] = math.nan


def _index_past_the_table(index, forest):
    index[0] = len(_decoded(forest, "value_table"))


def _index_of_part_items(payload):
    """Pad the table with unused values past 256, so that an index takes two
    bytes, and cut the last byte of the index."""
    params = payload["params"]
    table, index = _decoded(params, "value_table"), _decoded(params, "value_index")
    table += [1000.0 + k for k in range(257 - len(table))]
    params["value_table"] = _encoded(table, "<f8")
    params["value_index"] = base64.b64encode(np.array(index, "<u2").tobytes()[:-1]).decode()


def _unused_nan_in_the_table(payload):
    payload["params"]["value_table"] = _encoded(
        _decoded(payload["params"], "value_table") + [math.nan], "<f8"
    )


def _empty_first_tree(sizes, forest):
    sizes[1] += sizes[0]
    sizes[0] = 0


def _split_pair_across_trees(sizes, forest):
    """Move the first tree's last two nodes into the second tree, so the
    first tree's last split pair lies in the second tree."""
    sizes[0] -= 2
    sizes[1] += 2


def _last_leaf_split(feature, forest):
    """Make the last tree's last node, a leaf, a split: its implied
    children lie past the forest's last node."""
    feature[-1] = 0


def _split_made_a_leaf(feature, forest):
    """Make the first tree's root a leaf: the tree keeps 2k + 3 nodes for
    its k split nodes."""
    feature[0] = -1


def _root_leaf_and_last_leaf_split(feature, forest):
    """Swap the first tree's root and its last node: the tree keeps 2k + 1
    nodes, but its last node, now its last split, implies children before it."""
    last = _decoded(forest, "tree_sizes")[0] - 1
    feature[0], feature[last] = -1, 0


def _two_bytes_short_tree_sizes(payload):
    raw = base64.b64decode(payload["params"]["tree_sizes"])
    payload["params"]["tree_sizes"] = base64.b64encode(raw[:-2]).decode("ascii")


def _one_feature(payload):
    """Cut beta to one slope, as a median_tx model's one feature needs."""
    payload["params"]["beta"].pop()


def _stored_exponents(payload):
    """Store the polynomial's exponent lists too, as version 4 did."""
    payload["params"]["powers"] = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def _version_4_polynomial(payload):
    _stored_exponents(payload)
    payload["version"] = 4


def _stored_feature_names(payload):
    """Store the mode's feature names too, as version 5 did."""
    payload["feature_names"] = ["rssi_dbm", "tx_power_dbm"]


def _version_5_linear(payload):
    _stored_feature_names(payload)
    payload["version"] = 5


def _version_6_forest(payload):
    """Store the forest's settings in its spec, as version 6 did."""
    payload["spec"].update(poly_degree=2, ridge_lambda=1.0, n_trees=2, max_depth=10)
    payload["spec"].update(min_leaf=2, bootstrap=True, seed=0)
    payload["version"] = 6


def _version_8_forest(payload):
    """Store each node's value as <f8, as version 8 did."""
    params = payload["params"]
    params["value"] = _encoded(_node_values(params), "<f8")
    del params["value_table"], params["value_index"]
    payload["version"] = 8


def _version_7_forest(payload):
    """Store the forest's feature indices as <i4, as version 7 did."""
    _version_8_forest(payload)
    feature = np.frombuffer(base64.b64decode(payload["params"]["feature"]), "<i1")
    payload["params"]["feature"] = base64.b64encode(feature.astype("<i4").tobytes()).decode()
    payload["version"] = 7


def _median_tx_without_median(payload):
    _one_feature(payload)
    payload.update(feature_mode="median_tx", median_tx_power=None)


def _median_tx_at_99_dbm(payload):
    _one_feature(payload)
    payload.update(feature_mode="median_tx", median_tx_power=99)


BAD_MODELS = {
    "version 1": ("random_forest", lambda p: p.update(version=1)),
    "version 2": ("random_forest", lambda p: p.update(version=2)),
    "version 3": ("random_forest", lambda p: p.update(version=3)),
    "version 4": ("polynomial", _version_4_polynomial),
    "version 5": ("linear", _version_5_linear),
    "version 6": ("random_forest", _version_6_forest),
    "version 7": ("random_forest", _version_7_forest),
    "version 8": ("random_forest", _version_8_forest),
    "missing top-level key": ("random_forest", lambda p: p.pop("metadata")),
    "extra top-level key": ("random_forest", lambda p: p.update(notes="hi")),
    "missing spec key": ("random_forest", lambda p: p["spec"].pop("kind")),
    "spec holding a version 6 key": ("random_forest", lambda p: p["spec"].update(n_trees=2)),
    "missing params key": ("random_forest", lambda p: p["params"].pop("tree_sizes")),
    "missing forest array": ("random_forest", lambda p: p["params"].pop("value_index")),
    "extra forest array": (
        "random_forest", lambda p: p["params"].update(left=p["params"]["feature"])
    ),
    "forest array not a string": (
        "random_forest",
        lambda p: p["params"].update(value_table=_decoded(p["params"], "value_table")),
    ),
    "forest array not base64": (  # a decoder that skips foreign characters would pass it
        "random_forest", lambda p: p["params"].update(feature="*" + p["params"]["feature"])
    ),
    "forest array of part items": ("random_forest", _two_bytes_short_tree_sizes),
    "too few trees": ("random_forest", _edit_array("tree_sizes", lambda s, f: s.pop())),
    "tree sizes not summing to the node count": (
        "random_forest", _edit_array("tree_sizes", lambda s, f: s.__setitem__(0, s[0] + 1))
    ),
    "zero tree size": ("random_forest", _edit_array("tree_sizes", _empty_first_tree)),
    "split pair crossing into the next tree": (
        "random_forest", _edit_array("tree_sizes", _split_pair_across_trees)
    ),
    "tree node count not 2k + 1": ("random_forest", _edit_array("feature", _split_made_a_leaf)),
    "unequal array lengths": ("random_forest", _edit_array("feature", lambda v, f: v.pop())),
    "child index out of range": ("random_forest", _edit_array("feature", _last_leaf_split)),
    "child index not after parent": (
        "random_forest", _edit_array("feature", _root_leaf_and_last_leaf_split)
    ),
    "feature index too large": ("random_forest", _set_root("feature", 2)),
    "negative feature index": ("random_forest", _set_root("feature", -2)),
    "non-finite threshold": (
        "random_forest", _edit_values(lambda v, f: v.__setitem__(0, math.inf))
    ),
    "non-finite leaf value": ("random_forest", _edit_values(_nan_leaf)),
    "non-finite table entry": ("random_forest", _unused_nan_in_the_table),
    "value index past the table": (
        "random_forest", _edit_array("value_index", _index_past_the_table)
    ),
    "value index of part items": ("random_forest", _index_of_part_items),
    "empty value table with nodes": (
        "random_forest", lambda p: p["params"].update(value_table="")
    ),
    "leftover version 8 value key": (
        "random_forest", lambda p: p["params"].update(value=p["params"]["value_table"])
    ),
    "linear beta too short": ("linear", lambda p: p["params"].update(beta=[1.0])),
    "polynomial beta too long": ("polynomial", lambda p: p["params"]["beta"].append(0.0)),
    "polynomial with stored exponents": ("polynomial", _stored_exponents),
    "feature names stored": ("linear", _stored_feature_names),
    "median_tx without a median power": ("linear", _median_tx_without_median),
    "all_tx with a median power": ("linear", lambda p: p.update(median_tx_power=13)),
    "median power outside the radio's range": ("linear", _median_tx_at_99_dbm),
    "non-finite linear beta": ("linear", lambda p: p["params"].update(beta=[1.0, math.inf, 0.0])),
    "linear beta holding true": ("linear", lambda p: p["params"].update(beta=[1, True, 0.5])),
}


# What a case's error line must hold, where the message is the point.
MODEL_ERRORS = {
    "polynomial beta too long": "beta has 7 coefficient(s), want 6",
    "polynomial with stored exponents": "params: unexpected key(s) 'powers'",
    "feature names stored": "model file: unexpected key(s) 'feature_names'",
    "version 5": "model file version 5 is not supported (this smol reads version 9)",
    "version 6": "model file version 6 is not supported (this smol reads version 9)",
    "version 7": "model file version 7 is not supported (this smol reads version 9)",
    "version 8": "model file version 8 is not supported (this smol reads version 9)",
    "forest array of part items": "bytes, not whole 4-byte items",
    "non-finite threshold": "value_table holds a non-finite value",
    "non-finite leaf value": "value_table holds a non-finite value",
    "non-finite table entry": "value_table holds a non-finite value",
    "value index past the table": "value_index points past value_table's",
    "value index of part items": "value_index: 215 bytes, not whole 2-byte items",
    "empty value table with nodes": "value_table is empty, but the forest has",
    "leftover version 8 value key": "params: unexpected key(s) 'value'",
    "missing spec key": "spec: missing key(s) 'kind'",
    "spec holding a version 6 key": "spec: unexpected key(s) 'n_trees'",
    "linear beta holding true": "beta is not a list of finite numbers",
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_predict_rejects_a_malformed_model(tmp_path, small_log, capsys, case):
    kind, mutate = BAD_MODELS[case]
    model_path = tmp_path / "model.json"
    _save_small_model(small_log, kind, model_path)
    payload = json.loads(model_path.read_text())
    mutate(payload)
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--log", str(small_log),
                 "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    # Refused as the file loads, not by a later step: the line names the file.
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {model_path}: ")
    if case.startswith("version"):
        assert "retrain with `smol train`" in err
    assert MODEL_ERRORS.get(case, "") in err


def _huge_slope(payload):
    payload["params"]["beta"][1] = 1e308


def _huge_leaf_values(values, forest):
    for i, f in enumerate(_decoded(forest, "feature")):
        if f == -1:
            values[i] = 1.7e308


# Models whose parameters are finite but whose predictions overflow; the
# forest has two trees, and the mean of two 1.7e308 leaves does.
OVERFLOWING_MODELS = {
    "linear": _huge_slope,
    "random_forest": _edit_values(_huge_leaf_values),
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_MODELS))
def test_predict_rejects_non_finite_predictions(tmp_path, small_log, capsys, kind):
    model_path = tmp_path / "model.json"
    _save_small_model(small_log, kind, model_path)
    payload = json.loads(model_path.read_text())
    OVERFLOWING_MODELS[kind](payload)
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    preds_path = tmp_path / "p.csv"
    code = main(["predict", "--model", str(model_path), "--log", str(small_log),
                 "--out", str(preds_path)])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: "), err
    assert not preds_path.exists()


BAD_LOG_ROWS = {
    "nan rssi": (3, "nan"),
    "rssi with a leading space": (3, " -45.0"),
    "tx power 99": (2, "99"),
    "fractional tx power": (2, "13.5"),
    "tx power with an underscore": (2, "1_3"),
    "bad timestamp": (0, "noon"),
    "bad truth percent": (7, "wet"),
    "nan truth percent": (7, "nan"),
    "infinite truth percent": (7, "inf"),
    "truth percent out of range": (7, "140"),
    "truth percent with an underscore": (7, "1_0"),
    "device id -1": (1, "-1"),
    "device id 70000": (1, "70000"),
    "negative height": (4, "-1.0"),
    "negative depth": (5, "-15.0"),
}


@pytest.mark.numpy_bits
@pytest.mark.parametrize("command", ["train", "predict", "report"])
@pytest.mark.parametrize("case", sorted(BAD_LOG_ROWS) + ["short row"])
def test_commands_reject_a_bad_log_row_with_its_line(
    tmp_path, small_log, capsys, command, case
):
    model_path = tmp_path / "model.json"
    assert main(["train", "--log", str(small_log), "--model", "linear",
                 "--out", str(model_path)]) == EXIT_OK
    lines = small_log.read_text().splitlines()
    row = lines[4].split(",")
    if case == "short row":
        row = row[:-1]
    else:
        column, value = BAD_LOG_ROWS[case]
        row[column] = value
    lines[4] = ",".join(row)
    bad_log = tmp_path / "bad.csv"
    bad_log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = {"train": ["train", "--log", str(bad_log), "--out", str(tmp_path / "m.json")],
            "predict": ["predict", "--model", str(model_path), "--log", str(bad_log),
                        "--out", str(tmp_path / "p.csv")],
            "report": ["report", "--log", str(bad_log), "--out-dir", str(tmp_path / "r")]}[command]
    assert main(argv) == EXIT_VALIDATION
    assert f"{bad_log}:5: " in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "report", "predict all_tx", "predict median_tx"])
def test_commands_refuse_a_header_only_log(tmp_path, small_log, capsys, command):
    log = tmp_path / "empty.csv"
    campaign.write_measurements(log, MeasurementLog(*[[]] * 8))
    out = tmp_path / "out"
    command, _, mode = command.partition(" ")
    argv = [command, "--log", str(log), "--out-dir" if command == "report" else "--out", str(out)]
    if mode:
        model = tmp_path / "model.json"
        assert main(["train", "--log", str(small_log), "--model", "linear", "--mode", mode,
                     "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        argv += ["--model", str(model)]
    assert main(argv) == EXIT_VALIDATION
    line = _one_error_line(capsys)
    # An empty log is the fault, not a power missing from it.
    assert "no measurements" in line and "median power" not in line
    assert not out.exists()


@pytest.mark.parametrize("file", ["config", "model"])
def test_a_json_file_that_is_not_utf8_is_refused(tmp_path, small_log, capsys, file):
    path = tmp_path / f"{file}.json"
    if file == "config":
        path.write_text(json.dumps(campaign.config_to_dict(campaign.CampaignConfig())))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]
    else:
        _save_small_model(small_log, "linear", path)
        argv = ["predict", "--model", str(path), "--log", str(small_log),
                "--out", str(tmp_path / "p.csv")]
    # A Latin-1 byte inside a JSON string: no UTF-8 text holds it there.
    path.write_bytes(path.read_bytes().replace(b'"format"', b'"form\xe4t"', 1))
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    assert _one_error_line(capsys).startswith(f"error: {path}: not UTF-8 text (")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("file", ["config", "model"])
def test_a_json_file_with_crlf_line_ends_reads_as_before(tmp_path, small_log, file):
    path, crlf = tmp_path / f"{file}.json", tmp_path / f"{file}-crlf.json"
    if file == "config":
        path.write_text(json.dumps(campaign.config_to_dict(campaign.CampaignConfig()), indent=2))
    else:
        _save_small_model(small_log, "random_forest", path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().count(b"\r\n") > 10
    outputs = []
    for read in (path, crlf):
        outputs.append(tmp_path / f"{read.stem}.csv")
        if file == "config":
            argv = ["simulate", "--config", str(read)]
        else:
            argv = ["predict", "--model", str(read), "--log", str(small_log)]
        assert main([*argv, "--out", str(outputs[-1])]) == EXIT_OK
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


@pytest.mark.parametrize("command", ["train", "predict", "report"])
@pytest.mark.parametrize("line", [0, 4])
def test_commands_refuse_a_log_that_is_not_utf8(tmp_path, small_log, capsys, command, line):
    model_path = tmp_path / "model.json"
    assert main(["train", "--log", str(small_log), "--model", "linear",
                 "--out", str(model_path)]) == EXIT_OK
    lines = small_log.read_bytes().split(b"\r\n")
    lines[line] = lines[line].replace(b"c", b"\xe7")  # Latin-1, not UTF-8
    bad_log = tmp_path / "latin1.csv"
    bad_log.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    argv = {"train": ["train", "--log", str(bad_log), "--out", str(tmp_path / "m.json")],
            "predict": ["predict", "--model", str(model_path), "--log", str(bad_log),
                        "--out", str(tmp_path / "p.csv")],
            "report": ["report", "--log", str(bad_log), "--out-dir", str(tmp_path / "r")]}[command]
    assert main(argv) == EXIT_VALIDATION
    assert _one_error_line(capsys).startswith(f"error: {bad_log}: not UTF-8 text")


@pytest.mark.parametrize("field, size, changes", [
    *(pytest.param(field, size, {}, id=f"{size}-{field}")
      for size in (2**62, 2**63) for field in ("sweeps_per_cell", "tdr_spots")),
    # Fewer than 2**63 draws, or 2**63 only with the drops, but 2**63 bytes
    # or more of them, which NumPy cannot size: its own line names no field.
    pytest.param("tdr_spots", 2**62 // 72, {}, id="tdr_spots past 2**63 bytes"),
    pytest.param("tdr_spots", 2**63 // 72 - 5, {"drop_prob": 0.1},
                 id="tdr_spots with drops past 2**63 draws"),
])
def test_simulate_refuses_counts_past_int64(tmp_path, field, size, changes):
    """Counts whose arrays NumPy cannot size in int64 bytes are refused as
    the config is read. In a child process: the campaigns they once ran
    crashed the interpreter."""
    config = {**campaign.config_to_dict(campaign.CampaignConfig()), field: size, **changes}
    config_path, out = tmp_path / "config.json", tmp_path / "log.csv"
    config_path.write_text(json.dumps(config))
    src = Path(campaign.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["-m", "smol.cli", "simulate", "--config", str(config_path), "--out", str(out)]
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_VALIDATION, done.stderr
    assert done.stderr.startswith(f"error: {field} {size} makes "), done.stderr
    assert done.stderr.endswith(", not below 2**63\n") and done.stderr.count("\n") == 1
    assert not out.exists()


def test_log_and_curve_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale, without UTF-8 mode, Python's default file encoding
    is ASCII; a non-ASCII scenario label still goes through simulate and report."""
    src = Path(campaign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)

    probe = run("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.strip() in ("ANSI_X3.4-1968", "ascii", "US-ASCII"), probe.stdout
    config = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("café", 15.0, 0.0),),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=2,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(campaign.config_to_dict(config), ensure_ascii=False), encoding="utf-8"
    )
    log = tmp_path / "log.csv"
    simulate = run("-m", "smol.cli", "simulate", "--config", str(config_path), "--out", str(log))
    assert simulate.returncode == EXIT_OK, simulate.stderr
    elsewhere = tmp_path / "elsewhere.csv"
    campaign.write_measurements(elsewhere, campaign.run_campaign(config))
    assert log.read_bytes() == elsewhere.read_bytes()
    assert "café".encode() in log.read_bytes()
    out_dir = tmp_path / "report"
    report = run("-m", "smol.cli", "report", "--log", str(elsewhere), "--out-dir", str(out_dir))
    assert report.returncode == EXIT_OK, report.stderr
    curve = (out_dir / "curve_caf__h0cm.csv").read_text(encoding="utf-8")
    assert curve.splitlines()[1].startswith("café,0.0,")
