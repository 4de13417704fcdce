import csv
import json
import math

import numpy as np
import pytest

from smol import calibrate, campaign
from smol.calibrate import FeatureMode, ModelKind
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
    out = tmp_path / "log.csv"
    cfg_path = tmp_path / "campaign.json"
    assert (
        main(
            [
                "simulate",
                "--out",
                str(out),
                "--seed",
                "4",
                "--noise-sigma",
                "1.0",
                "--dump-config",
                str(cfg_path),
            ]
        )
        == EXIT_OK
    )
    again = tmp_path / "again.csv"
    assert main(["simulate", "--out", str(again), "--config", str(cfg_path)]) == EXIT_OK
    assert out.read_bytes() == again.read_bytes()


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
    "tdr_error_bound above one": _edit(lambda d: d.update(tdr_error_bound=1e308)),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_simulate_rejects_a_malformed_config_file(tmp_path, capsys, case):
    stock = json.loads(json.dumps(campaign.config_to_dict(campaign.CampaignConfig())))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(BAD_CONFIGS[case](stock)))
    code = main(["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(cfg_path)])
    assert code == EXIT_VALIDATION
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "flags",
    [["--noise-sigma", "nan"], ["--epoch", "inf"], ["--drop-prob", "nan"]],
)
def test_simulate_rejects_non_finite_flags(tmp_path, capsys, flags):
    code = main(["simulate", "--out", str(tmp_path / "x.csv"), *flags])
    assert code == EXIT_VALIDATION
    _one_error_line(capsys)


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
            "--trees",
            "10",
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
                  "--trees", "10", "--out", str(out)])
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
    assert "rank" in capsys.readouterr().err


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
                  "--trees", "5", "--out", str(out)])
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
              "--trees", "5", "--out", str(model_path)])
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


def _first_tree(payload):
    return payload["params"]["trees"][0]


def _set_root(array, value):
    """Set the root node's entry in one array of the first tree."""
    def mutate(payload):
        tree = _first_tree(payload)
        tree[array][0] = value(tree) if callable(value) else value
    return mutate


def _nan_leaf(payload):
    tree = _first_tree(payload)
    tree["value"][tree["feature"].index(-1)] = math.nan


BAD_MODELS = {
    "version 1": ("random_forest", lambda p: p.update(version=1)),
    "missing top-level key": ("random_forest", lambda p: p.pop("metadata")),
    "extra top-level key": ("random_forest", lambda p: p.update(notes="hi")),
    "missing spec key": ("random_forest", lambda p: p["spec"].pop("min_leaf")),
    "missing params key": ("random_forest", lambda p: p["params"].pop("trees")),
    "missing tree key": ("random_forest", lambda p: _first_tree(p).pop("value")),
    "extra tree key": ("random_forest", lambda p: _first_tree(p).update(depth=[0])),
    "too few trees": ("random_forest", lambda p: p["params"]["trees"].pop()),
    "unequal array lengths": ("random_forest", lambda p: _first_tree(p)["threshold"].pop()),
    "child index out of range": ("random_forest", _set_root("left", lambda t: len(t["left"]))),
    "child index not after parent": ("random_forest", _set_root("right", 0)),
    "fractional child index": ("random_forest", _set_root("left", 1.5)),
    "feature index too large": ("random_forest", _set_root("feature", 2)),
    "negative feature index": ("random_forest", _set_root("feature", -2)),
    "non-finite threshold": ("random_forest", _set_root("threshold", math.inf)),
    "non-finite leaf value": ("random_forest", _nan_leaf),
    "linear beta too short": ("linear", lambda p: p["params"].update(beta=[1.0])),
    "non-finite linear beta": ("linear", lambda p: p["params"].update(beta=[1.0, math.inf, 0.0])),
    "forest spec of the wrong types": (
        "random_forest", lambda p: p["spec"].update(ridge_lambda="x", bootstrap="yes")
    ),
    "linear spec out of range": ("linear", lambda p: p["spec"].update(n_trees=0, seed=1.5)),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_predict_rejects_a_malformed_model(tmp_path, small_log, capsys, case):
    kind, mutate = BAD_MODELS[case]
    model_path = tmp_path / "model.json"
    assert (
        main(["train", "--log", str(small_log), "--model", kind, "--trees", "2",
              "--out", str(model_path)])
        == EXIT_OK
    )
    payload = json.loads(model_path.read_text())
    mutate(payload)
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--log", str(small_log),
                 "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _huge_slope(payload):
    payload["params"]["beta"][1] = 1e308


def _huge_leaves(payload):
    for tree in payload["params"]["trees"]:
        tree["value"] = [1.7e308 if f == -1 else v for f, v in zip(tree["feature"], tree["value"])]


# Models whose parameters are finite but whose predictions overflow; the
# forest has two trees, and the mean of two 1.7e308 leaves does.
OVERFLOWING_MODELS = {"linear": _huge_slope, "random_forest": _huge_leaves}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_MODELS))
def test_predict_rejects_non_finite_predictions(tmp_path, small_log, capsys, kind):
    model_path = tmp_path / "model.json"
    assert (
        main(["train", "--log", str(small_log), "--model", kind, "--trees", "2",
              "--out", str(model_path)])
        == EXIT_OK
    )
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
    "tx power 99": (2, "99"),
    "fractional tx power": (2, "13.5"),
    "bad timestamp": (0, "noon"),
    "bad truth percent": (7, "wet"),
    "nan truth percent": (7, "nan"),
    "infinite truth percent": (7, "inf"),
    "truth percent out of range": (7, "140"),
    "device id -1": (1, "-1"),
    "device id 70000": (1, "70000"),
    "negative height": (4, "-1.0"),
    "negative depth": (5, "-15.0"),
}


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
