"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them alongside the dots).

Every expected value here is either computed by an independent in-test
oracle (brute-force loops, closed forms evaluated through a second
route) or asserted exactly where the design guarantees exactness.
"""

import math
import time
from collections import defaultdict

import numpy as np

from smol import calibrate, campaign, cli
from smol.calibrate import FeatureMode, ModelKind, ModelSpec
from smol.campaign import CampaignConfig
from smol.soilchan import LinkGeometry, NoiseModel, SoilState, sweep_curve, synth_rssi
from smol.sweepproto import (
    FrameError,
    PowerPlan,
    SweepPacket,
    decode_packet,
    encode_packet,
)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _median_curve_by_height(log):
    by_cell = defaultdict(list)
    at_13 = log.tx_power == 13
    cells = zip(log.scenario[at_13].tolist(), log.vwc_truth[at_13].tolist())
    for cell, rssi in zip(cells, log.rssi[at_13].tolist()):
        by_cell[cell].append(rssi)
    curves = defaultdict(list)
    for (scenario, vwc), rssis in sorted(by_cell.items()):
        curves[scenario].append(sum(rssis) / len(rssis))
    return curves


def test_criterion_1_physics_monotonicity():
    start = time.perf_counter()
    log = campaign.run_campaign(CampaignConfig().without_noise())
    curves = _median_curve_by_height(log)
    elapsed = time.perf_counter() - start

    strictly_decreasing = all(
        all(a > b for a, b in zip(rssis, rssis[1:])) and len(rssis) == 8
        for rssis in curves.values()
    )
    ok = strictly_decreasing and len(curves) == 3 and elapsed < 1.0
    _report(
        1,
        f"noise-free mean RSSI at median power strictly decreasing over the "
        f"vwc grid at all 3 heights in {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_baseline_ordering():
    config = CampaignConfig().without_noise()
    quiet = NoiseModel()
    ok = True
    for scenario in config.scenarios:
        geom = config.geometry(scenario)
        air = synth_rssi(13, SoilState.air_baseline(), geom, quiet)
        water = synth_rssi(
            13,
            SoilState.water_baseline(config.soil_state(0.0).water_permittivity),
            geom,
            quiet,
        )
        for vwc in config.vwc_grid:
            soil = synth_rssi(13, config.soil_state(vwc), geom, quiet)
            ok = ok and (air > soil > water)
    _report(2, "noise-free RSSI ordering air > soil grid > water at each geometry", ok)


def test_criterion_3_equal_offsets():
    rng = np.random.default_rng(123)
    plan = list(PowerPlan().levels)
    geom = LinkGeometry(15.0, 195.0)
    quiet = NoiseModel()
    worst = 0.0
    for _ in range(5):
        porosity = float(rng.uniform(0.3, 0.6))
        soil = SoilState(float(rng.uniform(0.0, porosity)), porosity)
        curve = dict(sweep_curve(soil, geom, plan, quiet))
        for i, p in enumerate(plan):
            for q in plan[i + 1:]:
                worst = max(worst, abs((curve[q] - curve[p]) - (q - p)))
    ok = worst <= 1e-9
    _report(
        3,
        f"noise-free rssi(p)-rssi(q) == p-q over all plan pairs at 5 random "
        f"soils (worst dev {worst:.2e} dB)",
        ok,
    )


def test_criterion_4_protocol_codec():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    round_trips = 0
    for tx in range(5, 24):
        for seq in range(256):
            packet = SweepPacket(int(rng.integers(0, 65536)), seq, tx)
            assert decode_packet(encode_packet(packet)) == packet
            round_trips += 1

    rejected = 0
    for _ in range(1000):
        frame = bytearray(
            encode_packet(
                SweepPacket(
                    int(rng.integers(0, 65536)),
                    int(rng.integers(0, 256)),
                    int(rng.integers(5, 24)),
                )
            )
        )
        for pos in range(len(frame)):
            original = frame[pos]
            for value in range(256):
                if value == original:
                    continue
                frame[pos] = value
                try:
                    decode_packet(bytes(frame))
                except FrameError:
                    rejected += 1
            frame[pos] = original

    elapsed = time.perf_counter() - start
    ok = round_trips == 19 * 256 and rejected == 1000 * 7 * 255 and elapsed < 5.0
    _report(
        4,
        f"{round_trips} exhaustive round-trips and {rejected} single-byte "
        f"corruptions rejected in {elapsed:.2f}s",
        ok,
    )


def test_criterion_5_metric_oracle():
    def brute_mae(y, yhat):
        return sum(abs(a - b) for a, b in zip(y, yhat)) / len(y)

    def brute_r2(y, yhat):
        ybar = sum(y) / len(y)
        ss_tot = sum((a - ybar) ** 2 for a in y)
        ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
        return 1.0 - ss_res / ss_tot

    rng = np.random.default_rng(17)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 20))
        y = list(rng.uniform(0.0, 50.0, n))
        yhat = [a + float(rng.normal(0, 5)) for a in y]
        mae = calibrate.mean_absolute_error(np.array(y), np.array(yhat))
        r2 = calibrate.r_squared(np.array(y), np.array(yhat))
        ok = ok and math.isclose(mae, brute_mae(y, yhat), rel_tol=1e-9)
        ok = ok and math.isclose(r2, brute_r2(y, yhat), rel_tol=1e-9)

    y = np.array([10.0, 20.0, 30.0])
    yhat = np.array([12.0, 18.0, 33.0])
    ok = ok and math.isclose(
        calibrate.mean_absolute_error(y, yhat), 7.0 / 3.0, rel_tol=1e-12
    )
    ok = ok and math.isclose(calibrate.r_squared(y, yhat), 0.915, rel_tol=1e-12)
    _report(5, "R^2/MAE agree with brute-force oracle on 100 random sets + hand case", ok)


def test_criterion_6_regression_sanity():
    rng = np.random.default_rng(21)

    rssi = rng.uniform(-90.0, -20.0, 50)
    planted = -1.7 * rssi + 4.0
    ds = calibrate.Dataset(
        rssi.reshape(-1, 1), planted, FeatureMode.MEDIAN_TX, ("rssi_dbm",)
    )
    beta = calibrate.fit(ModelSpec(ModelKind.LINEAR), ds).params["beta"]
    linear_ok = abs(beta[0] - 4.0) < 1e-6 and abs(beta[1] + 1.7) < 1e-6

    X = rng.uniform(-90.0, -20.0, (60, 2))
    y = 3.0 - 0.4 * X[:, 0] + 0.2 * X[:, 1] + rng.normal(0, 2, 60)
    ds2 = calibrate.Dataset(X, y, FeatureMode.ALL_TX, ("rssi_dbm", "tx_power_dbm"))
    lin = calibrate.fit(ModelSpec(ModelKind.LINEAR), ds2).params["beta"]
    rid = calibrate.fit(ModelSpec(ModelKind.RIDGE, ridge_lambda=0.0), ds2).params["beta"]
    ridge_ok = bool(np.all(np.abs(lin - rid) < 1e-6))

    Xf = rng.uniform(0.0, 100.0, (20, 2))
    yf = rng.uniform(0.0, 40.0, 20)
    dsf = calibrate.Dataset(Xf, yf, FeatureMode.ALL_TX, ("a", "b"))
    tree = calibrate.fit(
        ModelSpec(
            ModelKind.RANDOM_FOREST,
            n_trees=1,
            max_depth=None,
            min_leaf=1,
            bootstrap=False,
        ),
        dsf,
    )
    tree_ok = bool(np.array_equal(tree.predict_many(Xf), yf))

    ok = linear_ok and ridge_ok and tree_ok
    _report(
        6,
        f"linear recovery ({linear_ok}), ridge(0)==linear ({ridge_ok}), "
        f"full tree memorizes ({tree_ok})",
        ok,
    )


def test_criterion_7_qualitative_table_reproduction():
    log = campaign.run_campaign(CampaignConfig())
    start = time.perf_counter()
    rows = calibrate.compare(
        calibrate.DEFAULT_COMPARISON_SPECS,
        log,
        [FeatureMode.ALL_TX, FeatureMode.MEDIAN_TX],
        split_seed=0,
    )
    elapsed = time.perf_counter() - start

    top = rows[0]
    winner_is_rf_all = (
        top.kind == ModelKind.RANDOM_FOREST and top.mode == FeatureMode.ALL_TX
    )
    ok = (
        len(rows) == 6
        and winner_is_rf_all
        and top.r_squared >= 0.85
        and top.mae <= 3.0
        and elapsed < 30.0
    )
    _report(
        7,
        f"six-way compare in {elapsed:.1f}s; winner {top.label} "
        f"r2={top.r_squared:.3f} (>=0.85) mae={top.mae:.2f} (<=3.0)",
        ok,
    )


def test_criterion_8_determinism(tmp_path):
    logs = []
    models = []
    tables = []
    for run in ("first", "second"):
        d = tmp_path / run
        d.mkdir()
        assert cli.main(["simulate", "--out", str(d / "log.csv")]) == 0
        assert cli.main(["simulate", "--no-noise", "--out", str(d / "quiet.csv")]) == 0
        assert (
            cli.main(
                ["train", "--log", str(d / "log.csv"), "--model", "random_forest",
                 "--out", str(d / "model.json")]
            )
            == 0
        )
        assert (
            cli.main(["report", "--log", str(d / "log.csv"), "--out-dir", str(d / "rep")])
            == 0
        )
        logs.append((d / "log.csv").read_bytes() + (d / "quiet.csv").read_bytes())
        models.append((d / "model.json").read_bytes())
        tables.append(
            (d / "rep" / "table.csv").read_bytes()
            + (d / "rep" / "table.txt").read_bytes()
            + b"".join(p.read_bytes() for p in sorted((d / "rep").glob("curve_*.csv")))
        )

    ok = logs[0] == logs[1] and models[0] == models[1] and tables[0] == tables[1]
    _report(8, "repeated runs produce byte-identical logs, models and reports", ok)


def test_criterion_9_split_contract():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(5, 250))
        ds = calibrate.Dataset(
            rng.uniform(0, 1, (n, 2)),
            np.arange(n, dtype=float),
            FeatureMode.ALL_TX,
            ("a", "b"),
        )
        train, test = calibrate.split(ds, 0.8, seed=int(rng.integers(0, 2**31)))
        want_train = -(-4 * n // 5)  # ceil(0.8 n) in exact integers
        merged = sorted(np.concatenate([train.targets, test.targets]).tolist())
        ok = (
            ok
            and len(train) == want_train
            and len(test) == n - want_train
            and merged == list(range(n))
        )
    _report(9, "1000 random datasets split into exact disjoint 80/20 partitions", ok)
