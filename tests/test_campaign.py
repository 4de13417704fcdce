import csv
import functools
import json
import math
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol import campaign, soilchan, sweepproto
from smol.campaign import (
    CSV_COLUMNS,
    CampaignConfig,
    Scenario,
    config_from_dict,
    config_to_dict,
    load_config,
    median_power_curves,
    read_measurements,
    run_campaign,
    save_config,
    write_measurements,
)
from smol.sweepproto import TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, MeasurementLog
from test_golden import _large_config

TEN_STEP_GRID = tuple(round(0.04 * i, 2) for i in range(1, 11))


def small_config(**overrides) -> CampaignConfig:
    base = dict(
        scenarios=(Scenario("bench", 15.0, 0.0),),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=1,
        seed=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def same_log(a: MeasurementLog, b: MeasurementLog) -> bool:
    """Column by column, dtypes too; an absent truth (NaN) equals an absent one."""
    return all(
        np.array_equal(x, y, equal_nan=x.dtype != object) and x.dtype == y.dtype
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(MeasurementLog))
    )


class TestConfigValidation:
    def test_grid_above_porosity_rejected(self):
        with pytest.raises(ValueError, match=r"^grid vwc 0\.5 outside \[0, porosity=0\.45\]$"):
            small_config(vwc_grid=(0.5,), porosity=0.45)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^vwc grid must not be empty$"):
            small_config(vwc_grid=())

    def test_no_scenarios_rejected(self):
        with pytest.raises(ValueError, match="^campaign needs at least one scenario$"):
            small_config(scenarios=())

    def test_negative_geometry_rejected(self):
        with pytest.raises(ValueError, match="^scenario 'bad': needs a text label and finite"):
            small_config(scenarios=(Scenario("bad", -2.0, 0.0),))

    def test_zero_sweeps_rejected(self):
        with pytest.raises(ValueError, match="^sweeps_per_cell must be >= 1$"):
            small_config(sweeps_per_cell=0)

    def test_bad_power_plan_rejected(self):
        with pytest.raises(ValueError):
            small_config(power_levels=(5, 5))

    # Each is refused as the config is built or read, not first by run_campaign.
    BAD_VALUES = {
        "zero frequency": (dict(frequency_hz=0.0), "carrier frequency"),
        "negative frequency": (dict(frequency_hz=-915e6), "carrier frequency"),
        "zero-length placement": (
            dict(scenarios=(Scenario("bench", 15.0, 0.0), Scenario("flat", 0.0, 0.0))),
            "scenario 'flat'.*zero-length",
        ),
        "label UTF-8 cannot encode": (
            dict(scenarios=(Scenario("a\udc80", 15.0, 0.0),)),
            r"^scenario 'a\\udc80': label is not UTF-8 text$",
        ),
        "zero sweep interval": (dict(sweep_interval_s=0.0), "sweep_interval_s"),
        "negative sweep interval": (dict(sweep_interval_s=-60.0), "sweep_interval_s"),
        "device id above a u16": (dict(device_id=70000), "^device_id 70000 not a u16$"),
        "negative device id": (dict(device_id=-1), "^device_id -1 not a u16$"),
        "porosity beyond float range": (
            dict(porosity=10**400), f"^porosity must be a finite number, got {10**400}$"
        ),
        # 3 cells x 18 levels x 8 bytes, and 3 sweeps x 2**62 spots x 8
        # bytes: arrays past 2**63 bytes.
        "sweeps_per_cell past int64 counts": (
            dict(sweeps_per_cell=2**62),
            rf"^sweeps_per_cell {2**62} makes an array of {8 * 54 * 2**62} bytes, "
            r"not below 2\*\*63$",
        ),
        "tdr_spots past int64 counts": (
            dict(tdr_spots=2**62),
            rf"^tdr_spots {2**62} makes an array of {8 * 3 * 2**62} bytes, "
            r"not below 2\*\*63$",
        ),
    }

    def test_counts_are_refused_from_2_to_the_63(self):
        # Bytes, not counts. One cell, one level, one spot: 8 bytes a sweep,
        # and a tie between levels and spots names sweeps_per_cell.
        one = dict(vwc_grid=(0.2,), power_levels=(13,), tdr_spots=1)
        small_config(**one, sweeps_per_cell=2**60 - 1)  # built, never run
        with pytest.raises(ValueError, match=rf"^sweeps_per_cell {2**60} makes an array of "):
            small_config(**one, sweeps_per_cell=2**60)
        # The probe's draws count whatever its error bound, and past the
        # plan's levels the probe's spots make the longer array.
        small_config(**(one | dict(tdr_spots=2)), sweeps_per_cell=2**59 - 1)
        with pytest.raises(ValueError, match=f"^tdr_spots 2 makes an array of {2**63} bytes"):
            small_config(**(one | dict(tdr_spots=2, tdr_error_bound=0.0)), sweeps_per_cell=2**59)

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_refused_when_built_or_read(self, case):
        overrides, why = self.BAD_VALUES[case]
        with pytest.raises(ValueError, match=why):
            small_config(**overrides)
        data = json.dumps({**config_to_dict(small_config()), **overrides}, default=asdict)
        with pytest.raises(ValueError, match=why):
            config_from_dict(json.loads(data))


# A changed value for every CampaignConfig field, against FIELD_BASE.
FIELD_BASE = dict(power_levels=(5, 13, 23), sweeps_per_cell=2)  # 23 dBm: the wrap acts
FIELD_CHANGES = {
    "scenarios": (Scenario("bench", 20.0, 0.0),),
    "vwc_grid": (0.05, 0.25, 0.35),
    "porosity": 0.40,
    "solid_permittivity": 6.0,
    "water_eps_real": 70.0,
    "water_loss_factor": 100.0,
    "frequency_hz": 868e6,
    "tx_gain_db": 1.0,
    "rx_gain_db": 1.0,
    "power_levels": (5, 14, 23),
    "rssi_sigma_db": 1.0,
    "quantize_rssi": False,
    "drop_prob": 0.5,
    "wrap_high_power": True,
    "tdr_error_bound": 0.02,
    "tdr_spots": 5,
    "sweeps_per_cell": 1,
    "training_mode": False,
    "device_id": 2,
    "seed": 6,
    "epoch": 100.0,
    "sweep_interval_s": 30.0,
}


@pytest.mark.parametrize("name", [f.name for f in fields(CampaignConfig)])
def test_every_config_field_changes_the_log(name):
    assert name in FIELD_CHANGES, f"{name}: no changed value to try"
    base = small_config(**FIELD_BASE)
    changed = replace(base, **{name: FIELD_CHANGES[name]})
    assert not same_log(run_campaign(base), run_campaign(changed))


class TestRunCampaign:
    def test_row_count_three_heights_ten_steps(self):
        cfg = CampaignConfig(vwc_grid=TEN_STEP_GRID, sweeps_per_cell=1)
        assert len(run_campaign(cfg)) == 3 * 10 * 18

    def test_default_campaign_row_count(self):
        # 3 scenarios x 8 steps x 3 sweeps x 18 levels
        assert len(run_campaign(CampaignConfig())) == 1296

    def test_training_mode_populates_truth(self):
        assert not np.isnan(run_campaign(small_config()).vwc_truth).any()

    def test_inference_mode_omits_truth(self):
        assert np.isnan(run_campaign(small_config(training_mode=False)).vwc_truth).all()

    def test_timestamps_derive_from_epoch(self):
        log = run_campaign(small_config(epoch=1000.0, sweep_interval_s=60.0))
        stamps = sorted(set(log.timestamp.tolist()))
        assert stamps == [1000.0, 1060.0, 1120.0]

    def test_same_config_same_log(self):
        cfg = small_config()
        assert same_log(run_campaign(cfg), run_campaign(cfg))

    def test_different_seed_different_noise(self):
        a = run_campaign(small_config(seed=1))
        b = run_campaign(small_config(seed=2))
        assert not same_log(a, b)

    def test_drop_probability_shrinks_the_log(self):
        lossy = small_config(drop_prob=0.5)
        assert len(run_campaign(lossy)) < 3 * 18

    def test_path_loss_once_per_campaign_and_one_decode_per_plan_frame(self, monkeypatch):
        calls = {"path_loss": 0, "decode_packet": 0, "encode_packet": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (soilchan, campaign):
            counted(module, "path_loss")
        for module in (sweepproto, campaign):
            counted(module, "decode_packet")
        counted(sweepproto, "encode_packet")
        cfg = small_config(
            scenarios=(Scenario("a", 15.0, 0.0), Scenario("b", 5.0, 90.0)),
            sweeps_per_cell=2,
            drop_prob=0.2,
        )
        log = run_campaign(cfg)
        cells = 2 * 3
        assert 0 < len(log) < cells * 2 * 18
        assert calls["path_loss"] == 1  # every cell's loss in one call
        assert calls["decode_packet"] == 18  # once per campaign
        assert calls["encode_packet"] == 18

    def test_no_seed_sequence_per_sweep(self, monkeypatch):
        built = []
        real = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        cfg = small_config(
            scenarios=(Scenario("a", 15.0, 0.0), Scenario("b", 5.0, 90.0)),
            sweeps_per_cell=2,
            drop_prob=0.2,
        )
        assert len(run_campaign(cfg)) > 0
        assert built == []

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("training_mode", [True, False])
    def test_equals_one_sweep_at_a_time_with_stock_numpy(self, training_mode):
        # Reference: every sweep seeds its own streams with NumPy's
        # SeedSequence and is carried and read on its own.
        cfg = small_config(
            scenarios=(Scenario("a", 10.0, 50.0), Scenario("b", 0.0, 120.0)),
            sweeps_per_cell=2, tx_gain_db=2.5, rx_gain_db=-1.25,
            power_levels=(23, 5, 9, 14, 22), quantize_rssi=False, drop_prob=0.3,
            wrap_high_power=True, seed=2**33 + 7, training_mode=training_mode,
        )
        sent = np.array([5, 5, 9, 14, 22], dtype=float) + 2.5 + -1.25
        rows = []
        for i in range(2 * 3 * 2):
            scenario = cfg.scenarios[i // 6]
            vwc = cfg.vwc_grid[i // 2 % 3]
            geom = soilchan.LinkGeometry(
                scenario.burial_depth_cm, scenario.receiver_height_cm, cfg.frequency_hz
            )
            loss = soilchan.path_loss(cfg.soil_state(vwc), geom)
            streams = np.random.SeedSequence((cfg.seed, i))
            tdr, noise, drop = map(np.random.default_rng, [streams, *streams.spawn(2)])
            truth = float("nan")
            if training_mode:
                spots = vwc + tdr.uniform(-0.03, 0.03, size=10)
                truth = min(100.0, max(0.0, 100.0 * float(np.mean(spots)))) / 100.0
            kept = np.flatnonzero(drop.random(5) >= 0.3)
            heard = sent[kept] - loss + noise.normal(0.0, 2.0, size=len(kept))
            for level, rssi in zip(kept.tolist(), heard.tolist()):
                rows.append((60.0 * i, 1, cfg.power_levels[level], rssi,
                             scenario.receiver_height_cm, scenario.burial_depth_cm,
                             scenario.label, truth))
        assert same_log(run_campaign(cfg), MeasurementLog(*zip(*rows)))

    @pytest.mark.parametrize("interval_s, refused", [(1e-6, False), (1e-7, True)])
    def test_refuses_sweeps_that_share_a_timestamp(self, interval_s, refused):
        # Near a unix-time epoch of 1.7e9 s, float64 stamps are 2.4e-7 s apart.
        cfg = small_config(epoch=1.7e9, sweep_interval_s=interval_s, sweeps_per_cell=8)
        if refused:
            with pytest.raises(ValueError, match="stamps two sweeps alike"):
                run_campaign(cfg)
        else:
            assert len(set(run_campaign(cfg).timestamp.tolist())) == 3 * 8

    def test_noise_free_preset(self):
        cfg = small_config().without_noise()
        log = run_campaign(cfg)
        assert cfg.rssi_sigma_db == 0.0
        assert cfg.tdr_error_bound == 0.0
        # noiseless reference sensor reads the grid exactly
        assert sorted(set(log.vwc_truth.tolist())) == [0.05, 0.20, 0.35]


class TestCsvRoundTrip:
    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "log.csv"
        write_measurements(path, run_campaign(small_config()))
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "timestamp,device_id,tx_power_dbm,rssi_dbm,height_cm,depth_cm,"
            "scenario,vwc_truth_pct"
        )

    def test_round_trip_is_identity(self, tmp_path):
        log = run_campaign(small_config())
        path = tmp_path / "log.csv"
        write_measurements(path, log)
        assert same_log(read_measurements(path), log)

    def test_round_trip_inference_mode(self, tmp_path):
        log = run_campaign(small_config(training_mode=False))
        path = tmp_path / "log.csv"
        write_measurements(path, log)
        assert same_log(read_measurements(path), log)

    def test_write_is_byte_deterministic(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_measurements(a, run_campaign(cfg))
        write_measurements(b, run_campaign(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,rssi\n1,2\n")
        with pytest.raises(ValueError):
            read_measurements(path)

    @pytest.mark.numpy_bits
    def test_round_trip_keeps_negative_zero(self, tmp_path):
        zeros = [0.0, -0.0, -0.0, 0.0]
        log = MeasurementLog(
            [0.0] * 4, [1] * 4, [5] * 4, zeros, zeros, [15.0] * 4, ["a"] * 4, zeros
        )
        path = tmp_path / "log.csv"
        write_measurements(path, log)
        back = read_measurements(path)
        for name in ("rssi", "height_cm", "vwc_truth"):
            assert np.signbit(getattr(back, name)).tolist() == np.signbit(zeros).tolist(), name


def reference_log_bytes(log: MeasurementLog, **extra) -> bytes:
    """What ``write_measurements`` writes, formatted row by row by ``csv.writer``."""
    cells = {name: getattr(log, name).tolist() for name in campaign._LOG_COLUMNS}
    cells["vwc_truth"] = [campaign._fraction_to_pct_str(v) for v in cells["vwc_truth"]]
    columns = [*cells.values(), *(np.asarray(column).tolist() for column in extra.values())]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "reference.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS + tuple(extra))
            writer.writerows(zip(*columns))
        return path.read_bytes()


def written_log_bytes(log: MeasurementLog, **extra) -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "log.csv"
        write_measurements(path, log, **extra)
        return path.read_bytes()


HOSTILE_LABELS = ["a,b", 'q"x', "two\nlines", "car\rriage", " lead", "", '""', "plain"]
HOSTILE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1.7976931348623157e308, -1e300]
# A row's cells, drawn within the log's rules. Labels avoid NUL, which csv
# handles only since Python 3.11 (bpo-27580).
ROWS = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 0xFFFF),
    st.integers(TX_POWER_MIN_DBM, TX_POWER_MAX_DBM),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e300) | st.just(-0.0),
    st.floats(0.0, 1e300) | st.just(-0.0),
    st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=4)
    | st.sampled_from(HOSTILE_LABELS),
    st.floats(0.0, 1.0) | st.sampled_from([-0.0, math.nan]),
    st.floats(),
)


# Each column's hostile values, taken in turn; vwc_pred_pct is an extra column.
HOSTILE_COLUMNS = {
    "timestamp": [0.0, -0.0, 1e-320, 1e308, 0.1],
    "device_id": [0, 1, 0xFFFF],
    "tx_power": [TX_POWER_MIN_DBM, 13, TX_POWER_MAX_DBM],
    "rssi": HOSTILE_FLOATS,
    "height_cm": [-0.0, 0.0, 5e-324, 1e300],
    "depth_cm": [15.0, 0.0, -0.0],
    "scenario": HOSTILE_LABELS,
    "vwc_truth": [0.0, -0.0, 0.1, math.nan, 1.0, 5e-324],
    "vwc_pred_pct": [-0.0, math.inf, math.nan, 0.0, -math.inf, 2.5e-310],
}


def hostile_cells(rows: int, **runs: int) -> tuple[MeasurementLog, np.ndarray]:
    """A log and its extra column of ``HOSTILE_COLUMNS``' values, each value
    held for its column's run of rows (``runs``, by default 1)."""
    cells = {
        name: [values[i // runs.get(name, 1) % len(values)] for i in range(rows)]
        for name, values in HOSTILE_COLUMNS.items()
    }
    extra = np.array(cells.pop("vwc_pred_pct"))
    return MeasurementLog(**cells), extra


# A sweep's shared cells, held over its packets, and each packet's own cells.
# Zeros of both signs and NaN truths make runs that only bits tell apart.
SHARED_FLOATS = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e300)
SWEEPS = st.tuples(
    st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 0xFFFF),
    SHARED_FLOATS,
    SHARED_FLOATS,
    st.sampled_from(HOSTILE_LABELS),
    st.sampled_from([0.0, -0.0, math.nan]) | st.floats(0.0, 1.0),
    st.lists(
        st.tuples(
            st.integers(TX_POWER_MIN_DBM, TX_POWER_MAX_DBM),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(),
        ),
        min_size=1,
        max_size=20,
    ),
)


@pytest.mark.numpy_bits
class TestCsvWriter:
    def test_hostile_cells_match_the_csv_module(self):
        n = campaign._ROWS_PER_CHUNK + 37  # across a chunk boundary
        log, extra = hostile_cells(n)
        written = written_log_bytes(log, vwc_pred_pct=extra)
        assert written == reference_log_bytes(log, vwc_pred_pct=extra)
        assert written.count(b"\r\n") > n

    def test_hostile_cells_held_in_runs_match_the_csv_module(self):
        # Timestamp and device change together, as height, depth and label
        # do; the truth and the extra column change on rows of their own.
        n = campaign._ROWS_PER_CHUNK + 37  # runs of 3, 5 and 6 cross the boundary
        log, extra = hostile_cells(n, timestamp=6, device_id=6, rssi=2, height_cm=3,
                                   depth_cm=3, scenario=6, vwc_truth=5, vwc_pred_pct=4)
        with mock.patch.object(campaign, "_row_pieces", wraps=campaign._row_pieces) as pieces:
            written = written_log_bytes(log, vwc_pred_pct=extra)
        assert written == reference_log_bytes(log, vwc_pred_pct=extra)
        # Columns join while they start a run on at most half of the rows.
        assert [len(call.args[0]) for call in pieces.call_args_list] == [2, 1, 1, 4, 1]

    @given(sweeps=st.lists(SWEEPS, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_the_csv_module_on_drawn_sweeps(self, sweeps):
        rows = [(stamp, device, tx, rssi, height, depth, label, truth, extra)
                for stamp, device, height, depth, label, truth, packets in sweeps
                for tx, rssi, extra in packets]
        *columns, extra = list(zip(*rows)) or [[]] * 9
        log, extra = MeasurementLog(*columns), np.array(extra, dtype=float)
        # Chunks of three rows: a sweep's run of rows crosses their boundaries.
        with mock.patch.object(campaign, "_ROWS_PER_CHUNK", 3):
            written = written_log_bytes(log, extra=extra)
        assert written == reference_log_bytes(log, extra=extra)

    @given(rows=st.lists(ROWS, max_size=12))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_the_csv_module_on_drawn_logs(self, rows):
        *columns, extra = list(zip(*rows)) or [[]] * 9
        log, extra = MeasurementLog(*columns), np.array(extra, dtype=float)
        # Chunks of three rows: every drawn log longer than three crosses a boundary.
        with mock.patch.object(campaign, "_ROWS_PER_CHUNK", 3):
            written = written_log_bytes(log, extra=extra)
        assert written == reference_log_bytes(log, extra=extra)

    @pytest.mark.parametrize("rows", [10, 1297])
    def test_an_extra_column_of_another_length_is_refused(self, tmp_path, rows):
        log = run_campaign(CampaignConfig())
        path = tmp_path / "predictions.csv"
        with pytest.raises(ValueError, match=f"'vwc_pred_pct' has {rows} rows, the log 1296"):
            write_measurements(path, log, vwc_pred_pct=np.zeros(rows))
        assert not path.exists()


def _reference_read_measurements(path) -> MeasurementLog:
    """The row-by-row reader that ``read_measurements`` replaced: each row is
    parsed as it is read, each distinct cell text once through a cache."""
    rows, lines, unreadable = [], [], None
    parsers = [functools.cache(parse) for _, parse in campaign._LOG_COLUMNS.values()]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: not a measurement log (bad header)")
        try:
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(row)} columns, want {len(CSV_COLUMNS)}")
                rows.append([parse(cell) for parse, cell in zip(parsers, row)])
                lines.append(reader.line_num)
        except (ValueError, csv.Error) as err:
            unreadable = ValueError(f"{path}:{reader.line_num}: {err}")
    columns = list(zip(*rows)) or [()] * len(campaign._LOG_COLUMNS)
    try:
        log = MeasurementLog(**dict(zip(campaign._LOG_COLUMNS, columns)))
    except sweepproto.LogRowError as err:
        raise ValueError(f"{path}:{lines[err.row]}: {err}") from None
    if unreadable is not None:
        raise unreadable
    return log


def read_outcome(read, path) -> MeasurementLog | str:
    try:
        return read(path)
    except ValueError as err:
        return str(err)


def same_bits(a: MeasurementLog, b: MeasurementLog) -> bool:
    """Column by column, dtypes and bits: NaN equals NaN, -0.0 differs from 0.0."""
    return all(
        x.dtype == y.dtype and (x.tolist() == y.tolist() if x.dtype == object
                                else x.tobytes() == y.tobytes())
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(MeasurementLog))
    )


# A fault written into one data row: (column, cell text), or None to drop
# the row's last cell. Each breaks a different rule; the last one makes csv
# itself refuse the file.
READ_FAULTS = [
    None,
    (0, "noon"),
    (2, "1_3"),
    (3, " -45.0"),
    (3, "nan"),
    (7, "140"),
    (6, "x" * (csv.field_size_limit() + 1)),
]


def write_with_faults(path: Path, log: MeasurementLog, faults) -> None:
    """Write the log, then rewrite it with each ``(row, fault)`` applied."""
    write_measurements(path, log)
    if not faults or not len(log):
        return
    with open(path, newline="", encoding="utf-8") as handle:
        cells = list(csv.reader(handle))
    for at, fault in faults:
        row = cells[1 + at % len(log)]
        if fault is None:
            del row[-1]
        elif fault[0] < len(row):
            row[fault[0]] = fault[1]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(cells)


class TestCsvReader:
    @pytest.mark.numpy_bits
    @given(
        rows=st.lists(ROWS, max_size=12),
        faults=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(READ_FAULTS)), max_size=2),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_row_by_row_reader(self, rows, faults):
        # Labels with quoted commas and line breaks make a row's line differ
        # from its index + 2; two faults check which bad row is named first.
        *columns, _ = list(zip(*rows)) or [[]] * 9
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "log.csv"
            write_with_faults(path, MeasurementLog(*columns), faults)
            new = read_outcome(read_measurements, path)
            old = read_outcome(_reference_read_measurements, path)
        if isinstance(old, str) or isinstance(new, str):
            assert new == old
        else:
            assert same_bits(new, old)

    @pytest.mark.parametrize("faults", [
        # Two bad cells in one row: the first column's, and a parse before a rule.
        [(1, (2, "1_3")), (1, (0, "noon"))],
        [(1, (3, "nan")), (1, (0, "noon"))],
        # A broken rule and a short row, either first.
        [(1, (3, "nan")), (2, None)],
        [(2, (3, "nan")), (1, None)],
        # A bad row before or after one that csv cannot read.
        [(1, (0, "noon")), (2, READ_FAULTS[-1])],
        [(2, (0, "noon")), (1, READ_FAULTS[-1])],
        [(1, (7, "140")), (2, READ_FAULTS[-1])],
    ])
    def test_names_the_first_bad_row_as_the_row_by_row_reader_did(self, tmp_path, faults):
        log = run_campaign(small_config(scenarios=(Scenario("a\r\n,b", 15.0, 0.0),)))
        path = tmp_path / "log.csv"
        write_with_faults(path, log, faults)
        new = read_outcome(read_measurements, path)
        assert isinstance(new, str) and new == read_outcome(_reference_read_measurements, path)

    def test_names_the_line_on_which_a_bad_row_ends(self, tmp_path):
        log = run_campaign(small_config(scenarios=(Scenario("two\nlines", 15.0, 0.0),)))
        path = tmp_path / "log.csv"
        write_with_faults(path, log, [(2, (0, "noon"))])
        # Each row spans two lines after the one-line header.
        with pytest.raises(ValueError) as refusal:
            read_measurements(path)
        assert str(refusal.value).startswith(f"{path}:7: could not convert")

    def test_a_header_that_csv_cannot_read_is_refused_with_its_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ValueError) as refusal:
            read_measurements(path)
        assert str(refusal.value).startswith(f"{path}:1: field larger than field limit")


def _reference_write_curves(path, rows) -> None:
    """The curve writer that ``_write_csv`` replaced: ``csv.writer``, numbers by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "height_cm", "vwc_truth_pct", "mean_rssi_dbm"])
        for scenario, height, pct, rssi in rows:
            writer.writerow([scenario, repr(height), repr(pct), repr(rssi)])


# Campaigns whose curve files test the writer: hostile labels, heights of
# either zero sign (one label holds both), and noise-free points that each
# average several packets.
CURVE_CASES = {
    "hostile labels": small_config(
        scenarios=tuple(Scenario(label, 15.0, 10.0) for label in HOSTILE_LABELS)
    ),
    "signed zero heights": small_config(
        scenarios=(Scenario("neg", 15.0, -0.0), Scenario("pos", 15.0, 0.0),
                   Scenario("both", 15.0, -0.0), Scenario("both", 15.0, 0.0)),
        sweeps_per_cell=2,
    ),
    "no noise": CampaignConfig().without_noise(),
}


class TestCurves:
    def test_one_point_per_cell(self):
        log = run_campaign(small_config().without_noise())
        ((_, _, pct, _),) = median_power_curves(log).values()
        assert len(pct) == 3
        assert pct.tolist() == [5.0, 20.0, 35.0]

    def test_noise_free_curve_decreases(self):
        cfg = CampaignConfig().without_noise()
        curves = median_power_curves(run_campaign(cfg))
        for scenario in ("lab_h000", "lab_h195", "lab_h265"):
            (rssis,) = [rssi.tolist() for labels, _, _, rssi in curves.values()
                        if labels[0] == scenario]
            assert len(rssis) == 8
            assert all(a > b for a, b in zip(rssis, rssis[1:]))

    def test_requires_ground_truth(self):
        log = run_campaign(small_config(training_mode=False))
        with pytest.raises(ValueError):
            median_power_curves(log)

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("case", sorted(CURVE_CASES))
    def test_curve_files_match_the_csv_module(self, tmp_path, case):
        curves = median_power_curves(run_campaign(CURVE_CASES[case]))
        assert len(curves) > 1
        for name, columns in curves.items():
            written, reference = tmp_path / name, tmp_path / "reference.csv"
            campaign._write_csv(written, campaign.CURVE_COLUMNS, columns)
            _reference_write_curves(reference, zip(*(c.tolist() for c in columns)))
            assert written.read_bytes() == reference.read_bytes(), name


class TestConfigFile:
    def test_json_round_trip(self, tmp_path):
        cfg = replace(
            CampaignConfig(),
            vwc_grid=(0.1, 0.2),
            rssi_sigma_db=1.5,
            scenarios=(Scenario("field", 15.0, 30.0),),
        )
        path = tmp_path / "campaign.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_format_field_is_checked(self):
        with pytest.raises(ValueError, match="^not a smol-campaign config$"):
            config_from_dict({"format": "other", "version": 1})

    def test_version_field_is_checked(self):
        data = config_to_dict(CampaignConfig())
        data["version"] = 99
        with pytest.raises(ValueError, match=r"version 99 .*\(this smol reads version 2\)$"):
            config_from_dict(data)

    def test_unknown_fields_rejected(self):
        data = config_to_dict(CampaignConfig())
        data["mystery_knob"] = 1
        with pytest.raises(ValueError, match=r"^config: unexpected key\(s\) 'mystery_knob'$"):
            config_from_dict(data)


@pytest.mark.numpy_bits
class TestSweepStreams:
    # Each sweep's noise stream is a Generator; its probe and drop streams are
    # rows of the PCG64 kernel, which draws tdr_spots and then one value per
    # power level. Nothing is drawn for a noiseless probe, a drop probability
    # of 0 or sigma 0.
    @pytest.mark.parametrize("config, generators, kernel_values", [
        (CampaignConfig(), 72, 72 * 10),
        (CampaignConfig().without_noise(), 0, 0),
        (CampaignConfig(drop_prob=0.1), 72, 72 * (10 + 18)),
        (CampaignConfig(training_mode=False), 72, 0),
        (CampaignConfig(tdr_error_bound=0.0), 72, 0),
        (CampaignConfig(rssi_sigma_db=0.0), 0, 72 * 10),
        (_large_config(), 1728, 1728 * (10 + 18)),
    ], ids=["stock", "no-noise", "drops", "inference", "noiseless-probe", "sigma-0", "large"])
    def test_streams_per_campaign(self, monkeypatch, config, generators, kernel_values):
        drawn, built = [], []
        real_kernel, real_pcg64 = campaign._pcg64_random, np.random.PCG64

        def counted_kernel(words, count):
            drawn.append(len(words) * count)
            return real_kernel(words, count)

        def counted_pcg64(*args):
            built.append(args)
            return real_pcg64(*args)

        monkeypatch.setattr(campaign, "_pcg64_random", counted_kernel)
        monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
        assert len(run_campaign(config)) > 0
        assert (len(built), sum(drawn)) == (generators, kernel_values)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70, 2**128 + 5])
    def test_seed_words_match_numpy(self, seed):
        parent, noise, drop = campaign.sweep_seed_words(seed, 300)
        for sweep in range(300):
            sequence = np.random.SeedSequence((seed, sweep))
            expected = [sequence, *sequence.spawn(2)]
            for words, stream in zip((parent, noise, drop), expected):
                assert np.array_equal(words[sweep], stream.generate_state(4, np.uint64))


def _word_rows() -> np.ndarray:
    """Seed-word rows over the whole uint64 range, the all-zero and all-ones
    rows, and rows whose w[3] has its top bit set, which inc's shift carries
    into its high word."""
    drawn = np.random.default_rng(34).integers(0, 2**64, size=(2000, 4), dtype=np.uint64)
    carried = drawn[:100] | np.array([0, 0, 0, 2**63], dtype=np.uint64)
    extremes = np.array([[0] * 4, [2**64 - 1] * 4], dtype=np.uint64)
    return np.concatenate([drawn, extremes, carried])


def _generator(row: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(campaign._StateWords(row)))


@pytest.mark.numpy_bits
class TestPcg64Kernel:
    def test_seeding_matches_pcg64_state(self):
        words = _word_rows()
        seeded = zip(*(part.tolist() for part in campaign._pcg_seed(words)))
        for row, (high, low, inc_high, inc_low) in zip(words, seeded):
            state = np.random.PCG64(campaign._StateWords(row)).state["state"]
            assert state == {"state": high << 64 | low, "inc": inc_high << 64 | inc_low}

    @pytest.mark.parametrize("count", [1, 10, 18, 37])
    def test_matches_generator_random(self, count):
        words = _word_rows()
        expected = np.array([_generator(row).random(count) for row in words])
        drawn = campaign._pcg64_random(words, count)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    # A campaign's probe and drop requests: one sweep to a stock grid's 72,
    # for no spot (a noiseless probe), one, the stock spots or the stock plan.
    @pytest.mark.parametrize("rows", [1, 2, 3, 72])
    @pytest.mark.parametrize("count", [0, 1, 10, 18])
    def test_matches_generator_random_at_campaign_sizes(self, rows, count):
        words = _word_rows()[-rows:]
        expected = np.array([_generator(row).random(count) for row in words])
        drawn = campaign._pcg64_random(words, count)
        assert drawn.shape == (rows, count)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 72, 400])
    def test_normals_equal_one_generator_per_row(self, rows):
        words, counts = _word_rows()[:rows], np.arange(rows) % 11
        expected = np.concatenate([_generator(row).standard_normal(count)
                                   for row, count in zip(words, counts)])
        drawn = campaign._normals(words, counts)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    def test_a_count_beyond_memory_fails_before_a_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("stepped before allocating")

        monkeypatch.setattr(campaign, "_pcg_step", step)
        with pytest.raises(MemoryError):
            campaign._pcg64_random(_word_rows()[:2], 10**15)
