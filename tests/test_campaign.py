from dataclasses import replace

import pytest

from smol import campaign, soilchan, sweepproto
from smol.campaign import (
    CSV_COLUMNS,
    CampaignConfig,
    ConfigError,
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


class TestConfigValidation:
    def test_grid_above_porosity_rejected(self):
        with pytest.raises(ConfigError):
            small_config(vwc_grid=(0.5,), porosity=0.45)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            small_config(vwc_grid=())

    def test_no_scenarios_rejected(self):
        with pytest.raises(ConfigError):
            small_config(scenarios=())

    def test_negative_geometry_rejected(self):
        with pytest.raises(ConfigError):
            small_config(scenarios=(Scenario("bad", -2.0, 0.0),))

    def test_zero_sweeps_rejected(self):
        with pytest.raises(ConfigError):
            small_config(sweeps_per_cell=0)

    def test_bad_power_plan_rejected(self):
        with pytest.raises(ValueError):
            small_config(power_levels=(5, 5))


class TestRunCampaign:
    def test_row_count_three_heights_ten_steps(self):
        cfg = CampaignConfig(vwc_grid=TEN_STEP_GRID, sweeps_per_cell=1)
        assert len(run_campaign(cfg)) == 3 * 10 * 18

    def test_default_campaign_row_count(self):
        # 3 scenarios x 8 steps x 3 sweeps x 18 levels
        assert len(run_campaign(CampaignConfig())) == 1296

    def test_training_mode_populates_truth(self):
        for m in run_campaign(small_config()):
            assert m.vwc_truth is not None

    def test_inference_mode_omits_truth(self):
        for m in run_campaign(small_config(training_mode=False)):
            assert m.vwc_truth is None

    def test_timestamps_derive_from_epoch(self):
        log = run_campaign(small_config(epoch=1000.0, sweep_interval_s=60.0))
        stamps = sorted({m.timestamp for m in log})
        assert stamps == [1000.0, 1060.0, 1120.0]

    def test_same_config_same_log(self):
        cfg = small_config()
        assert run_campaign(cfg) == run_campaign(cfg)

    def test_different_seed_different_noise(self):
        a = run_campaign(small_config(seed=1))
        b = run_campaign(small_config(seed=2))
        assert a != b

    def test_drop_probability_shrinks_the_log(self):
        lossy = small_config(drop_prob=0.5)
        assert len(run_campaign(lossy)) < 3 * 18

    def test_path_loss_at_most_once_per_sweep_and_one_decode_per_delivery(self, monkeypatch):
        calls = {"path_loss": 0, "decode_packet": 0, "encode_packet": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (soilchan, sweepproto, campaign):
            counted(module, "path_loss")
        counted(sweepproto, "decode_packet")
        counted(sweepproto, "encode_packet")
        cfg = small_config(
            scenarios=(Scenario("a", 15.0, 0.0), Scenario("b", 5.0, 90.0)),
            sweeps_per_cell=2,
            drop_prob=0.2,
        )
        log = run_campaign(cfg)
        sweeps = 2 * 3 * 2
        assert 0 < len(log) < sweeps * 18
        assert 1 <= calls["path_loss"] <= sweeps
        assert calls["decode_packet"] == len(log)
        assert calls["encode_packet"] == 18  # once per campaign

    def test_noise_free_preset(self):
        cfg = small_config().without_noise()
        log = run_campaign(cfg)
        assert cfg.rssi_sigma_db == 0.0
        assert cfg.tdr_error_bound == 0.0
        # noiseless reference sensor reads the grid exactly
        assert sorted({m.vwc_truth for m in log}) == [0.05, 0.20, 0.35]


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
        assert read_measurements(path) == log

    def test_round_trip_inference_mode(self, tmp_path):
        log = run_campaign(small_config(training_mode=False))
        path = tmp_path / "log.csv"
        write_measurements(path, log)
        assert read_measurements(path) == log

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


class TestCurves:
    def test_one_point_per_cell(self):
        log = run_campaign(small_config().without_noise())
        points = median_power_curves(log)
        assert len(points) == 3
        assert [p.vwc_truth_pct for p in points] == [5.0, 20.0, 35.0]

    def test_noise_free_curve_decreases(self):
        cfg = CampaignConfig().without_noise()
        points = median_power_curves(run_campaign(cfg))
        for scenario in ("lab_h000", "lab_h195", "lab_h265"):
            rssis = [p.mean_rssi_dbm for p in points if p.scenario == scenario]
            assert len(rssis) == 8
            assert all(a > b for a, b in zip(rssis, rssis[1:]))

    def test_requires_ground_truth(self):
        log = run_campaign(small_config(training_mode=False))
        with pytest.raises(ValueError):
            median_power_curves(log)


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
        with pytest.raises(ConfigError):
            config_from_dict({"format": "other", "version": 1})

    def test_version_field_is_checked(self):
        data = config_to_dict(CampaignConfig())
        data["version"] = 99
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_unknown_fields_rejected(self):
        data = config_to_dict(CampaignConfig())
        data["mystery_knob"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(data)
