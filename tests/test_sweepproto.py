import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.campaign import CampaignConfig, Scenario, run_campaign
from smol.soilchan import LinkGeometry, SoilState, path_loss
from smol.sweepproto import (
    DEFAULT_POWER_LEVELS,
    FRAME_LENGTH,
    FrameError,
    LogRowError,
    MeasurementLog,
    PowerPlan,
    SweepPacket,
    decode_packet,
    encode_packet,
    encode_plan,
    log_median_power,
)

packets = st.builds(
    SweepPacket,
    device_id=st.integers(0, 0xFFFF),
    sequence=st.integers(0, 0xFF),
    tx_power=st.integers(5, 23),
)


class TestCodec:
    def test_known_frame_min_power(self):
        frame = encode_packet(SweepPacket(0, 0, 5))
        assert frame == bytes.fromhex("53010000000557")

    def test_known_frame_wide_id(self):
        # checksum is the XOR of the six header bytes:
        # 0x53^0x01^0x01^0x02^0x03^0x16 = 0x44
        frame = encode_packet(SweepPacket(0x0102, 3, 22))
        assert frame == bytes.fromhex("53010102031644")

    def test_frames_are_seven_bytes(self):
        assert len(encode_packet(SweepPacket(40000, 200, 23))) == FRAME_LENGTH

    @given(p=packets)
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert decode_packet(encode_packet(p)) == p

    def test_rejects_power_outside_device_range(self):
        with pytest.raises(FrameError, match=r"^tx power 4 dBm outside \[5, 23\]$"):
            SweepPacket(0, 0, 4)
        with pytest.raises(FrameError, match=r"^tx power 24 dBm outside \[5, 23\]$"):
            SweepPacket(0, 0, 24)

    def test_rejects_bad_field_widths(self):
        with pytest.raises(ValueError):
            SweepPacket(0x10000, 0, 13)
        with pytest.raises(ValueError):
            SweepPacket(0, 256, 13)

    def test_decode_bad_length(self):
        with pytest.raises(FrameError, match="^frame is 6 bytes, want 7$"):
            decode_packet(bytes.fromhex("530100000005"))
        with pytest.raises(FrameError, match="^frame is 0 bytes, want 7$"):
            decode_packet(b"")

    def test_decode_bad_magic(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[0] = 0x54
        with pytest.raises(FrameError, match="^magic 0x54, want 0x53$"):
            decode_packet(bytes(frame))

    def test_decode_bad_version(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[1] = 0x02
        with pytest.raises(FrameError, match="^version 0x02, want 0x01$"):
            decode_packet(bytes(frame))

    def test_decode_bad_checksum(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[6] ^= 0xFF
        with pytest.raises(FrameError, match="^checksum mismatch$"):
            decode_packet(bytes(frame))

    def test_decode_power_out_of_range_with_valid_checksum(self):
        head = bytes([0x53, 0x01, 0x00, 0x01, 0x00, 24])
        xor = 0
        for b in head:
            xor ^= b
        with pytest.raises(FrameError, match=r"^tx power 24 dBm outside \[5, 23\]$"):
            decode_packet(head + bytes([xor]))

    @given(
        p=packets,
        position=st.integers(0, FRAME_LENGTH - 1),
        flip=st.integers(1, 255),
    )
    @settings(max_examples=300)
    def test_any_single_byte_corruption_is_rejected(self, p, position, flip):
        frame = bytearray(encode_packet(p))
        frame[position] ^= flip
        with pytest.raises(FrameError):
            decode_packet(bytes(frame))


class TestPowerPlan:
    def test_default_has_18_levels(self):
        plan = PowerPlan()
        assert len(plan) == 18
        assert plan.levels == tuple(range(5, 23))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PowerPlan((13, 13))

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            PowerPlan((4, 5))
        with pytest.raises(ValueError):
            PowerPlan(())

    # The median power is inferred from a log swept with the plan.
    def test_median_of_default_plan(self):
        assert log_median_power(_one_sweep_log()) == 13

    def test_median_singleton(self):
        assert log_median_power(_one_sweep_log(power_levels=(13,))) == 13

    def test_median_odd_count(self):
        assert log_median_power(_one_sweep_log(power_levels=(5, 7, 9))) == 7

    def test_median_is_lower_median_even_count(self):
        assert log_median_power(_one_sweep_log(power_levels=(5, 6, 7, 8))) == 6
        assert log_median_power(_one_sweep_log(power_levels=(8, 5, 7, 6))) == 6


def _one_sweep_log(**overrides):
    """The log of one full sweep in one placement; noise-free unless
    ``overrides`` switch a stochastic element back on."""
    config = CampaignConfig(
        scenarios=(Scenario("bench", 15.0, 195.0),),
        vwc_grid=(0.21,),
        sweeps_per_cell=1,
    )
    return run_campaign(replace(config.without_noise(), **overrides))


class TestRunSweep:
    """One sweep carried over the simulated link and logged by a campaign."""

    def test_full_plan_one_measurement_per_level(self):
        log = _one_sweep_log()
        assert log.tx_power.tolist() == list(DEFAULT_POWER_LEVELS)
        assert len(log.rssi) == 18

    def test_single_level_air_scenario(self):
        # no buried segment: the soil drops out and only the air path remains
        log = _one_sweep_log(
            scenarios=(Scenario("air", 0.0, 100.0),), power_levels=(13,),
            porosity=1.0, vwc_grid=(0.0,),
        )
        assert log.tx_power.tolist() == [13]
        assert log.rssi[0] == pytest.approx(
            13 - path_loss(SoilState(0.0, 1.0), LinkGeometry(0.0, 100.0)), abs=1e-12
        )

    def test_total_loss_drops_everything(self):
        log = _one_sweep_log(drop_prob=1.0)
        assert len(log) == len(log.rssi) == 0

    def test_measurements_carry_link_metadata(self):
        log = _one_sweep_log(device_id=77, epoch=1234.5)
        assert len(log) == 18
        assert set(log.device_id.tolist()) == {77}
        assert set(log.scenario.tolist()) == {"bench"}
        assert set(log.height_cm.tolist()) == {195.0}
        assert set(log.depth_cm.tolist()) == {15.0}
        assert log.vwc_truth == pytest.approx([0.21] * 18)
        assert set(log.timestamp.tolist()) == {1234.5}

    def test_tx_power_comes_from_the_frame(self):
        # with the wrap quirk on, the radio transmits at 5 dBm but the
        # frame still announces 23: the log must show the decoded 23
        log = _one_sweep_log(power_levels=(5, 23), wrap_high_power=True)
        assert log.tx_power.tolist() == [5, 23]
        assert log.rssi[0] == pytest.approx(log.rssi[1], abs=1e-12)

    def test_no_free_energy_noise_free(self):
        log = _one_sweep_log()
        assert (log.rssi <= log.tx_power).all()

    def test_transmitter_sequences_from_zero(self):
        packets = [decode_packet(f) for f in encode_plan(9, PowerPlan((7, 5, 6)))]
        assert [p.sequence for p in packets] == [0, 1, 2]
        assert [p.tx_power for p in packets] == [7, 5, 6]
        assert {p.device_id for p in packets} == {9}

    @given(seed=st.integers(0, 2**31 - 1), drop=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_delivered_plus_dropped_covers_plan(self, seed, drop):
        # the sweep's drop stream is spawn child 1 of SeedSequence((seed, 0))
        log = _one_sweep_log(drop_prob=drop, seed=seed)
        drop_stream = np.random.SeedSequence((seed, 0)).spawn(2)[1]
        kept = np.random.default_rng(drop_stream).random(18) >= drop
        assert log.tx_power.tolist() == np.array(DEFAULT_POWER_LEVELS)[kept].tolist()
        assert len(log) + np.count_nonzero(~kept) == 18


def _one_row_log(**values) -> MeasurementLog:
    row = dict(
        timestamp=0.0, device_id=1, tx_power=13, rssi=-50.0,
        height_cm=0.0, depth_cm=15.0, scenario="x", vwc_truth=math.nan,
    )
    row.update(values)
    return MeasurementLog(**{name: [value] for name, value in row.items()})


class TestMeasurement:
    """The rules every row of a MeasurementLog obeys."""

    def test_rejects_vwc_truth_outside_unit_interval(self):
        with pytest.raises(ValueError):
            _one_row_log(vwc_truth=1.2)

    def test_rejects_columns_of_unequal_length(self):
        columns = {**vars(_one_row_log()), "rssi": [-50.0, -51.0]}
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementLog(**columns)

    def test_truth_is_optional(self):
        log = _one_row_log()
        assert math.isnan(log.vwc_truth[0])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timestamp", float("inf")),
            ("rssi", float("nan")),
            ("height_cm", float("-inf")),
            ("depth_cm", float("nan")),
            ("tx_power", 4),
            ("tx_power", 99),
        ],
    )
    def test_rejects_non_finite_numbers_and_unsendable_powers(self, field, value):
        with pytest.raises(ValueError, match="finite|outside"):
            _one_row_log(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("device_id", -1), ("device_id", 70000), ("height_cm", -1.0), ("depth_cm", -0.5)],
    )
    def test_rejects_ids_and_placements_no_campaign_can_log(self, field, value):
        with pytest.raises(ValueError, match="device_id|height and depth"):
            _one_row_log(**{field: value})

    def test_names_the_first_bad_row(self):
        columns = {
            name: np.repeat(getattr(_one_row_log(), name), 4)
            for name in ("timestamp", "device_id", "rssi", "height_cm", "depth_cm",
                         "scenario", "vwc_truth")
        }
        with pytest.raises(LogRowError) as caught:
            MeasurementLog(tx_power=[13, 13, 2**70, 99], **columns)
        assert caught.value.row == 2
        with pytest.raises(ValueError, match="integers"):
            MeasurementLog(tx_power=[13.0, 13.5, 13.0, 13.0], **columns)
