import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.soilchan import LinkGeometry, NoiseModel, SoilState, path_loss
from smol.sweepproto import (
    DEFAULT_POWER_LEVELS,
    FRAME_LENGTH,
    BadChecksum,
    BadLength,
    BadMagic,
    BadVersion,
    FrameError,
    Measurement,
    PowerOutOfRange,
    PowerPlan,
    SimulatedLink,
    SweepPacket,
    SweepReceiver,
    decode_packet,
    encode_packet,
    encode_plan,
    median_power,
    run_sweep,
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
        with pytest.raises(PowerOutOfRange):
            SweepPacket(0, 0, 4)
        with pytest.raises(PowerOutOfRange):
            SweepPacket(0, 0, 24)

    def test_rejects_bad_field_widths(self):
        with pytest.raises(ValueError):
            SweepPacket(0x10000, 0, 13)
        with pytest.raises(ValueError):
            SweepPacket(0, 256, 13)

    def test_decode_bad_length(self):
        with pytest.raises(BadLength):
            decode_packet(bytes.fromhex("530100000005"))
        with pytest.raises(BadLength):
            decode_packet(b"")

    def test_decode_bad_magic(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[0] = 0x54
        with pytest.raises(BadMagic):
            decode_packet(bytes(frame))

    def test_decode_bad_version(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[1] = 0x02
        with pytest.raises(BadVersion):
            decode_packet(bytes(frame))

    def test_decode_bad_checksum(self):
        frame = bytearray(encode_packet(SweepPacket(1, 2, 13)))
        frame[6] ^= 0xFF
        with pytest.raises(BadChecksum):
            decode_packet(bytes(frame))

    def test_decode_power_out_of_range_with_valid_checksum(self):
        head = bytes([0x53, 0x01, 0x00, 0x01, 0x00, 24])
        xor = 0
        for b in head:
            xor ^= b
        with pytest.raises(PowerOutOfRange):
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

    def test_median_of_default_plan(self):
        assert median_power(PowerPlan()) == 13

    def test_median_singleton(self):
        assert median_power(PowerPlan((13,))) == 13

    def test_median_odd_count(self):
        assert median_power(PowerPlan((5, 7, 9))) == 7

    def test_median_is_lower_median_even_count(self):
        assert median_power(PowerPlan((5, 6, 7, 8))) == 6
        assert median_power(PowerPlan((8, 5, 7, 6))) == 6


def _quiet_link(**kwargs) -> SimulatedLink:
    kwargs.setdefault("noise", NoiseModel())
    return SimulatedLink(
        soil=SoilState(0.2, 0.45),
        geom=LinkGeometry(15.0, 195.0),
        scenario="bench",
        **kwargs,
    )


class TestRunSweep:
    def test_full_plan_one_measurement_per_level(self):
        ms = run_sweep(1, PowerPlan(), _quiet_link())
        assert len(ms) == 18
        assert [m.tx_power for m in ms] == list(DEFAULT_POWER_LEVELS)
        assert len({m.tx_power for m in ms}) == 18

    def test_single_level_air_scenario(self):
        geom = LinkGeometry(0.0, 100.0)
        link = SimulatedLink(
            soil=SoilState.air_baseline(), geom=geom, noise=NoiseModel()
        )
        [m] = run_sweep(7, PowerPlan((13,)), link)
        assert m.tx_power == 13
        assert m.rssi == pytest.approx(
            13 - path_loss(SoilState.air_baseline(), geom), abs=1e-12
        )

    def test_total_loss_drops_everything(self):
        link = _quiet_link(drop_prob=1.0)
        ms = run_sweep(1, PowerPlan(), link)
        assert ms == []
        assert link.dropped == 18

    def test_measurements_carry_link_metadata(self):
        link = _quiet_link(vwc_truth=0.21, timestamp=1234.5)
        ms = run_sweep(77, PowerPlan(), link)
        for m in ms:
            assert m.device_id == 77
            assert m.scenario == "bench"
            assert m.height_cm == 195.0
            assert m.depth_cm == 15.0
            assert m.vwc_truth == 0.21
            assert m.timestamp == 1234.5

    def test_tx_power_comes_from_the_frame(self):
        # with the wrap quirk on, the radio transmits at 5 dBm but the
        # frame still announces 23: the log must show the decoded 23
        plan = PowerPlan((5, 23))
        link = _quiet_link(wrap_high_power=True)
        ms = run_sweep(1, plan, link)
        assert [m.tx_power for m in ms] == [5, 23]
        assert ms[0].rssi == pytest.approx(ms[1].rssi, abs=1e-12)

    def test_no_free_energy_noise_free(self):
        ms = run_sweep(1, PowerPlan(), _quiet_link())
        for m in ms:
            assert m.rssi <= m.tx_power

    def test_receiver_counts_rejects(self):
        rx = SweepReceiver()
        rx.handle(b"\x00" * 7, -50.0, 0.0)
        rx.handle(b"\x00" * 3, -50.0, 0.0)
        assert rx.measurements == []
        assert rx.rejected == {"BadMagic": 1, "BadLength": 1}

    def test_transmitter_sequences_from_zero(self):
        packets = [decode_packet(f) for f in encode_plan(9, PowerPlan((7, 5, 6)))]
        assert [p.sequence for p in packets] == [0, 1, 2]
        assert [p.tx_power for p in packets] == [7, 5, 6]
        assert {p.device_id for p in packets} == {9}

    @given(seed=st.integers(0, 2**31 - 1), drop=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_delivered_plus_dropped_covers_plan(self, seed, drop):
        link = _quiet_link(drop_prob=drop, noise=NoiseModel(seed=seed))
        ms = run_sweep(1, PowerPlan(), link)
        assert len(ms) + link.dropped == 18


class TestMeasurement:
    def test_rejects_vwc_truth_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Measurement(0.0, 1, 13, -50.0, 0.0, 15.0, "x", vwc_truth=1.2)

    def test_truth_is_optional(self):
        m = Measurement(0.0, 1, 13, -50.0, 0.0, 15.0, "x")
        assert m.vwc_truth is None

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
        values = dict(
            timestamp=0.0, device_id=1, tx_power=13, rssi=-50.0,
            height_cm=0.0, depth_cm=15.0, scenario="x",
        )
        values[field] = value
        with pytest.raises(ValueError, match="finite|outside"):
            Measurement(**values)

    @pytest.mark.parametrize(
        "field,value",
        [("device_id", -1), ("device_id", 70000), ("height_cm", -1.0), ("depth_cm", -0.5)],
    )
    def test_rejects_ids_and_placements_no_campaign_can_log(self, field, value):
        values = dict(
            timestamp=0.0, device_id=1, tx_power=13, rssi=-50.0,
            height_cm=0.0, depth_cm=15.0, scenario="x",
        )
        values[field] = value
        with pytest.raises(ValueError, match="device_id|height and depth"):
            Measurement(**values)
