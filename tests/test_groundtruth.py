import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.groundtruth import TdrSensor, read_vwc
from smol.soilchan import SoilState


def _soil(vwc: float) -> SoilState:
    return SoilState(vwc=vwc, porosity=1.0)


class TestCalibration:
    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            TdrSensor(error_bound=-0.01)
        with pytest.raises(ValueError):
            TdrSensor(spots=0)


class TestReadVwc:
    def test_noiseless_probe_is_exact(self):
        sensor = TdrSensor(error_bound=0.0)
        assert read_vwc(sensor, _soil(0.2)) == 100.0 * 0.2
        assert read_vwc(sensor, _soil(0.0)) == 0.0
        assert read_vwc(sensor, _soil(1.0)) == 100.0

    def test_spot_averaging_converges(self):
        # mean of symmetric noise: many spots pull the session average in
        sensor = TdrSensor(error_bound=0.03, spots=10_000, seed=3)
        assert read_vwc(sensor, _soil(0.2)) == pytest.approx(20.0, abs=0.1)

    def test_clamped_at_zero(self):
        # true vwc 0: any negative draw average clamps to 0
        sensor = TdrSensor(error_bound=0.03, spots=1, seed=0)
        readings = {read_vwc(sensor, _soil(0.0), draw_index=i) for i in range(50)}
        assert min(readings) == 0.0
        assert all(r >= 0.0 for r in readings)

    def test_reproducible_under_seed(self):
        sensor = TdrSensor(seed=11)
        a = [read_vwc(sensor, _soil(0.25), draw_index=i) for i in range(5)]
        b = [read_vwc(sensor, _soil(0.25), draw_index=i) for i in range(5)]
        assert a == b

    def test_sessions_are_independent(self):
        sensor = TdrSensor(seed=11)
        assert read_vwc(sensor, _soil(0.25), 0) != read_vwc(sensor, _soil(0.25), 1)

    @given(vwc=st.floats(0.0, 1.0), idx=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_single_spot_error_is_bounded(self, vwc, idx):
        sensor = TdrSensor(error_bound=0.03, spots=1, seed=5)
        reading = read_vwc(sensor, _soil(vwc), draw_index=idx)
        assert 0.0 <= reading <= 100.0
        assert abs(reading - 100.0 * vwc) <= 3.0 + 1e-9

    @given(vwc=st.floats(0.0, 1.0), spots=st.integers(1, 30), idx=st.integers(0, 100))
    @settings(max_examples=100)
    def test_readings_stay_in_percent_range(self, vwc, spots, idx):
        sensor = TdrSensor(error_bound=0.05, spots=spots, seed=2)
        assert 0.0 <= read_vwc(sensor, _soil(vwc), draw_index=idx) <= 100.0
