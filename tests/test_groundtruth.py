import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.groundtruth import TdrSensor, read_vwc


def _read(sensor: TdrSensor, vwc: float, draw_index: int = 0, seed: int = 0) -> float:
    """One session, drawn from the stream a campaign with ``seed`` gives
    sweep ``draw_index``: SeedSequence((seed, draw_index))."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, draw_index)))
    [percent] = read_vwc(sensor, [vwc], [rng])
    return float(percent)


class TestCalibration:
    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            TdrSensor(error_bound=-0.01)
        with pytest.raises(ValueError):
            TdrSensor(spots=0)


class TestReadVwc:
    def test_noiseless_probe_is_exact(self):
        sensor = TdrSensor(error_bound=0.0)
        assert _read(sensor, 0.2) == 100.0 * 0.2
        assert _read(sensor, 0.0) == 0.0
        assert _read(sensor, 1.0) == 100.0

    def test_spot_averaging_converges(self):
        # mean of symmetric noise: many spots pull the session average in
        sensor = TdrSensor(error_bound=0.03, spots=10_000)
        assert _read(sensor, 0.2, seed=3) == pytest.approx(20.0, abs=0.1)

    def test_clamped_at_zero(self):
        # true vwc 0: any negative draw average clamps to 0
        sensor = TdrSensor(error_bound=0.03, spots=1)
        readings = {_read(sensor, 0.0, draw_index=i) for i in range(50)}
        assert min(readings) == 0.0
        assert all(r >= 0.0 for r in readings)

    def test_reproducible_under_seed(self):
        sensor = TdrSensor()
        a = [_read(sensor, 0.25, draw_index=i, seed=11) for i in range(5)]
        b = [_read(sensor, 0.25, draw_index=i, seed=11) for i in range(5)]
        assert a == b

    def test_sessions_are_independent(self):
        sensor = TdrSensor()
        assert _read(sensor, 0.25, 0, seed=11) != _read(sensor, 0.25, 1, seed=11)

    def test_sessions_at_once_equal_one_at_a_time(self):
        # reference: one session per call, averaged by np.mean of its spots
        sensor = TdrSensor(error_bound=0.03, spots=10)
        vwc = np.linspace(0.0, 0.45, 40)

        def rngs():
            return (np.random.default_rng(np.random.SeedSequence((7, i))) for i in range(40))

        one_at_a_time = [
            min(100.0, max(0.0, 100.0 * float(np.mean(v + rng.uniform(-0.03, 0.03, size=10)))))
            for v, rng in zip(vwc.tolist(), rngs())
        ]
        assert read_vwc(sensor, vwc, rngs()).tolist() == one_at_a_time

    @pytest.mark.parametrize("sessions, generators, given", [(3, 1, "1"), (1, 2, "more than 1")])
    def test_refuses_generators_unpaired_with_sessions(self, sessions, generators, given):
        # Neither shares one generator's draws among sessions nor reads a
        # session per surplus generator.
        rngs = [np.random.default_rng(i) for i in range(generators)]
        with pytest.raises(ValueError, match=f"{sessions} sessions, {given} generators"):
            read_vwc(TdrSensor(), [0.1] * sessions, rngs)

    @given(vwc=st.floats(0.0, 1.0), idx=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_single_spot_error_is_bounded(self, vwc, idx):
        sensor = TdrSensor(error_bound=0.03, spots=1)
        reading = _read(sensor, vwc, draw_index=idx, seed=5)
        assert 0.0 <= reading <= 100.0
        assert abs(reading - 100.0 * vwc) <= 3.0 + 1e-9

    @given(vwc=st.floats(0.0, 1.0), spots=st.integers(1, 30), idx=st.integers(0, 100))
    @settings(max_examples=100)
    def test_readings_stay_in_percent_range(self, vwc, spots, idx):
        sensor = TdrSensor(error_bound=0.05, spots=spots)
        assert 0.0 <= _read(sensor, vwc, draw_index=idx, seed=2) <= 100.0
