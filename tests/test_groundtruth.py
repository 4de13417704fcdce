import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.campaign import CampaignConfig
from smol.groundtruth import read_vwc


def _read(error_bound: float, spots: int, vwc: float, draw_index: int = 0, seed: int = 0) -> float:
    """One session, drawn from the stream a campaign with ``seed`` gives
    sweep ``draw_index``: SeedSequence((seed, draw_index))."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, draw_index)))
    [percent] = read_vwc([vwc], error_bound, rng.random((1, spots)))
    return float(percent)


class TestCalibration:
    # The probe's settings are campaign settings, checked with the rest.
    def test_sensor_validation(self):
        with pytest.raises(ValueError, match="tdr_error_bound"):
            CampaignConfig(tdr_error_bound=-0.01)
        with pytest.raises(ValueError, match="tdr_error_bound"):
            CampaignConfig(tdr_error_bound=1.01)
        with pytest.raises(ValueError, match="tdr_spots"):
            CampaignConfig(tdr_spots=0)


class TestReadVwc:
    def test_noiseless_probe_is_exact(self):
        assert _read(0.0, 10, 0.2) == 100.0 * 0.2
        assert _read(0.0, 10, 0.0) == 0.0
        assert _read(0.0, 10, 1.0) == 100.0
        # A campaign's noiseless probe draws nothing.
        assert read_vwc([0.2, 1.0], 0.0, np.empty((2, 0))).tolist() == [100.0 * 0.2, 100.0]

    def test_spot_averaging_converges(self):
        # mean of symmetric noise: many spots pull the session average in
        assert _read(0.03, 10_000, 0.2, seed=3) == pytest.approx(20.0, abs=0.1)

    def test_clamped_at_zero(self):
        # true vwc 0: any negative draw average clamps to 0
        readings = {_read(0.03, 1, 0.0, draw_index=i) for i in range(50)}
        assert min(readings) == 0.0
        assert all(r >= 0.0 for r in readings)

    def test_reproducible_under_seed(self):
        a = [_read(0.03, 10, 0.25, draw_index=i, seed=11) for i in range(5)]
        b = [_read(0.03, 10, 0.25, draw_index=i, seed=11) for i in range(5)]
        assert a == b

    def test_sessions_are_independent(self):
        assert _read(0.03, 10, 0.25, 0, seed=11) != _read(0.03, 10, 0.25, 1, seed=11)

    @pytest.mark.numpy_bits
    def test_sessions_at_once_equal_one_at_a_time(self):
        # reference: one session per call, averaged by np.mean of its spots
        vwc = np.linspace(0.0, 0.45, 40)

        def rngs():
            return (np.random.default_rng(np.random.SeedSequence((7, i))) for i in range(40))

        one_at_a_time = [
            min(100.0, max(0.0, 100.0 * float(np.mean(v + rng.uniform(-0.03, 0.03, size=10)))))
            for v, rng in zip(vwc.tolist(), rngs())
        ]
        draws = np.array([rng.random(10) for rng in rngs()])
        assert read_vwc(vwc, 0.03, draws).tolist() == one_at_a_time

    @pytest.mark.parametrize("sessions, rows", [(3, 1), (1, 2)])
    @pytest.mark.parametrize("error_bound", [0.03, 0.0])
    def test_refuses_draws_unpaired_with_sessions(self, sessions, rows, error_bound):
        # Neither shares one row's draws among sessions nor reads a session
        # per surplus row, noiseless probe or not.
        draws = np.zeros((rows, 10))
        with pytest.raises(ValueError, match=f"{sessions} reading sessions, {rows} rows"):
            read_vwc([0.1] * sessions, error_bound, draws)

    @given(vwc=st.floats(0.0, 1.0), idx=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_single_spot_error_is_bounded(self, vwc, idx):
        reading = _read(0.03, 1, vwc, draw_index=idx, seed=5)
        assert 0.0 <= reading <= 100.0
        assert abs(reading - 100.0 * vwc) <= 3.0 + 1e-9

    @given(vwc=st.floats(0.0, 1.0), spots=st.integers(1, 30), idx=st.integers(0, 100))
    @settings(max_examples=100)
    def test_readings_stay_in_percent_range(self, vwc, spots, idx):
        assert 0.0 <= _read(0.05, spots, vwc, draw_index=idx, seed=2) <= 100.0
