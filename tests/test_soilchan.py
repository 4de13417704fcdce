import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smol.campaign import CampaignConfig, Scenario
from smol.soilchan import (
    NEPER_TO_DB,
    SPEED_OF_LIGHT_M_S,
    Dielectric,
    LinkGeometry,
    SoilState,
    attenuation_constant,
    mix_permittivity,
    path_loss,
    sweep_rssi,
)

GEOM_BURIED = LinkGeometry(burial_depth_cm=15.0, receiver_height_cm=195.0)
AIR = SoilState(0.0, 1.0)
WATER = SoilState(1.0, 1.0)


def _rssi(powers, soil, geom, quantize=False, noise_db=0.0, gains=(0.0, 0.0)):
    """Noise-free (or given-noise) RSSI of one sweep: path loss, then sweep_rssi
    with the (tx, rx) antenna ``gains``."""
    return sweep_rssi(powers, path_loss(soil, geom), *gains, quantize, noise_db)


def _clamped_soil(vwc_frac, porosity, solid):
    # hypothesis helper: scale vwc into [0, porosity]
    return SoilState(vwc=vwc_frac * porosity, porosity=porosity, solid_permittivity=solid)


clamped_soils = st.builds(
    _clamped_soil,
    vwc_frac=st.floats(0.0, 1.0),
    porosity=st.floats(0.0, 1.0),
    solid=st.floats(3.0, 7.0),
)


class TestDielectric:
    def test_rejects_sub_vacuum(self):
        with pytest.raises(ValueError):
            Dielectric(0.5, 0.0)

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            Dielectric(4.0, -0.1)


class TestMixPermittivity:
    def test_all_water_degenerate(self):
        state = SoilState(1.0, 1.0, water_permittivity=Dielectric(80.0, 0.0))
        eps = mix_permittivity(state)
        assert eps.real_part == pytest.approx(80.0, rel=1e-12)
        assert eps.imag_part == pytest.approx(0.0, abs=1e-12)

    def test_all_air_degenerate(self):
        eps = mix_permittivity(SoilState(0.0, 1.0))
        assert eps.real_part == pytest.approx(1.0, rel=1e-12)
        assert eps.imag_part == 0.0

    def test_all_water_at_vacuum_permittivity(self):
        # The index squares back to 0.9999999999999997: rounding, which the
        # mix clips to vacuum's 1 rather than refuse.
        soil = SoilState(1.0, 1.0, 3.0, Dielectric(1.0, 1.0625))
        assert mix_permittivity(soil).real_part == 1.0
        _assert_bit_parity(soil, LinkGeometry(np.array([0.0, 15.0]), 1.0, 1e8))

    def test_dry_half_porosity_hand_value(self):
        # (0.5*sqrt(5) + 0.5)^2, worked out by hand
        eps = mix_permittivity(SoilState(0.0, 0.5, solid_permittivity=5.0))
        assert eps.real_part == pytest.approx(2.618033988749895, rel=1e-12)

    def test_rejects_vwc_above_porosity(self):
        with pytest.raises(ValueError):
            SoilState(0.5, 0.4)

    @given(
        porosity=st.floats(0.05, 1.0),
        v1=st.floats(0.0, 1.0),
        v2=st.floats(0.0, 1.0),
        solid=st.floats(3.0, 7.0),
    )
    @settings(max_examples=100)
    def test_real_part_increases_with_vwc(self, porosity, v1, v2, solid):
        lo, hi = sorted((v1 * porosity, v2 * porosity))
        e_lo = mix_permittivity(SoilState(lo, porosity, solid))
        e_hi = mix_permittivity(SoilState(hi, porosity, solid))
        if hi - lo > 1e-9:
            assert e_hi.real_part > e_lo.real_part
        else:
            assert e_hi.real_part >= e_lo.real_part

    @given(soil=clamped_soils)
    @settings(max_examples=100)
    def test_real_part_within_constituent_bounds(self, soil):
        eps = mix_permittivity(soil)
        parts = [1.0, soil.solid_permittivity, soil.water_permittivity.real_part]
        slack = 1e-9 * max(parts)
        assert min(parts) - slack <= eps.real_part <= max(parts) + slack
        assert eps.imag_part >= 0.0


class TestAttenuationConstant:
    def test_lossless_medium_is_zero(self):
        assert attenuation_constant(Dielectric(12.0, 0.0), 915e6) == 0.0
        assert attenuation_constant(Dielectric(1.0, 0.0), 2.4e9) == 0.0

    def test_hand_value_915mhz(self):
        # closed form evaluated separately: 32.2158... dB/m
        alpha = attenuation_constant(Dielectric(15.0, 1.5), 915e6)
        assert alpha == pytest.approx(32.21583236402868, rel=1e-12)
        assert alpha == pytest.approx(32.0, rel=0.01)

    def test_alpha_scales_linearly_with_frequency(self):
        eps = Dielectric(9.0, 2.0)
        assert attenuation_constant(eps, 1.83e9) == pytest.approx(
            2.0 * attenuation_constant(eps, 915e6), rel=1e-12
        )

    @given(
        eps_r=st.floats(1.0, 90.0),
        loss_tan=st.floats(0.0, 3.0),
        freq=st.floats(1e8, 6e9),
    )
    @settings(max_examples=100)
    def test_matches_complex_propagation_route(self, eps_r, loss_tan, freq):
        # independent route: alpha is the real part of j*omega/c*sqrt(eps)
        eps = Dielectric(eps_r, eps_r * loss_tan)
        gamma = 1j * (2 * math.pi * freq / SPEED_OF_LIGHT_M_S) * cmath.sqrt(
            complex(eps.real_part, -eps.imag_part)
        )
        expected = gamma.real * NEPER_TO_DB
        assert attenuation_constant(eps, freq) == pytest.approx(expected, rel=1e-9)


class TestPathLoss:
    def test_air_only_is_free_space(self):
        geom = LinkGeometry(burial_depth_cm=0.0, receiver_height_cm=100.0)
        lam = SPEED_OF_LIGHT_M_S / 915e6
        expected = 20 * math.log10(4 * math.pi * 1.0 / lam)
        assert path_loss(AIR, geom) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(31.676, abs=0.001)

    def test_rejects_zero_length_link(self):
        with pytest.raises(ValueError):
            path_loss(AIR, LinkGeometry(0.0, 0.0))

    def test_wetter_is_lossier(self):
        dry = path_loss(SoilState(0.05, 0.45), GEOM_BURIED)
        wet = path_loss(SoilState(0.35, 0.45), GEOM_BURIED)
        assert wet > dry

    def test_water_baseline_beats_any_soil(self):
        water = path_loss(WATER, GEOM_BURIED)
        for vwc in (0.05, 0.2, 0.44):
            assert water > path_loss(SoilState(vwc, 0.45), GEOM_BURIED)

    @given(
        porosity=st.floats(0.05, 1.0),
        v1=st.floats(0.0, 1.0),
        v2=st.floats(0.0, 1.0),
        depth=st.floats(1.0, 100.0),
        height=st.floats(0.0, 400.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_vwc(self, porosity, v1, v2, depth, height):
        geom = LinkGeometry(depth, height)
        lo, hi = sorted((v1 * porosity, v2 * porosity))
        loss_lo = path_loss(SoilState(lo, porosity), geom)
        loss_hi = path_loss(SoilState(hi, porosity), geom)
        assert loss_hi >= loss_lo

    @given(
        vwc_frac=st.floats(0.01, 1.0),
        porosity=st.floats(0.1, 0.99),
        depth=st.floats(1.0, 100.0),
        height=st.floats(0.0, 400.0),
    )
    @settings(max_examples=100)
    def test_baseline_ordering(self, vwc_frac, porosity, depth, height):
        geom = LinkGeometry(depth, height)
        soil = path_loss(SoilState(vwc_frac * porosity, porosity), geom)
        air = path_loss(AIR, geom)
        water = path_loss(WATER, geom)
        assert air < soil < water


def _reference_path_loss(soil: SoilState, geom: LinkGeometry) -> float:
    """The scalar path loss that the broadcast one replaced, in ``math`` and
    ``cmath``: every simulated log was made this way, so the broadcast one
    must give its bits."""
    theta, phi = soil.vwc, soil.porosity
    water = soil.water_permittivity
    index = (
        (1.0 - phi) * cmath.sqrt(complex(soil.solid_permittivity, 0.0))
        + (phi - theta) * math.sqrt(1.0)
        + theta * cmath.sqrt(complex(water.real_part, -water.imag_part))
    )
    eff = index * index
    eps_re, eps_im = max(1.0, eff.real), max(0.0, -eff.imag)

    depth_m = geom.burial_depth_cm / 100.0
    height_m = geom.receiver_height_cm / 100.0
    if depth_m == 0.0 and height_m == 0.0:
        raise ValueError("zero-length link")
    lam0 = SPEED_OF_LIGHT_M_S / geom.carrier_frequency_hz
    m = cmath.sqrt(complex(eps_re, -eps_im))
    wavelengths = (depth_m * m.real + height_m) / lam0
    loss = max(0.0, 20.0 * math.log10(4.0 * math.pi * wavelengths))
    if depth_m > 0.0:
        ratio = eps_im / eps_re
        bracket = ratio * ratio / (math.sqrt(1.0 + ratio * ratio) + 1.0)
        omega = 2.0 * math.pi * geom.carrier_frequency_hz
        alpha_np = (omega / SPEED_OF_LIGHT_M_S) * math.sqrt((eps_re / 2.0) * bracket)
        loss += alpha_np * NEPER_TO_DB * depth_m
        reflected = abs((m - 1.0) / (m + 1.0)) ** 2
        loss += -10.0 * math.log10(1.0 - reflected)
    return loss


def _assert_bit_parity(soil: SoilState, geom: LinkGeometry) -> None:
    """The broadcast path loss of ``soil`` and ``geom`` has the bits of one
    reference call per element."""
    got = path_loss(soil, geom)
    vwc, depth, height = np.broadcast_arrays(
        soil.vwc, geom.burial_depth_cm, geom.receiver_height_cm
    )
    want = [
        _reference_path_loss(
            replace(soil, vwc=v), replace(geom, burial_depth_cm=d, receiver_height_cm=h)
        )
        for v, d, h in zip(vwc.ravel().tolist(), depth.ravel().tolist(), height.ravel().tolist())
    ]
    assert got.shape == vwc.shape
    assert np.array_equal(got.ravel().view(np.int64), np.array(want).view(np.int64))


@pytest.mark.numpy_bits
class TestBroadcastPathLoss:
    """One path_loss call over arrays gives the bits of the scalar formulas."""

    @pytest.mark.parametrize(
        "config",
        [
            CampaignConfig(),
            CampaignConfig(
                scenarios=tuple(
                    Scenario(f"d{depth}_h{height}", depth, height)
                    for depth in (5.0, 12.0, 19.0, 26.0, 33.0, 40.0)
                    for height in (0.0, 80.0, 160.0, 240.0, 320.0, 400.0)
                ),
                vwc_grid=tuple(0.025 * k for k in range(1, 17)),
            ),
        ],
        ids=["stock", "large"],
    )
    def test_campaign_grids(self, config):
        # A column of moisture levels against a row of placements.
        depths, heights = np.array(
            [(s.burial_depth_cm, s.receiver_height_cm) for s in config.scenarios]
        ).T
        geom = LinkGeometry(depths, heights, config.frequency_hz)
        _assert_bit_parity(config.soil_state(np.array(config.vwc_grid)[:, None]), geom)

    def test_edges(self):
        # vwc 0 and at porosity; all-pore soil; no buried segment; receiver
        # on the surface.
        for porosity in (0.45, 1.0):
            soil = SoilState(np.array([0.0, 0.2 * porosity, porosity])[:, None], porosity)
            geom = LinkGeometry(np.array([0.0, 15.0, 15.0]), np.array([100.0, 0.0, 195.0]))
            _assert_bit_parity(soil, geom)

    def test_reflection_squared_as_cpython_squares(self):
        # At these moisture levels the reflected fraction |r| ** 2 (the C
        # library's pow) and |r| * |r| round apart, about one case in 45,000.
        soil = SoilState(np.array([0.03606, 0.069364, 0.10232, 0.174813]), 0.45)
        _assert_bit_parity(soil, GEOM_BURIED)

    @given(
        porosity=st.floats(0.0, 1.0),
        solid=st.floats(3.0, 7.0),
        water_real=st.floats(1.0, 90.0),
        water_loss=st.floats(0.0, 400.0),
        frequency=st.floats(1e8, 6e9),
        cells=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 100.0), st.floats(0.0, 400.0)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200)
    def test_matches_scalar_formulas(
        self, porosity, solid, water_real, water_loss, frequency, cells
    ):
        vwc_frac, depth, height = map(np.array, zip(*cells))
        linked = (depth / 100.0 > 0.0) | (height / 100.0 > 0.0)
        assume(linked.all())
        soil = SoilState(vwc_frac * porosity, porosity, solid, Dielectric(water_real, water_loss))
        _assert_bit_parity(soil, LinkGeometry(depth, height, frequency))

    def test_scalars_give_a_scalar(self):
        loss = path_loss(SoilState(0.2, 0.45), GEOM_BURIED)
        assert isinstance(loss, float) and np.ndim(loss) == 0
        assert loss == _reference_path_loss(SoilState(0.2, 0.45), GEOM_BURIED)

    def test_refusals_name_the_bad_element(self):
        with pytest.raises(ValueError, match="vwc=0.5 porosity=0.4"):
            SoilState(np.array([0.1, 0.5, 0.6]), 0.4)
        with pytest.raises(ValueError, match="burial depth must be >= 0 cm, got -1.0"):
            LinkGeometry(np.array([5.0, -1.0]), 100.0)
        with pytest.raises(ValueError, match="receiver height must be >= 0 cm, got -5.0"):
            LinkGeometry(15.0, np.array([0.0, -5.0]))
        with pytest.raises(ValueError, match="relative permittivity 0.5 below vacuum"):
            Dielectric(np.array([2.0, 0.5]))
        with pytest.raises(ValueError, match="zero-length link"):
            path_loss(AIR, LinkGeometry(np.array([15.0, 0.0]), 0.0))


class TestSynthRssi:
    """One transmit power through path_loss and sweep_rssi."""

    def test_identity_chain_through_zero_loss(self):
        # 2 cm of air sits inside the near-field clamp, so the chain is
        # rssi = tx exactly
        geom = LinkGeometry(burial_depth_cm=0.0, receiver_height_cm=2.0)
        rssi = _rssi([5], AIR, geom)
        assert rssi.tolist() == [5.0]

    def test_power_offsets_survive_exactly(self):
        soil = SoilState(0.2, 0.45)
        a, b = _rssi([13, 17], soil, GEOM_BURIED)
        assert b - a == pytest.approx(4.0, abs=1e-9)

    def test_quantize_rounds_to_integer_dbm(self):
        noise = np.random.default_rng(7).normal(0.0, 2.0, 1)
        [rssi] = _rssi([13], SoilState(0.2, 0.45), GEOM_BURIED, True, noise)
        assert rssi == int(rssi)

    def test_antenna_gains_add(self):
        [base] = _rssi([13], SoilState(0.2, 0.45), GEOM_BURIED)
        [gained] = _rssi([13], SoilState(0.2, 0.45), GEOM_BURIED, gains=(2.0, 3.0))
        assert gained - base == pytest.approx(5.0, abs=1e-9)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="rssi_sigma_db"):
            CampaignConfig(rssi_sigma_db=-1.0)


class TestSweepCurve:
    """A whole power plan through path_loss and sweep_rssi."""

    def test_default_plan_gives_18_distinct_pairs(self):
        powers = list(range(5, 23))
        curve = list(zip(powers, _rssi(powers, SoilState(0.2, 0.45), GEOM_BURIED).tolist()))
        assert len(curve) == 18
        assert [p for p, _ in curve] == powers
        assert len({p for p, _ in curve}) == 18

    def test_single_power_air_composition(self):
        geom = LinkGeometry(0.0, 100.0)
        [(p, rssi)] = zip([13], _rssi([13], AIR, geom, gains=(1.0, 2.0)).tolist())
        expected = 13 + 3.0 - path_loss(AIR, geom)
        assert p == 13
        assert rssi == pytest.approx(expected, abs=1e-12)

    def test_noise_free_curve_increases_with_power(self):
        rssis = _rssi(list(range(5, 23)), SoilState(0.2, 0.45), GEOM_BURIED).tolist()
        assert all(b > a for a, b in zip(rssis, rssis[1:]))


class TestSweepRssi:
    @given(seed=st.integers(0, 2**32 - 1), quantize=st.booleans())
    @settings(max_examples=50)
    def test_one_sweep_draw_equals_one_draw_per_packet(self, seed, quantize):
        soil = SoilState(0.2, 0.45)
        gains = (1.5, -0.5)
        powers = [23, 5, 9, 13, 22]
        noise = np.random.default_rng(seed).normal(0.0, 2.0, len(powers))
        swept = _rssi(powers, soil, GEOM_BURIED, quantize, noise, gains)
        rng = np.random.default_rng(seed)
        one_by_one = [
            _rssi([p], soil, GEOM_BURIED, quantize, rng.normal(0.0, 2.0, 1), gains).item()
            for p in powers
        ]
        assert swept.tolist() == one_by_one

    def test_grid_equals_one_sweep_at_a_time(self):
        powers, losses = [23, 5, 9, 13, 22], [71.3, 80.05, 12.7]
        draws = [np.random.default_rng(i).normal(0.0, 2.0, len(powers)) for i in range(3)]
        grid = sweep_rssi(powers, np.array(losses)[:, None], 1.5, -0.5, True, np.array(draws))
        rows = [sweep_rssi(powers, loss, 1.5, -0.5, True, d) for loss, d in zip(losses, draws)]
        assert grid.tolist() == [row.tolist() for row in rows]

    def test_quantized_samples_are_whole_dbm(self):
        noise = np.random.default_rng(3).normal(0.0, 2.0, 18)
        rssi = sweep_rssi(list(range(5, 23)), 71.3, 0.0, 0.0, True, noise)
        assert np.array_equal(rssi, np.round(rssi))

    def test_noise_free_offsets_are_exact(self):
        rssi = sweep_rssi([5, 6, 22], 71.3, 0.0, 0.0, False)
        assert rssi.tolist() == [5 - 71.3, 6 - 71.3, 22 - 71.3]


class TestGeometryValidation:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            LinkGeometry(-1.0, 100.0)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            LinkGeometry(15.0, -5.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            LinkGeometry(15.0, 100.0, carrier_frequency_hz=0.0)

    def test_solid_permittivity_range_is_enforced(self):
        with pytest.raises(ValueError):
            SoilState(0.1, 0.45, solid_permittivity=9.0)
        SoilState(0.1, 0.45, solid_permittivity=7.0)
