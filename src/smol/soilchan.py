"""Forward channel model for a buried LoRa transmitter under moist soil.

The model is one link budget: rssi = tx power + antenna gains - path
loss + receiver noise. ``path_loss`` gives the loss of a soil state and
a placement (depth, height, carrier), or of arrays of moisture levels
and placements in one call; ``sweep_rssi`` adds the antenna gains to
turn losses into RSSI for a sweep of transmit powers, or a whole
(sweeps, powers) grid. The loss is deliberately simple and monotone:

- effective soil permittivity from a three-phase refractive (CRIM) mix of
  solids, air and water,
- plane-wave absorption in the lossy soil slab,
- free-space spreading over the buried + above-ground path, with each
  segment measured in its own wavelength,
- a single soil/air Fresnel interface at normal incidence.

The caller draws the Gaussian receiver noise; ``sweep_rssi`` adds it and
optionally rounds to integer dBm.

Lengths at the API are centimeters (converted to meters internally),
frequencies Hz, powers/gains dB(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
CARRIER_FREQUENCY_DEFAULT = 915e6  # the stock LoRa carrier, Hz

# 1 Np = 20/ln(10) dB
NEPER_TO_DB = 20.0 / math.log(10.0)

# Nominal relative permittivities of the three soil phases.
AIR_PERMITTIVITY = 1.0
SOLID_PERMITTIVITY_DEFAULT = 5.0
WATER_PERMITTIVITY_DEFAULT = 80.0

# Effective loss factor of the water phase at 915 MHz. This single knob
# folds dipolar loss plus pore-water conductivity into the water phase and
# is what makes absorption grow with moisture. The default is calibrated
# at desk scale so an 0.05..0.40 vwc sweep moves RSSI by tens of dB, well
# clear of 2 dB receiver noise; in the saturated limit it reaches
# sea-water-order absorption (~1.4 dB/mm at 915 MHz).
WATER_LOSS_FACTOR_DEFAULT = 200.0


def _refuse(bad, message: str, *values) -> None:
    """Raise ValueError(message) filled in with the ``values`` at the first
    element where ``bad`` holds; ``bad`` and ``values`` broadcast together."""
    bad, *values = np.broadcast_arrays(bad, *values)
    if bad.any():
        at = np.argmax(bad.ravel())
        raise ValueError(message.format(*(v.ravel()[at].item() for v in values)))


@dataclass(frozen=True)
class Dielectric:
    """Complex relative permittivity, split as eps' - j*eps''."""

    real_part: float | np.ndarray
    imag_part: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        real, imag = self.real_part, self.imag_part
        _refuse(real < 1.0, "relative permittivity {} below vacuum", real)
        _refuse(imag < 0.0, "loss factor must be >= 0, got {}", imag)


@dataclass(frozen=True)
class SoilState:
    """Volumetric composition of the sensed soil column.

    ``vwc`` is the water volume fraction, bounded by ``porosity`` (water
    only fills pore space). ``SoilState(1.0, 1.0)`` is all water,
    ``SoilState(0.0, 1.0)`` all air. ``vwc`` may be an array: one state
    per element.
    """

    vwc: float | np.ndarray
    porosity: float
    solid_permittivity: float = SOLID_PERMITTIVITY_DEFAULT
    water_permittivity: Dielectric = Dielectric(
        WATER_PERMITTIVITY_DEFAULT, WATER_LOSS_FACTOR_DEFAULT
    )

    def __post_init__(self) -> None:
        vwc, porosity, solid = map(np.asarray, (self.vwc, self.porosity, self.solid_permittivity))
        bad_mix = ~((0.0 <= vwc) & (vwc <= porosity) & (porosity <= 1.0))
        _refuse(bad_mix, "need 0 <= vwc <= porosity <= 1, got vwc={} porosity={}", vwc, porosity)
        bad_solid = ~((3.0 <= solid) & (solid <= 7.0))
        _refuse(bad_solid, "solid permittivity {} outside the usual 3..7 range", solid)


@dataclass(frozen=True)
class LinkGeometry:
    """Buried depth, receiver height and carrier: all ``path_loss`` reads.

    The depth and the height may be arrays: one placement per element."""

    burial_depth_cm: float | np.ndarray
    receiver_height_cm: float | np.ndarray
    carrier_frequency_hz: float = CARRIER_FREQUENCY_DEFAULT

    def __post_init__(self) -> None:
        depth, height = self.burial_depth_cm, self.receiver_height_cm
        frequency = self.carrier_frequency_hz
        _refuse(depth < 0.0, "burial depth must be >= 0 cm, got {}", depth)
        _refuse(height < 0.0, "receiver height must be >= 0 cm, got {}", height)
        _refuse(frequency <= 0.0, "carrier frequency must be positive, got {}", frequency)


# The functions below take scalars or arrays and broadcast. They compute
# in float64 what CPython's cmath/complex code computes, operation by
# operation, so an array gives the bits that one scalar call per element
# through ``math`` and ``cmath`` would.


def _sqrt(real, imag):
    """``cmath.sqrt(complex(real, imag))`` for ``real >= 1``, as its real and
    imaginary parts: CPython's ``s = 2*sqrt(a/8 + hypot(a/8, b/8))``,
    ``d = b/(2s)``."""
    scaled, b = real / 8.0, np.abs(imag)
    s = 2.0 * np.sqrt(scaled + np.hypot(scaled, b / 8.0))
    return s, np.copysign(b / (2.0 * s), imag)


def _libm(fn, x) -> np.ndarray:
    """``fn`` of every element of ``x``, a Python float at a time, for what
    CPython hands to the C library. NumPy's ``log10`` is a SIMD
    approximation on some hosts, and its ``x ** 2`` is ``x * x``, which the
    library's ``pow(x, 2)`` does not always equal: both can differ in the
    last bit."""
    x = np.asarray(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def mix_permittivity(soil: SoilState) -> Dielectric:
    """Effective complex permittivity of the soil mix.

    Three-phase refractive mixing: the complex refractive index of the
    mix is the volume-weighted sum of the constituent indices,

        sqrt(eps_eff) = (1-porosity)*sqrt(eps_solid)
                        + (porosity-vwc)*sqrt(eps_air) + vwc*sqrt(eps_water)

    The real part grows strictly with vwc at fixed porosity, which is the
    physical premise the whole sensing pipeline rests on.
    """
    theta = np.asarray(soil.vwc, dtype=float)
    phi = soil.porosity
    solid, _ = _sqrt(soil.solid_permittivity, 0.0)
    water = soil.water_permittivity
    water_re, water_im = _sqrt(water.real_part, -water.imag_part)
    # The index's parts, summed left to right as in the formula above.
    index_re = (1.0 - phi) * solid + (phi - theta) * math.sqrt(AIR_PERMITTIVITY) + theta * water_re
    index_im = theta * water_im
    # (a - jb)^2 has imaginary part -2ab <= 0, and a real part >= 1 when
    # every phase's is (all-pore soil whose water is at 1 rounds to
    # 0.9999999999999997); clip rounding fuzz only.
    real = index_re * index_re - index_im * index_im
    loss = -(index_re * index_im + index_im * index_re)
    return Dielectric(np.where(real > 1.0, real, 1.0)[()], np.where(loss > 0.0, loss, 0.0)[()])


def attenuation_constant(eps: Dielectric, frequency_hz: float) -> float | np.ndarray:
    """Plane-wave power attenuation in the medium, dB per meter.

    alpha_Np = omega * sqrt(mu0*eps0 * eps'/2 * (sqrt(1 + (eps''/eps')^2) - 1)),
    converted with 1 Np = 8.686 dB. Zero for a lossless medium.
    """
    if frequency_hz <= 0.0:
        raise ValueError("frequency must be positive")
    ratio = eps.imag_part / eps.real_part
    # sqrt(1+r^2)-1 rewritten as r^2/(sqrt(1+r^2)+1): cancellation-free
    # for small loss tangents
    bracket = ratio * ratio / (np.sqrt(1.0 + ratio * ratio) + 1.0)
    omega = 2.0 * math.pi * frequency_hz
    alpha_np = (omega / SPEED_OF_LIGHT_M_S) * np.sqrt((eps.real_part / 2.0) * bracket)
    return alpha_np * NEPER_TO_DB


def path_loss(soil: SoilState, geom: LinkGeometry) -> float | np.ndarray:
    """Total link loss in dB for a buried-to-air geometry.

    Sum of segment-wise free-space spreading (the soil segment counted in
    its shortened wavelength), slab absorption over the burial depth, and
    one Fresnel interface crossing (applied when there is a buried
    segment). Monotone non-decreasing in vwc at fixed geometry; strictly
    increasing when the burial depth is positive and the water phase is
    lossy.

    The soil's vwc and the geometry's depth and height broadcast together:
    one loss per element, a float for scalars.
    """
    depth_m = np.asarray(geom.burial_depth_cm, dtype=float) / 100.0
    height_m = np.asarray(geom.receiver_height_cm, dtype=float) / 100.0
    _refuse(
        (depth_m == 0.0) & (height_m == 0.0),
        "zero-length link: burial depth and receiver height both 0",
    )
    eps = mix_permittivity(soil)
    lam0 = SPEED_OF_LIGHT_M_S / geom.carrier_frequency_hz
    n_re, n_im = _sqrt(eps.real_part, -eps.imag_part)

    # Spreading, 20*log10(4*pi*d/lambda) with d/lambda summed per segment.
    # Distances inside the near-field knee (4*pi*d < lambda) clamp to 0 dB
    # so short links never produce negative loss.
    spreading = 20.0 * _libm(math.log10, 4.0 * math.pi * ((depth_m * n_re + height_m) / lam0))
    loss = np.where(spreading > 0.0, spreading, 0.0)

    # Normal-incidence interface: T = 1 - |(n - 1) / (n + 1)|^2, as
    # -10*log10(T). The quotient is CPython's (Smith's) for a divisor with
    # |real| >= |imag|, which n + 1 is: n's real part is at least its
    # imaginary part's magnitude.
    ratio = n_im / (n_re + 1.0)
    denom = (n_re + 1.0) + n_im * ratio
    quotient = np.hypot(
        ((n_re - 1.0) + n_im * ratio) / denom, (n_im - (n_re - 1.0) * ratio) / denom
    )
    reflected = _libm(lambda magnitude: magnitude**2, quotient)
    interface = -10.0 * _libm(math.log10, 1.0 - reflected)

    absorption = attenuation_constant(eps, geom.carrier_frequency_hz) * depth_m
    return np.where(depth_m > 0.0, loss + absorption + interface, loss)[()]


def sweep_rssi(
    tx_powers: Sequence[float] | np.ndarray,
    loss_db: float | np.ndarray,
    tx_gain_db: float,
    rx_gain_db: float,
    quantize: bool,
    noise_db: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Received-signal-strength samples, dBm, one per transmit power, in order.

    rssi = (tx + tx_gain_db) + rx_gain_db - loss_db + noise_db, rounded to
    integer dBm when ``quantize`` is set. ``loss_db`` is the link's path
    loss, independent of the power, and ``noise_db`` the receiver noise
    drawn by the caller. Both broadcast against ``tx_powers``, so one call
    covers a (sweeps, levels) grid given a column of per-sweep losses.

    With no noise and quantization off, rssi(p) - rssi(q) == p - q holds
    exactly.
    """
    sent = np.asarray(tx_powers, dtype=float) + tx_gain_db + rx_gain_db
    rssi = sent - loss_db + noise_db
    if quantize:
        rssi = np.floor(rssi + 0.5)
    return rssi
