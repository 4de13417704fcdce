"""Forward channel model for a buried LoRa transmitter under moist soil.

The model is one link budget: rssi = tx power + antenna gains - path
loss + receiver noise. ``path_loss`` gives the loss of one soil state
and placement, ``sweep_rssi`` turns losses into RSSI for a sweep of
transmit powers, or a whole (sweeps, powers) grid. The loss is
deliberately simple and monotone:

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

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0

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


@dataclass(frozen=True)
class Dielectric:
    """Complex relative permittivity, split as eps' - j*eps''."""

    real_part: float
    imag_part: float = 0.0

    def __post_init__(self) -> None:
        if self.real_part < 1.0:
            raise ValueError(f"relative permittivity {self.real_part} below vacuum")
        if self.imag_part < 0.0:
            raise ValueError(f"loss factor must be >= 0, got {self.imag_part}")

    def as_complex(self) -> complex:
        return complex(self.real_part, -self.imag_part)


@dataclass(frozen=True)
class SoilState:
    """Volumetric composition of the sensed soil column.

    ``vwc`` is the water volume fraction, bounded by ``porosity`` (water
    only fills pore space). ``SoilState(1.0, 1.0)`` is all water,
    ``SoilState(0.0, 1.0)`` all air.
    """

    vwc: float
    porosity: float
    solid_permittivity: float = SOLID_PERMITTIVITY_DEFAULT
    water_permittivity: Dielectric = Dielectric(
        WATER_PERMITTIVITY_DEFAULT, WATER_LOSS_FACTOR_DEFAULT
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.vwc <= self.porosity <= 1.0:
            raise ValueError(
                f"need 0 <= vwc <= porosity <= 1, got vwc={self.vwc} "
                f"porosity={self.porosity}"
            )
        if not 3.0 <= self.solid_permittivity <= 7.0:
            raise ValueError(
                f"solid permittivity {self.solid_permittivity} outside the usual 3..7 range"
            )


@dataclass(frozen=True)
class LinkGeometry:
    """One measurement scenario: buried depth, receiver height, carrier."""

    burial_depth_cm: float
    receiver_height_cm: float
    carrier_frequency_hz: float = 915e6
    tx_antenna_gain_db: float = 0.0
    rx_antenna_gain_db: float = 0.0

    def __post_init__(self) -> None:
        if self.burial_depth_cm < 0.0:
            raise ValueError("burial depth must be >= 0 cm")
        if self.receiver_height_cm < 0.0:
            raise ValueError("receiver height must be >= 0 cm")
        if self.carrier_frequency_hz <= 0.0:
            raise ValueError("carrier frequency must be positive")


def mix_permittivity(soil: SoilState) -> Dielectric:
    """Effective complex permittivity of the soil mix.

    Three-phase refractive mixing: the complex refractive index of the
    mix is the volume-weighted sum of the constituent indices,

        sqrt(eps_eff) = (1-porosity)*sqrt(eps_solid)
                        + (porosity-vwc)*sqrt(eps_air) + vwc*sqrt(eps_water)

    The real part grows strictly with vwc at fixed porosity, which is the
    physical premise the whole sensing pipeline rests on.
    """
    theta = soil.vwc
    phi = soil.porosity
    index = (
        (1.0 - phi) * cmath.sqrt(complex(soil.solid_permittivity, 0.0))
        + (phi - theta) * math.sqrt(AIR_PERMITTIVITY)
        + theta * cmath.sqrt(soil.water_permittivity.as_complex())
    )
    eff = index * index
    # (a - jb)^2 has imaginary part -2ab <= 0; clip rounding fuzz only.
    return Dielectric(eff.real, max(0.0, -eff.imag))


def refractive_index(eps: Dielectric) -> complex:
    """Principal root n - j*kappa of the complex permittivity."""
    return cmath.sqrt(eps.as_complex())


def attenuation_constant(eps: Dielectric, frequency_hz: float) -> float:
    """Plane-wave power attenuation in the medium, dB per meter.

    alpha_Np = omega * sqrt(mu0*eps0 * eps'/2 * (sqrt(1 + (eps''/eps')^2) - 1)),
    converted with 1 Np = 8.686 dB. Zero for a lossless medium.
    """
    if frequency_hz <= 0.0:
        raise ValueError("frequency must be positive")
    ratio = eps.imag_part / eps.real_part
    # sqrt(1+r^2)-1 rewritten as r^2/(sqrt(1+r^2)+1): cancellation-free
    # for small loss tangents
    bracket = ratio * ratio / (math.sqrt(1.0 + ratio * ratio) + 1.0)
    omega = 2.0 * math.pi * frequency_hz
    alpha_np = (omega / SPEED_OF_LIGHT_M_S) * math.sqrt((eps.real_part / 2.0) * bracket)
    return alpha_np * NEPER_TO_DB


def free_space_loss_db(wavelengths: float) -> float:
    """Spreading loss over a path measured in wavelengths.

    Classic 20*log10(4*pi*d/lambda) with d/lambda pre-summed per segment.
    Distances inside the near-field knee (4*pi*d < lambda) clamp to 0 dB
    so short links never produce negative loss.
    """
    return max(0.0, 20.0 * math.log10(4.0 * math.pi * wavelengths))


def interface_loss_db(eps: Dielectric) -> float:
    """Normal-incidence transmission loss through one soil/air boundary.

    T = 1 - |(sqrt(eps) - 1) / (sqrt(eps) + 1)|^2, returned as -10*log10(T).
    """
    m = refractive_index(eps)
    reflected = abs((m - 1.0) / (m + 1.0)) ** 2
    return -10.0 * math.log10(1.0 - reflected)


def path_loss(soil: SoilState, geom: LinkGeometry) -> float:
    """Total link loss in dB for one buried-to-air geometry.

    Sum of segment-wise free-space spreading (the soil segment counted in
    its shortened wavelength), slab absorption over the burial depth, and
    one Fresnel interface crossing (applied when there is a buried
    segment). Monotone non-decreasing in vwc at fixed geometry; strictly
    increasing when the burial depth is positive and the water phase is
    lossy.
    """
    depth_m = geom.burial_depth_cm / 100.0
    height_m = geom.receiver_height_cm / 100.0
    if depth_m == 0.0 and height_m == 0.0:
        raise ValueError("zero-length link: burial depth and receiver height both 0")

    eps = mix_permittivity(soil)
    lam0 = SPEED_OF_LIGHT_M_S / geom.carrier_frequency_hz
    n_soil = refractive_index(eps).real

    wavelengths = (depth_m * n_soil + height_m) / lam0
    loss = free_space_loss_db(wavelengths)
    if depth_m > 0.0:
        loss += attenuation_constant(eps, geom.carrier_frequency_hz) * depth_m
        loss += interface_loss_db(eps)
    return loss


def sweep_rssi(
    tx_powers: Sequence[float] | np.ndarray,
    loss_db: float | np.ndarray,
    geom: LinkGeometry,
    quantize: bool,
    noise_db: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Received-signal-strength samples, dBm, one per transmit power, in order.

    rssi = tx + antenna gains - loss_db + noise_db, rounded to integer dBm
    when ``quantize`` is set. ``loss_db`` is the link's ``path_loss``, which
    does not depend on the power, and ``noise_db`` the receiver noise drawn
    by the caller. Both broadcast against ``tx_powers``, so one call covers
    a (sweeps, levels) grid given a column of per-sweep losses.

    With no noise and quantization off, rssi(p) - rssi(q) == p - q holds
    exactly.
    """
    sent = np.asarray(tx_powers, dtype=float) + geom.tx_antenna_gain_db + geom.rx_antenna_gain_db
    rssi = sent - loss_db + noise_db
    if quantize:
        rssi = np.floor(rssi + 0.5)
    return rssi
