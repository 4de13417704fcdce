"""Forward channel model for a buried LoRa transmitter under moist soil.

Predicts the RSSI a receiver above the soil surface would record for a
given transmit power. The model is deliberately simple and monotone:

- effective soil permittivity from a three-phase refractive (CRIM) mix of
  solids, air and water,
- plane-wave absorption in the lossy soil slab,
- free-space spreading over the buried + above-ground path, with each
  segment measured in its own wavelength,
- a single soil/air Fresnel interface at normal incidence,
- additive Gaussian receiver noise and optional integer-dBm quantization,
  drawn for a whole sweep of transmit powers at once.

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

# Transmit power limits of the target transceiver class, dBm.
TX_POWER_MIN_DBM = 5
TX_POWER_MAX_DBM = 23


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
    only fills pore space). ``vwc == porosity == 1`` is the all-water
    baseline, ``vwc == 0, porosity == 1`` the all-air baseline.
    """

    vwc: float
    porosity: float
    solid_permittivity: float = SOLID_PERMITTIVITY_DEFAULT
    water_permittivity: Dielectric = Dielectric(
        WATER_PERMITTIVITY_DEFAULT, WATER_LOSS_FACTOR_DEFAULT
    )
    allow_exotic_solid: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.vwc <= self.porosity <= 1.0:
            raise ValueError(
                f"need 0 <= vwc <= porosity <= 1, got vwc={self.vwc} "
                f"porosity={self.porosity}"
            )
        if not self.allow_exotic_solid and not 3.0 <= self.solid_permittivity <= 7.0:
            raise ValueError(
                f"solid permittivity {self.solid_permittivity} outside the "
                "usual 3..7 range (set allow_exotic_solid to override)"
            )
        if self.allow_exotic_solid and self.solid_permittivity < 1.0:
            raise ValueError("solid permittivity below vacuum")

    @classmethod
    def air_baseline(cls) -> "SoilState":
        return cls(vwc=0.0, porosity=1.0)

    @classmethod
    def water_baseline(cls, water: Dielectric | None = None) -> "SoilState":
        if water is None:
            return cls(vwc=1.0, porosity=1.0)
        return cls(vwc=1.0, porosity=1.0, water_permittivity=water)


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


@dataclass(frozen=True)
class NoiseModel:
    """Receiver-side RSSI noise: Gaussian in dB, optional integer rounding.

    The same seed with the same inputs always reproduces the same draws.
    """

    rssi_sigma_db: float = 0.0
    quantize: bool = False
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if self.rssi_sigma_db < 0.0:
            raise ValueError("rssi sigma must be >= 0 dB")

    def draw(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray | float:
        """``size`` noise samples in dB, one draw from ``rng`` (default: a
        fresh generator seeded with ``seed``); 0.0, and no draw, when sigma is 0."""
        if self.rssi_sigma_db == 0.0:
            return 0.0
        rng = np.random.default_rng(self.seed) if rng is None else rng
        return rng.normal(0.0, self.rssi_sigma_db, size=size)


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
    noise: NoiseModel,
    noise_db: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Received-signal-strength samples, dBm, one per transmit power, in order.

    rssi = tx + antenna gains - loss_db + noise_db, rounded to integer dBm
    when the noise model quantizes. ``loss_db`` is the link's ``path_loss``,
    which does not depend on the power, and ``noise_db`` the receiver noise
    (``NoiseModel.draw``). Both broadcast against ``tx_powers``, so one call
    covers a (sweeps, levels) grid given a column of per-sweep losses.

    With no noise drawn and quantization off, rssi(p) - rssi(q) == p - q
    holds exactly.
    """
    sent = np.asarray(tx_powers, dtype=float) + geom.tx_antenna_gain_db + geom.rx_antenna_gain_db
    rssi = sent - loss_db + noise_db
    if noise.quantize:
        rssi = np.floor(rssi + 0.5)
    return rssi


def synth_rssi(
    tx_power_dbm: float,
    soil: SoilState,
    geom: LinkGeometry,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> float:
    """One received-signal-strength sample, dBm: ``sweep_rssi`` of one power."""
    loss = path_loss(soil, geom)
    return sweep_rssi([tx_power_dbm], loss, geom, noise, noise.draw(1, rng)).item()


def sweep_curve(
    soil: SoilState,
    geom: LinkGeometry,
    powers: list[int] | tuple[int, ...],
    noise: NoiseModel,
) -> list[tuple[int, float]]:
    """RSSI for each requested transmit power, in request order.

    Noise draws advance through one generator seeded from the noise
    model, so packets within a sweep see independent noise while the
    whole curve stays reproducible.
    """
    if len(powers) == 0:
        raise ValueError("power list must not be empty")
    for p in powers:
        if not TX_POWER_MIN_DBM <= p <= TX_POWER_MAX_DBM:
            raise ValueError(
                f"tx power {p} dBm outside device range "
                f"[{TX_POWER_MIN_DBM}, {TX_POWER_MAX_DBM}]"
            )
    rssi = sweep_rssi(powers, path_loss(soil, geom), geom, noise, noise.draw(len(powers)))
    return list(zip(powers, rssi.tolist()))
