"""Reference moisture sensor emulator (TDR-style probe).

Reads the true volumetric water content with bounded uniform error and
averages a handful of probe spots per session. The waveguide physics of
the real instrument is abstracted away: a reading is truth plus noise on
the percent scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .soilchan import SoilState


@dataclass(frozen=True)
class TdrSensor:
    """Probe configuration. error_bound is absolute, in VWC fraction, at most 1."""

    error_bound: float = 0.03
    spots: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_bound <= 1.0:
            raise ValueError(f"error bound {self.error_bound} not a VWC fraction in [0, 1]")
        if self.spots < 1:
            raise ValueError("need at least one probe spot per reading")


def read_vwc(sensor: TdrSensor, true_state: SoilState, draw_index: int = 0) -> float:
    """One reading session: percent VWC in [0, 100].

    Averages ``sensor.spots`` independent probe readings, each the true
    vwc plus uniform noise within +/- error_bound, on the percent scale.
    ``draw_index`` names the session so repeated sessions under one seed
    stay independent yet reproducible.
    """
    if sensor.error_bound == 0.0:
        return min(100.0, max(0.0, 100.0 * true_state.vwc))
    rng = np.random.default_rng(np.random.SeedSequence((sensor.seed, draw_index)))
    draws = true_state.vwc + rng.uniform(
        -sensor.error_bound, sensor.error_bound, size=sensor.spots
    )
    percent = 100.0 * float(np.mean(draws))
    return min(100.0, max(0.0, percent))
