"""Reference moisture sensor emulator (TDR-style probe).

Reads the true volumetric water content with bounded uniform error and
averages a handful of probe spots per session. The waveguide physics of
the real instrument is abstracted away: a reading is truth plus noise on
the percent scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class TdrSensor:
    """Probe configuration. error_bound is absolute, in VWC fraction, at most 1."""

    error_bound: float = 0.03
    spots: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_bound <= 1.0:
            raise ValueError(f"error bound {self.error_bound} not a VWC fraction in [0, 1]")
        if self.spots < 1:
            raise ValueError("need at least one probe spot per reading")


def read_vwc(
    sensor: TdrSensor, true_vwc: Sequence[float], rngs: Iterable[np.random.Generator]
) -> np.ndarray:
    """One reading session per entry of ``true_vwc``: percent VWC in [0, 100].

    A session averages ``sensor.spots`` independent probe readings, each the
    true vwc plus uniform noise within +/- error_bound, on the percent scale.
    ``rngs`` yields one generator per session, and no more; its spots are one
    draw from it. A noiseless probe draws nothing and takes no generator.
    """
    true_vwc = np.asarray(true_vwc, dtype=float)
    if sensor.error_bound == 0.0:
        percent = 100.0 * true_vwc
    else:
        draws = np.empty((len(true_vwc), sensor.spots))
        rngs = iter(rngs)
        filled = 0
        for row, rng in zip(draws, rngs):
            rng.random(out=row)
            filled += 1
        if filled < len(draws) or next(rngs, None) is not None:
            given = filled if filled < len(draws) else f"more than {filled}"
            raise ValueError(
                f"one generator per reading session: {len(draws)} sessions, {given} generators"
            )
        # Generator.uniform(low, high) is low + (high - low) * random().
        low, high = -sensor.error_bound, sensor.error_bound
        errors = low + (high - low) * draws
        # The mean along the last axis of a C-ordered array sums each row
        # pairwise, exactly as np.mean of that row alone would.
        percent = 100.0 * np.mean(true_vwc[:, None] + errors, axis=-1)
    return np.minimum(100.0, np.maximum(0.0, percent))
