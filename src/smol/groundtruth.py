"""Reference moisture sensor emulator (TDR-style probe).

Reads the true volumetric water content with bounded uniform error and
averages a handful of probe spots per session. The waveguide physics of
the real instrument is abstracted away: a reading is truth plus noise on
the percent scale. ``CampaignConfig`` holds its error bound and spot count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def read_vwc(true_vwc: Sequence[float], error_bound: float, draws: np.ndarray) -> np.ndarray:
    """One reading session per entry of ``true_vwc``: percent VWC in [0, 100].

    Row i of ``draws`` holds session i's ``random()`` values, one per probe
    spot. A spot reads the true vwc plus uniform noise within
    +/- ``error_bound`` (VWC fraction), and a session averages its spots, on
    the percent scale. A noiseless probe (bound 0) reads the truth, whatever
    the row holds. Raises ValueError unless ``draws`` has a row per session.
    """
    true_vwc = np.asarray(true_vwc, dtype=float)
    if len(draws) != len(true_vwc):
        raise ValueError(f"{len(true_vwc)} reading sessions, {len(draws)} rows of draws")
    if error_bound == 0.0:
        percent = 100.0 * true_vwc
    else:
        # Generator.uniform(low, high) is low + (high - low) * random().
        low, high = -error_bound, error_bound
        errors = low + (high - low) * draws
        # The mean along the last axis of a C-ordered array sums each row
        # pairwise, exactly as np.mean of that row alone would.
        percent = 100.0 * np.mean(true_vwc[:, None] + errors, axis=-1)
    return np.minimum(100.0, np.maximum(0.0, percent))
