#!/usr/bin/env python3
"""Sensitivity study behind the default water-phase loss factor.

Sweeps the effective loss factor of the water phase and reports, per
value: the noise-free RSSI swing across the moisture grid at each
height, and the held-out metrics of the six-way model comparison on the
noisy campaign. Shows why small loss factors (weak absorption) leave
2 dB receiver noise dominating the moisture signal.
"""

import argparse
from dataclasses import replace

import numpy as np

from smol.calibrate import compare, render_table
from smol.campaign import CampaignConfig, run_campaign
from smol.sweepproto import log_median_power


def rssi_swing_by_height(config: CampaignConfig) -> dict[str, float]:
    """Noise-free RSSI range over the moisture grid at the median power, per scenario."""
    log = run_campaign(config.without_noise())
    at_median = log.take(log.tx_power == log_median_power(log))
    return {
        s: float(np.ptp(at_median.rssi[at_median.scenario == s]))
        for s in set(at_median.scenario)
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--loss-factors",
        type=float,
        nargs="+",
        default=[4.5, 12, 48, 100, 200, 300],
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    base = CampaignConfig()
    if args.seed is not None:
        base = replace(base, seed=args.seed)

    for wlf in args.loss_factors:
        config = replace(base, water_loss_factor=wlf)
        swings = rssi_swing_by_height(config)
        swing_txt = "  ".join(f"{s.split('_')[-1]}:{v:5.1f}dB" for s, v in sorted(swings.items()))
        rows = compare(run_campaign(config))
        print(f"loss_factor={wlf:6.1f}  grid swing {swing_txt}")
        print(render_table(rows))


if __name__ == "__main__":
    main()
