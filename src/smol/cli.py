"""Command-line surface: simulate, train, predict, report.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure. All randomness is seeded through the flags, so reruns with the
same arguments reproduce every output file byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import calibrate, campaign
from .calibrate import FeatureMode, ModelKind, ModelSpec
from .campaign import CampaignConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

TABLE_COLUMNS = ("model", "mode", "r_squared", "mae", "best")


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one stderr line, without the usage;
    the subcommands' parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process, however many commands it runs
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smol",
        description="Soil-moisture-from-signal-strength toolkit: simulate "
        "sweep campaigns, calibrate regressors, predict moisture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulated measurement campaign")
    sim.add_argument("--out", required=True, help="measurement log CSV to write")
    sim.add_argument("--config", help="campaign config JSON (default: built-in preset)")
    sim.add_argument("--seed", type=int, help="override the campaign seed")
    sim.add_argument(
        "--no-noise",
        action="store_true",
        help="disable RSSI noise, quantization and ground-truth error",
    )
    sim.add_argument(
        "--inference",
        action="store_true",
        help="omit ground truth from the log (inference-mode campaign)",
    )
    sim.add_argument(
        "--dump-config", help="also write the effective config JSON to this path"
    )
    sim.set_defaults(func=_cmd_simulate)

    train = sub.add_parser("train", help="fit a regressor on a ground-truthed log")
    train.add_argument("--log", required=True, help="measurement log CSV")
    train.add_argument(
        "--model",
        default="random_forest",
        choices=[k.value for k in ModelKind],
    )
    train.add_argument(
        "--mode",
        default="all_tx",
        choices=[m.value for m in FeatureMode],
    )
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--split-seed", type=int, default=0)
    train.set_defaults(func=_cmd_train)

    pred = sub.add_parser("predict", help="apply a trained model to a log")
    pred.add_argument("--model", required=True, help="model file from `smol train`")
    pred.add_argument("--log", required=True, help="measurement log CSV")
    pred.add_argument("--out", required=True, help="predictions CSV to write")
    pred.set_defaults(func=_cmd_predict)

    rep = sub.add_parser(
        "report", help="six-way model comparison table plus per-height curves"
    )
    rep.add_argument("--log", required=True, help="ground-truthed measurement log CSV")
    rep.add_argument("--out-dir", required=True, help="directory for table and curves")
    rep.add_argument("--split-seed", type=int, default=0)
    rep.set_defaults(func=_cmd_report)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = campaign.load_config(args.config) if args.config else CampaignConfig()
    flags = {"seed": args.seed, "training_mode": False if args.inference else None}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    if args.no_noise:
        config = config.without_noise()

    log = campaign.run_campaign(config)
    campaign.write_measurements(args.out, log)
    if args.dump_config:
        campaign.save_config(config, args.dump_config)
    print(f"wrote {len(log)} measurements to {args.out}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    calibrate.check_split(args.split_seed)
    log = campaign.read_measurements(args.log)
    model, ev = calibrate.train_and_score(
        ModelSpec(ModelKind(args.model)), log, FeatureMode(args.mode), args.split_seed
    )
    calibrate.save_model(model, args.out)
    r2 = "undefined" if ev.r_squared is None else f"{ev.r_squared:.4f}"
    meta = model.metadata
    print(
        f"model={args.model} mode={args.mode} n_train={meta['n_train']} "
        f"n_test={meta['n_test']} r_squared={r2} mae={ev.mae:.4f}"
    )
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    model = calibrate.load_model(args.model)
    log = campaign.read_measurements(args.log)
    rows, features = calibrate.feature_matrix(
        log, model.feature_mode, model.median_tx_power
    )
    predictions = model.predict_many(features)
    campaign.write_measurements(args.out, rows, vwc_pred_pct=predictions)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    calibrate.check_split(args.split_seed)
    log = campaign.read_measurements(args.log)
    curves = campaign.median_power_curves(log)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = calibrate.compare(log, args.split_seed)
    table = calibrate.render_table(rows)
    print(table)
    (out_dir / "table.txt").write_text(table + "\n")
    scores = [["" if v is None else repr(v) for v in (r.r_squared, r.mae)] for r in rows]
    cells = [(r.kind.value, r.mode.value, *s, int(r.best)) for r, s in zip(rows, scores)]
    campaign._write_csv(out_dir / "table.csv", TABLE_COLUMNS, list(zip(*cells)))
    for name, columns in curves.items():
        campaign._write_csv(out_dir / name, campaign.CURVE_COLUMNS, columns)
    print(f"wrote table.txt, table.csv and {len(curves)} curve file(s) to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # a refused flag, config, log or model
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as err:  # a config whose arrays cannot be allocated
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
