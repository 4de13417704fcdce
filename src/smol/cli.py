"""Command-line surface: simulate, train, predict, report.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure. All randomness is seeded through the flags, so reruns with the
same arguments reproduce every output file byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibrate, campaign
from .calibrate import (
    DEFAULT_COMPARISON_SPECS,
    FeatureMode,
    ModelKind,
    ModelSpec,
    SingularSystemError,
)
from .campaign import CampaignConfig, ConfigError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smol",
        description="Soil-moisture-from-signal-strength toolkit: simulate "
        "sweep campaigns, calibrate regressors, predict moisture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulated measurement campaign")
    sim.add_argument("--out", required=True, help="measurement log CSV to write")
    sim.add_argument("--config", help="campaign config JSON (default: built-in preset)")
    sim.add_argument("--seed", type=int, help="override the campaign seed")
    sim.add_argument("--noise-sigma", type=float, help="override RSSI noise sigma, dB")
    sim.add_argument("--drop-prob", type=float, help="override per-packet drop probability")
    sim.add_argument("--epoch", type=float, help="override the timestamp epoch, unix s")
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
    train.add_argument("--train-fraction", type=float, default=0.8)
    train.add_argument("--poly-degree", type=int, default=2)
    train.add_argument("--ridge-lambda", type=float, default=1.0)
    train.add_argument("--trees", type=int, default=100)
    train.add_argument("--max-depth", type=int, default=10)
    train.add_argument("--min-leaf", type=int, default=2)
    train.add_argument("--model-seed", type=int, default=0)
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
    rep.add_argument("--train-fraction", type=float, default=0.8)
    rep.set_defaults(func=_cmd_report)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        config = campaign.load_config(args.config)
    else:
        config = CampaignConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise_sigma is not None:
        overrides["rssi_sigma_db"] = args.noise_sigma
    if args.drop_prob is not None:
        overrides["drop_prob"] = args.drop_prob
    if args.epoch is not None:
        overrides["epoch"] = args.epoch
    if args.inference:
        overrides["training_mode"] = False
    if overrides:
        config = replace(config, **overrides)
    if args.no_noise:
        config = config.without_noise()

    log = campaign.run_campaign(config)
    campaign.write_measurements(args.out, log)
    if args.dump_config:
        campaign.save_config(config, args.dump_config)
    print(f"wrote {len(log)} measurements to {args.out}")
    return EXIT_OK


def _model_spec_from_args(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(
        kind=ModelKind(args.model),
        poly_degree=args.poly_degree,
        ridge_lambda=args.ridge_lambda,
        n_trees=args.trees,
        max_depth=args.max_depth,
        min_leaf=args.min_leaf,
        seed=args.model_seed,
    )


def _require_ground_truth(log: campaign.MeasurementLog) -> None:
    if np.isnan(log.vwc_truth).any():
        raise ValueError(
            "training requires ground truth: the log's vwc_truth_pct column "
            "is not fully populated (was this an inference-mode campaign?)"
        )


def _cmd_train(args: argparse.Namespace) -> int:
    log = campaign.read_measurements(args.log)
    _require_ground_truth(log)
    dataset = calibrate.assemble(log, FeatureMode(args.mode))
    train, test = calibrate.split(dataset, args.train_fraction, args.split_seed)
    model = calibrate.fit(_model_spec_from_args(args), train)
    model.metadata.update({"split_seed": args.split_seed, "n_test": len(test)})
    ev = calibrate.evaluate(model, test)
    calibrate.save_model(model, args.out)
    r2 = "undefined" if ev.r_squared is None else f"{ev.r_squared:.4f}"
    print(
        f"model={args.model} mode={args.mode} "
        f"n_train={len(train)} n_test={len(test)} r_squared={r2} mae={ev.mae:.4f}"
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
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(campaign.CSV_COLUMNS) + ["vwc_pred_pct"])
        writer.writerows(campaign.log_rows(rows, predictions))
    print(f"wrote {len(rows)} predictions to {args.out}")
    return EXIT_OK


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _cmd_report(args: argparse.Namespace) -> int:
    log = campaign.read_measurements(args.log)
    _require_ground_truth(log)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = calibrate.compare(
        DEFAULT_COMPARISON_SPECS,
        log,
        [FeatureMode.ALL_TX, FeatureMode.MEDIAN_TX],
        train_fraction=args.train_fraction,
        split_seed=args.split_seed,
    )
    table = calibrate.render_table(rows)
    print(table)
    (out_dir / "table.txt").write_text(table + "\n")
    with open(out_dir / "table.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "mode", "r_squared", "mae", "best"])
        for row in rows:
            writer.writerow(
                [
                    row.kind.value,
                    row.mode.value,
                    "" if row.r_squared is None else repr(row.r_squared),
                    "" if row.mae is None else repr(row.mae),
                    int(row.best),
                ]
            )

    points = campaign.median_power_curves(log)
    written = []
    for key in sorted({(p.scenario, p.height_cm) for p in points}):
        scenario, height = key
        subset = [p for p in points if (p.scenario, p.height_cm) == key]
        path = out_dir / f"curve_{_safe_name(scenario)}_h{height:g}cm.csv"
        campaign.write_curves(path, subset)
        written.append(path.name)
    print(f"wrote table.txt, table.csv and {len(written)} curve file(s) to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (SingularSystemError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
