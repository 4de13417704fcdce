"""The benchmark's workloads: how each makes its inputs, runs its op and
checks the op's output.

Every input derives from the workload seed. The program sees only the
generated files and the CLI arguments of its op; the invariants and the
accuracy figure are computed here from the files, independently of
``smol``'s own parsers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOG_HEADER = (
    "timestamp,device_id,tx_power_dbm,rssi_dbm,height_cm,depth_cm,scenario,vwc_truth_pct"
)
STOCK_POWERS = tuple(range(5, 23))


class GateError(Exception):
    """An op's output broke an invariant of its workload."""


def use_checkout_source() -> None:
    """Import ``smol`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "smol" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}/smol")
    sys.path.insert(0, str(SRC))
    import smol

    if Path(smol.__file__).resolve().parent != (SRC / "smol").resolve():
        raise SystemExit(f"benchmark: smol imported from {smol.__file__}, not {SRC}")


def derive_seed(workload: str, purpose: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_cli(argv: list[str]) -> str:
    """``smol.cli.main`` in-process; returns its stdout, raises on a non-zero exit."""
    from smol import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise GateError(f"smol {argv[0]} exited {code}")
    return buffer.getvalue()


def file_hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def read_rows(path: Path) -> tuple[str, list[list[str]]]:
    with open(path, newline="") as handle:
        header = handle.readline().rstrip("\r\n")
        return header, list(csv.reader(handle))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


class ReportStock:
    """Table 1 of the paper: ``smol report`` on the stock 1296-packet campaign."""

    name = "report-stock"
    setup_repeats = 5

    def prepare(self, inputs: Path, seed: int) -> None:
        campaign_seed = derive_seed(self.name, "campaign", seed)
        run_cli(["simulate", "--out", inputs / "campaign.csv", "--seed", campaign_seed])

    def op_argv(self, inputs: Path, out: Path) -> list:
        return ["report", "--log", inputs / "campaign.csv", "--out-dir", out]

    def check(self, inputs: Path, out: Path) -> float:
        """Six table rows, one starred; returns the starred row's MAE."""
        with open(out / "table.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        require(len(rows) == 6, f"table.csv has {len(rows)} rows, want 6")
        starred = [r for r in rows if r["best"] == "1"]
        require(len(starred) == 1, f"table.csv has {len(starred)} starred rows")
        require(all(r["mae"] for r in rows), "table.csv has an error row")
        require(len(list(out.glob("curve_*.csv"))) == 3, "want one curve per height")
        mae = float(starred[0]["mae"])
        require(math.isfinite(mae) and mae > 0.0, f"starred MAE {mae} not positive")
        return mae


class SimulateLarge:
    """``smol simulate --config`` on a 36-scenario x 16-level grid with drops."""

    name = "simulate-large"
    setup_repeats = 5
    depths_cm = (5.0, 12.0, 19.0, 26.0, 33.0, 40.0)
    heights_cm = (0.0, 80.0, 160.0, 240.0, 320.0, 400.0)
    vwc_grid = tuple(0.025 * k for k in range(1, 17))
    sweeps = 3
    drop_prob = 0.02
    interval_s = 60.0

    @property
    def scenarios(self) -> list[tuple[str, float, float]]:
        return [
            (f"d{d:02.0f}_h{h:03.0f}", d, h) for d in self.depths_cm for h in self.heights_cm
        ]

    @property
    def cells(self) -> int:
        return len(self.scenarios) * len(self.vwc_grid) * self.sweeps

    def prepare(self, inputs: Path, seed: int) -> None:
        from smol import campaign

        config = campaign.CampaignConfig(
            scenarios=tuple(campaign.Scenario(*s) for s in self.scenarios),
            vwc_grid=self.vwc_grid,
            sweeps_per_cell=self.sweeps,
            drop_prob=self.drop_prob,
            sweep_interval_s=self.interval_s,
            seed=derive_seed(self.name, "campaign", seed),
        )
        campaign.save_config(config, inputs / "config.json")

    def op_argv(self, inputs: Path, out: Path) -> list:
        return ["simulate", "--config", inputs / "config.json", "--out", out / "log.csv"]

    def check(self, inputs: Path, out: Path) -> float:
        """Fixed header; every row fills one planned (cell, power) slot once, so
        delivered + dropped = planned. Returns the mean |reference - grid| VWC %."""
        header, rows = read_rows(out / "log.csv")
        require(header == LOG_HEADER, f"log header {header!r}")
        per_cell: dict[int, list[int]] = {}
        errors = []
        for row in rows:
            cell = round(float(row[0]) / self.interval_s)
            require(0 <= cell < self.cells, f"row {row} outside the campaign's cells")
            label, depth, height = self.scenarios[cell // (len(self.vwc_grid) * self.sweeps)]
            require(
                (row[6], float(row[5]), float(row[4])) == (label, depth, height),
                f"row {row} does not match its cell's scenario",
            )
            per_cell.setdefault(cell, []).append(int(row[2]))
            grid = self.vwc_grid[(cell // self.sweeps) % len(self.vwc_grid)]
            errors.append(abs(float(row[7]) - 100.0 * grid))
        for cell, powers in per_cell.items():
            slots = [p for p in STOCK_POWERS if p in powers]
            require(powers == slots, f"cell {cell} powers {powers} not a plan subsequence")
        planned = self.cells * len(STOCK_POWERS)
        delivered = len(rows)
        dropped = sum(len(STOCK_POWERS) - len(p) for p in per_cell.values())
        dropped += len(STOCK_POWERS) * (self.cells - len(per_cell))
        require(delivered + dropped == planned, "delivered + dropped != planned")
        require(0 < dropped < 2 * self.drop_prob * planned, f"{dropped} drops of {planned}")
        return sum(errors) / len(errors)


class PredictBulk:
    """``smol predict`` with the stock all-TX forest on a 1296-row inference log."""

    name = "predict-bulk"
    setup_repeats = 3

    def prepare(self, inputs: Path, seed: int) -> None:
        train_seed = derive_seed(self.name, "train-campaign", seed)
        fresh_seed = derive_seed(self.name, "inference-campaign", seed)
        run_cli(["simulate", "--out", inputs / "train.csv", "--seed", train_seed])
        run_cli(["train", "--log", inputs / "train.csv", "--out", inputs / "model.json"])
        run_cli(["simulate", "--inference", "--out", inputs / "fresh.csv", "--seed", fresh_seed])
        # Training-mode twin of the inference campaign: the truth it withheld.
        run_cli(["simulate", "--out", inputs / "twin.csv", "--seed", fresh_seed])

    def op_argv(self, inputs: Path, out: Path) -> list:
        return [
            "predict", "--model", inputs / "model.json",
            "--log", inputs / "fresh.csv", "--out", out / "predictions.csv",
        ]

    def check(self, inputs: Path, out: Path) -> float:
        """One finite prediction in [0, 100] per log row; returns its MAE
        against the twin's truth."""
        log_header, log = read_rows(inputs / "fresh.csv")
        _, twin = read_rows(inputs / "twin.csv")
        header, preds = read_rows(out / "predictions.csv")
        require(log_header == LOG_HEADER, f"log header {log_header!r}")
        require(header == LOG_HEADER + ",vwc_pred_pct", f"predictions header {header!r}")
        require(len(twin) == len(log), "twin and inference logs differ in length")
        require(len(preds) == len(log), f"{len(preds)} predictions for {len(log)} rows")
        errors = []
        for row, truth, pred in zip(log, twin, preds):
            require(row[7] == "" and truth[7] != "", "truth column in the wrong log")
            require(truth[:7] == row[:7], f"twin row {truth} differs from {row}")
            require(pred[:8] == row, f"prediction row {pred} does not echo {row}")
            value = float(pred[8])
            require(math.isfinite(value) and 0.0 <= value <= 100.0, f"prediction {value}")
            errors.append(abs(value - float(truth[7])))
        return sum(errors) / len(errors)


WORKLOADS = {w.name: w for w in (ReportStock(), SimulateLarge(), PredictBulk())}
