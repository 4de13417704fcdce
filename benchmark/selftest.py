"""Self-test of the benchmark itself.

    python3 benchmark/selftest.py [--seconds 2] [--seed 1]

Run from the root of a checkout; it takes a few minutes. For every
workload it checks that:

- two traced runs at one seed report the same per-layer counts (calls,
  rows, bytes, packets and their ratios) and the metric names listed in
  BENCHMARK.json;
- traced ops write the same artifacts as untraced ops, within a run
  (``run.py`` gates every op against the untraced warm-up) and across
  runs at one seed;
- a second seed makes different inputs and still passes every check.

Last, it checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    """One benchmark run; returns (result, run record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = lines[-2].rsplit("record ", 1)[1]
    return result, json.loads((ROOT / record_path).read_text())


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if not tracing.is_time(k)
            and k != "trace.overhead_ratio"}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    check(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
          "BENCHMARK.json lists the benchmark's workloads")
    other = args.seed + 1

    for name in WORKLOADS:
        first, first_record = run(name, args.seed, args.seconds, trace=1)
        again, again_record = run(name, args.seed, args.seconds, trace=1)
        plain, plain_record = run(name, other, args.seconds, trace=0)
        check(first["correct"] and again["correct"] and plain["correct"],
              f"{name}: traced and untraced runs pass the correctness gate")
        check(list(first["metrics"]) == per_layer, f"{name}: traced run reports the per_layer metrics")
        check(list(plain["metrics"]) == end_to_end, f"{name}: untraced run reports the end_to_end metrics")
        check(counts(first) == counts(again), f"{name}: per-layer counts repeat across runs")
        check(any(o["traced"] for o in first_record["ops"])
              and all(o["matches_first"] for o in first_record["ops"]),
              f"{name}: traced ops write the untraced warm-up's artifacts")
        check(first_record["first_op_artifacts_sha256"] == again_record["first_op_artifacts_sha256"]
              and first_record["inputs_sha256"] == again_record["inputs_sha256"],
              f"{name}: inputs and artifacts repeat across runs at one seed")
        check(plain_record["inputs_sha256"] != first_record["inputs_sha256"]
              and plain_record["first_op_artifacts_sha256"] != first_record["first_op_artifacts_sha256"],
              f"{name}: seed {other} makes different inputs and artifacts")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "report-stock", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the program's source the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    main()
