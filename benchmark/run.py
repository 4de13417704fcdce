"""The smol benchmark: one workload, one closed-loop client, one process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up makes the workload's inputs in a
fresh interpreter (``prepare.py``), several times, and checks that every
repeat makes the same bytes. The client then calls ``smol.cli.main``
in-process, one op after another: the first op is a warm-up and is
checked against the workload's invariants; the ops after it are timed
for S seconds, and each must write artifacts that hash the same as the
first op's.

Every op and every set-up runs under the host-speed gauge
(``hostspeed.py``), and the reported times are its adjusted seconds:
a shared host's speed can drift by 1.6x over minutes (seen on a 2-vCPU
Xeon VM), which raw wall time cannot tell apart from a program change.
The raw wall times, the gauge's probe times and a reference probe
timing before and after the ops are all in the run record.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` traced and untraced ops alternate and it reports the
per-layer metrics (see ``tracing.py``). A run record with the machine,
the source, every hash and the reference probe timings is written to
``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS, also for the set-up processes: the program's
# solves are tiny, and a thread pool only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORKLOADS, GateError, file_hashes, run_cli, use_checkout_source,
)

HERE = Path(__file__).resolve().parent
MIN_TIMED_OPS = 3


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def setup(workload, seed: int, work: Path, trace: bool) -> dict:
    """Run the set-up repeats; every one must make byte-identical inputs."""
    walls, adjusted, hashes, layer = [], [], None, {}
    repeats = 2 if trace else workload.setup_repeats
    for i in range(repeats):
        inputs = work / f"inputs{i}"
        argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload.name,
                "--seed", str(seed), "--dir", str(inputs)]
        traced = trace and i == 1
        if traced:
            argv += ["--trace-out", str(work / "setup-trace.json")]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - t0)
        gauge = json.loads(proc.stdout.splitlines()[-1])
        adjusted.append(hostspeed.adjust(walls[-1], gauge["gauge_s"], gauge["probe_s"]))
        these = file_hashes(inputs)
        if hashes is None:
            hashes = these
        elif these != hashes:
            raise GateError(f"set-up repeat {i} made different inputs")
        if traced:
            data = json.loads((work / "setup-trace.json").read_text())
            tracer = tracing.Tracer()
            tracer.spans, tracer.counters = data["spans"], data["counters"]
            layer = {f"setup.{k}": v for k, v in tracing.layer_metrics(tracer).items()}
        if i:
            shutil.rmtree(inputs)
    return {"wall_s": walls, "adjusted_s": adjusted, "inputs_sha256": hashes, "layer": layer}


class Client:
    """Closed-loop client: runs ops and gates every one of them."""

    def __init__(self, workload, inputs: Path, out: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.tracer = tracing.Tracer()
        self.first_hashes = None
        self.first_counts = None
        self.mae_pct = None
        self.ops: list[dict] = []

    def op(self, traced: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        gc.collect()
        self.tracer.reset()
        uninstall = tracing.install(self.tracer) if traced else None
        error = None
        gauge = hostspeed.Gauge()
        try:
            with gauge:
                stdout = run_cli(self.workload.op_argv(self.inputs, self.out))
        except Exception:  # a failing op is counted, and the run goes on
            stdout, error = "", traceback.format_exc(limit=3)
        if uninstall:
            uninstall()
        hashes = file_hashes(self.out)
        # stdout names the output path, which holds this process's id.
        hashes["<stdout>"] = _sha256(stdout.replace(str(self.out), "<out>"))
        record = {"traced": traced, **gauge.record(), "artifacts_sha256": hashes}
        if error is None:
            error = self._gate(hashes, traced, record)
        record["error"] = error
        self.ops.append(record)
        return record

    def _gate(self, hashes: dict, traced: bool, record: dict) -> str | None:
        try:
            if self.first_hashes is None:
                self.first_hashes = hashes
                self.mae_pct = self.workload.check(self.inputs, self.out)
            elif hashes != self.first_hashes:
                raise GateError("artifacts differ from the first op's")
            if traced:
                metrics = tracing.layer_metrics(self.tracer)
                record["layer"] = metrics
                counts = {k: v for k, v in metrics.items() if not tracing.is_time(k)}
                if self.first_counts is None:
                    self.first_counts = counts
                elif counts != self.first_counts:
                    raise GateError("per-layer counts differ from the first traced op's")
        except GateError as err:
            return str(err)
        return None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_ops(client: Client, seconds: float, trace: bool) -> None:
    client.op(traced=False)  # warm-up, content-checked, not timed
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or n < MIN_TIMED_OPS:
        client.op(traced=trace and n % 2 == 0)
        n += 1


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source() -> dict:
    """Git commit when the checkout is a repository, and the src/ size."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    files = sorted(SRC.rglob("*.py"))
    return {
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
        "src_sha256": _sha256("".join(
            f"{p.relative_to(SRC)}:{_sha256(p.read_text())}\n" for p in files
        )),
    }


def peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_checkout_source()
    import smol.cli  # noqa: F401  (loads every layer module before wrapping)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "machine": machine(), "source": source()}
    try:
        work.mkdir(parents=True)
        record["ref_loop_before_s"] = hostspeed.reference()
        setup_info = setup(workload, args.seed, work, trace)
        client = Client(workload, work / "inputs0", work / "out")
        run_ops(client, args.seconds, trace)
        record["ref_loop_after_s"] = hostspeed.reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = client.ops
    timed = ops[1:]
    untraced = [o for o in timed if not o["traced"]]
    op_s = [o["adjusted_s"] for o in untraced]
    failed = sum(o["error"] is not None for o in ops)
    record.update({
        "setup_wall_s": setup_info["wall_s"],
        "setup_adjusted_s": setup_info["adjusted_s"],
        "inputs_sha256": setup_info["inputs_sha256"],
        "first_op_artifacts_sha256": client.first_hashes,
        "mae_pct": client.mae_pct,
        "op_count": len(untraced),
        "op_quartiles_s": quartiles(op_s),
        "op_wall_quartiles_s": quartiles([o["wall_s"] for o in untraced]),
        "op_probe_quartiles_s": quartiles([o["probe_s"] for o in untraced]),
        "ops": [{k: v for k, v in o.items() if k != "artifacts_sha256"} | {
            "matches_first": o["artifacts_sha256"] == client.first_hashes} for o in ops],
        "attempted": len(ops),
        "failed": failed,
    })

    if trace:
        traced_ops = [o for o in timed if o["traced"] and "layer" in o]
        layer = dict(traced_ops[0]["layer"]) if traced_ops else {}
        for name in layer:
            if tracing.is_time(name):
                layer[name] = statistics.median(o["layer"][name] for o in traced_ops)
        layer.update(setup_info["layer"])
        traced_s = [o["adjusted_s"] for o in timed if o["traced"]]
        layer["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(op_s)
        record["layer"] = layer
        metrics = {k: metric(v, tracing.unit(k)) for k, v in layer.items()}
    else:
        metrics = {
            "op_p50_s": metric(statistics.median(op_s), "s"),
            "setup_s": metric(statistics.median(setup_info["adjusted_s"]), "s"),
            "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
            "mae_pct": metric(client.mae_pct if client.mae_pct is not None else 0.0, "VWC%"),
        }
        record["metrics"] = metrics

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{stamp}-{workload.name}-seed{args.seed}-trace{int(trace)}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for o in ops:
        if o["error"]:
            print(f"failed op: {o['error']}", file=sys.stderr)
    def fmt(values):
        return " / ".join(f"{v:.4g}" for v in values)

    print(f"{workload.name} seed={args.seed}: {len(untraced)} timed untraced ops, quartiles "
          f"{fmt(record['op_quartiles_s'])} s adjusted, {fmt(record['op_wall_quartiles_s'])} s wall; "
          f"setup {fmt(setup_info['adjusted_s'])} s adjusted; probe "
          f"{fmt(record['op_probe_quartiles_s'])} s; reference loop "
          f"{record['ref_loop_before_s']:.4g} -> {record['ref_loop_after_s']:.4g} s; "
          f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
