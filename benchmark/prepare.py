"""Make one workload's inputs in a fresh interpreter.

    python3 benchmark/prepare.py --workload NAME --seed N --dir DIR [--trace-out FILE]

``run.py`` times this whole process as the workload's set-up. The last
stdout line is the host-speed gauge's record of the set-up, from before
``import smol`` to the last input written. With ``--trace-out`` the
set-up runs traced and its span and counter aggregates are written to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import hostspeed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    with hostspeed.Gauge() as gauge:
        import tracing
        from workloads import WORKLOADS, use_checkout_source

        use_checkout_source()
        import smol.cli  # noqa: F401  (loads every layer module before wrapping)

        tracer = tracing.Tracer()
        if args.trace_out:
            tracing.install(tracer)
        args.dir.mkdir(parents=True)
        WORKLOADS[args.workload].prepare(args.dir, args.seed)
    if args.trace_out:
        args.trace_out.write_text(
            json.dumps({"spans": tracer.spans, "counters": tracer.counters})
        )
    print(json.dumps(gauge.record()))


if __name__ == "__main__":
    main()
