"""Host-speed gauge: a fixed probe, timed while the program runs.

On a shared host the same op's wall time swings by up to 1.6x in phases
that last minutes. A probe run on the other CPU does not see those
phases, and a reference loop timed before and after a multi-second op
sees them only in part. So the gauge interrupts the work itself: every
``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler times one
``probe()``, and one probe runs at each edge of the timed block.

The probe does, in small, the three kinds of work the program does:
pure-Python arithmetic, building and walking nested dicts from JSON
(model files, tree descent) and small NumPy calls (split search). The
host's phases slow these by different factors, and a pure-Python loop
alone left twice the spread on the dict-heavy ``predict-bulk`` ops. The
probe runs twice and only the second run is timed: run cold, right
after the op evicted it from the caches, it reads 1.6-1.8x slower than
back to back, by a share that depends on the op's own cache footprint,
so a program change would move the gauge. Run warm, it reads within 5%
of back to back.

``adjust`` turns a wall time into the seconds the work would take on
the same host in the state where one probe takes ``NOMINAL_PROBE_S``: the
wall time less the gauge's own time, scaled by ``NOMINAL_PROBE_S`` over
the median probe. A program that does less work lowers it in
proportion; a slow host phase leaves it where it was. Raw wall times
are kept beside it.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter

import numpy as np

# One probe in the fast host state of a 2-vCPU Xeon VM under CPython 3.11.
NOMINAL_PROBE_S = 130e-6
INTERVAL_S = 0.03


def _tree(depth: int, index: int) -> dict:
    if depth == 0:
        return {"value": index * 0.37}
    return {"threshold": index * 1.5 - 3.25,
            "left": _tree(depth - 1, 2 * index), "right": _tree(depth - 1, 2 * index + 1)}


_TREE_JSON = json.dumps(_tree(5, 0))
_ROWS = np.random.default_rng(0).normal(size=(2, 64))


def _probe_work() -> None:
    acc = 0
    for i in range(1000):
        acc = (acc * 31 + i) % 1_000_003
    tree = json.loads(_TREE_JSON)
    for x in (-1.0, 0.5, 2.0, 7.0):
        node = tree
        while "value" not in node:
            node = node["left"] if x <= node["threshold"] else node["right"]
    for row in _ROWS:
        order = np.argsort(row, kind="stable")
        int(np.argmax(np.cumsum(row[order])))


def probe() -> float:
    """Seconds taken by the probe work, run warm."""
    _probe_work()
    t0 = perf_counter()
    _probe_work()
    return perf_counter() - t0


def reference(repeats: int = 101) -> float:
    """Median of ``repeats`` back-to-back probes."""
    return statistics.median(probe() for _ in range(repeats))


def adjust(wall_s: float, gauge_s: float, probe_s: float) -> float:
    return (wall_s - gauge_s) * NOMINAL_PROBE_S / probe_s


class Gauge:
    """Times the ``with`` block and samples host speed inside it."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.gauge_s = 0.0  # time spent in probes, warm-up runs included
        self.wall_s = 0.0

    def _on_signal(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.probes.append(probe())
        self.gauge_s += perf_counter() - t0

    def __enter__(self) -> "Gauge":
        self._t0 = perf_counter()
        self._on_signal()
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # Ignore, not default: SIGPROF's default action ends the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._on_signal()
        self.wall_s = perf_counter() - self._t0

    def record(self) -> dict:
        """Wall time, gauge time, probe count and median, adjusted time."""
        median = statistics.median(self.probes)
        return {"wall_s": self.wall_s, "gauge_s": self.gauge_s, "probes": len(self.probes),
                "probe_s": median, "adjusted_s": adjust(self.wall_s, self.gauge_s, median)}
