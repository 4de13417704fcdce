"""Layer tracing from outside the program.

``install`` wraps every public function and public method defined in the
layer modules, and replaces each one by identity wherever a ``smol.*``
module namespace or a class defined there holds it. A call site that
moves to another module (say ``path_loss`` hoisted into ``campaign``)
still goes through the wrapper, so its spans and counts survive the move.

Spans are aggregated in memory as they close (calls, inclusive time,
self time) rather than kept one by one: a large simulate op makes about
half a million of them. Counts are taken in the same wrappers.
"""

from __future__ import annotations

import inspect
import os
import sys
from enum import Enum
from time import perf_counter

LAYER_MODULES = ("soilchan", "sweepproto", "groundtruth", "campaign", "calibrate", "cli")


class Tracer:
    """Span and counter aggregates for one phase of a run."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fit_label(args, kwargs) -> str:
    spec, train = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "train")
    return f"calibrate.fit.{spec.kind.value}.{train.feature_mode.value}"


def _cli_label(args, kwargs) -> str:
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


# Span names whose label depends on the call's arguments.
LABELS = {"calibrate.fit": _fit_label, "cli.main": _cli_label}


# Counters read off a call's arguments and result: (tracer, args, kwargs, result).
COUNTERS = {
    "sweepproto.run_sweep": lambda t, a, k, r: (
        t.count("sweepproto.packets_planned", len(_arg(a, k, 1, "plan"))),
        t.count("sweepproto.packets_delivered", len(r)),
    ),
    "sweepproto.SimulatedLink.transmit": lambda t, a, k, r: t.count(
        "sweepproto.packets_dropped", r is None
    ),
    "campaign.write_measurements": lambda t, a, k, r: t.count(
        "campaign.write_measurements.bytes", os.path.getsize(_arg(a, k, 0, "path"))
    ),
    "campaign.read_measurements": lambda t, a, k, r: t.count(
        "campaign.read_measurements.rows", len(r)
    ),
    "calibrate.TrainedModel.predict_many": lambda t, a, k, r: t.count(
        "calibrate.predict_many.rows", len(r)
    ),
    "calibrate.save_model": lambda t, a, k, r: t.count(
        "calibrate.save_model.bytes", os.path.getsize(_arg(a, k, 1, "path"))
    ),
}


def _wrap(fn, name: str, tracer: Tracer):
    label = LABELS.get(name)
    counter = COUNTERS.get(name)
    stack = tracer.stack

    def traced(*args, **kwargs):
        span = label(args, kwargs) if label else name
        stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            rec = tracer.spans.get(span)
            if rec is None:
                rec = tracer.spans[span] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
        if counter:
            counter(tracer, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _public_functions(owner, prefix: str):
    for key, obj in vars(owner).items():
        if not key.startswith("_") and inspect.isfunction(obj):
            yield f"{prefix}.{key}", obj


def _classes(module):
    for obj in vars(module).values():
        if (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not issubclass(obj, Enum)
        ):
            yield obj


def install(tracer: Tracer):
    """Wrap every public layer function; returns a callable that undoes it."""
    layers = {name: sys.modules[f"smol.{name}"] for name in LAYER_MODULES}
    wrappers: dict[int, object] = {}
    for layer, module in layers.items():
        for name, fn in _public_functions(module, layer):
            if fn.__module__ == module.__name__:
                wrappers[id(fn)] = _wrap(fn, name, tracer)
        for cls in _classes(module):
            for name, fn in _public_functions(cls, f"{layer}.{cls.__name__}"):
                wrappers[id(fn)] = _wrap(fn, name, tracer)

    holders = [m for n, m in sys.modules.items() if n == "smol" or n.startswith("smol.")]
    holders += [cls for m in list(holders) for cls in _classes(m)]
    replaced = []
    for holder in holders:
        for key, obj in list(vars(holder).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(holder, key, wrapper)
                replaced.append((holder, key, obj))

    def uninstall() -> None:
        for holder, key, obj in replaced:
            setattr(holder, key, obj)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics

FIT_KINDS = ("random_forest", "polynomial", "linear")
FIT_MODES = ("all_tx", "median_tx")
CLI_COMMANDS = ("simulate", "train", "predict", "report")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one phase, from its span and counter aggregates.

    A layer that did not run reads 0. Names ending in ``.s`` are inclusive
    seconds, ``self_s`` is seconds minus child spans; every other value
    is a count or a ratio of counts and must repeat exactly.
    """
    spans, counters = tracer.spans, tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    planned = counters.get("sweepproto.packets_planned", 0)
    delivered = counters.get("sweepproto.packets_delivered", 0)
    predict_many = "calibrate.TrainedModel.predict_many"
    rows = counters.get("calibrate.predict_many.rows", 0)
    m = {
        "soilchan.synth_rssi.calls": calls("soilchan.synth_rssi"),
        "soilchan.synth_rssi.s": incl("soilchan.synth_rssi"),
        "soilchan.path_loss.calls": calls("soilchan.path_loss"),
        "soilchan.path_loss.s": incl("soilchan.path_loss"),
        "soilchan.path_loss.per_packet": ratio(calls("soilchan.path_loss"), delivered),
        "sweepproto.run_sweep.calls": calls("sweepproto.run_sweep"),
        "sweepproto.run_sweep.self_s": self_s("sweepproto.run_sweep"),
        "sweepproto.encode_packet.calls": calls("sweepproto.encode_packet"),
        "sweepproto.decode_packet.calls": calls("sweepproto.decode_packet"),
        "sweepproto.packets_planned": planned,
        "sweepproto.packets_delivered": delivered,
        "sweepproto.delivery_ratio": ratio(delivered, planned),
        "groundtruth.read_vwc.calls": calls("groundtruth.read_vwc"),
        "groundtruth.read_vwc.s": incl("groundtruth.read_vwc"),
        "campaign.run_campaign.self_s": self_s("campaign.run_campaign"),
        "campaign.write_measurements.s": incl("campaign.write_measurements"),
        "campaign.write_measurements.bytes": counters.get("campaign.write_measurements.bytes", 0),
        "campaign.read_measurements.s": incl("campaign.read_measurements"),
        "campaign.read_measurements.rows": counters.get("campaign.read_measurements.rows", 0),
        "campaign.median_power_curves.s": incl("campaign.median_power_curves"),
    }
    for kind in FIT_KINDS:
        for mode in FIT_MODES:
            m[f"calibrate.fit.{kind}.{mode}.s"] = incl(f"calibrate.fit.{kind}.{mode}")
    for stage in ("assemble", "split", "evaluate"):
        m[f"calibrate.{stage}.s"] = incl(f"calibrate.{stage}")
    m.update({
        "calibrate.predict.calls": calls("calibrate.TrainedModel.predict"),
        "calibrate.predict_many.calls": calls(predict_many),
        "calibrate.predict_many.rows": rows,
        "calibrate.predict_many.rows_per_call": ratio(rows, calls(predict_many)),
        "calibrate.predict_many.s": incl(predict_many),
        "calibrate.load_model.s": incl("calibrate.load_model"),
        "calibrate.save_model.s": incl("calibrate.save_model"),
        "calibrate.save_model.bytes": counters.get("calibrate.save_model.bytes", 0),
    })
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = incl(f"cli.{command}")
    m["cli.self_s"] = sum(self_s(f"cli.{command}") for command in CLI_COMMANDS)
    return m


def unit(name: str) -> str:
    if is_time(name):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("ratio", "per_packet", "per_call")):
        return "ratio"
    return "count"


def is_time(name: str) -> bool:
    """Times vary from op to op; every other per-layer metric must repeat."""
    return name.endswith((".s", "self_s"))
