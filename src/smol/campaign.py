"""Simulated measurement campaigns and their on-disk log format.

A campaign walks every scenario x moisture-grid cell: take one reference
sensor reading, run one full power sweep over the simulated link, and
log the delivered packets. The log is one MeasurementLog, built once
from every sweep's columns. Everything derives from the campaign seed,
so identical configs produce byte-identical logs.

The log file is a CSV with one row per received packet and one column
per MeasurementLog field, headed and parsed as ``_LOG_COLUMNS`` says.
vwc_truth_pct is empty when the campaign ran in inference mode; an empty
cell is the only way to omit it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from decimal import Decimal
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .calibrate import _finite_number, _read_json, _require_keys
from .groundtruth import read_vwc
from .soilchan import (
    CARRIER_FREQUENCY_DEFAULT,
    SOLID_PERMITTIVITY_DEFAULT,
    WATER_LOSS_FACTOR_DEFAULT,
    WATER_PERMITTIVITY_DEFAULT,
    Dielectric,
    LinkGeometry,
    SoilState,
    path_loss,
    sweep_rssi,
)
from .sweepproto import (
    DEFAULT_POWER_LEVELS,
    TX_POWER_MAX_DBM,
    TX_POWER_MIN_DBM,
    LogRowError,
    MeasurementLog,
    PowerPlan,
    SweepPacket,
    decode_packet,
    encode_plan,
    log_median_power,
)

CONFIG_FILE_FORMAT = "smol-campaign"
CONFIG_FILE_VERSION = 2


@dataclass(frozen=True)
class Scenario:
    """One placement: transmitter depth and receiver height, both cm."""

    label: str
    burial_depth_cm: float
    receiver_height_cm: float


# Bucket-test placements: transmitter 15 cm under, receiver on the soil
# surface and on an overhead arm at 195 / 265 cm.
DEFAULT_SCENARIOS: tuple[Scenario, ...] = (
    Scenario("lab_h000", 15.0, 0.0),
    Scenario("lab_h195", 15.0, 195.0),
    Scenario("lab_h265", 15.0, 265.0),
)

DEFAULT_VWC_GRID: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a simulated campaign needs, in one value object; every
    field changes the simulated log."""

    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS
    vwc_grid: tuple[float, ...] = DEFAULT_VWC_GRID
    porosity: float = 0.45
    solid_permittivity: float = SOLID_PERMITTIVITY_DEFAULT
    water_eps_real: float = WATER_PERMITTIVITY_DEFAULT
    water_loss_factor: float = WATER_LOSS_FACTOR_DEFAULT
    frequency_hz: float = CARRIER_FREQUENCY_DEFAULT
    tx_gain_db: float = 0.0
    rx_gain_db: float = 0.0
    power_levels: tuple[int, ...] = DEFAULT_POWER_LEVELS
    rssi_sigma_db: float = 2.0
    quantize_rssi: bool = True
    drop_prob: float = 0.0
    wrap_high_power: bool = False
    tdr_error_bound: float = 0.03
    tdr_spots: int = 10
    sweeps_per_cell: int = 3
    training_mode: bool = True
    device_id: int = 1
    seed: int = 9
    epoch: float = 0.0
    sweep_interval_s: float = 60.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                if not _finite_number(value):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            elif f.type in ("int", "bool") and type(value).__name__ != f.type:
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rssi_sigma_db < 0.0:
            raise ValueError(f"rssi_sigma_db must be >= 0 dB, got {self.rssi_sigma_db}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if not 0.0 <= self.tdr_error_bound <= 1.0:
            raise ValueError(f"tdr_error_bound must be in [0, 1], got {self.tdr_error_bound}")
        if self.tdr_spots < 1:
            raise ValueError(f"tdr_spots must be >= 1, got {self.tdr_spots}")
        # A sweep's packets share a timestamp, and no two sweeps may.
        if self.sweep_interval_s <= 0.0:
            raise ValueError(f"sweep_interval_s must be > 0 s, got {self.sweep_interval_s}")
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.vwc_grid:
            raise ValueError("vwc grid must not be empty")
        for v in self.vwc_grid:
            if not (_finite_number(v) and 0.0 <= v <= self.porosity):
                raise ValueError(
                    f"grid vwc {v!r} outside [0, porosity={self.porosity}]"
                )
        for s in self.scenarios:
            depths = (s.receiver_height_cm, s.burial_depth_cm)
            valid_depths = all(_finite_number(d) and d >= 0 for d in depths) and any(depths)
            if type(s.label) is not str or not valid_depths:
                raise ValueError(
                    f"scenario {s.label!r}: needs a text label and finite depths >= 0, "
                    "not both 0 (a zero-length link)"
                )
            try:
                s.label.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"scenario {s.label!r}: label is not UTF-8 text") from None
        if self.sweeps_per_cell < 1:
            raise ValueError("sweeps_per_cell must be >= 1")
        # Fail fast on anything the physics or protocol layer would reject later.
        self.soil_state(self.vwc_grid[0])
        if self.frequency_hz <= 0.0:
            raise ValueError(f"carrier frequency must be positive, got {self.frequency_hz}")
        # The plan's first packet checks the device id, without encoding a frame.
        SweepPacket(self.device_id, 0, PowerPlan(self.power_levels).levels[0])
        # NumPy sizes an array in int64 bytes. run_campaign's largest holds
        # 8 bytes per planned packet or per probe draw (whatever
        # tdr_error_bound), the longer of a sweep's two, which names its field.
        sweeps = len(self.scenarios) * len(self.vwc_grid) * self.sweeps_per_cell
        levels = len(self.power_levels)
        name = "tdr_spots" if self.tdr_spots > levels else "sweeps_per_cell"
        size = 8 * sweeps * max(self.tdr_spots, levels)
        if size >= 2**63:
            raise ValueError(f"{name} {getattr(self, name)} makes an array of {size} bytes, "
                             "not below 2**63")

    def soil_state(self, vwc: float | np.ndarray) -> SoilState:
        return SoilState(
            vwc=vwc,
            porosity=self.porosity,
            solid_permittivity=self.solid_permittivity,
            water_permittivity=Dielectric(self.water_eps_real, self.water_loss_factor),
        )

    def without_noise(self) -> "CampaignConfig":
        """Same campaign with every stochastic element switched off."""
        return replace(
            self,
            rssi_sigma_db=0.0,
            quantize_rssi=False,
            drop_prob=0.0,
            tdr_error_bound=0.0,
        )


# Config values large enough to overflow leave non-finite cells, which the
# log refuses with one line of its own.
@np.errstate(over="ignore", invalid="ignore")
def run_campaign(config: CampaignConfig) -> MeasurementLog:
    """Sweep every scenario x vwc cell over the simulated link; returns the log.

    Each cell is visited ``sweeps_per_cell`` times. Every visit has its own
    random streams (``sweep_seed_words``) and timestamp, so the log is a pure
    function of the config; a config whose timestamps round two sweeps to one
    raises ValueError. One ``path_loss`` call gives every cell's loss.
    ``_pcg64_random`` steps every sweep's probe stream at once for its spots,
    and every drop stream for the plan; ``_normals`` draws the noise over the
    delivered frames, a generator per sweep. The rest is array work over all
    sweeps.
    ``wrap_high_power`` sends a frame that asks for 23 dBm at 5 dBm, as the
    hardware does. Frames arrive unaltered, so each is decoded once, for all
    of its deliveries.
    """
    plan = PowerPlan(config.power_levels)
    sent = [decode_packet(frame) for frame in encode_plan(config.device_id, plan)]
    device_ids, tx_powers = np.array([(p.device_id, p.tx_power) for p in sent]).T
    placements = np.array([(s.receiver_height_cm, s.burial_depth_cm) for s in config.scenarios])
    # Cells run scenario by scenario, each over the whole grid.
    levels = len(config.vwc_grid)
    heights, depths = np.repeat(placements, levels, axis=0).T
    cell_vwc = np.tile(np.asarray(config.vwc_grid, dtype=float), len(config.scenarios))
    cells = LinkGeometry(depths, heights, config.frequency_hz)
    loss = path_loss(config.soil_state(cell_vwc), cells)
    # Sweep i visits cell i // sweeps_per_cell.
    loss, vwc = np.repeat([loss, cell_vwc], config.sweeps_per_cell, axis=1)
    sweeps = len(vwc)
    stamps = config.epoch + np.arange(sweeps) * config.sweep_interval_s
    # The stamps rise with the sweep, but rounding can repeat one. (Two that
    # overflow differ by inf - inf, not 0; the log refuses them.)
    if np.any(np.diff(stamps) == 0.0):
        raise ValueError(f"epoch {config.epoch!r} + i * sweep_interval_s "
                         f"{config.sweep_interval_s!r} stamps two sweeps alike")
    tdr_words, noise_words, drop_words = sweep_seed_words(config.seed, sweeps)
    # A noiseless probe draws nothing, and random() is never below 0, so a
    # drop probability of 0 keeps every frame without a draw.
    truth = np.full(sweeps, math.nan)
    if config.training_mode:
        probe = _pcg64_random(tdr_words, config.tdr_spots if config.tdr_error_bound else 0)
        truth = read_vwc(vwc, config.tdr_error_bound, probe) / 100.0
    delivered = np.ones((sweeps, len(plan)), dtype=bool)
    if config.drop_prob:
        delivered = _pcg64_random(drop_words, len(plan)) >= config.drop_prob
    sweep, level = np.nonzero(delivered)
    noise_db = 0.0
    if config.rssi_sigma_db:
        # Generator.normal(loc, scale) is loc + scale * standard_normal().
        heard = _normals(noise_words, np.count_nonzero(delivered, axis=1))
        noise_db = 0.0 + config.rssi_sigma_db * heard
    powers = np.array(plan.levels)
    if config.wrap_high_power:
        powers[powers == TX_POWER_MAX_DBM] = TX_POWER_MIN_DBM
    rssi = sweep_rssi(powers[level], loss[sweep], config.tx_gain_db, config.rx_gain_db,
                      config.quantize_rssi, noise_db)
    place = sweep // (levels * config.sweeps_per_cell)
    labels = np.array([s.label for s in config.scenarios], dtype=object)
    return MeasurementLog(
        stamps[sweep], device_ids[level], tx_powers[level],
        rssi, *placements[place].T, labels[place], truth[sweep],
    )


# ---------------------------------------------------------------------------
# per-sweep random streams: sweep i draws its reference reading from PCG64
# seeded by SeedSequence((seed, i)), its noise from that sequence's spawn
# child 0 and its drops from child 1. The seed words of all sweeps are derived
# at once, by NumPy's SeedSequence algorithm (numpy/random/bit_generator.pyx).

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of a column of words, and the next hash constant."""
    after = const * mult & _MASK32
    words = (words ^ np.uint32(const)) * np.uint32(after)
    return words ^ words >> _SHIFT, after


def _state_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of a 4-word SeedSequence pool per
    row, given each row's assembled entropy as uint32 columns."""
    const, pool = _INIT_A, []
    for word in (entropy + [np.zeros_like(entropy[0])] * 4)[:4]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    # Every pool word into every other, then each remaining entropy word
    # into every pool word.
    sources = [(pool, src, dst) for src in range(4) for dst in range(4) if src != dst]
    sources += [(entropy, src, dst) for src in range(4, len(entropy)) for dst in range(4)]
    for words, src, dst in sources:
        word, const = _hashmix(words[src], const, _MULT_A)
        mixed = pool[dst] * _MIX_L - word * _MIX_R
        pool[dst] = mixed ^ mixed >> _SHIFT
    const, state = _INIT_B, []
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(word.astype(np.uint64))
    # Little-endian pairs of 32-bit words make the 64-bit words.
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])], -1)


def sweep_seed_words(seed: int, sweeps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every sweep
    ``i < sweeps``, then the same for its spawn children 0 and 1: three
    (sweeps, 4) arrays, one row per sweep."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    run = [np.full(sweeps, w, np.uint32) for w in words] + [np.arange(sweeps, dtype=np.uint32)]
    # A child pads its parent's entropy to the pool size and appends its index.
    padded = run + [np.zeros(sweeps, np.uint32)] * (4 - len(run))
    children = [_state_words(padded + [np.full(sweeps, i, np.uint32)]) for i in (0, 1)]
    return _state_words(run), *children


class _StateWords(ISeedSequence):
    """Hands PCG64 precomputed ``generate_state(4, np.uint64)`` words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# PCG64 (O'Neill 2014, XSL-RR 128/64, as numpy/random/src/pcg64) for many
# streams at once: each row's 128-bit LCG state and increment are (high, low)
# pairs of uint64 words. NumPy has no 64 x 64 -> 128-bit product, so the high
# word of low x multiplier is built from 32-bit limbs. Every constant is an
# np.uint64: NumPy 1.x would cast the arrays by the value of a Python int.

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH, _MULT_LOW = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_LIMB_0, _LIMB_1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW_HALF = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63 = map(np.uint64, (1, 11, 32, 58, 63))


def _pcg_step(high, low, inc_high, inc_low) -> tuple[np.ndarray, np.ndarray]:
    """Every row's state times the multiplier plus its increment, modulo 2**128."""
    low_0, low_1 = low & _LOW_HALF, low >> _U32
    part = low_1 * _LIMB_0 + (low_0 * _LIMB_0 >> _U32)
    mid = low_0 * _LIMB_1 + (part & _LOW_HALF)
    carried = low_1 * _LIMB_1 + (part >> _U32) + (mid >> _U32)  # of low * _MULT_LOW
    next_low = low * _MULT_LOW + inc_low
    next_high = carried + low * _MULT_HIGH + high * _MULT_LOW + inc_high
    return next_high + (next_low < inc_low), next_low


def _pcg_seed(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's (state high, state low, inc high, inc low) seeded from each row
    of ``generate_state(4, np.uint64)`` words: inc = (w2:w3 << 1) | 1 and
    state 0; a step; w0:w1 added; a step. The first step leaves inc."""
    inc_high = words[:, 2] << _U1 | words[:, 3] >> _U63
    inc_low = words[:, 3] << _U1 | _U1
    low = inc_low + words[:, 1]
    high = inc_high + words[:, 0] + (low < inc_low)
    return *_pcg_step(high, low, inc_high, inc_low), inc_high, inc_low


def _pcg64_random(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` values of ``Generator(PCG64(...)).random()`` for
    the stream that each row of ``words`` seeds, as a (rows, count) array."""
    # Allocated first, so that a size beyond memory fails before any step.
    out = np.empty((len(words), count))
    high, low, inc_high, inc_low = _pcg_seed(words)
    for draw in range(count):
        high, low = _pcg_step(high, low, inc_high, inc_low)
        # XSL-RR: the xor of the halves, rotated right by the top six bits.
        folded, turn = high ^ low, high >> _U58
        out[:, draw] = (folded >> turn | folded << (-turn & _U63)) >> _U11
    # random() keeps the top 53 bits.
    out *= 2.0**-53
    return out


def _normals(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of ``words`` seeds one PCG64 stream, as SeedSequence would seed
    it, whose first ``counts[i]`` values of ``standard_normal()`` fill the
    next slice of the returned buffer. Each stream takes a Generator:
    standard_normal draws through NumPy's ziggurat tables, which Python
    cannot reach."""
    ends = [0, *accumulate(counts.tolist())]
    out = np.empty(ends[-1])
    generator, pcg64 = np.random.Generator, np.random.PCG64  # looked up once, not per row
    for row, start, end in zip(words, ends, ends[1:]):
        generator(pcg64(_StateWords(row))).standard_normal(out=out[start:end])
    return out


# ---------------------------------------------------------------------------
# CSV persistence

# Rows are joined this many at a time: Python objects for every cell of a
# large log at once would take several times the memory of its columns.
_ROWS_PER_CHUNK = 4096


def _fraction_to_pct_str(fraction: float) -> str:
    # Decimal shift keeps write -> read bit-exact; a float multiply/divide
    # round-trip by 100 would occasionally lose the last ulp.
    return "" if math.isnan(fraction) else str(Decimal(repr(fraction)) * 100)


def _pct_str_to_fraction(text: str) -> float:
    """A truth cell as a VWC fraction; the empty cell, and only it, is NaN."""
    if text == "":
        return math.nan
    try:
        fraction = float(Decimal(text) / 100)
    except ArithmeticError:
        fraction = math.nan
    if not math.isfinite(fraction):
        raise ValueError(f"vwc_truth_pct {text!r} is not a finite number")
    return fraction


def _plain(parse):
    """``parse`` for a number cell, refusing the underscores and the
    surrounding whitespace that Python's number parsers let through."""
    def strict(text: str):
        if "_" in text or text.strip() != text:
            raise ValueError(f"{text!r} is not a plain number")
        return parse(text)
    return strict


# The log file's columns, in file order: each MeasurementLog field's CSV
# header and cell parser.
_LOG_COLUMNS = {
    "timestamp": ("timestamp", _plain(float)),
    "device_id": ("device_id", _plain(int)),
    "tx_power": ("tx_power_dbm", _plain(int)),
    "rssi": ("rssi_dbm", _plain(float)),
    "height_cm": ("height_cm", _plain(float)),
    "depth_cm": ("depth_cm", _plain(float)),
    "scenario": ("scenario", str),
    "vwc_truth": ("vwc_truth_pct", _plain(_pct_str_to_fraction)),
}
CSV_COLUMNS = tuple(header for header, _ in _LOG_COLUMNS.values())


class _Echo:
    """A file whose ``write`` returns its text, so that a ``csv.writer`` over
    it returns each row's CSV line instead of writing it."""

    def write(self, text: str) -> str:
        return text


def _cell_texts(values: np.ndarray, show=repr) -> tuple[np.ndarray, np.ndarray]:
    """The CSV text of each run of equal cells in a column, and which rows start a run.

    A run starts at the first row and at each row whose cell differs from the
    row before it. Distinct values are found among the runs' cells only, and
    each is formatted once. Numbers are written by ``show``, by default
    ``repr`` as ``csv`` writes them, at full precision; their texts never need
    quoting. Other values (scenario labels) are written by ``csv`` itself.
    Floats are compared by their bits, so ``-0.0`` is not written as ``0.0``.
    """
    keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    runs = np.flatnonzero(starts)
    distinct, text_of_run = np.unique(keys[runs], return_inverse=True)
    # A float key viewed back is its value, -0.0 and NaN bits kept.
    distinct = distinct.view(values.dtype).tolist()
    if values.dtype.kind in "biuf":
        texts = list(map(show, distinct))
    else:
        line = csv.writer(_Echo()).writerow
        # Each value goes first in a two-cell row: csv quotes a row's lone empty cell.
        texts = [line((value, ""))[: -len(",\r\n")] for value in distinct]
    # The inverse's shape differs between NumPy 1.x and 2.x.
    return np.array(texts, dtype=object)[text_of_run.ravel()], starts


def _row_pieces(cells: list[tuple[np.ndarray, np.ndarray]], starts: np.ndarray) -> np.ndarray:
    """Each row's text of adjacent columns' ``_cell_texts``, joined by commas
    once per run; ``starts`` marks the rows where any of them starts a run."""
    if len(cells) == 1:
        texts = cells[0][0]
    else:
        at = np.flatnonzero(starts)
        parts = [texts[np.cumsum(runs)[at] - 1].tolist() for texts, runs in cells]
        texts = np.array(list(map(",".join, zip(*parts))), dtype=object)
    return texts if starts.all() else texts[np.cumsum(starts) - 1]


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence, **show) -> None:
    """Write the ``header`` line (names that need no quoting), then a row per
    cell of the equal-length ``columns``; ``show`` maps the header of a number
    column to its formatter, by default ``repr``.

    Adjacent columns that together start a run (``_cell_texts``) on at most
    half of the rows are joined once per run, so in a log a sweep's shared
    cells become two pieces and each row joins four pieces, not eight.
    """
    cells = [_cell_texts(np.asarray(column), show.get(name, repr))
             for name, column in zip(header, columns)]
    rows = len(cells[0][1])
    groups, starts = [], []
    for cell in cells:
        if groups and 2 * np.count_nonzero(joined := starts[-1] | cell[1]) <= rows:
            groups[-1].append(cell)
            starts[-1] = joined
        else:
            groups.append([cell])
            starts.append(cell[1])
    pieces = list(map(_row_pieces, groups, starts))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, rows, _ROWS_PER_CHUNK):
            chunk = [texts[start:start + _ROWS_PER_CHUNK].tolist() for texts in pieces]
            handle.write("\r\n".join(map(",".join, zip(*chunk))) + "\r\n")


def write_measurements(path: str | Path, log: MeasurementLog, **extra: np.ndarray) -> None:
    """Write the log, then each ``extra`` column (one cell per row), headed by its keyword."""
    for name, column in extra.items():
        if len(column) != len(log):
            raise ValueError(f"column {name!r} has {len(column)} rows, the log {len(log)}")
    columns = [getattr(log, name) for name in _LOG_COLUMNS] + list(extra.values())
    _write_csv(path, CSV_COLUMNS + tuple(extra), columns, vwc_truth_pct=_fraction_to_pct_str)


def read_measurements(path: str | Path) -> MeasurementLog:
    """The log at ``path``, which must be UTF-8 text.

    The first bad row raises ValueError as ``path:line: why``, with the
    line on which ``csv`` ends the row. A row is bad if it has the wrong
    number of cells, a cell that its column's parser refuses (the first
    such cell, in column order) or a value that breaks a MeasurementLog
    rule; the rows before one that ``csv`` cannot read are checked first.
    """
    rows, lines, unreadable = [], [], None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                if tuple(next(reader, ())) != CSV_COLUMNS:
                    raise ValueError(f"{path}: not a measurement log (bad header)")
                for row in reader:
                    rows.append(row)
                    lines.append(reader.line_num)
            except csv.Error as err:
                unreadable = ValueError(f"{path}:{reader.line_num}: {err}")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
    width = len(CSV_COLUMNS)
    # The first row of the wrong width, then the first cell a parser refuses.
    bad, why = len(rows), None
    if set(map(len, rows)) - {width}:
        bad = next(i for i, row in enumerate(rows) if len(row) != width)
        why = f"{len(rows[bad])} columns, want {width}"
    columns = {name: [] for name in _LOG_COLUMNS}
    # Each distinct cell text of a column is parsed once.
    for (name, (_, parse)), cells in zip(_LOG_COLUMNS.items(), zip(*rows[:bad])):
        parsed, refused = {}, {}
        for text in set(cells):
            try:
                parsed[text] = parse(text)
            except ValueError as err:
                refused[text] = str(err)
        if refused:
            row = next(i for i, text in enumerate(cells) if text in refused)
            # A refusal in an earlier column of the same row came first.
            if row < bad:
                bad, why = row, refused[cells[row]]
        columns[name] = list(map(parsed.get, cells))
    try:
        log = MeasurementLog(**{name: column[:bad] for name, column in columns.items()})
    except LogRowError as err:
        raise ValueError(f"{path}:{lines[err.row]}: {err}") from None
    if why is not None:
        raise ValueError(f"{path}:{lines[bad]}: {why}")
    if unreadable is not None:
        raise unreadable
    return log


# ---------------------------------------------------------------------------
# plot-ready curves

CURVE_COLUMNS = ("scenario", "height_cm", "vwc_truth_pct", "mean_rssi_dbm")


def _safe_name(label: str) -> str:
    """The label with every character but ASCII letters, digits, ``-`` and ``_``
    replaced by ``_``, so that any locale can encode the file name."""
    return "".join(c if c.isascii() and c.isalnum() or c in "-_" else "_" for c in label)


def median_power_curves(log: MeasurementLog) -> dict[str, tuple[np.ndarray, ...]]:
    """Per-height RSSI-vs-moisture curves from the median-power packets:
    each curve file's name with its points as ``CURVE_COLUMNS``, one point
    per (scenario, height, logged reading) at the mean RSSI of its packets,
    sorted by reading. Raises ValueError if a (scenario, height) holds two
    burial depths, which one curve would blend, if two (scenario, height)
    pairs map to one file name, or if a name is longer than the 255 bytes
    that common file systems take (it is ASCII: a byte per character).
    """
    log.require_ground_truth()
    at = log.take(log.tx_power == log_median_power(log))
    pct = 100.0 * at.vwc_truth
    label = np.unique(at.scenario, return_inverse=True)[1]
    # Float keys compare by value, so -0.0 and 0.0 make one point, shown by
    # its first packet. The inverse's shape differs between NumPy 1.x and 2.x.
    keys = np.column_stack([label, at.height_cm, at.depth_cm, pct])
    _, first, point = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    mean_rssi = np.bincount(point.ravel(), at.rssi) / np.bincount(point.ravel())
    # The points are sorted, so a curve's points are a run of them.
    starts = np.unique(keys[first, :2], axis=0, return_index=True)[1]
    curves: dict[str, tuple[np.ndarray, ...]] = {}
    for start, stop in zip(starts, [*starts[1:], len(first)]):
        rows = first[start:stop]
        key = (at.scenario[rows[0]], at.height_cm[rows[0]].item())
        name = f"curve_{_safe_name(key[0])}_h{key[1]:g}cm.csv"
        depths = sorted(set(at.depth_cm[rows].tolist()))
        if len(depths) > 1:
            raise ValueError(f"scenario {key[0]!r} at height {key[1]!r} cm holds burial "
                             f"depths {depths} cm; one curve would blend them")
        if len(name) > 255:
            raise ValueError(f"scenario {key[0]!r} at height {key[1]!r} cm makes a "
                             f"{len(name)}-byte curve file name, past 255 bytes")
        if name in curves:
            earlier = (curves[name][0][0], curves[name][1][0].item())
            raise ValueError(f"(scenario, height) {earlier} and {key} both map to {name}")
        curves[name] = (at.scenario[rows], at.height_cm[rows], pct[rows], mean_rssi[start:stop])
    return curves


# ---------------------------------------------------------------------------
# config persistence (versioned JSON)

def config_to_dict(config: CampaignConfig) -> dict:
    return {"format": CONFIG_FILE_FORMAT, "version": CONFIG_FILE_VERSION, **asdict(config)}


def config_from_dict(data) -> CampaignConfig:
    """The config a ``config_to_dict`` dict describes.

    Every field is required: a missing or unknown key, at the top level or
    in a scenario, raises ValueError, as does any value CampaignConfig
    rejects.
    """
    if not isinstance(data, dict) or data.get("format") != CONFIG_FILE_FORMAT:
        raise ValueError(f"not a {CONFIG_FILE_FORMAT} config")
    if (version := data.get("version")) != CONFIG_FILE_VERSION:
        upgrade = "; delete its spread_factor and bandwidth_hz keys, then set version 2"
        raise ValueError(f"config version {version!r} is not supported (this smol reads "
                         f"version {CONFIG_FILE_VERSION}){upgrade if version == 1 else ''}")
    try:
        names = [f.name for f in fields(CampaignConfig)]
        _require_keys(data, ["format", "version", *names], "config")
        values = {name: data[name] for name in names}
        for name in ("scenarios", "vwc_grid", "power_levels"):
            if not isinstance(values[name], list):
                raise ValueError(f"config: {name} is not a list")
            values[name] = tuple(values[name])
        scenario_keys = [f.name for f in fields(Scenario)]
        for i, s in enumerate(values["scenarios"]):
            _require_keys(s, scenario_keys, f"config: scenario {i}")
        values["scenarios"] = tuple(Scenario(**s) for s in values["scenarios"])
        return CampaignConfig(**values)
    except TypeError as err:
        raise ValueError(f"config: a value has the wrong type ({err})") from None


def save_config(config: CampaignConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: str | Path) -> CampaignConfig:
    return config_from_dict(_read_json(path))
