"""Simulated measurement campaigns and their on-disk log format.

A campaign walks every scenario x moisture-grid cell: take one reference
sensor reading, run one full power sweep over the simulated link, and
log the delivered packets. The log is one MeasurementLog, built once
from every sweep's columns. Everything derives from the campaign seed,
so identical configs produce byte-identical logs.

Log schema (CSV, one row per received packet):

    timestamp,device_id,tx_power_dbm,rssi_dbm,height_cm,depth_cm,scenario,vwc_truth_pct

vwc_truth_pct is empty when the campaign ran in inference mode; an empty
cell is the only way to omit it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from decimal import Decimal
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .calibrate import _require_keys
from .groundtruth import TdrSensor, read_vwc
from .soilchan import (
    WATER_LOSS_FACTOR_DEFAULT,
    WATER_PERMITTIVITY_DEFAULT,
    Dielectric,
    LinkGeometry,
    NoiseModel,
    SoilState,
    path_loss,
)
from .sweepproto import (
    DEFAULT_POWER_LEVELS,
    LogRowError,
    MeasurementLog,
    PowerPlan,
    SimulatedLink,
    decode_packet,
    encode_plan,
    log_median_power,
)

CONFIG_FILE_FORMAT = "smol-campaign"
CONFIG_FILE_VERSION = 1

CSV_COLUMNS = (
    "timestamp",
    "device_id",
    "tx_power_dbm",
    "rssi_dbm",
    "height_cm",
    "depth_cm",
    "scenario",
    "vwc_truth_pct",
)


class ConfigError(ValueError):
    """A campaign configuration that cannot be run."""


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


def _finite_number(value) -> bool:
    """An int or float, not a bool, that is finite."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a simulated campaign needs, in one value object.

    spread_factor and bandwidth_hz describe the radio configuration but
    do not enter the channel model; they are carried as metadata only.
    """

    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS
    vwc_grid: tuple[float, ...] = DEFAULT_VWC_GRID
    porosity: float = 0.45
    solid_permittivity: float = 5.0
    water_eps_real: float = WATER_PERMITTIVITY_DEFAULT
    water_loss_factor: float = WATER_LOSS_FACTOR_DEFAULT
    frequency_hz: float = 915e6
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
    spread_factor: int = 7
    bandwidth_hz: float = 125_000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                if not _finite_number(value):
                    raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            elif f.type in ("int", "bool") and type(value).__name__ != f.type:
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if not self.scenarios:
            raise ConfigError("campaign needs at least one scenario")
        if not self.vwc_grid:
            raise ConfigError("vwc grid must not be empty")
        for v in self.vwc_grid:
            if not (_finite_number(v) and 0.0 <= v <= self.porosity):
                raise ConfigError(
                    f"grid vwc {v!r} outside [0, porosity={self.porosity}]"
                )
        for s in self.scenarios:
            depths = (s.receiver_height_cm, s.burial_depth_cm)
            valid_depths = all(_finite_number(d) and d >= 0 for d in depths)
            if type(s.label) is not str or not valid_depths:
                raise ConfigError(
                    f"scenario {s.label!r}: needs a text label and finite depths >= 0"
                )
        if self.sweeps_per_cell < 1:
            raise ConfigError("sweeps_per_cell must be >= 1")
        # Fail fast on anything the physics layer would reject later.
        self.soil_state(self.vwc_grid[0])
        PowerPlan(self.power_levels)
        self.noise_model(0)
        self.tdr_sensor()

    def soil_state(self, vwc: float) -> SoilState:
        return SoilState(
            vwc=vwc,
            porosity=self.porosity,
            solid_permittivity=self.solid_permittivity,
            water_permittivity=Dielectric(self.water_eps_real, self.water_loss_factor),
        )

    def geometry(self, scenario: Scenario) -> LinkGeometry:
        return LinkGeometry(
            burial_depth_cm=scenario.burial_depth_cm,
            receiver_height_cm=scenario.receiver_height_cm,
            carrier_frequency_hz=self.frequency_hz,
            tx_antenna_gain_db=self.tx_gain_db,
            rx_antenna_gain_db=self.rx_gain_db,
        )

    def noise_model(self, cell_index: int) -> NoiseModel:
        return NoiseModel(
            rssi_sigma_db=self.rssi_sigma_db,
            quantize=self.quantize_rssi,
            seed=(self.seed, cell_index),
        )

    def tdr_sensor(self) -> TdrSensor:
        return TdrSensor(
            error_bound=self.tdr_error_bound, spots=self.tdr_spots, seed=self.seed
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


def run_campaign(config: CampaignConfig) -> MeasurementLog:
    """Sweep every scenario x vwc cell; returns the full measurement log.

    Each cell is visited ``sweeps_per_cell`` times, with a fresh reference
    reading and noise stream per visit; every visit gets its own derived
    seed and timestamp, so the whole log is a pure function of the config.
    The sweep frames and each cell's path loss are computed once. The link
    delivers frames unaltered, so each frame is decoded once, for all of
    its deliveries.
    """
    plan = PowerPlan(config.power_levels)
    sent = [decode_packet(frame) for frame in encode_plan(config.device_id, plan)]
    device_ids, tx_powers = np.array([(p.device_id, p.tx_power) for p in sent]).T
    sensor = config.tdr_sensor()
    per_scenario = len(config.vwc_grid) * config.sweeps_per_cell
    # Sweep x plan-level grids: each sweep fills in the levels it delivered.
    shape = (len(config.scenarios) * per_scenario, len(plan))
    delivered, rssi = np.zeros(shape, dtype=bool), np.zeros(shape)
    truth = np.full(shape[0], math.nan)
    cell = 0
    for scenario in config.scenarios:
        geom = config.geometry(scenario)
        for vwc in config.vwc_grid:
            state = config.soil_state(vwc)
            loss = path_loss(state, geom)
            for _ in range(config.sweeps_per_cell):
                if config.training_mode:
                    truth[cell] = read_vwc(sensor, state, draw_index=cell) / 100.0
                link = SimulatedLink(
                    soil=state,
                    geom=geom,
                    noise=config.noise_model(cell),
                    drop_prob=config.drop_prob,
                    wrap_high_power=config.wrap_high_power,
                    loss_db=loss,
                )
                kept, heard = link.carry(plan)
                delivered[cell, kept] = True
                rssi[cell, kept] = heard
                cell += 1
    sweep, level = np.nonzero(delivered)
    place = sweep // per_scenario
    placements = np.array([(s.receiver_height_cm, s.burial_depth_cm) for s in config.scenarios])
    labels = np.array([s.label for s in config.scenarios], dtype=object)
    return MeasurementLog(
        config.epoch + sweep * config.sweep_interval_s, device_ids[level], tx_powers[level],
        rssi[delivered], *placements[place].T, labels[place], truth[sweep],
    )


# ---------------------------------------------------------------------------
# CSV persistence

# Rows are formatted this many at a time: Python objects for every cell of
# a large log at once would take several times the memory of its columns.
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


# How read_measurements parses each cell of a row, in CSV_COLUMNS order.
_CELL_PARSERS = (float, int, int, float, float, float, str, _pct_str_to_fraction)


def log_rows(log: MeasurementLog, *extra: np.ndarray) -> Iterator[tuple]:
    """The log's CSV rows in CSV_COLUMNS order, each followed by its entry
    in every ``extra`` column.

    Floats keep full precision (``csv`` writes them with ``repr``); the
    truth percent is formatted once per distinct reading.
    """
    readings, reading_of_row = np.unique(log.vwc_truth, return_inverse=True)
    truth_cells = np.array([_fraction_to_pct_str(v) for v in readings.tolist()], dtype=object)
    columns = [
        log.timestamp, log.device_id, log.tx_power, log.rssi, log.height_cm, log.depth_cm,
        log.scenario, truth_cells[reading_of_row], *map(np.asarray, extra),
    ]
    for start in range(0, len(log), _ROWS_PER_CHUNK):
        yield from zip(*(c[start : start + _ROWS_PER_CHUNK].tolist() for c in columns))


def write_measurements(path: str | Path, log: MeasurementLog) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(log_rows(log))


def read_measurements(path: str | Path) -> MeasurementLog:
    """The log at ``path``; the first bad row raises ValueError as ``path:line: why``."""
    rows, lines, unreadable = [], [], None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: not a measurement log (bad header)")
        try:
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(row)} columns, want {len(CSV_COLUMNS)}")
                rows.append([parse(cell) for parse, cell in zip(_CELL_PARSERS, row)])
                lines.append(reader.line_num)
        except (ValueError, csv.Error) as err:
            unreadable = ValueError(f"{path}:{reader.line_num}: {err}")
    # The rows read before an unreadable one are checked first, so the
    # error names the first bad row of either kind.
    columns = list(zip(*rows)) or [()] * len(CSV_COLUMNS)
    try:
        log = MeasurementLog(*columns)
    except LogRowError as err:
        raise ValueError(f"{path}:{lines[err.row]}: {err}") from None
    if unreadable is not None:
        raise unreadable
    return log


# ---------------------------------------------------------------------------
# plot-ready curves

@dataclass(frozen=True)
class CurvePoint:
    """Mean RSSI of the median power for one (scenario, height, vwc) cell."""

    scenario: str
    height_cm: float
    vwc_truth_pct: float
    mean_rssi_dbm: float


def median_power_curves(log: MeasurementLog) -> list[CurvePoint]:
    """Per-height RSSI-vs-moisture curves from the median-power packets."""
    at_median = log.take(log.tx_power == log_median_power(log))
    if np.isnan(at_median.vwc_truth).any():
        raise ValueError("curve extraction needs ground-truthed measurements")
    pct = 100.0 * at_median.vwc_truth
    cells = zip(at_median.scenario.tolist(), at_median.height_cm.tolist(), pct.tolist())
    groups: dict[tuple[str, float, float], list[float]] = {}
    for key, rssi in zip(cells, at_median.rssi.tolist()):
        groups.setdefault(key, []).append(rssi)
    points = [
        CurvePoint(s, h, v, sum(r) / len(r)) for (s, h, v), r in groups.items()
    ]
    points.sort(key=lambda p: (p.scenario, p.height_cm, p.vwc_truth_pct))
    return points


def write_curves(path: str | Path, points: Sequence[CurvePoint]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "height_cm", "vwc_truth_pct", "mean_rssi_dbm"])
        for p in points:
            writer.writerow(
                [p.scenario, repr(p.height_cm), repr(p.vwc_truth_pct), repr(p.mean_rssi_dbm)]
            )


# ---------------------------------------------------------------------------
# config persistence (versioned JSON)

def config_to_dict(config: CampaignConfig) -> dict:
    return {"format": CONFIG_FILE_FORMAT, "version": CONFIG_FILE_VERSION, **asdict(config)}


def config_from_dict(data) -> CampaignConfig:
    """The config a ``config_to_dict`` dict describes.

    Every field is required: a missing or unknown key, at the top level or
    in a scenario, raises ConfigError, as does any value CampaignConfig
    rejects.
    """
    if not isinstance(data, dict) or data.get("format") != CONFIG_FILE_FORMAT:
        raise ConfigError(f"not a {CONFIG_FILE_FORMAT} config")
    if data.get("version") != CONFIG_FILE_VERSION:
        raise ConfigError("unsupported config version")
    try:
        names = [f.name for f in fields(CampaignConfig)]
        _require_keys(data, ["format", "version", *names], "config")
        values = {name: data[name] for name in names}
        for name in ("scenarios", "vwc_grid", "power_levels"):
            if not isinstance(values[name], list):
                raise ConfigError(f"config: {name} is not a list")
            values[name] = tuple(values[name])
        scenario_keys = [f.name for f in fields(Scenario)]
        for i, s in enumerate(values["scenarios"]):
            _require_keys(s, scenario_keys, f"config: scenario {i}")
        values["scenarios"] = tuple(Scenario(**s) for s in values["scenarios"])
        return CampaignConfig(**values)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    except TypeError as err:
        raise ConfigError(f"config: a value has the wrong type ({err})") from None


def save_config(config: CampaignConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: str | Path) -> CampaignConfig:
    return config_from_dict(json.loads(Path(path).read_text()))
