"""Simulated measurement campaigns and their on-disk log format.

A campaign walks every scenario x moisture-grid cell: take one reference
sensor reading, run one full power sweep over the simulated link, and
append the resulting Measurements. Everything derives from the campaign
seed, so identical configs produce byte-identical logs.

Log schema (CSV, one row per received packet):

    timestamp,device_id,tx_power_dbm,rssi_dbm,height_cm,depth_cm,scenario,vwc_truth_pct

vwc_truth_pct is empty when the campaign ran in inference mode.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from decimal import Decimal
from pathlib import Path
from typing import Sequence

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
    Measurement,
    PowerPlan,
    SimulatedLink,
    encode_plan,
    log_median_power,
    run_sweep,
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


def run_campaign(config: CampaignConfig) -> list[Measurement]:
    """Sweep every scenario x vwc cell; returns the full measurement log.

    Each cell is visited ``sweeps_per_cell`` times, with a fresh reference
    reading and noise stream per visit; every visit gets its own derived
    seed and timestamp, so the whole log is a pure function of the config.
    The sweep frames and each cell's path loss are computed once.
    """
    plan = PowerPlan(config.power_levels)
    frames = encode_plan(config.device_id, plan)
    sensor = config.tdr_sensor()
    log: list[Measurement] = []
    cell = 0
    for scenario in config.scenarios:
        geom = config.geometry(scenario)
        for vwc in config.vwc_grid:
            state = config.soil_state(vwc)
            loss = path_loss(state, geom)
            for _ in range(config.sweeps_per_cell):
                truth = None
                if config.training_mode:
                    truth = read_vwc(sensor, state, draw_index=cell) / 100.0
                link = SimulatedLink(
                    soil=state,
                    geom=geom,
                    noise=config.noise_model(cell),
                    drop_prob=config.drop_prob,
                    wrap_high_power=config.wrap_high_power,
                    scenario=scenario.label,
                    vwc_truth=truth,
                    timestamp=config.epoch + cell * config.sweep_interval_s,
                    loss_db=loss,
                )
                log.extend(run_sweep(config.device_id, plan, link, frames=frames))
                cell += 1
    return log


# ---------------------------------------------------------------------------
# CSV persistence

def _fraction_to_pct_str(fraction: float) -> str:
    # Decimal shift keeps write -> read bit-exact; a float multiply/divide
    # round-trip by 100 would occasionally lose the last ulp.
    return str(Decimal(repr(fraction)) * 100)


def _pct_str_to_fraction(text: str) -> float:
    try:
        return float(Decimal(text) / 100)
    except ArithmeticError:
        raise ValueError(f"vwc_truth_pct {text!r} is not a number") from None


def measurement_row(m: Measurement) -> list:
    """One CSV row in CSV_COLUMNS order; floats keep full precision."""
    return [
        repr(m.timestamp),
        m.device_id,
        m.tx_power,
        repr(m.rssi),
        repr(m.height_cm),
        repr(m.depth_cm),
        m.scenario,
        "" if m.vwc_truth is None else _fraction_to_pct_str(m.vwc_truth),
    ]


def write_measurements(path: str | Path, measurements: Sequence[Measurement]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for m in measurements:
            writer.writerow(measurement_row(m))


def read_measurements(path: str | Path) -> list[Measurement]:
    """The log at ``path``; the first bad row raises ValueError as ``path:line: why``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: not a measurement log (bad header)")
        out = []
        try:
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(row)} columns, want {len(CSV_COLUMNS)}")
                out.append(
                    Measurement(
                        timestamp=float(row[0]),
                        device_id=int(row[1]),
                        tx_power=int(row[2]),
                        rssi=float(row[3]),
                        height_cm=float(row[4]),
                        depth_cm=float(row[5]),
                        scenario=row[6],
                        vwc_truth=None if row[7] == "" else _pct_str_to_fraction(row[7]),
                    )
                )
        except (ValueError, csv.Error) as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    return out


# ---------------------------------------------------------------------------
# plot-ready curves

@dataclass(frozen=True)
class CurvePoint:
    """Mean RSSI of the median power for one (scenario, height, vwc) cell."""

    scenario: str
    height_cm: float
    vwc_truth_pct: float
    mean_rssi_dbm: float


def median_power_curves(measurements: Sequence[Measurement]) -> list[CurvePoint]:
    """Per-height RSSI-vs-moisture curves from the median-power packets."""
    med = log_median_power(measurements)
    groups: dict[tuple[str, float, float], list[float]] = {}
    for m in measurements:
        if m.tx_power != med:
            continue
        if m.vwc_truth is None:
            raise ValueError("curve extraction needs ground-truthed measurements")
        key = (m.scenario, m.height_cm, 100.0 * m.vwc_truth)
        groups.setdefault(key, []).append(m.rssi)
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
