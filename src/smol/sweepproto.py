"""Power-sweep measurement protocol over a simulated link.

The transmitter steps through a plan of transmit powers, broadcasting one
framed packet per level (``encode_plan``). A SimulatedLink stands in for
the radio pair: it carries a whole sweep at once, drawing its drops and
its noise as one vector each, and hears every delivered frame with a
synthesized RSSI. What was received is logged as a MeasurementLog, one
column per field.

Frame layout (7 bytes, big-endian):

    [0]    magic 0x53
    [1]    version 0x01
    [2:4]  device_id, unsigned 16-bit
    [4]    sequence, unsigned 8-bit (sweep-local, starts at 0)
    [5]    tx_power, signed 8-bit dBm
    [6]    XOR of bytes 0..5
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .soilchan import (
    TX_POWER_MAX_DBM,
    TX_POWER_MIN_DBM,
    LinkGeometry,
    NoiseModel,
    SoilState,
    path_loss,
    sweep_rssi,
)

FRAME_MAGIC = 0x53
FRAME_VERSION = 0x01
FRAME_LENGTH = 7

# The transceiver exposes powers 5..23 dBm but 23 misbehaves on real
# hardware, so the stock plan stops at 22.
DEFAULT_POWER_LEVELS: tuple[int, ...] = tuple(range(5, 23))


class FrameError(ValueError):
    """A frame that does not decode to a valid packet."""


class BadLength(FrameError):
    pass


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class BadChecksum(FrameError):
    pass


class PowerOutOfRange(FrameError):
    pass


@dataclass(frozen=True)
class SweepPacket:
    """Payload of one sweep broadcast."""

    device_id: int
    sequence: int
    tx_power: int

    def __post_init__(self) -> None:
        if not 0 <= self.device_id <= 0xFFFF:
            raise ValueError(f"device_id {self.device_id} not a u16")
        if not 0 <= self.sequence <= 0xFF:
            raise ValueError(f"sequence {self.sequence} not a u8")
        if not TX_POWER_MIN_DBM <= self.tx_power <= TX_POWER_MAX_DBM:
            raise PowerOutOfRange(
                f"tx power {self.tx_power} dBm outside "
                f"[{TX_POWER_MIN_DBM}, {TX_POWER_MAX_DBM}]"
            )


@dataclass(frozen=True)
class PowerPlan:
    """Ordered transmit powers for one sweep. Default: 18 levels, 5..22."""

    levels: tuple[int, ...] = DEFAULT_POWER_LEVELS

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise ValueError("power plan must not be empty")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("power plan has duplicate levels")
        for p in self.levels:
            if type(p) is not int or not TX_POWER_MIN_DBM <= p <= TX_POWER_MAX_DBM:
                raise ValueError(
                    f"plan level {p!r} is not an integer dBm in "
                    f"[{TX_POWER_MIN_DBM}, {TX_POWER_MAX_DBM}]"
                )

    def __len__(self) -> int:
        return len(self.levels)


# The integer columns, absent here, keep whatever NumPy makes of them until
# they are checked, so an out-of-range value fails its rule, not the conversion.
_COLUMN_DTYPES = {"scenario": object} | dict.fromkeys(
    ("timestamp", "rssi", "height_cm", "depth_cm", "vwc_truth"), float
)


class LogRowError(ValueError):
    """A MeasurementLog row that breaks a rule; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(reason)
        self.row = row


@dataclass(frozen=True, eq=False)
class MeasurementLog:
    """Received packets as columns, one entry per packet: what was sent,
    what was heard, and where.

    ``vwc_truth`` is the reference-sensor reading as a fraction in [0, 1],
    NaN where the campaign ran in inference mode. The other numbers must be
    finite, height and depth >= 0, ``device_id`` a u16 and ``tx_power`` an
    integer level the radio can send. Columns are checked once, when the
    log is built; the first row that breaks a rule raises LogRowError.
    """

    timestamp: np.ndarray
    device_id: np.ndarray
    tx_power: np.ndarray
    rssi: np.ndarray
    height_cm: np.ndarray
    depth_cm: np.ndarray
    scenario: np.ndarray
    vwc_truth: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            column = np.asarray(getattr(self, f.name), _COLUMN_DTYPES.get(f.name))
            object.__setattr__(self, f.name, column)
        if len({len(getattr(self, f.name)) for f in fields(self)}) != 1:
            raise ValueError("log columns differ in length")
        h, d, t = self.height_cm, self.depth_cm, self.vwc_truth
        rules = (
            (np.isfinite(self.timestamp) & np.isfinite(self.rssi), "non-finite timestamp or rssi"),
            (np.isfinite(h) & np.isfinite(d) & (h >= 0.0) & (d >= 0.0),
             "height and depth must be finite and >= 0 cm"),
            ((0 <= self.device_id) & (self.device_id <= 0xFFFF), "device_id outside [0, 65535]"),
            ((TX_POWER_MIN_DBM <= self.tx_power) & (self.tx_power <= TX_POWER_MAX_DBM),
             f"tx power outside [{TX_POWER_MIN_DBM}, {TX_POWER_MAX_DBM}] dBm"),
            (np.isnan(t) | ((0.0 <= t) & (t <= 1.0)), "vwc_truth outside [0, 1]"),
        )
        ok = np.logical_and.reduce([good for good, _ in rules])
        if not ok.all():
            row = int(np.argmin(ok))
            raise LogRowError(row, next(why for good, why in rules if not good[row]))
        for name in ("device_id", "tx_power"):
            column = getattr(self, name)
            if not np.array_equal(column.astype(np.int64), column):
                raise ValueError(f"{name} must hold integers")
            object.__setattr__(self, name, column.astype(np.int64))

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self, rows: np.ndarray) -> "MeasurementLog":
        """The log of the given rows (indices or a boolean mask), in that order."""
        return MeasurementLog(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def _xor(data: bytes) -> int:
    acc = 0
    for b in data:
        acc ^= b
    return acc


def encode_packet(p: SweepPacket) -> bytes:
    """Frame a packet into the 7-byte wire format."""
    head = struct.pack(
        ">BBHBb", FRAME_MAGIC, FRAME_VERSION, p.device_id, p.sequence, p.tx_power
    )
    return head + bytes([_xor(head)])


def decode_packet(frame: bytes) -> SweepPacket:
    """Parse and validate a wire frame; inverse of encode_packet.

    Raises a distinct FrameError subclass per failure mode.
    """
    if len(frame) != FRAME_LENGTH:
        raise BadLength(f"frame is {len(frame)} bytes, want {FRAME_LENGTH}")
    if frame[0] != FRAME_MAGIC:
        raise BadMagic(f"magic 0x{frame[0]:02x}, want 0x{FRAME_MAGIC:02x}")
    if frame[1] != FRAME_VERSION:
        raise BadVersion(f"version 0x{frame[1]:02x}, want 0x{FRAME_VERSION:02x}")
    if _xor(frame[:6]) != frame[6]:
        raise BadChecksum("checksum mismatch")
    _, _, device_id, sequence, tx_power = struct.unpack(">BBHBb", frame[:6])
    return SweepPacket(device_id=device_id, sequence=sequence, tx_power=tx_power)


def median_power(plan: PowerPlan) -> int:
    """Lower median of the plan's levels (even counts break downward)."""
    ordered = sorted(plan.levels)
    return ordered[(len(ordered) - 1) // 2]


def log_median_power(log: MeasurementLog) -> int:
    """Median power of the plan a log was swept with, inferred from the
    distinct TX powers it holds."""
    return median_power(PowerPlan(tuple(set(log.tx_power.tolist()))))


def encode_plan(device_id: int, plan: PowerPlan) -> tuple[bytes, ...]:
    """The transmitter's frames for one sweep: one per plan level, in plan
    order, sequence numbers from 0.

    The frames depend only on the device and the plan, so a campaign
    encodes them once and hands them to every sweep.
    """
    return tuple(
        encode_packet(SweepPacket(device_id=device_id, sequence=i, tx_power=power))
        for i, power in enumerate(plan.levels)
    )


@dataclass
class SimulatedLink:
    """Radio pair stand-in: applies channel physics and loss.

    ``loss_db`` is the link's path loss; it is computed from ``soil`` and
    ``geom`` when not given. ``wrap_high_power`` reproduces the hardware
    quirk where requesting 23 dBm actually transmits at 5 dBm; the frame
    still says 23. Dropped frames never reach the receiver and are only
    counted here.
    """

    soil: SoilState
    geom: LinkGeometry
    noise: NoiseModel = NoiseModel()
    drop_prob: float = 0.0
    wrap_high_power: bool = False
    loss_db: float | None = None
    dropped: int = field(default=0, init=False)
    _noise_rng: np.random.Generator = field(init=False, repr=False)
    _drop_rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if self.loss_db is None:
            self.loss_db = path_loss(self.soil, self.geom)
        noise_seq, drop_seq = np.random.SeedSequence(self.noise.seed).spawn(2)
        self._noise_rng = np.random.default_rng(noise_seq)
        self._drop_rng = np.random.default_rng(drop_seq)

    def carry(self, plan: PowerPlan) -> tuple[np.ndarray, np.ndarray]:
        """Carry one sweep, one frame per plan level, in plan order.

        Returns the plan indices of the delivered frames, ascending, and
        the RSSI each was heard at. The drop draws are one vector over the
        whole plan, the noise one vector over the delivered frames.
        """
        levels = np.array(plan.levels)
        kept = np.arange(len(levels))
        if self.drop_prob > 0.0:
            kept = np.flatnonzero(self._drop_rng.random(len(levels)) >= self.drop_prob)
            self.dropped += len(levels) - len(kept)
        powers = levels[kept]
        if self.wrap_high_power:
            powers = np.where(powers == TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, powers)
        return kept, sweep_rssi(powers, self.loss_db, self.geom, self.noise, self._noise_rng)
