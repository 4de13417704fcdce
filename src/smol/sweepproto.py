"""Power-sweep measurement protocol over a simulated link.

The transmitter steps through a plan of transmit powers, broadcasting one
framed packet per level (``encode_plan``); what the receiver heard is
logged as a MeasurementLog, one column per field. The simulated link that
carries the frames is ``campaign.run_campaign``.

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
from dataclasses import dataclass, fields

import numpy as np

FRAME_MAGIC = 0x53
FRAME_VERSION = 0x01
FRAME_LENGTH = 7

# Transmit power limits of the target transceiver class, dBm. 23 misbehaves
# on real hardware, so the stock plan stops at 22.
TX_POWER_MIN_DBM = 5
TX_POWER_MAX_DBM = 23
DEFAULT_POWER_LEVELS: tuple[int, ...] = tuple(range(5, 23))


class FrameError(ValueError):
    """A frame that does not decode to a valid packet."""


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
            raise FrameError(
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

    def require_ground_truth(self) -> None:
        """Raise ValueError unless every row holds a reference reading."""
        missing = np.count_nonzero(np.isnan(self.vwc_truth))
        if missing:
            raise ValueError(
                f"{missing} of {len(self)} measurement(s) lack ground truth "
                "(empty vwc_truth_pct: an inference-mode campaign?)"
            )

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

    Raises FrameError naming the first fault, checked in this order: length,
    magic, version, checksum, TX power outside the radio's range.
    """
    if len(frame) != FRAME_LENGTH:
        raise FrameError(f"frame is {len(frame)} bytes, want {FRAME_LENGTH}")
    if frame[0] != FRAME_MAGIC:
        raise FrameError(f"magic 0x{frame[0]:02x}, want 0x{FRAME_MAGIC:02x}")
    if frame[1] != FRAME_VERSION:
        raise FrameError(f"version 0x{frame[1]:02x}, want 0x{FRAME_VERSION:02x}")
    if _xor(frame[:6]) != frame[6]:
        raise FrameError("checksum mismatch")
    _, _, device_id, sequence, tx_power = struct.unpack(">BBHBb", frame[:6])
    return SweepPacket(device_id=device_id, sequence=sequence, tx_power=tx_power)


def log_median_power(log: MeasurementLog) -> int:
    """Median power of the plan a log was swept with: the lower median (even
    counts break downward) of the distinct TX powers it holds."""
    if len(log) == 0:
        raise ValueError("no measurements to infer the power plan from")
    # Not np.unique: on NumPy 2.4 a bare call imports numpy.ma, about 1 MiB.
    levels = sorted(set(log.tx_power.tolist()))
    return levels[(len(levels) - 1) // 2]


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
