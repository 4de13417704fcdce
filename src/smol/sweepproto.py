"""Power-sweep measurement protocol over a simulated link.

The transmitter steps through a plan of transmit powers, broadcasting one
framed packet per level (``encode_plan``); the receiver decodes, validates
and logs one Measurement per delivered frame. A SimulatedLink stands in for the radio
pair: it carries a whole sweep at once, drawing its drops and its noise
as one vector each, and stamps every delivery with a synthesized RSSI.

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
from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Iterable, Sequence

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
    """A frame the receiver must drop."""


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


@dataclass(frozen=True)
class Measurement:
    """One received packet: what was sent, what was heard, and where.

    ``vwc_truth`` is the reference-sensor reading as a fraction in [0, 1];
    it is only present when the campaign ran in training mode. The other
    numbers must be finite, height and depth >= 0, ``device_id`` a u16 and
    ``tx_power`` a level the radio can send.
    """

    timestamp: float
    device_id: int
    tx_power: int
    rssi: float
    height_cm: float
    depth_cm: float
    scenario: str
    vwc_truth: float | None = None

    def __post_init__(self) -> None:
        if not (isfinite(self.timestamp) and isfinite(self.rssi)):
            raise ValueError(f"non-finite number in {self}")
        if not (0.0 <= self.height_cm < inf and 0.0 <= self.depth_cm < inf):
            raise ValueError(f"height and depth must be finite and >= 0 cm in {self}")
        if not 0 <= self.device_id <= 0xFFFF:
            raise ValueError(f"device_id {self.device_id} outside [0, 65535]")
        if not TX_POWER_MIN_DBM <= self.tx_power <= TX_POWER_MAX_DBM:
            raise ValueError(
                f"tx power {self.tx_power} dBm outside "
                f"[{TX_POWER_MIN_DBM}, {TX_POWER_MAX_DBM}]"
            )
        if self.vwc_truth is not None and not 0.0 <= self.vwc_truth <= 1.0:
            raise ValueError(f"vwc_truth {self.vwc_truth} outside [0, 1]")


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

    Raises a distinct FrameError subclass per failure mode so the
    receiver can count what it dropped.
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
    if not TX_POWER_MIN_DBM <= tx_power <= TX_POWER_MAX_DBM:
        raise PowerOutOfRange(f"decoded tx power {tx_power} dBm out of range")
    return SweepPacket(device_id=device_id, sequence=sequence, tx_power=tx_power)


def median_power(plan: PowerPlan) -> int:
    """Lower median of the plan's levels (even counts break downward)."""
    ordered = sorted(plan.levels)
    return ordered[(len(ordered) - 1) // 2]


def log_median_power(measurements: Iterable[Measurement]) -> int:
    """Median power of the plan a log was swept with, inferred from the
    distinct TX powers it holds."""
    return median_power(PowerPlan(tuple({m.tx_power for m in measurements})))


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


class SweepReceiver:
    """Decodes delivered frames and accumulates Measurements.

    The tx_power it logs always comes out of the decoded frame, never
    from any receiver-side assumption about the plan.
    """

    def __init__(
        self,
        scenario: str = "",
        height_cm: float = 0.0,
        depth_cm: float = 0.0,
        vwc_truth: float | None = None,
    ):
        self.scenario = scenario
        self.height_cm = height_cm
        self.depth_cm = depth_cm
        self.vwc_truth = vwc_truth
        self.measurements: list[Measurement] = []
        self.rejected: dict[str, int] = {}

    def handle(self, frame: bytes, rssi: float, timestamp: float) -> Measurement | None:
        try:
            packet = decode_packet(frame)
        except FrameError as err:
            name = type(err).__name__
            self.rejected[name] = self.rejected.get(name, 0) + 1
            return None
        m = Measurement(
            timestamp=timestamp,
            device_id=packet.device_id,
            tx_power=packet.tx_power,
            rssi=rssi,
            height_cm=self.height_cm,
            depth_cm=self.depth_cm,
            scenario=self.scenario,
            vwc_truth=self.vwc_truth,
        )
        self.measurements.append(m)
        return m


@dataclass
class SimulatedLink:
    """Radio pair stand-in: applies channel physics, loss and metadata.

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
    scenario: str = ""
    vwc_truth: float | None = None
    timestamp: float = 0.0
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

    def carry(
        self, plan: PowerPlan, frames: Sequence[bytes]
    ) -> list[tuple[bytes, float]]:
        """Carry one sweep: ``frames[i]`` is sent at ``plan.levels[i]``.

        Returns (frame, rssi) for each delivered frame, in plan order. The
        drop draws are one vector over the whole plan, the noise one vector
        over the delivered frames.
        """
        kept = range(len(plan))
        if self.drop_prob > 0.0:
            draws = self._drop_rng.random(len(plan)).tolist()
            kept = [i for i, r in enumerate(draws) if r >= self.drop_prob]
            self.dropped += len(plan) - len(kept)
        powers = [plan.levels[i] for i in kept]
        if self.wrap_high_power:
            powers = [TX_POWER_MIN_DBM if p == TX_POWER_MAX_DBM else p for p in powers]
        rssi = sweep_rssi(powers, self.loss_db, self.geom, self.noise, self._noise_rng)
        return [(frames[i], r) for i, r in zip(kept, rssi.tolist())]


def run_sweep(
    device_id: int,
    plan: PowerPlan,
    link: SimulatedLink,
    receiver: SweepReceiver | None = None,
    frames: Sequence[bytes] | None = None,
) -> list[Measurement]:
    """Drive transmitter and receiver over one full sweep.

    Returns the receiver's log: one Measurement per delivered valid
    frame, in plan order. ``frames`` is ``encode_plan(device_id, plan)``,
    encoded here when not given. Pass your own receiver to inspect reject
    counters; drop counts live on the link.
    """
    if frames is None:
        frames = encode_plan(device_id, plan)
    rx = receiver or SweepReceiver(
        scenario=link.scenario,
        height_cm=link.geom.receiver_height_cm,
        depth_cm=link.geom.burial_depth_cm,
        vwc_truth=link.vwc_truth,
    )
    for frame, rssi in link.carry(plan, frames):
        rx.handle(frame, rssi, link.timestamp)
    return list(rx.measurements)
