"""Colibri header fields (Eq. 2a-2d, §4.3).

A Colibri packet traversing AS0..ASl carries::

    Packet  = (Path || ResInfo || EERInfo || Ts || V_0 || .. || V_l || Payload)
    Path    = ((In_0, Eg_0) || .. || (In_l, Eg_l))
    ResInfo = (SrcAS || ResId || Bw || ExpT || Ver)
    EERInfo = (SrcHost || DstHost)

Every field exposes a canonical ``packed`` byte form: those exact bytes
feed the MAC computations of §4.5, so serialization *is* the
authenticated message.  All multi-byte integers are big-endian.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass

from repro.errors import PacketDecodeError, PacketFieldError
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs


@dataclass(frozen=True)
class PathField:
    """The packet-carried forwarding state: one (In, Eg) pair per AS (Eq. 2b)."""

    interface_pairs: tuple  # tuple[(int, int), ...]

    WIRE_PAIR = struct.Struct("!HH")

    def __post_init__(self):
        if not self.interface_pairs:
            raise PacketFieldError("path must contain at least one hop")
        for pair in self.interface_pairs:
            ingress, egress = pair
            if not (0 <= ingress < 1 << 16 and 0 <= egress < 1 << 16):
                raise PacketFieldError(f"interface pair {pair} out of 16-bit range")

    @classmethod
    def from_hops(cls, hops) -> "PathField":
        """Build from topology hop fields (anything with ingress/egress)."""
        return cls(tuple((hop.ingress, hop.egress) for hop in hops))

    def __len__(self) -> int:
        return len(self.interface_pairs)

    def pair(self, index: int) -> tuple:
        return self.interface_pairs[index]

    @property
    def packed(self) -> bytes:
        return b"".join(
            self.WIRE_PAIR.pack(ingress, egress)
            for ingress, egress in self.interface_pairs
        )

    @classmethod
    def unpack(cls, data: bytes, hop_count: int) -> "PathField":
        need = cls.WIRE_PAIR.size * hop_count
        if len(data) < need:
            raise PacketDecodeError(f"path field truncated: {len(data)} < {need} bytes")
        pairs = tuple(
            cls.WIRE_PAIR.unpack_from(data, index * cls.WIRE_PAIR.size)
            for index in range(hop_count)
        )
        return cls(pairs)


class ResInfo(namedtuple("ResInfo", "reservation bandwidth expiry version")):
    """Reservation metadata: (SrcAS, ResId, Bw, ExpT, Ver) (Eq. 2c).

    Like every message object a hop builds, a tuple of its fields: made
    in one ``tuple.__new__``, immutable, with no per-instance dict.
    ``bandwidth`` is in bits per second, ``expiry`` an absolute time in
    seconds.
    """

    __slots__ = ()

    WIRE = struct.Struct("!12sdd H")
    SIZE = WIRE.size

    def __new__(
        cls, reservation: ReservationId, bandwidth: float, expiry: float, version: int
    ):
        if bandwidth < 0:
            raise PacketFieldError(f"bandwidth must be non-negative, got {bandwidth}")
        if not 0 <= version < 1 << 16:
            raise PacketFieldError(f"version {version} out of 16-bit range")
        return tuple.__new__(cls, (reservation, bandwidth, expiry, version))

    @property
    def src_as(self) -> IsdAs:
        return self.reservation.src_as

    @property
    def packed(self) -> bytes:
        return self.WIRE.pack(
            self.reservation.packed, self.bandwidth, self.expiry, self.version
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ResInfo":
        if len(data) < cls.WIRE.size:
            raise PacketDecodeError(f"ResInfo truncated: {len(data)} < {cls.WIRE.size}")
        res_id_bytes, bandwidth, expiry, version = cls.WIRE.unpack(data[: cls.WIRE.size])
        if bandwidth < 0:  # a sign bit on the wire is a decode error, not a field error
            raise PacketDecodeError(f"ResInfo bandwidth is negative: {bandwidth}")
        return cls(ReservationId.unpack(res_id_bytes), bandwidth, expiry, version)


class EerInfo(namedtuple("EerInfo", "src_host dst_host")):
    """End-host addresses, only present on EER data packets (Eq. 2d)."""

    __slots__ = ()

    SIZE = 8

    @property
    def packed(self) -> bytes:
        return self.src_host.packed + self.dst_host.packed

    @classmethod
    def unpack(cls, data: bytes) -> "EerInfo":
        if len(data) < 8:
            raise PacketDecodeError(f"EERInfo truncated: {len(data)} < 8 bytes")
        return cls(HostAddr.unpack(data[:4]), HostAddr.unpack(data[4:8]))


class Timestamp:
    """The high-precision packet timestamp Ts (§4.3).

    Ts is *relative to ExpT* and "uniquely identifies the packet for the
    particular source": the gateway encodes the packet creation instant as
    microseconds before the reservation's expiration, plus a sequence
    component for packets created in the same microsecond.  The pair
    (time, sequence) fits a single 8-byte field: 48 bits of microseconds
    (enough for 8.9 years) and 16 bits of sequence.
    """

    WIRE = struct.Struct("!Q")
    SIZE = WIRE.size
    _SEQ_BITS = 16
    _SEQ_MASK = (1 << _SEQ_BITS) - 1

    def __init__(self, micros_before_expiry: int, sequence: int = 0):
        if micros_before_expiry < 0:
            raise PacketFieldError(
                f"timestamp lies after the expiration time "
                f"({micros_before_expiry} µs before expiry)"
            )
        if micros_before_expiry >= 1 << 48:
            raise PacketFieldError("timestamp exceeds 48-bit microsecond range")
        if not 0 <= sequence <= self._SEQ_MASK:
            raise PacketFieldError(f"timestamp sequence {sequence} out of 16-bit range")
        self.micros_before_expiry = micros_before_expiry
        self.sequence = sequence
        # Packed once, here: every on-path router reads it (Eq. 6 message).
        self.packed = self.WIRE.pack((micros_before_expiry << self._SEQ_BITS) | sequence)

    @classmethod
    def create(cls, now: float, expiry: float, sequence: int = 0) -> "Timestamp":
        """Encode the current instant relative to the expiration time."""
        delta = expiry - now
        if delta < 0:
            raise PacketFieldError(f"packet created after expiry ({delta:.6f} s late)")
        return cls(int(delta * 1e6), sequence)

    @classmethod
    def from_word(cls, word: int) -> "Timestamp":
        """The Ts packed in the 64-bit ``word``: every such word is in
        range, so the constructor's checks have nothing to check."""
        timestamp = object.__new__(cls)
        timestamp.micros_before_expiry = word >> cls._SEQ_BITS
        timestamp.sequence = word & cls._SEQ_MASK
        timestamp.packed = cls.WIRE.pack(word)
        return timestamp

    @classmethod
    def unpack(cls, data: bytes) -> "Timestamp":
        if len(data) < cls.SIZE:
            raise PacketDecodeError(f"timestamp truncated: {len(data)} < {cls.SIZE}")
        return cls.from_word(cls.WIRE.unpack(data[: cls.SIZE])[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Timestamp)
            and self.micros_before_expiry == other.micros_before_expiry
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return hash((self.micros_before_expiry, self.sequence))

    def __repr__(self) -> str:
        return f"Timestamp({self.micros_before_expiry}µs, seq={self.sequence})"
