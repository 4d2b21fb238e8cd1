"""The Colibri packet (Eq. 2a) with byte-level serialization.

One format serves all Colibri control- and data-plane traffic (§4.3):

* ``SEGMENT`` packets travel over a SegR — SegR renewals and EER setup
  requests — and carry the truncated SegR tokens of Eq. (3) as HVFs;
* ``EER_DATA`` packets travel over an EER and carry the per-packet HVFs
  of Eq. (6), plus the EERInfo host addresses.

The header layout (big-endian)::

    magic(2) version(1) flags(1) hop_count(1) hop_index(1)
    Path        hop_count * 4 bytes
    ResInfo     30 bytes
    [EERInfo    8 bytes, EER_DATA only]
    Ts          8 bytes
    HVFs        hop_count * L_HVF bytes
    payload_len(4) payload

``hop_index`` is the only mutable field: each border router advances it as
the packet crosses the AS, the way SCION moves its current-hop pointer.
It is deliberately *not* covered by any MAC — a router can always set it
to its own position, so authenticating it would add nothing.

A packet object also carries ``_row``: ResInfo ‖ EERInfo and Ts ‖ PktSize,
the hop-invariant bytes of the router's kernel row, as its gateway stamped
it over them or its first router built them.  A write to any header field
but ``hvfs`` and ``hop_index`` drops it (:class:`_HeaderField`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.constants import L_HVF
from repro.errors import PacketDecodeError, PacketFieldError
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp

MAGIC = 0xC0B1
FORMAT_VERSION = 1

_FIXED = struct.Struct("!HBBBB")
_PAYLOAD_LEN = struct.Struct("!I")


class HvfVector:
    """Per-hop HVF tags sharing one flat buffer (zero-copy Eq. 6 output).

    The batch stampers produce all hop tags of a packet as one
    contiguous byte string (a single C call / one ``join``); this wraps
    that string as the sequence ``ColibriPacket.hvfs`` expects without
    slicing ``hop_count`` little ``bytes`` objects up front.  Tags are
    sliced lazily on access; serialization appends :attr:`flat` in one
    piece.  ``start``/``count`` let many packets of one burst share a
    single message-major buffer from ``stamp_many``.

    Item assignment copies the shared buffer first (copy-on-write), so
    tests forging a tag cannot corrupt sibling packets of the burst.
    """

    __slots__ = ("buffer", "start", "count")

    def __init__(self, buffer: bytes, start: int = 0, count: Optional[int] = None):
        if count is None:
            count = (len(buffer) - start) // L_HVF
        self.buffer = buffer
        self.start = start
        self.count = count

    def __len__(self) -> int:
        return self.count

    def _index(self, index: int) -> int:
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError(f"HVF index {index} out of range for {self.count} hops")
        return index

    def __getitem__(self, index: int) -> bytes:
        # Read once per packet and hop by the router: in-range indices
        # (all it ever asks for) skip the normalizing call.
        if not 0 <= index < self.count:
            index = self._index(index)
        offset = self.start + index * L_HVF
        return self.buffer[offset : offset + L_HVF]

    def __setitem__(self, index: int, tag: bytes) -> None:
        if len(tag) != L_HVF:
            raise PacketFieldError(f"HVF must be {L_HVF} bytes, got {len(tag)}")
        index = self._index(index)
        private = bytearray(self.flat)
        private[index * L_HVF : (index + 1) * L_HVF] = tag
        self.buffer = bytes(private)
        self.start = 0

    def __iter__(self):
        buffer = self.buffer
        offset = self.start
        for _ in range(self.count):
            yield buffer[offset : offset + L_HVF]
            offset += L_HVF

    @property
    def flat(self) -> bytes:
        """All tags concatenated in path order."""
        start = self.start
        end = start + self.count * L_HVF
        buffer = self.buffer
        if start == 0 and end == len(buffer):
            return buffer
        return buffer[start:end]

    def __eq__(self, other) -> bool:
        if isinstance(other, HvfVector):
            return self.flat == other.flat
        if isinstance(other, (list, tuple)):
            return self.count == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"HvfVector({self.count} tags)"


class _HeaderField:
    """A header field whose every write drops the packet's ``_row`` memo; with
    no ``__get__``, reads go to the instance dict as for a plain attribute."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __set__(self, packet, value) -> None:
        state = packet.__dict__
        state[self.name] = value
        state["_row"] = None


class _HeaderSizes(dict):
    """``(hop_count, is_eer_data) -> header bytes``, computed on first use."""

    def __missing__(self, key):
        hop_count, is_eer_data = key
        size = self[key] = (
            _FIXED.size
            + hop_count * (PathField.WIRE_PAIR.size + L_HVF)
            + ResInfo.SIZE
            + (EerInfo.SIZE if is_eer_data else 0)
            + Timestamp.SIZE
            + _PAYLOAD_LEN.size
        )
        return size


class PacketType:
    """Packet type carried in the flags byte."""

    SEGMENT = 0  # control traffic over a SegR (or best-effort setup)
    EER_DATA = 1  # data traffic over an EER

    _VALID = (SEGMENT, EER_DATA)


@dataclass
class ColibriPacket:
    """A parsed (or under-construction) Colibri packet.

    ``hvfs`` holds one ``L_HVF``-byte tag per hop; empty tags
    (``b'\\x00' * L_HVF``) stand for "not yet filled in" on packets still
    at the end host (§4.6: hosts send packets with empty header fields to
    the gateway, which fills them).
    """

    packet_type: int
    path: PathField
    res_info: ResInfo
    timestamp: Timestamp
    hvfs: list
    eer_info: Optional[EerInfo] = None
    payload: bytes = b""
    hop_index: int = 0

    EMPTY_HVF = b"\x00" * L_HVF
    #: ``(ResInfo ‖ EERInfo, Ts ‖ PktSize, interface pairs, last hop index,
    #: flags)`` for the router's native gather, or ``None`` until one is built.
    _row = None

    def __post_init__(self):
        if self.packet_type not in PacketType._VALID:
            raise PacketFieldError(f"unknown packet type {self.packet_type}")
        if self.packet_type == PacketType.EER_DATA and self.eer_info is None:
            raise PacketFieldError("EER data packets must carry EERInfo")
        if len(self.hvfs) != len(self.path):
            raise PacketFieldError(
                f"need one HVF per hop: {len(self.hvfs)} HVFs, {len(self.path)} hops"
            )
        for hvf in self.hvfs:
            if len(hvf) != L_HVF:
                raise PacketFieldError(f"HVF must be {L_HVF} bytes, got {len(hvf)}")
        if not 0 <= self.hop_index < len(self.path):
            raise PacketFieldError(
                f"hop index {self.hop_index} out of range for {len(self.path)} hops"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def trusted(
        cls,
        packet_type: int,
        path: PathField,
        res_info: ResInfo,
        timestamp: Timestamp,
        hvfs: list,
        eer_info: Optional[EerInfo] = None,
        payload: bytes = b"",
        row: Optional[tuple] = None,
    ) -> "ColibriPacket":
        """Construct without re-running ``__post_init__`` validation.

        For components that computed every field themselves and already
        guarantee the invariants — the gateway stamps exactly one
        ``L_HVF``-byte HVF per hop by construction, so re-checking each on
        the Fig. 5 fast path is pure overhead — and may hand over their
        ``_row`` memo.  Anything built from external input (``from_bytes``,
        hosts, tests) must use the normal validating constructor.
        """
        packet = object.__new__(cls)
        packet.__dict__ = {
            "packet_type": packet_type, "path": path, "res_info": res_info, "timestamp": timestamp,
            "hvfs": hvfs, "eer_info": eer_info, "payload": payload, "hop_index": 0, "_row": row}
        return packet

    # -- properties -----------------------------------------------------------

    @property
    def hop_count(self) -> int:
        return len(self.path)

    @property
    def is_eer_data(self) -> bool:
        return self.packet_type == PacketType.EER_DATA

    #: ``(hop_count, is_eer_data) -> header bytes``, one subscript: PktSize
    #: (Eq. 6) less the payload, for :attr:`total_size` and a ``_row`` build.
    _HEADER_SIZES: ClassVar[dict] = _HeaderSizes()

    @staticmethod
    def header_size_for(hop_count: int, is_eer_data: bool = True) -> int:
        """Header bytes of a packet with ``hop_count`` hops.

        The header size depends only on hop count and packet type, so the
        gateway computes it once per reservation instead of per packet —
        PktSize (Eq. 6) must be known *before* the packet object exists
        for the monitor to reject non-conforming traffic cheaply.
        """
        return ColibriPacket._HEADER_SIZES[hop_count, is_eer_data]

    @property
    def total_size(self) -> int:
        """Packet size including the Colibri header — the PktSize of Eq. (6)."""
        key = (len(self.path), self.packet_type == PacketType.EER_DATA)
        return self._HEADER_SIZES[key] + len(self.payload)

    def advance_hop(self) -> None:
        """Move the current-hop pointer past this AS."""
        if self.hop_index + 1 >= len(self.path):
            raise PacketFieldError("cannot advance past the last hop")
        self.hop_index += 1

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        flags = self.packet_type & 0x0F
        parts = [
            _FIXED.pack(MAGIC, FORMAT_VERSION, flags, self.hop_count, self.hop_index),
            self.path.packed,
            self.res_info.packed,
        ]
        if self.is_eer_data:
            parts.append(self.eer_info.packed)
        parts.append(self.timestamp.packed)
        hvfs = self.hvfs
        if type(hvfs) is HvfVector:
            parts.append(hvfs.flat)
        else:
            parts.extend(hvfs)
        parts.append(_PAYLOAD_LEN.pack(len(self.payload)))
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColibriPacket":
        if len(data) < _FIXED.size:
            raise PacketDecodeError(f"packet truncated at fixed header: {len(data)} bytes")
        magic, version, flags, hop_count, hop_index = _FIXED.unpack_from(data)
        if magic != MAGIC:
            raise PacketDecodeError(f"bad magic 0x{magic:04x}, expected 0x{MAGIC:04x}")
        if version != FORMAT_VERSION:
            raise PacketDecodeError(f"unsupported format version {version}")
        packet_type = flags & 0x0F
        if packet_type not in PacketType._VALID:
            raise PacketDecodeError(f"unknown packet type {packet_type}")
        if hop_count == 0:
            raise PacketDecodeError("packet declares zero hops")
        offset = _FIXED.size

        path = PathField.unpack(data[offset:], hop_count)
        offset += hop_count * PathField.WIRE_PAIR.size
        res_info = ResInfo.unpack(data[offset:])
        offset += ResInfo.SIZE
        eer_info = None
        if packet_type == PacketType.EER_DATA:
            eer_info = EerInfo.unpack(data[offset:])
            offset += EerInfo.SIZE
        timestamp = Timestamp.unpack(data[offset:])
        offset += Timestamp.SIZE
        hvfs = []
        for _ in range(hop_count):
            hvf = data[offset : offset + L_HVF]
            if len(hvf) != L_HVF:
                raise PacketDecodeError("packet truncated inside HVFs")
            hvfs.append(hvf)
            offset += L_HVF
        if len(data) < offset + _PAYLOAD_LEN.size:
            raise PacketDecodeError("packet truncated at payload length")
        (payload_len,) = _PAYLOAD_LEN.unpack_from(data, offset)
        offset += _PAYLOAD_LEN.size
        payload = data[offset : offset + payload_len]
        if len(payload) != payload_len:
            raise PacketDecodeError(
                f"payload truncated: declared {payload_len}, got {len(payload)} bytes"
            )
        if hop_index >= hop_count:
            raise PacketDecodeError(f"hop index {hop_index} >= hop count {hop_count}")
        return cls(
            packet_type=packet_type,
            path=path,
            res_info=res_info,
            timestamp=timestamp,
            hvfs=hvfs,
            eer_info=eer_info,
            payload=payload,
            hop_index=hop_index,
        )

    def __repr__(self) -> str:
        kind = "EER" if self.is_eer_data else "SegR"
        return (
            f"ColibriPacket({kind}, res={self.res_info.reservation}, "
            f"hop={self.hop_index}/{self.hop_count}, {self.total_size} B)"
        )


for _name in ("packet_type", "path", "res_info", "timestamp", "eer_info", "payload"):
    setattr(ColibriPacket, _name, _HeaderField(_name))
del _name

