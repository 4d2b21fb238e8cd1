"""Low-level wire encoding helpers shared by packet and message formats.

A tiny big-endian encoder/decoder pair.  :class:`Writer` accumulates
fields; :class:`Reader` consumes them and raises
:class:`~repro.errors.PacketDecodeError` on truncation, so every message
parser gets bounds checking for free.
"""

from __future__ import annotations

import struct

from repro.errors import PacketDecodeError

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")


class Writer:
    """Accumulates big-endian fields into a byte string."""

    def __init__(self):
        self._parts = []

    def u8(self, value: int) -> "Writer":
        self._parts.append(_U8.pack(value))
        return self

    def u16(self, value: int) -> "Writer":
        self._parts.append(_U16.pack(value))
        return self

    def f64(self, value: float) -> "Writer":
        self._parts.append(_F64.pack(value))
        return self

    def raw(self, data: bytes) -> "Writer":
        """Fixed-size bytes; the reader must know the length."""
        self._parts.append(data)
        return self

    def blob(self, data: bytes) -> "Writer":
        """Variable-size bytes with a 32-bit length prefix."""
        self._parts.append(_U32.pack(len(data)))
        self._parts.append(data)
        return self

    def finish(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Consumes fields written by :class:`Writer`, with truncation checks."""

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0

    def _take(self, size: int) -> bytes:
        end = self._offset + size
        if end > len(self._data):
            raise PacketDecodeError(
                f"message truncated: wanted {size} bytes at offset {self._offset}, "
                f"have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def raw(self, size: int) -> bytes:
        return self._take(size)

    def blob(self) -> bytes:
        (size,) = _U32.unpack(self._take(4))
        return self._take(size)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def expect_end(self) -> None:
        if self.remaining:
            raise PacketDecodeError(f"{self.remaining} trailing bytes after message")
