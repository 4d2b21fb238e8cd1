"""ISD-AS and host addressing (§2.2).

SCION addresses an AS by the pair ``(ISD, AS number)``, written
``'1-ff00:0:110'`` in the canonical text form.  Host addresses are only
unique inside their AS (§4.3), so a full host identity is the pair
``(IsdAs, HostAddr)``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import FrozenInstanceError
from functools import cached_property

_AS_TEXT_RE = re.compile(r"^([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4})$")

ISD_BITS = 16
AS_BITS = 48


def immutable(self, name, *value):
    """``__setattr__`` / ``__delattr__`` of the tuple-backed ids: their
    fields are tuple items, and their ``__dict__`` only caches ``packed``."""
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


class IsdAs(namedtuple("IsdAs", "isd asn")):
    """An ISD-AS address: 16-bit ISD number + 48-bit AS number.

    The ids (this, :class:`HostAddr` and
    :class:`~repro.reservation.ids.ReservationId`) are tuples of their
    fields, so they hash, compare and order in C: ``hash((isd, asn))``,
    ordered by ``(isd, asn)``.  Hence an id also compares equal to the
    plain tuple of its fields; no map mixes the two.
    """

    __setattr__ = __delattr__ = immutable

    def __new__(cls, isd: int, asn: int):
        if not 0 <= isd < (1 << ISD_BITS):
            raise ValueError(f"ISD {isd} out of range [0, 2^{ISD_BITS})")
        if not 0 <= asn < (1 << AS_BITS):
            raise ValueError(f"AS number {asn} out of range [0, 2^{AS_BITS})")
        return tuple.__new__(cls, (isd, asn))

    @classmethod
    def parse(cls, text: str) -> "IsdAs":
        """Parse the canonical text form, e.g. ``'1-ff00:0:110'`` or ``'1-42'``.

        >>> IsdAs.parse("1-ff00:0:110")
        IsdAs.parse('1-ff00:0:110')
        """
        isd_text, _, as_text = text.partition("-")
        if not isd_text or not as_text:
            raise ValueError(f"malformed ISD-AS address {text!r}")
        isd = int(isd_text)
        match = _AS_TEXT_RE.match(as_text)
        if match:
            high, mid, low = (int(group, 16) for group in match.groups())
            asn = (high << 32) | (mid << 16) | low
        else:
            asn = int(as_text)
        return cls(isd=isd, asn=asn)

    @cached_property
    def packed(self) -> bytes:
        """8-byte wire encoding: 2 bytes ISD, 6 bytes AS number."""
        return self.isd.to_bytes(2, "big") + self.asn.to_bytes(6, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "IsdAs":
        if len(data) != 8:
            raise ValueError(f"ISD-AS wire form must be 8 bytes, got {len(data)}")
        return cls(isd=int.from_bytes(data[:2], "big"), asn=int.from_bytes(data[2:], "big"))

    def __str__(self) -> str:
        if self.asn < (1 << 16):
            return f"{self.isd}-{self.asn}"
        high = (self.asn >> 32) & 0xFFFF
        mid = (self.asn >> 16) & 0xFFFF
        low = self.asn & 0xFFFF
        return f"{self.isd}-{high:x}:{mid:x}:{low:x}"

    def __repr__(self) -> str:
        return f"IsdAs.parse({str(self)!r})"


class HostAddr(namedtuple("HostAddr", "value")):
    """A host address, unique inside its AS (§4.3).

    Kept deliberately opaque (an integer), as Colibri never interprets
    host addresses beyond equality and wire encoding.
    """

    __setattr__ = __delattr__ = immutable

    def __new__(cls, value: int):
        if not 0 <= value < (1 << 32):
            raise ValueError(f"host address {value} out of range [0, 2^32)")
        return tuple.__new__(cls, (value,))

    @cached_property
    def packed(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "HostAddr":
        if len(data) != 4:
            raise ValueError(f"host address wire form must be 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __str__(self) -> str:
        return f"H{self.value}"
