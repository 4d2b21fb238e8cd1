"""Global reservation identifiers (§4.3).

A reservation ID is unique *per source AS*: the CServ increments a counter
for every new SegR or EER, so the pair ``(SrcAS, ResId)`` identifies every
reservation globally.  That global uniqueness is load-bearing: it is what
lets SegR tokens omit the "chaining" of per-AS forwarding information
that SCION and EPIC need to prevent path splicing (§4.5), and it is the
flow label the overuse detector keys on (§4.8).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from repro.topology.addresses import IsdAs, immutable


class ReservationId(namedtuple("ReservationId", "src_as local_id")):
    """The globally unique pair ``(SrcAS, ResId)``: a tuple, so it
    hashes as ``hash(((isd, asn), local_id))`` and orders by
    ``(src_as, local_id)`` in C (see :class:`IsdAs`)."""

    __setattr__ = __delattr__ = immutable

    def __new__(cls, src_as: IsdAs, local_id: int):
        if not 0 <= local_id < (1 << 32):
            raise ValueError(f"local reservation ID {local_id} out of range [0, 2^32)")
        return tuple.__new__(cls, (src_as, local_id))

    @cached_property
    def packed(self) -> bytes:
        """12-byte wire form: 8 bytes SrcAS + 4 bytes counter.

        Cached: the wire form is the flow label (§4.8), the flow-table key
        component, and the replay identifier prefix, so the router reads
        it several times per data packet.  (``cached_property`` writes
        the instance ``__dict__`` directly; the fields are tuple items.)
        """
        return self.src_as.packed + self.local_id.to_bytes(4, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "ReservationId":
        if len(data) != 12:
            raise ValueError(f"reservation ID wire form must be 12 bytes, got {len(data)}")
        return cls(
            src_as=IsdAs.unpack(data[:8]),
            local_id=int.from_bytes(data[8:], "big"),
        )

    def __str__(self) -> str:
        return f"{self.src_as}:{self.local_id}"
