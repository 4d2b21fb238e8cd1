"""Path segments (§2.2).

SCION splits routing into the discovery of three segment types:

* **up-segments** — from a non-core AS up to a core AS of its ISD;
* **down-segments** — from a core AS down to a non-core AS of its ISD;
* **core-segments** — between core ASes, possibly across ISDs.

A segment is an ordered list of :class:`HopField` entries, one per AS, in
the direction of travel.  Each hop names the AS and its ingress/egress
interface pair — "paths are represented by ingress-egress interface-pairs
for each on-path AS".  Interface ID 0 marks "no interface": the ingress
of the first hop and the egress of the last hop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.errors import PathError
from repro.topology.addresses import IsdAs
from repro.topology.graph import NO_INTERFACE


class SegmentType(enum.Enum):
    UP = "up"
    DOWN = "down"
    CORE = "core"


@dataclass(frozen=True)
class HopField:
    """One AS's hop in a segment or path: (AS, ingress, egress)."""

    isd_as: IsdAs
    ingress: int
    egress: int

    def reversed(self) -> "HopField":
        """The same hop traversed in the opposite direction."""
        return HopField(isd_as=self.isd_as, ingress=self.egress, egress=self.ingress)

    def __str__(self) -> str:
        return f"{self.isd_as}[{self.ingress}>{self.egress}]"


@dataclass(frozen=True)
class Segment:
    """An immutable path segment of a given :class:`SegmentType`."""

    segment_type: SegmentType
    hops: tuple

    def __post_init__(self):
        if not self.hops:
            raise PathError("segment must contain at least one hop")
        if self.hops[0].ingress != NO_INTERFACE:
            raise PathError(
                f"first hop of a segment must have ingress 0, got {self.hops[0]}"
            )
        if self.hops[-1].egress != NO_INTERFACE:
            raise PathError(
                f"last hop of a segment must have egress 0, got {self.hops[-1]}"
            )
        seen = set()
        for hop in self.hops:
            if hop.isd_as in seen:
                raise PathError(f"segment visits AS {hop.isd_as} twice")
            seen.add(hop.isd_as)

    @classmethod
    def from_hops(cls, segment_type: SegmentType, hops: Iterable[HopField]) -> "Segment":
        return cls(segment_type=segment_type, hops=tuple(hops))

    @property
    def first_as(self) -> IsdAs:
        return self.hops[0].isd_as

    @property
    def last_as(self) -> IsdAs:
        return self.hops[-1].isd_as

    @property
    def ases(self) -> tuple:
        return tuple(hop.isd_as for hop in self.hops)

    def __len__(self) -> int:
        return len(self.hops)

    def __contains__(self, isd_as: IsdAs) -> bool:
        return any(hop.isd_as == isd_as for hop in self.hops)

    def hop_of(self, isd_as: IsdAs) -> HopField:
        for hop in self.hops:
            if hop.isd_as == isd_as:
                return hop
        raise PathError(f"AS {isd_as} is not on segment {self}")

    def reversed(self, segment_type: SegmentType = None) -> "Segment":
        """The segment traversed backwards (e.g. down-segment from an
        up-segment discovery).  ``segment_type`` names the reversed type;
        by default UP <-> DOWN swap and CORE stays CORE.
        """
        if segment_type is None:
            swap = {
                SegmentType.UP: SegmentType.DOWN,
                SegmentType.DOWN: SegmentType.UP,
                SegmentType.CORE: SegmentType.CORE,
            }
            segment_type = swap[self.segment_type]
        return Segment(
            segment_type=segment_type,
            hops=tuple(hop.reversed() for hop in reversed(self.hops)),
        )

    def __str__(self) -> str:
        path = " -> ".join(str(hop) for hop in self.hops)
        return f"{self.segment_type.value}-segment[{path}]"
