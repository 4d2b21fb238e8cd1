"""End-to-end path construction from segments (§2.2).

Source hosts combine "at most one up-, one core-, and one down-segment"
into a full path.  The joints between segments are **transfer ASes** —
necessarily core ASes (§4.1).  When the up- and down-segment cross in a
common non-core AS, the combination takes a **shortcut** there instead of
going all the way to the core, avoiding the inefficiency of strictly
hierarchical routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NoPathError, SegmentCombinationError
from repro.topology.addresses import IsdAs
from repro.topology.beaconing import Beaconing
from repro.topology.segments import HopField, Segment, SegmentType


@dataclass(frozen=True)
class EndToEndPath:
    """A complete forwarding path plus the segments it was built from.

    ``hops`` is one :class:`HopField` per on-path AS in travel order;
    ``segments`` records the 1–3 constituent segments so an EER setup can
    name the SegRs riding on them (§4.4).  ``transfer_ases`` are the joint
    ASes between consecutive segments.
    """

    hops: tuple
    segments: tuple
    transfer_ases: tuple

    @property
    def ases(self) -> tuple:
        return tuple(hop.isd_as for hop in self.hops)

    def __len__(self) -> int:
        return len(self.hops)

    def hop_index(self, isd_as: IsdAs) -> int:
        for index, hop in enumerate(self.hops):
            if hop.isd_as == isd_as:
                return index
        raise NoPathError(f"AS {isd_as} is not on path {self}")

    def __str__(self) -> str:
        return " -> ".join(str(hop) for hop in self.hops)


def _merge_joint(left_last: HopField, right_first: HopField) -> HopField:
    """Merge the joint AS's two half-hops into one transfer-AS hop."""
    if left_last.isd_as != right_first.isd_as:
        raise SegmentCombinationError(
            f"segments do not share a joint AS: {left_last.isd_as} vs "
            f"{right_first.isd_as}"
        )
    return HopField(
        isd_as=left_last.isd_as,
        ingress=left_last.ingress,
        egress=right_first.egress,
    )


_SEGMENT_ORDER = {SegmentType.UP: 0, SegmentType.CORE: 1, SegmentType.DOWN: 2}


def combine_segments(segments: list, allow_shortcut: bool = True) -> EndToEndPath:
    """Join 1–3 segments into an :class:`EndToEndPath`.

    Segments must appear in UP < CORE < DOWN order (each at most once) and
    consecutive segments must share their joint AS.  With
    ``allow_shortcut`` and exactly an (up, down) pair, the combination is
    cut at the lowest common AS when the segments cross below the core.
    """
    if not 1 <= len(segments) <= 3:
        raise SegmentCombinationError(
            f"a path combines 1 to 3 segments, got {len(segments)}"
        )
    order = [_SEGMENT_ORDER[segment.segment_type] for segment in segments]
    if sorted(order) != order or len(set(order)) != len(order):
        raise SegmentCombinationError(
            "segments must appear in up < core < down order, each at most once: "
            + ", ".join(segment.segment_type.value for segment in segments)
        )

    if (
        allow_shortcut
        and len(segments) == 2
        and segments[0].segment_type is SegmentType.UP
        and segments[1].segment_type is SegmentType.DOWN
    ):
        shortcut = _try_shortcut(segments[0], segments[1])
        if shortcut is not None:
            return shortcut

    hops = list(segments[0].hops)
    transfer = []
    for segment in segments[1:]:
        joint = _merge_joint(hops[-1], segment.hops[0])
        transfer.append(joint.isd_as)
        hops = hops[:-1] + [joint] + list(segment.hops[1:])
    _check_no_loops(hops)
    return EndToEndPath(
        hops=tuple(hops), segments=tuple(segments), transfer_ases=tuple(transfer)
    )


def _try_shortcut(up: Segment, down: Segment) -> Optional[EndToEndPath]:
    """Cut an (up, down) pair at the lowest AS they share, if any.

    Returns ``None`` when the only shared AS is the core joint itself (no
    shortcut possible) or the segments share no AS at all.
    """
    down_positions = {hop.isd_as: index for index, hop in enumerate(down.hops)}
    # Walk the up-segment from the source; the *first* crossing is the
    # lowest shared AS and yields the shortest shortcut.
    for up_index, up_hop in enumerate(up.hops):
        down_index = down_positions.get(up_hop.isd_as)
        if down_index is None:
            continue
        if up_index == len(up.hops) - 1 and down_index == 0:
            return None  # shared AS is the core joint: regular combination
        joint = _merge_joint(up.hops[up_index], down.hops[down_index])
        hops = list(up.hops[:up_index]) + [joint] + list(down.hops[down_index + 1 :])
        _check_no_loops(hops)
        return EndToEndPath(
            hops=tuple(hops),
            segments=(up, down),
            transfer_ases=(joint.isd_as,),
        )
    return None


def _check_no_loops(hops: list) -> None:
    ases = [hop.isd_as for hop in hops]
    if len(set(ases)) != len(ases):
        raise SegmentCombinationError(f"combined path visits an AS twice: {ases}")


class PathLookup:
    """Enumerates end-to-end paths between two ASes from beaconed segments.

    This is the path-service role of the SCION daemon: given source and
    destination AS, return candidate paths sorted by hop count.  Colibri's
    CServ uses the same segment combinations to assemble SegRs covering
    the path (§3.3, Appendix C).
    """

    def __init__(self, beaconing: Beaconing):
        self.beaconing = beaconing
        self.topology = beaconing.topology

    def paths(self, source: IsdAs, destination: IsdAs, limit: int = 5) -> list:
        if source == destination:
            raise NoPathError(f"source and destination are the same AS {source}")
        candidates = []
        for segments in self._segment_combinations(source, destination):
            try:
                candidates.append(combine_segments(segments))
            except SegmentCombinationError:
                continue
        if not candidates:
            raise NoPathError(f"no path from {source} to {destination}")
        unique: dict = {}
        for path in candidates:
            unique.setdefault(path.ases, path)
        ordered = sorted(unique.values(), key=len)
        return ordered[:limit]

    def _segment_combinations(self, source: IsdAs, destination: IsdAs):
        """Yield candidate segment lists (unvalidated)."""
        src_core = self.topology.node(source).is_core
        dst_core = self.topology.node(destination).is_core

        if src_core:
            up_options = [(None, source)]
        else:
            up_options = [
                (segment, segment.last_as)
                for core in self.beaconing.reachable_cores(source)
                for segment in self.beaconing.up_segments(source, core)
            ]
        if dst_core:
            down_options = [(None, destination)]
        else:
            down_options = [
                (segment, segment.first_as)
                for core in self.topology.core_ases(self.topology.node(destination).isd)
                for segment in self.beaconing.down_segments(core.isd_as, destination)
            ]

        for up_segment, up_core in up_options:
            for down_segment, down_core in down_options:
                if up_core == down_core:
                    segments = [
                        segment
                        for segment in (up_segment, down_segment)
                        if segment is not None
                    ]
                    if segments:
                        yield segments
                    continue
                for core_segment in self.beaconing.core_segments(up_core, down_core):
                    yield [
                        segment
                        for segment in (up_segment, core_segment, down_segment)
                        if segment is not None
                    ]
