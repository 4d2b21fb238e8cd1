"""Segment discovery ("beaconing", §2.2).

SCION's routing is a beaconing process: core ASes flood path-construction
beacons (i) down the intra-ISD provider hierarchy, discovering
down-segments (and, reversed, up-segments), and (ii) across core links,
discovering core-segments.  This module reproduces the *outcome* of that
process deterministically from the topology graph: the set of segments a
deployed SCION control plane would register.

Path stability (§2.1) falls out of the model: segments are pure functions
of the topology, so reservations built on them never shift underneath the
reservation holder the way BGP re-convergence would move an IP path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.errors import NoSegmentError
from repro.topology.addresses import IsdAs
from repro.topology.graph import NO_INTERFACE, LinkType, Topology
from repro.topology.segments import HopField, Segment, SegmentType

#: Bound on core-segment length during discovery; real deployments bound
#: beacon propagation similarly to tame path explosion.
MAX_CORE_HOPS = 6

#: How many distinct segments to retain per (first AS, last AS) pair.
#: Keeping several preserves the path choice Colibri exploits when the
#: first path has no reservation space (§2.1).
SEGMENTS_PER_PAIR = 5


class Beaconing:
    """Discovers and serves up-, down-, and core-segments for a topology."""

    def __init__(self, topology: Topology):
        self.topology = topology
        # down: core AS -> leaf AS -> [Segment]; up is derived by reversal.
        self._down: dict = defaultdict(list)
        self._core: dict = defaultdict(list)
        self.discover()

    # -- discovery ----------------------------------------------------------

    def discover(self) -> None:
        """(Re-)run beaconing over the current topology."""
        self._down.clear()
        self._core.clear()
        for core in self.topology.core_ases():
            self._beacon_down(core.isd_as)
        self._beacon_core()

    def _beacon_down(self, core_as: IsdAs) -> None:
        """Propagate an intra-ISD beacon from ``core_as`` to every leaf.

        Depth-first over parent-child links; each path from the core AS to
        any AS below it becomes one down-segment.
        """

        def walk(current: IsdAs, hops: list, visited: set) -> None:
            node = self.topology.node(current)
            for ifid, link in sorted(node.interfaces.items()):
                if link.link_type is not LinkType.PARENT_CHILD:
                    continue
                if link.a.owner != current:  # only follow provider -> customer
                    continue
                child_iface = link.b
                child = child_iface.owner
                if child in visited:
                    continue
                # Extend the path: current egresses via ifid, child ingresses
                # via the child's interface; the child is (for now) the last
                # hop, so its egress is 0.
                extended = hops[:-1] + [
                    HopField(
                        isd_as=hops[-1].isd_as,
                        ingress=hops[-1].ingress,
                        egress=ifid,
                    ),
                    HopField(isd_as=child, ingress=child_iface.ifid, egress=NO_INTERFACE),
                ]
                segment = Segment.from_hops(SegmentType.DOWN, extended)
                bucket = self._down[(core_as, child)]
                if len(bucket) < SEGMENTS_PER_PAIR:
                    bucket.append(segment)
                walk(child, extended, visited | {child})

        root = [HopField(isd_as=core_as, ingress=NO_INTERFACE, egress=NO_INTERFACE)]
        walk(core_as, root, {core_as})

    def _beacon_core(self) -> None:
        """Discover core-segments between every pair of core ASes.

        Bounded depth-first search over core links, keeping up to
        ``SEGMENTS_PER_PAIR`` simple paths per ordered pair, shortest
        first (the DFS enumerates by increasing depth via iterative
        deepening to keep the retained set shortest-biased).
        """
        cores = [node.isd_as for node in self.topology.core_ases()]
        for origin in cores:
            found: dict = defaultdict(list)
            for depth in range(1, MAX_CORE_HOPS + 1):
                self._core_dfs(
                    origin,
                    [HopField(isd_as=origin, ingress=NO_INTERFACE, egress=NO_INTERFACE)],
                    {origin},
                    depth,
                    found,
                )
            for (first, last), segments in found.items():
                self._core[(first, last)] = segments[:SEGMENTS_PER_PAIR]

    def _core_dfs(
        self, current: IsdAs, hops: list, visited: set, budget: int, found: dict
    ) -> None:
        if budget == 0:
            return
        node = self.topology.node(current)
        for ifid, link in sorted(node.interfaces.items()):
            if link.link_type is not LinkType.CORE:
                continue
            far = link.other_end(current)
            neighbor = far.owner
            if neighbor in visited:
                continue
            extended = hops[:-1] + [
                HopField(isd_as=hops[-1].isd_as, ingress=hops[-1].ingress, egress=ifid),
                HopField(isd_as=neighbor, ingress=far.ifid, egress=NO_INTERFACE),
            ]
            key = (hops[0].isd_as, neighbor)
            bucket = found[key]
            segment = Segment.from_hops(SegmentType.CORE, extended)
            if segment not in bucket and len(bucket) < SEGMENTS_PER_PAIR:
                bucket.append(segment)
            self._core_dfs(neighbor, extended, visited | {neighbor}, budget - 1, found)

    # -- queries -------------------------------------------------------------

    def down_segments(self, core_as: IsdAs, leaf: IsdAs) -> list:
        """Down-segments from ``core_as`` to ``leaf`` (same ISD)."""
        return list(self._down.get((core_as, leaf), []))

    def up_segments(self, leaf: IsdAs, core_as: Optional[IsdAs] = None) -> list:
        """Up-segments from ``leaf`` towards ``core_as`` (or any core AS)."""
        result = []
        for (core, down_leaf), segments in self._down.items():
            if down_leaf != leaf:
                continue
            if core_as is not None and core != core_as:
                continue
            result.extend(segment.reversed() for segment in segments)
        return result

    def core_segments(self, first: IsdAs, last: IsdAs) -> list:
        """Core-segments from core AS ``first`` to core AS ``last``."""
        return list(self._core.get((first, last), []))

    def reachable_cores(self, leaf: IsdAs) -> list:
        """Core ASes the leaf has an up-segment to (its own AS if core)."""
        node = self.topology.node(leaf)
        if node.is_core:
            return [leaf]
        cores = {core for (core, down_leaf) in self._down if down_leaf == leaf}
        if not cores:
            raise NoSegmentError(f"AS {leaf} has no up-segment to any core AS")
        return sorted(cores)

    def segment_count(self) -> dict:
        """Discovery statistics, handy for topology-generator tests."""
        return {
            "down_pairs": len(self._down),
            "down_segments": sum(len(v) for v in self._down.values()),
            "core_pairs": len(self._core),
            "core_segments": sum(len(v) for v in self._core.values()),
        }
