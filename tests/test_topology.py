"""Unit tests for repro.topology: addresses, graph, segments, beaconing, paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    NoPathError,
    PathError,
    SegmentCombinationError,
    TopologyError,
    UnknownASError,
)
from repro.topology import (
    Beaconing,
    HostAddr,
    IsdAs,
    PathLookup,
    Segment,
    SegmentType,
    Topology,
    build_internet_like,
    build_line_topology,
    build_two_isd_topology,
    combine_segments,
)
from repro.topology.graph import NO_INTERFACE, LinkType
from repro.topology.segments import HopField
from tests._topologies import build_core_mesh

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)



def assert_joined(segment, topology):
    """Every consecutive hop pair of ``segment`` is joined by a link of
    ``topology``, on the interfaces the segment names."""
    for prev, nxt in zip(segment.hops, segment.hops[1:]):
        far = topology.node(prev.isd_as).interfaces[prev.egress].other_end(prev.isd_as)
        assert (far.owner, far.ifid) == (nxt.isd_as, nxt.ingress), (prev, nxt)

class TestIsdAs:
    def test_parse_canonical(self):
        addr = IsdAs.parse("1-ff00:0:110")
        assert addr.isd == 1
        assert addr.asn == (0xFF00 << 32) | 0x110

    def test_parse_decimal(self):
        addr = IsdAs.parse("3-42")
        assert (addr.isd, addr.asn) == (3, 42)

    def test_str_roundtrip(self):
        for text in ["1-ff00:0:110", "12-5", "65000-ffff:ffff:ffff"]:
            assert str(IsdAs.parse(text)) == text

    def test_pack_unpack_roundtrip(self):
        addr = IsdAs.parse("7-ff00:0:321")
        assert IsdAs.unpack(addr.packed) == addr

    def test_packed_length(self):
        assert len(IsdAs(1, 1).packed) == 8

    def test_ordering(self):
        assert IsdAs(1, 5) < IsdAs(1, 6) < IsdAs(2, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IsdAs(1 << 16, 0)
        with pytest.raises(ValueError):
            IsdAs(0, 1 << 48)

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            IsdAs.parse("no-dash-here-x")
        with pytest.raises(ValueError):
            IsdAs.parse("42")

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 48) - 1))
    def test_roundtrip_property(self, isd, asn):
        addr = IsdAs(isd, asn)
        assert IsdAs.parse(str(addr)) == addr
        assert IsdAs.unpack(addr.packed) == addr


class TestHostAddr:
    def test_pack_unpack(self):
        host = HostAddr(1234)
        assert HostAddr.unpack(host.packed) == host

    def test_range_check(self):
        with pytest.raises(ValueError):
            HostAddr(1 << 32)


class TestTopologyGraph:
    def test_add_as_and_lookup(self):
        topology = Topology()
        node = topology.add_as(asid(1, 1), is_core=True)
        assert topology.node(asid(1, 1)) is node
        assert asid(1, 1) in topology

    def test_duplicate_as_rejected(self):
        topology = Topology()
        topology.add_as(asid(1, 1))
        with pytest.raises(TopologyError):
            topology.add_as(asid(1, 1))

    def test_unknown_as(self):
        with pytest.raises(UnknownASError):
            Topology().node(asid(1, 1))

    def test_link_assigns_interfaces(self):
        topology = Topology()
        topology.add_as(asid(1, 1), is_core=True)
        topology.add_as(asid(1, 2), is_core=True)
        link = topology.add_link(asid(1, 1), asid(1, 2))
        assert link.link_type is LinkType.CORE
        assert topology.node(asid(1, 1)).interfaces[link.a.ifid].other_end(asid(1, 1)).owner == asid(1, 2)

    def test_core_link_requires_core_ases(self):
        topology = Topology()
        topology.add_as(asid(1, 1), is_core=True)
        topology.add_as(asid(1, 2), is_core=False)
        with pytest.raises(TopologyError):
            topology.add_link(asid(1, 1), asid(1, 2), LinkType.CORE)

    def test_parent_child_same_isd_only(self):
        topology = Topology()
        topology.add_as(asid(1, 1), is_core=True)
        topology.add_as(asid(2, 2), is_core=False)
        with pytest.raises(TopologyError):
            topology.add_link(asid(1, 1), asid(2, 2), LinkType.PARENT_CHILD)

    def test_child_cannot_be_core(self):
        topology = Topology()
        topology.add_as(asid(1, 1), is_core=True)
        topology.add_as(asid(1, 2), is_core=True)
        with pytest.raises(TopologyError):
            topology.add_link(asid(1, 1), asid(1, 2), LinkType.PARENT_CHILD)

    def test_capacity_must_be_positive(self):
        topology = Topology()
        topology.add_as(asid(1, 1), is_core=True)
        topology.add_as(asid(1, 2), is_core=True)
        with pytest.raises(TopologyError):
            topology.add_link(asid(1, 1), asid(1, 2), capacity=0)

    def test_children_and_parents(self):
        topology = build_two_isd_topology()
        core1 = asid(1, 1)
        kids = topology.children(core1)
        assert asid(1, 11) in kids and asid(1, 12) in kids
        assert topology.parents(asid(1, 11)) == [core1]

    def test_link_between(self):
        topology = build_two_isd_topology()
        link = topology.link_between(asid(1, 1), asid(2, 1))
        assert link.link_type is LinkType.CORE
        with pytest.raises(TopologyError):
            topology.link_between(asid(1, 1), asid(2, 101))


class TestSegments:
    def make_segment(self):
        return Segment.from_hops(
            SegmentType.UP,
            [
                HopField(asid(1, 101), NO_INTERFACE, 1),
                HopField(asid(1, 11), 2, 1),
                HopField(asid(1, 1), 2, NO_INTERFACE),
            ],
        )

    def test_endpoints(self):
        segment = self.make_segment()
        assert segment.first_as == asid(1, 101)
        assert segment.last_as == asid(1, 1)
        assert len(segment) == 3

    def test_first_hop_must_have_no_ingress(self):
        with pytest.raises(PathError):
            Segment.from_hops(
                SegmentType.UP,
                [HopField(asid(1, 1), 5, 1), HopField(asid(1, 2), 1, NO_INTERFACE)],
            )

    def test_last_hop_must_have_no_egress(self):
        with pytest.raises(PathError):
            Segment.from_hops(
                SegmentType.UP,
                [HopField(asid(1, 1), NO_INTERFACE, 1), HopField(asid(1, 2), 1, 3)],
            )

    def test_no_duplicate_as(self):
        with pytest.raises(PathError):
            Segment.from_hops(
                SegmentType.UP,
                [
                    HopField(asid(1, 1), NO_INTERFACE, 1),
                    HopField(asid(1, 1), 2, NO_INTERFACE),
                ],
            )

    def test_reversal_swaps_type_and_interfaces(self):
        segment = self.make_segment()
        rev = segment.reversed()
        assert rev.segment_type is SegmentType.DOWN
        assert rev.first_as == asid(1, 1)
        assert rev.hops[0].egress == 2
        # double reversal is identity on hops
        assert segment.reversed().reversed().hops == segment.hops

    def test_hop_of(self):
        segment = self.make_segment()
        assert (segment.hop_of(asid(1, 11)).ingress, segment.hop_of(asid(1, 11)).egress) == (2, 1)
        with pytest.raises(PathError):
            segment.hop_of(asid(9, 9))

    def test_validate_against_topology(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        for segment in beaconing.up_segments(asid(1, 101)):
            assert_joined(segment, topology)

    def test_validate_rejects_fake_segment(self):
        """The check the beaconing tests lean on rejects a segment whose
        hops no link joins."""
        topology = build_two_isd_topology()
        fake = Segment.from_hops(
            SegmentType.UP,
            [
                HopField(asid(1, 101), NO_INTERFACE, 1),
                HopField(asid(2, 101), 1, NO_INTERFACE),
            ],
        )
        with pytest.raises(AssertionError):
            assert_joined(fake, topology)


class TestBeaconing:
    def test_two_isd_counts(self):
        beaconing = Beaconing(build_two_isd_topology())
        counts = beaconing.segment_count()
        # ISD1: leaves 11, 12, 101, 111 reachable from core1 (4 pairs);
        # ISD2: 11, 12, 101 from core2 (3 pairs).
        assert counts["down_pairs"] == 7
        assert counts["core_pairs"] == 2  # one core link, both directions

    def test_up_segments_reach_core(self):
        beaconing = Beaconing(build_two_isd_topology())
        ups = beaconing.up_segments(asid(1, 101))
        assert ups
        for segment in ups:
            assert segment.segment_type is SegmentType.UP
            assert segment.first_as == asid(1, 101)
            assert segment.last_as == asid(1, 1)

    def test_down_segments_directed(self):
        beaconing = Beaconing(build_two_isd_topology())
        downs = beaconing.down_segments(asid(2, 1), asid(2, 101))
        assert downs
        assert downs[0].first_as == asid(2, 1)
        assert downs[0].last_as == asid(2, 101)

    def test_core_segments_both_directions(self):
        beaconing = Beaconing(build_two_isd_topology())
        assert beaconing.core_segments(asid(1, 1), asid(2, 1))
        assert beaconing.core_segments(asid(2, 1), asid(1, 1))

    def test_reachable_cores(self):
        beaconing = Beaconing(build_two_isd_topology())
        assert beaconing.reachable_cores(asid(1, 101)) == [asid(1, 1)]
        assert beaconing.reachable_cores(asid(1, 1)) == [asid(1, 1)]

    def test_mesh_offers_multiple_core_segments(self):
        beaconing = Beaconing(build_core_mesh(4))
        segments = beaconing.core_segments(asid(1, 1), asid(1, 3))
        assert len(segments) > 1  # direct link plus detours

    def test_line_topology_single_segment(self):
        beaconing = Beaconing(build_line_topology(5))
        segments = beaconing.core_segments(asid(1, 1), asid(1, 5))
        assert len(segments) == 1
        assert len(segments[0]) == 5

    def test_segments_valid_against_topology(self):
        topology = build_internet_like()
        beaconing = Beaconing(topology)
        for (core, leaf), segments in list(beaconing._down.items())[:10]:
            for segment in segments:
                assert_joined(segment, topology)


class TestCombineSegments:
    def test_up_core_down(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        up = beaconing.up_segments(asid(1, 101))[0]
        core = beaconing.core_segments(asid(1, 1), asid(2, 1))[0]
        down = beaconing.down_segments(asid(2, 1), asid(2, 101))[0]
        path = combine_segments([up, core, down])
        assert path.hops[0].isd_as == asid(1, 101)
        assert path.hops[-1].isd_as == asid(2, 101)
        assert path.transfer_ases == (asid(1, 1), asid(2, 1))
        # transfer hop merges ingress from one segment, egress from next
        joint = path.hops[path.hop_index(asid(1, 1))]
        assert joint.ingress != NO_INTERFACE and joint.egress != NO_INTERFACE

    def test_wrong_order_rejected(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        up = beaconing.up_segments(asid(1, 101))[0]
        down = beaconing.down_segments(asid(1, 1), asid(1, 111))[0]
        with pytest.raises(SegmentCombinationError):
            combine_segments([down, up])

    def test_mismatched_joint_rejected(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        up = beaconing.up_segments(asid(1, 101))[0]  # ends at core1
        down = beaconing.down_segments(asid(2, 1), asid(2, 101))[0]  # starts core2
        with pytest.raises(SegmentCombinationError):
            combine_segments([up, down], allow_shortcut=False)

    def test_shortcut_cuts_below_core(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        # 101 and 11 share AS 11: path from 101's grandchild view
        up = beaconing.up_segments(asid(1, 101))[0]  # 101 -> 11 -> core1
        down = beaconing.down_segments(asid(1, 1), asid(1, 101))[0]
        # Combining up(101) with down(core1 -> 11 -> 101) would revisit;
        # use a different destination under the same child to see the cut.
        # Build synthetic: up hits 11, down from core1 through 11 to 101.
        path = combine_segments(
            [beaconing.up_segments(asid(1, 101))[0],
             beaconing.down_segments(asid(1, 1), asid(1, 11))[0]]
        )
        # Shortcut: 101 -> 11 directly, without reaching core1.
        assert asid(1, 1) not in path.ases
        assert path.ases == (asid(1, 101), asid(1, 11))

    def test_single_segment_path(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        up = beaconing.up_segments(asid(1, 101))[0]
        path = combine_segments([up])
        assert path.ases == up.ases
        assert path.transfer_ases == ()

    def test_too_many_segments(self):
        topology = build_two_isd_topology()
        beaconing = Beaconing(topology)
        up = beaconing.up_segments(asid(1, 101))[0]
        with pytest.raises(SegmentCombinationError):
            combine_segments([up, up, up, up])


class TestPathLookup:
    def test_inter_isd_path(self):
        lookup = PathLookup(Beaconing(build_two_isd_topology()))
        paths = lookup.paths(asid(1, 101), asid(2, 101))
        assert paths
        best = paths[0]
        assert best.hops[0].isd_as == asid(1, 101)
        assert best.hops[-1].isd_as == asid(2, 101)
        assert len(best) == 6

    def test_intra_isd_shortcut(self):
        lookup = PathLookup(Beaconing(build_two_isd_topology()))
        paths = lookup.paths(asid(1, 101), asid(1, 11))
        assert len(paths[0]) == 2  # shortcut, not via core

    def test_core_to_core(self):
        lookup = PathLookup(Beaconing(build_two_isd_topology()))
        paths = lookup.paths(asid(1, 1), asid(2, 1))
        assert len(paths[0]) == 2

    def test_leaf_to_core(self):
        lookup = PathLookup(Beaconing(build_two_isd_topology()))
        paths = lookup.paths(asid(1, 101), asid(2, 1))
        assert paths[0].hops[-1].isd_as == asid(2, 1)

    def test_same_as_rejected(self):
        lookup = PathLookup(Beaconing(build_two_isd_topology()))
        with pytest.raises(NoPathError):
            lookup.paths(asid(1, 101), asid(1, 101))

    def test_paths_sorted_by_length(self):
        lookup = PathLookup(Beaconing(build_core_mesh(4)))
        paths = lookup.paths(asid(1, 1), asid(1, 3), limit=10)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_internet_like_connectivity(self):
        topology = build_internet_like(isd_count=3)
        lookup = PathLookup(Beaconing(topology))
        leaves = [n.isd_as for n in topology.ases() if not n.is_core]
        src = [a for a in leaves if a.isd == 1][0]
        dst = [a for a in leaves if a.isd == 3][0]
        paths = lookup.paths(src, dst)
        assert paths[0].hops[0].isd_as == src
        assert paths[0].hops[-1].isd_as == dst


class TestGenerators:
    def test_line_length(self):
        topology = build_line_topology(8)
        assert len(topology) == 8
        assert len(list(topology.links())) == 7

    def test_line_needs_positive_length(self):
        with pytest.raises(ValueError):
            build_line_topology(0)

    def test_mesh_link_count(self):
        topology = build_core_mesh(5)
        assert len(list(topology.links())) == 10

    def test_internet_like_all_leaves_connected(self):
        topology = build_internet_like(isd_count=2, depth=2)
        beaconing = Beaconing(topology)
        for node in topology.ases():
            if not node.is_core:
                assert beaconing.reachable_cores(node.isd_as)

    @pytest.mark.parametrize("isd_count", [1, 2, 3, 4])
    def test_internet_like_links_each_as_pair_once(self, isd_count):
        """With two ISDs the core ring visits one pair in both directions;
        it must still link it once."""
        topology = build_internet_like(isd_count=isd_count)
        pairs = [frozenset((link.a.owner, link.b.owner)) for link in topology.links()]
        assert len(pairs) == len(set(pairs))
