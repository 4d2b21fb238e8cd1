"""Path stability under topology churn (§2.1).

"Since routing decisions are decoupled from the dissemination of path
information, these networks do not suffer from the long convergence
times that affect path-vector protocols […]  AS-level paths, and any
reservations on them, are stable in time and cannot be affected by
off-path entities."

These tests exercise exactly that: off-path link churn never touches an
existing reservation (packet-carried forwarding state consults no
routing table), while re-beaconing steers only *future* path discovery.
"""

import pytest

from repro.constants import EER_LIFETIME
from repro.errors import NoPathError, TopologyError
from repro.sim import ColibriNetwork
from repro.topology import Beaconing, IsdAs, PathLookup, build_core_mesh, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


class TestRemoveLink:
    def test_remove_clears_interfaces(self):
        topology = build_core_mesh(3)
        link = topology.link_between(asid(1, 1), asid(1, 2))
        topology.remove_link(link)
        with pytest.raises(TopologyError):
            topology.link_between(asid(1, 1), asid(1, 2))
        assert link.a.ifid not in topology.node(asid(1, 1)).interfaces

    def test_double_remove_rejected(self):
        topology = build_core_mesh(3)
        link = topology.link_between(asid(1, 1), asid(1, 2))
        topology.remove_link(link)
        with pytest.raises(TopologyError):
            topology.remove_link(link)

    def test_rebeaconing_drops_dead_paths(self):
        topology = build_core_mesh(3)
        beaconing = Beaconing(topology)
        direct_before = beaconing.core_segments(asid(1, 1), asid(1, 2))
        assert any(len(segment) == 2 for segment in direct_before)
        topology.remove_link(topology.link_between(asid(1, 1), asid(1, 2)))
        beaconing.discover()
        remaining = beaconing.core_segments(asid(1, 1), asid(1, 2))
        assert remaining  # the detour via AS 3 survives
        assert all(len(segment) == 3 for segment in remaining)


class TestOffPathChurnDoesNotTouchReservations:
    def test_eer_survives_off_path_link_cut(self):
        """Cutting a link the reservation does not use changes nothing:
        no re-convergence, no reservation interruption (§2.1)."""
        net = ColibriNetwork(build_two_isd_topology())
        src, dst = asid(1, 101), asid(2, 101)
        net.reserve_segments(src, dst, gbps(1))
        handle = net.establish_eer(src, dst, mbps(10))
        # Cut an off-path customer link in ISD 2 (AS 2-12's uplink).
        off_path = net.topology.link_between(asid(2, 1), asid(2, 12))
        net.topology.remove_link(off_path)
        net.beaconing.discover()
        report = net.send(src, handle, b"unaffected by off-path churn")
        assert report.delivered

    def test_hijack_attempt_cannot_move_reservation(self):
        """An off-path AS adding an attractive new link (the BGP-hijack
        analog) never attracts existing reservation traffic: the path is
        pinned in the packet headers."""
        net = ColibriNetwork(build_two_isd_topology())
        src, dst = asid(1, 101), asid(2, 101)
        net.reserve_segments(src, dst, gbps(1))
        handle = net.establish_eer(src, dst, mbps(10))
        path_before = tuple(hop.isd_as for hop in handle.hops)
        # "Hijacker" 1-12 gets a shiny direct link to 1-11's customer tree.
        net.topology.add_link(asid(1, 12), asid(1, 101))
        net.beaconing.discover()
        report = net.send(src, handle, b"still on the original path")
        assert report.delivered
        assert tuple(isd_as for isd_as, _ in report.verdicts) == path_before

    def test_new_paths_discovered_after_churn(self):
        """Re-beaconing integrates new links for *future* reservations."""
        net = ColibriNetwork(build_two_isd_topology())
        net.topology.add_link(asid(1, 12), asid(1, 101))
        net.beaconing.discover()
        paths = net.path_lookup.paths(asid(1, 101), asid(1, 12))
        assert len(paths[0]) == 2  # the new direct hop


class TestOnPathFailure:
    def test_on_path_cut_detected_and_fresh_eer_takes_detour(self):
        """An on-path failure does break the reservation (physics), but
        path choice means an alternative exists (§2.1): after
        re-beaconing, a fresh SegR + EER ride the surviving detour."""
        net = ColibriNetwork(build_core_mesh(4))
        src, dst = asid(1, 1), asid(1, 3)
        (direct,) = net.reserve_segments(src, dst, gbps(1))
        handle = net.establish_eer(src, dst, mbps(10))
        assert [hop.isd_as for hop in handle.hops] == [src, dst]
        assert net.send(src, handle, b"over the direct link").delivered

        net.topology.remove_link(net.topology.link_between(src, dst))
        net.beaconing.discover()
        # Detected: the pinned path crosses a link that no longer exists,
        # and path discovery stops offering it.
        with pytest.raises(TopologyError):
            net.topology.link_between(*(hop.isd_as for hop in handle.hops))
        assert min(len(path) for path in net.path_lookup.paths(src, dst)) == 3

        # The owner lets the stranded EER expire, retires the dead SegR
        # and reserves over what beaconing now offers.
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()
        net.cserv(src).teardown_segment(direct.reservation_id)
        net.reserve_segments(src, dst, gbps(1))
        fresh = net.establish_eer(src, dst, mbps(10))
        via = [hop.isd_as for hop in fresh.hops]
        assert len(via) == 3 and via[0] == src and via[-1] == dst
        assert net.send(src, fresh, b"rerouted").delivered
        assert net.audit() == []
