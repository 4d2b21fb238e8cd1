"""Tests for the end-host layer (repro.app) and simulation substrate
(events, traffic sources, the Table 2 port simulation)."""

import pytest

from repro.app import ColibriSocket, EndHost
from repro.constants import EER_LIFETIME
from repro.errors import InsufficientBandwidth, NoPathError, SimulationError
from repro.sim import ColibriNetwork, EventLoop, PortSim
from repro.sim.traffic import (
    BestEffortSource,
    BogusColibriSource,
    OverusingSource,
    ReservationSource,
)
from repro.topology import IsdAs, build_two_isd_topology
from repro.topology.addresses import HostAddr
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


class TestEventLoop:
    def test_events_fire_in_order(self):
        clock = SimClock(0.0)
        loop = EventLoop(clock)
        order = []
        loop.at(2.0, lambda: order.append("b"))
        loop.at(1.0, lambda: order.append("a"))
        loop.at(3.0, lambda: order.append("c"))
        fired = loop.run_until(2.5)
        assert order == ["a", "b"]
        assert fired == 2
        assert clock.now() == 2.5

    def test_ties_fire_fifo(self):
        loop = EventLoop(SimClock(0.0))
        order = []
        loop.at(1.0, lambda: order.append(1))
        loop.at(1.0, lambda: order.append(2))
        loop.run_until(1.0)
        assert order == [1, 2]

    def test_cancellation(self):
        loop = EventLoop(SimClock(0.0))
        fired = []
        event = loop.at(1.0, lambda: fired.append(1))
        event.cancel()
        loop.run_until(2.0)
        assert fired == []
        assert loop.pending() == 0

    def test_periodic(self):
        loop = EventLoop(SimClock(0.0))
        ticks = []
        loop.every(1.0, lambda: ticks.append(loop.clock.now()))
        loop.run_until(5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_past_scheduling_rejected(self):
        loop = EventLoop(SimClock(10.0))
        with pytest.raises(SimulationError):
            loop.at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.after(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop(SimClock(0.0))
        seen = []
        loop.at(1.0, lambda: loop.at(1.5, lambda: seen.append("nested")))
        loop.run_until(2.0)
        assert seen == ["nested"]


class TestEndHostApi:
    def test_socket_send_and_stats(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        host = EndHost(net, SRC, HostAddr(1))
        socket = host.connect(DST, HostAddr(2), mbps(10))
        for _ in range(5):
            socket.send(b"datagram")
        assert socket.stats.delivered == 5
        assert socket.stats.delivery_rate == 1.0

    def test_forward_reads_the_eer_path_once(self, net):
        """The walk resolves hop pointer -> AS against the EER's recorded
        path: one store lookup per packet, not one per hop."""
        net.reserve_segments(SRC, DST, gbps(1))
        socket = EndHost(net, SRC, HostAddr(1)).connect(DST, HostAddr(2), mbps(10))
        store = net.cserv(SRC).store
        lookups = []
        get_eer = store.get_eer
        store.get_eer = lambda res_id: lookups.append(res_id) or get_eer(res_id)
        report = socket.send(b"datagram")
        assert lookups == [socket.handle.reservation_id]
        path = [hop.isd_as for hop in socket.handle.hops]
        assert len(path) == 6 and [isd_as for isd_as, _ in report.verdicts] == path
        assert [verdict.name for _, verdict in report.verdicts] == (
            ["FORWARD"] * 5 + ["DELIVER_HOST"]
        )

    def test_connect_without_segments_raises(self, net):
        host = EndHost(net, SRC, HostAddr(1))
        with pytest.raises(NoPathError):
            host.connect(DST, HostAddr(2), mbps(10))

    def test_auto_renew_survives_expiry(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        # Keep the SegRs alive too, so only the EER needs auto-renewal.
        from repro.control import RenewalScheduler

        keepers = []
        for isd_as in (asid(1, 101), asid(1, 1), asid(2, 1)):
            cserv = net.cserv(isd_as)
            keeper = RenewalScheduler(cserv)
            for segr in cserv.store.segments():
                if segr.reservation_id.src_as == isd_as:
                    keeper.track_segment(segr.reservation_id, bandwidth=gbps(1))
            keepers.append(keeper)
        host = EndHost(net, SRC, HostAddr(1))
        socket = host.connect(DST, HostAddr(2), mbps(10), auto_renew=True)
        for _ in range(4):
            net.advance(EER_LIFETIME / 2)
            for keeper in keepers:
                keeper.tick()
            assert socket.send(b"ping").delivered

    def test_send_paced_delivers_all(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        host = EndHost(net, SRC, HostAddr(1))
        socket = host.connect(DST, HostAddr(2), mbps(8), auto_renew=True)
        stats = socket.send_paced(total_bytes=20_000, packet_bytes=1000)
        assert stats.delivered == 20
        assert stats.network_drops == 0

    def test_bandwidth_estimate(self, net):
        host = EndHost(net, SRC, HostAddr(1))
        assert host.estimate_bandwidth_for(mbps(4)) == pytest.approx(mbps(4.4))
        with pytest.raises(ValueError):
            host.estimate_bandwidth_for(0)

    def test_explicit_renew(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        host = EndHost(net, SRC, HostAddr(1))
        socket = host.connect(DST, HostAddr(2), mbps(10), auto_renew=False)
        net.advance(2.0)
        renewed = socket.renew(new_bandwidth=mbps(20))
        assert renewed.res_info.version == 2
        assert socket.reserved_bandwidth == pytest.approx(mbps(20))


class TestTrafficSources:
    def test_reservation_source_rate(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(8))
        source = ReservationSource(
            net.gateway(SRC), handle, rate=mbps(8), packet_bytes=1000
        )
        total = 0
        for step in range(100):
            packets = list(source.packets(net.clock.now(), 0.001))
            total += len(packets)
            net.advance(0.001)
        assert total == 100  # 1 packet per ms at 8 Mbps / 1000 B

    def test_overusing_source_bypasses_monitor(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(8))
        source = OverusingSource(
            net.gateway(SRC), handle, rate=mbps(80), packet_bytes=1000
        )
        packets = list(source.packets(net.clock.now(), 0.01))
        assert len(packets) == 100  # 10x the reservation, no gateway drops
        assert source.gateway_drops == 0
        # The packets are validly stamped: routers accept them (until
        # policing reacts).
        packets[0].hop_index = 1
        result = net.router(asid(1, 11)).process(packets[0])
        assert not result.verdict.is_drop

    def test_bogus_source_generates_invalid_packets(self, net):
        source = BogusColibriSource(
            SRC, ((0, 1), (2, 0)), rate=mbps(8), packet_bytes=1000,
            expiry=net.clock.now() + 100,
        )
        packets = list(source.packets(net.clock.now(), 0.01))
        assert len(packets) == 10
        packets[0].hop_index = 0
        from repro.dataplane.router import Verdict

        assert net.router(asid(1, 1)).process(packets[0]).verdict is Verdict.DROP_BAD_HVF

    def test_best_effort_source_volume(self):
        source = BestEffortSource(rate=8_000_000.0, packet_bytes=1000)
        sizes = list(source.sizes(0.0, 0.01))
        assert sum(sizes) == 10_000  # 1 MB/s * 10 ms

    def test_fractional_rates_carry_over(self):
        source = BestEffortSource(rate=4000.0, packet_bytes=1000)  # 0.5 pkt/s
        counts = [len(list(source.sizes(t, 1.0))) for t in range(4)]
        assert sum(counts) == 2  # carry accumulates, no packets lost


class TestBidirectional:
    def test_two_way_sockets(self, net):
        from repro.app import establish_bidirectional

        net.reserve_segments(SRC, DST, gbps(1))
        net.reserve_segments(DST, SRC, gbps(1))
        alice = EndHost(net, SRC, HostAddr(1))
        bob = EndHost(net, DST, HostAddr(2))
        ab, ba = establish_bidirectional(net, alice, bob, mbps(10), mbps(2))
        assert ab.send(b"question").delivered
        assert ba.send(b"answer").delivered
        assert ab.reserved_bandwidth == pytest.approx(mbps(10))
        assert ba.reserved_bandwidth == pytest.approx(mbps(2))

    def test_reverse_failure_rolls_back_forward(self, net):
        from repro.app import establish_bidirectional

        net.reserve_segments(SRC, DST, gbps(1))
        # no reverse segments: the second connect fails
        alice = EndHost(net, SRC, HostAddr(1))
        bob = EndHost(net, DST, HostAddr(2))
        with pytest.raises(NoPathError):
            establish_bidirectional(net, alice, bob, mbps(10))
        # forward direction was uninstalled at the gateway
        assert net.gateway(SRC).reservation_count() == 0


class TestPowerLawTopology:
    def test_scale_and_connectivity(self):
        from repro.topology import Beaconing, PathLookup, build_power_law

        topology = build_power_law(as_count=300, isd_count=5)
        assert len(topology) == 300
        beaconing = Beaconing(topology)
        for node in topology.ases():
            if not node.is_core:
                assert beaconing.reachable_cores(node.isd_as)
        # End-to-end across the power-law graph works.
        net = ColibriNetwork(topology)
        leaves = [n.isd_as for n in topology.ases() if not n.is_core]
        src = [a for a in leaves if a.isd == 1][0]
        dst = [a for a in leaves if a.isd == 4][0]
        net.reserve_segments(src, dst, mbps(100))
        handle = net.establish_eer(src, dst, mbps(5))
        assert net.send(src, handle, b"power law").delivered

    def test_degree_skew(self):
        from repro.topology import build_power_law

        topology = build_power_law(as_count=300, isd_count=3)
        degrees = sorted(
            (len(node.interfaces) for node in topology.ases()), reverse=True
        )
        # Heavy tail: the biggest provider dwarfs the median AS.
        assert degrees[0] >= 8
        assert degrees[len(degrees) // 2] <= 2

    def test_validates_parameters(self):
        from repro.topology import build_power_law

        with pytest.raises(ValueError):
            build_power_law(as_count=5, isd_count=5, cores_per_isd=3)
