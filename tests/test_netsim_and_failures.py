"""Unit tests for the netsim building blocks and failure-injection
scenarios (mid-chain partitions must leave no state behind)."""

from types import SimpleNamespace

import pytest

from repro.control.rpc import Unreachable
from repro.dataplane.router import Verdict
from repro.sim import AtHop, ColibriNetwork, PortSim
from repro.sim.traffic import BestEffortSource, ReservationSource
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)


class TestAtHop:
    def test_repositions_packets(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(8))
        source = ReservationSource(net.gateway(SRC), handle, mbps(8), 500)
        adapted = AtHop(source, 3)
        packets = list(adapted.packets(net.clock.now(), 0.01))
        assert packets
        assert all(p.hop_index == 3 for p in packets)


class TestPortSim:
    def test_accounts_per_label(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(SRC, DST, mbps(10))
        handle = net.establish_eer(SRC, DST, mbps(1))
        hop = [h.isd_as for h in handle.hops].index(asid(2, 1))
        source = ReservationSource(net.gateway(SRC), handle, mbps(1), 500)
        sim = PortSim(net.router(asid(2, 1)), net.clock, capacity=mbps(40))
        rates = sim.run(
            duration=0.2,
            colibri_inputs=[(1, AtHop(source, hop), "flow")],
            best_effort_inputs=[(2, BestEffortSource(mbps(5), 500))],
        )
        assert rates["flow"] * 1e9 == pytest.approx(mbps(1), rel=0.2)
        assert rates[PortSim.BEST_EFFORT] * 1e9 == pytest.approx(mbps(5), rel=0.2)

    def test_router_drop_accounting(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(SRC, DST, mbps(10))
        handle = net.establish_eer(SRC, DST, mbps(1))
        hop = [h.isd_as for h in handle.hops].index(asid(2, 1))
        source = ReservationSource(net.gateway(SRC), handle, mbps(1), 500)
        router = net.router(asid(2, 1))
        router.blocklist.block(SRC)
        sim = PortSim(router, net.clock, capacity=mbps(40))
        rates = sim.run(
            duration=0.1,
            colibri_inputs=[(1, AtHop(source, hop), "flow")],
            best_effort_inputs=[],
        )
        assert "flow" not in rates
        assert sim.router_drops[Verdict.DROP_BLOCKED] > 0

    def test_credits_bytes_to_the_packets_that_left(self):
        """One slice of a 1,000 B/s port gets nine 100 B packets of ``b``
        and then a 900 B packet of ``a``: the port sends ``b``'s 900 B,
        and ``a`` must not be credited with bytes of a packet still queued."""

        class Forwarding:
            def process(self, packet):
                return SimpleNamespace(verdict=Verdict.FORWARD)

        class Burst:
            def __init__(self, *sizes):
                self.sizes = sizes

            def packets(self, now, tick):
                return [SimpleNamespace(total_size=size) for size in self.sizes]

        sim = PortSim(Forwarding(), SimClock(0.0), capacity=8000.0)
        rates = sim.run(
            duration=1.0,
            colibri_inputs=[(1, Burst(*[100] * 9), "b"), (2, Burst(900), "a")],
            best_effort_inputs=[],
            tick=1.0,
        )
        assert rates == {"b": 900 * 8 / 1e9}


class TestPartitionFailures:
    def test_mid_chain_partition_leaves_no_segr_state(self):
        """A SegReq that dies at a partitioned AS must leave zero
        reservations and zero admission state at the ASes it already
        traversed (the §3.3 cleanup guarantee under crash-failure)."""
        net = ColibriNetwork(build_two_isd_topology())
        net.bus.partition(asid(2, 1))  # the far core AS
        with pytest.raises(Unreachable):
            net.reserve_segments(SRC, DST, gbps(1))
        for isd_as in net.ases():
            cserv = net.cserv(isd_as)
            # Up-segment (entirely within ISD 1) may have succeeded; the
            # core segment crossing the partition must not exist anywhere.
            for segr in cserv.store.segments():
                assert asid(2, 1) not in segr.segment.ases

    def test_mid_chain_partition_leaves_no_eer_state(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(SRC, DST, mbps(100))
        net.bus.partition(asid(2, 11))  # transit AS inside ISD 2
        with pytest.raises(Unreachable):
            net.establish_eer(SRC, DST, mbps(10))
        net.bus.heal(asid(2, 11))
        for isd_as in net.ases():
            cserv = net.cserv(isd_as)
            assert cserv.store.eer_count() == 0
            for segr in cserv.store.segments():
                assert cserv.store.allocated_on_segment(segr.reservation_id) == 0.0
        # After healing, the same EER succeeds with full bandwidth.
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert handle.granted == pytest.approx(mbps(10))

    def test_partition_heal_restores_service(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.bus.partition(asid(2, 1))
        with pytest.raises(Unreachable):
            net.reserve_segments(SRC, DST, gbps(1))
        net.bus.heal(asid(2, 1))
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert net.send(SRC, handle, b"healed").delivered
