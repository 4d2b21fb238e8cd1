"""Soak test: sustained stochastic churn over a long simulated horizon.

Drives Poisson EER arrivals, renewals, probe traffic, SegR keep-alive,
and periodic housekeeping together for many simulated minutes, then
checks the invariants that matter for a long-running deployment: no
state leaks, no capacity leaks, monotone counters, consistent telemetry.
"""

import pytest

from repro.constants import SEGR_LIFETIME
from repro.control import RenewalScheduler
from repro.sim import ColibriNetwork, EventLoop
from repro.sim.workload import EerWorkload
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)

HORIZON = 20 * 60.0  # 20 simulated minutes, 4 SegR lifetimes


@pytest.fixture(scope="module")
def soaked():
    net = ColibriNetwork(build_two_isd_topology())
    loop = EventLoop(net.clock)
    segments = net.reserve_segments(SRC, DST, mbps(500))

    keepers = []
    for segr in segments:
        owner = net.cserv(segr.reservation_id.src_as)
        keeper = RenewalScheduler(owner)
        keeper.track_segment(segr.reservation_id, bandwidth=mbps(500))
        keepers.append(keeper)

    workload = EerWorkload(
        net, loop, SRC, DST,
        arrival_rate=0.5, mean_holding=45.0,
        min_bandwidth=mbps(0.1), max_bandwidth=mbps(20),
    )
    workload.start()

    def housekeeping():
        for keeper in keepers:
            keeper.tick()
        net.housekeeping()

    loop.every(30.0, housekeeping)
    start = net.clock.now()
    loop.run_until(start + HORIZON)
    return net, workload, segments


class TestSoak:
    def test_workload_actually_ran(self, soaked):
        net, workload, _ = soaked
        stats = workload.stats
        assert stats.arrivals > 300
        assert stats.admitted > 100
        assert stats.renewals > 100

    def test_probe_traffic_delivered(self, soaked):
        net, workload, _ = soaked
        assert workload.stats.packets_sent > 100
        stats = workload.stats
        assert stats.packets_delivered > 0.99 * stats.packets_sent

    def test_segr_chain_survived_the_horizon(self, soaked):
        net, _, segments = soaked
        for segr in segments:
            assert not segr.is_expired(net.clock.now())
            # Renewed through ~4 lifetimes: version advanced well past 1.
            assert segr.active.version >= 3

    def test_no_eer_leaks(self, soaked):
        """Stored EERs at every AS are bounded by the live session count
        (plus at most the sessions whose final version has not yet hit
        housekeeping)."""
        net, workload, _ = soaked
        net.housekeeping()
        live = len(workload._sessions)
        for isd_as in net.ases():
            count = net.cserv(isd_as).store.eer_count()
            assert count <= live + 5, (isd_as, count, live)

    def test_no_allocation_leaks(self, soaked):
        """Every SegR's admitted-EER sum equals the sum over its stored
        allocations (the O(1) counter never drifted), and never exceeds
        the SegR bandwidth."""
        net, _, _ = soaked
        for isd_as in net.ases():
            store = net.cserv(isd_as).store
            for segr in store.segments():
                total = store.allocated_on_segment(segr.reservation_id)
                exact = sum(
                    store._eer_alloc[segr.reservation_id].values()
                )
                assert total == pytest.approx(exact)
                assert total <= segr.bandwidth * (1 + 1e-9)

    def test_telemetry_consistent_after_soak(self, soaked):
        net, workload, _ = soaked
        snapshot = net.telemetry()
        total = snapshot["total"]
        assert total["gateway_sent"] >= workload.stats.packets_delivered
        assert total["router_drops"] == 0  # honest workload, no drops
        assert total["offenses"] == 0


class TestAudit:
    def test_audit_clean_after_soak(self, soaked):
        net, _, _ = soaked
        assert net.audit() == []

    def test_audit_detects_version_divergence(self):
        net = ColibriNetwork(build_two_isd_topology())
        (segr,) = net.reserve_segments(
            IsdAs(1, BASE + 1), IsdAs(2, BASE + 1), mbps(100)
        )
        owner = net.cserv(IsdAs(1, BASE + 1))
        version = owner.renew_segment(segr.reservation_id, mbps(200))
        # Corrupt: activate only locally (simulated state divergence).
        segr.activate(version, now=net.clock.now())
        violations = net.audit()
        assert any("active version disagrees" in v for v in violations)

    def test_audit_detects_overallocation(self):
        from repro.reservation.ids import ReservationId

        net = ColibriNetwork(build_two_isd_topology())
        (segr,) = net.reserve_segments(
            IsdAs(1, BASE + 1), IsdAs(2, BASE + 1), mbps(100)
        )
        store = net.cserv(IsdAs(1, BASE + 1)).store
        store.allocate_on_segment(
            segr.reservation_id, ReservationId(IsdAs(1, BASE + 1), 999), mbps(500)
        )
        violations = net.audit()
        assert any("over-allocated" in v for v in violations)
