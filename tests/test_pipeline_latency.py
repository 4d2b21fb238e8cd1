"""Tests for the multi-hop latency pipeline (§9's low-latency benefit)."""

import pytest

from benchmarks import figures
from repro.dataplane.queueing import TrafficClass
from repro.sim.pipeline import HopPort
from repro.util.units import mbps


@pytest.fixture
def pipeline():
    """The §9 figure's own stack: a 10 Mbps EER over the 6-AS path,
    100 Mbps ports, 1 ms propagation per hop."""
    path = figures.latency_pipeline()
    return path.network, path


class TestHopPort:
    def test_unloaded_delay_is_serialization_plus_propagation(self):
        port = HopPort(capacity=mbps(100), propagation=0.002)
        delay = port.transit_delay(1250, TrafficClass.EER_DATA, now=0.0)
        assert delay == pytest.approx(0.002 + 1250 * 8 / mbps(100))

    def test_backlog_drains_over_time(self):
        port = HopPort(capacity=mbps(100), propagation=0.0)
        port.offer_cross_traffic(125_000, TrafficClass.BEST_EFFORT, now=0.0)
        # 125 kB at 100 Mbps = 10 ms to drain; after 20 ms it's gone.
        delay = port.transit_delay(1250, TrafficClass.BEST_EFFORT, now=0.020)
        assert delay == pytest.approx(1250 * 8 / mbps(100))

    def test_priority_traffic_skips_best_effort_backlog(self):
        port = HopPort(capacity=mbps(100), propagation=0.0)
        port.offer_cross_traffic(1_000_000, TrafficClass.BEST_EFFORT, now=0.0)
        fast = port.transit_delay(1250, TrafficClass.EER_DATA, now=0.0)
        slow = port.transit_delay(1250, TrafficClass.BEST_EFFORT, now=0.0)
        assert fast < 0.001
        assert slow > 0.05

    def test_control_ahead_of_eer_data(self):
        port = HopPort(capacity=mbps(100), propagation=0.0)
        port.offer_cross_traffic(1_000_000, TrafficClass.EER_DATA, now=0.0)
        control = port.transit_delay(1250, TrafficClass.CONTROL, now=0.0)
        assert control < 0.001


class TestPathPipeline:
    def test_clean_network_latency(self, pipeline):
        net, path = pipeline
        report = path.send(b"x" * 500)
        assert report.delivered
        # 6 hops x (propagation 1 ms + tiny serialization) ~ 6 ms.
        assert report.latency == pytest.approx(0.006, rel=0.2)
        assert len(report.per_hop) == 6

    def test_reserved_latency_immune_to_congestion(self):
        """The §9 claim: reservations keep low latency under congestion
        that ruins best-effort latency on the same ports — and with strict
        priority off they do not."""
        figure = figures.latency("quick")
        assert {p.verdict for p in figure.shape} == {figures.OK}
        mutant = figures.latency("quick", build=figures.fifo_pipeline)
        assert "reserved latency flat in cross load" in mutant.violated()

    def test_congestion_at_one_hop_only(self, pipeline):
        net, path = pipeline
        victim_hop = path.handle.hops[3].isd_as
        path.load_cross_traffic(mbps(500), 1.0, ases=[victim_hop])
        report = path.send(b"x" * 500, traffic_class=TrafficClass.BEST_EFFORT)
        delays = dict(report.per_hop)
        assert delays[victim_hop] > 10 * max(
            delay for isd_as, delay in report.per_hop if isd_as != victim_hop
        )

    def test_per_hop_latency_sums_to_total(self, pipeline):
        net, path = pipeline
        report = path.send(b"ping")
        assert sum(delay for _, delay in report.per_hop) == pytest.approx(
            report.latency
        )

    def test_dropped_packet_reports_location(self, pipeline):
        net, path = pipeline
        victim = path.handle.hops[2].isd_as
        net.router(victim).blocklist.block(path.handle.hops[0].isd_as)
        report = path.send(b"blocked")
        assert not report.delivered
        assert report.dropped_at == victim
