"""Tests for store persistence (restart recovery) and metrics export."""

import json

import pytest

from repro.constants import EER_LIFETIME
from repro.control.rpc import FaultInjector, LinkFaults
from repro.errors import ColibriError
from repro.reservation.persistence import (
    dump_store,
    dumps_store,
    load_store,
    loads_store,
)
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.topology.addresses import HostAddr
from repro.obs.events import VERDICT_DROPPED
from repro.obs.metrics import MetricsRegistry
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)


@pytest.fixture
def loaded_net():
    """A network with live SegRs (multiple versions) and EERs."""
    net = ColibriNetwork(build_two_isd_topology())
    segments = net.reserve_segments(SRC, DST, mbps(200))
    net.establish_eer(SRC, DST, mbps(50))
    handle = net.establish_eer(SRC, DST, mbps(30))
    net.advance(2.0)
    net.cserv(SRC).renew_eer(handle)
    # Give one SegR a pending + activated second version.
    owner = net.cserv(segments[0].reservation_id.src_as)
    version = owner.renew_segment(segments[0].reservation_id, mbps(300))
    owner.activate_segment(segments[0].reservation_id, version)
    # And one SegR with a *pending* (unactivated) version.
    owner2 = net.cserv(segments[1].reservation_id.src_as)
    owner2.renew_segment(segments[1].reservation_id, mbps(250))
    return net


class TestPersistence:
    def roundtrip(self, store):
        return load_store(json.loads(json.dumps(dump_store(store))))

    def test_roundtrip_preserves_counts(self, loaded_net):
        store = loaded_net.cserv(SRC).store
        restored = self.roundtrip(store)
        assert restored.segment_count() == store.segment_count()
        assert restored.eer_count() == store.eer_count()

    def test_roundtrip_preserves_versions_and_states(self, loaded_net):
        # The transfer AS holds the renewed SegR with an activated v2.
        for isd_as in loaded_net.ases():
            store = loaded_net.cserv(isd_as).store
            restored = self.roundtrip(store)
            for original in store.segments():
                copy = restored.get_segment(original.reservation_id)
                assert copy.active.version == original.active.version
                assert copy.bandwidth == original.bandwidth
                assert sorted(copy.versions) == sorted(original.versions)
                for number, version in original.versions.items():
                    assert copy.versions[number].state == version.state

    def test_roundtrip_preserves_allocations(self, loaded_net):
        store = loaded_net.cserv(SRC).store
        restored = self.roundtrip(store)
        for segr in store.segments():
            assert restored.allocated_on_segment(
                segr.reservation_id
            ) == pytest.approx(store.allocated_on_segment(segr.reservation_id))

    def test_roundtrip_preserves_eer_versions(self, loaded_net):
        store = loaded_net.cserv(SRC).store
        restored = self.roundtrip(store)
        now = loaded_net.clock.now()
        for original in store.eers():
            copy = restored.get_eer(original.reservation_id)
            assert copy.effective_bandwidth(now) == pytest.approx(
                original.effective_bandwidth(now)
            )
            assert copy.segment_ids == original.segment_ids
            assert copy.hops == original.hops

    def test_string_roundtrip(self, loaded_net):
        store = loaded_net.cserv(SRC).store
        text = dumps_store(store)
        restored = loads_store(text)
        assert restored.segment_count() == store.segment_count()
        # Deterministic output: same state, same snapshot.
        assert dumps_store(restored) == text

    def test_restored_store_is_operational(self, loaded_net):
        """A restarted CServ can run admission against the snapshot."""
        from repro.admission.eer_admission import AsRole, EerAdmission

        store = loaded_net.cserv(SRC).store
        restored = self.roundtrip(store)
        segr = restored.segments()[0]
        admission = EerAdmission(SRC, restored)
        decision = admission.decide(
            AsRole.TRANSIT,
            mbps(1),
            now=loaded_net.clock.now(),
            segment_in=segr.reservation_id,
        )
        assert decision.granted == pytest.approx(mbps(1))

    def test_roundtrip_preserves_replay_records(self, loaded_net):
        held = 0
        for isd_as in loaded_net.ases():
            store = loaded_net.cserv(isd_as).store
            restored = self.roundtrip(store)
            for original in store.segments() + store.eers():
                find = (
                    restored.get_eer
                    if store.has_eer(original.reservation_id)
                    else restored.get_segment
                )
                copy = find(original.reservation_id)
                for number, version in original.versions.items():
                    assert copy.versions[number].replay == version.replay
                    held += version.replay is not None
        assert held  # the fixture's on-path ASes do hold records

    def test_retry_after_crash_and_reload_is_replayed(self, loaded_net):
        """The destination commits a renewal, the response is lost, the
        CServ restarts from its snapshot before the retry arrives: the
        restored version still answers it (§3.3)."""
        net = loaded_net
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        dest = net.cserv(DST)
        upstream = net.cserv(handle.hops[-2].isd_as).caller
        injector = FaultInjector(seed=0)
        injector.set_link(upstream.source, DST, LinkFaults(response_loss=1.0))
        net.bus.install_faults(injector)
        backoff = upstream.sleeper

        def crash_reload_then_back_off(delay):
            net.bus.install_faults(None)
            dest.store = dest.eer_admission.store = loads_store(dumps_store(dest.store))
            backoff(delay)

        upstream.sleeper = crash_reload_then_back_off
        renewed = net.cserv(SRC).renew_eer(handle)
        assert injector.injected["response_loss"] == 1
        assert renewed.res_info.version == 2
        assert dest.replays == 1
        assert sorted(dest.store.get_eer(handle.reservation_id).versions) == [1, 2]
        assert net.audit() == []

    def test_unknown_format_rejected(self):
        with pytest.raises(ColibriError):
            load_store({"format": 999, "segments": [], "eers": []})


def exposition_of(snapshot_fn) -> str:
    """The exposition of one telemetry-shaped snapshot source."""
    registry = MetricsRegistry()
    registry.family_source(snapshot_fn)
    return registry.render()


class TestMetricsExport:
    def test_render_contains_totals_and_labels(self, loaded_net):
        registry = MetricsRegistry()
        loaded_net.export_telemetry(registry)
        text = registry.render()
        assert "# HELP colibri_segments" in text
        assert "# TYPE colibri_segments gauge" in text
        # Unlabelled aggregate and a labelled per-AS sample.
        assert "\ncolibri_segments " in text
        assert 'colibri_segments{isd_as="1-ff00:0:65"}' in text

    def test_values_match_telemetry(self, loaded_net):
        telemetry = loaded_net.telemetry()
        text = exposition_of(loaded_net.telemetry)
        for line in text.splitlines():
            if line.startswith("colibri_eers "):
                assert int(line.split()[-1]) == telemetry["total"]["eers"]
                break
        else:
            pytest.fail("aggregate colibri_eers sample missing")

    def test_unknown_counters_flow_through(self):
        text = exposition_of(lambda: {"total": {"custom_thing": 7}})
        assert "# HELP colibri_custom_thing Colibri counter custom_thing" in text
        assert "colibri_custom_thing 7" in text


class TestGatewayPersistence:
    def test_gateway_restart_keeps_traffic_flowing(self, loaded_net):
        """Snapshot a gateway, rebuild it from scratch, restore — packets
        over the restored reservations still authenticate at routers."""
        from repro.dataplane.gateway import ColibriGateway
        from repro.reservation.persistence import dump_gateway, load_gateway

        gateway = loaded_net.gateway(SRC)
        snapshot = json.loads(json.dumps(dump_gateway(gateway)))
        fresh = ColibriGateway(SRC, loaded_net.stack(SRC).clock)
        restored = load_gateway(fresh, snapshot)
        assert restored == gateway.reservation_count()
        # Swap the fresh gateway in and send over every reservation.
        loaded_net.stack(SRC).gateway = fresh
        for reservation_id in fresh.known_reservations():
            packet = fresh.send(reservation_id, b"after restart")
            report = loaded_net.forward(packet)
            assert report.delivered, report.verdicts

    def test_gateway_snapshot_format_check(self, loaded_net):
        from repro.dataplane.gateway import ColibriGateway
        from repro.reservation.persistence import load_gateway

        fresh = ColibriGateway(SRC, loaded_net.stack(SRC).clock)
        with pytest.raises(ColibriError):
            load_gateway(fresh, {"format": 99, "reservations": []})


class TestTopologySerialization:
    def test_roundtrip_preserves_everything(self):
        from repro.topology import build_internet_like
        from repro.topology.serialization import dumps_topology, loads_topology

        original = build_internet_like(isd_count=2, depth=2)
        copy = loads_topology(dumps_topology(original))
        assert len(copy) == len(original)
        assert copy.isds() == original.isds()
        for node in original.ases():
            twin = copy.node(node.isd_as)
            assert twin.is_core == node.is_core
            assert sorted(twin.interfaces) == sorted(node.interfaces)
        # Deterministic: serializing the copy gives identical text.
        assert dumps_topology(copy) == dumps_topology(original)

    def test_restored_topology_runs_colibri(self):
        from repro.topology import build_two_isd_topology
        from repro.topology.serialization import dump_topology, load_topology

        copy = load_topology(dump_topology(build_two_isd_topology()))
        net = ColibriNetwork(copy)
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(5))
        assert net.send(SRC, handle, b"from a file").delivered

    def test_format_check(self):
        from repro.topology.serialization import load_topology

        with pytest.raises(ColibriError):
            load_topology({"format": 0, "ases": [], "links": []})


class TestPacketTracer:
    """A packet's journey is its ``router.hop`` spans; its drops are
    ``VerdictDropped`` journal events."""

    def test_records_full_journey(self, loaded_net):
        obs = loaded_net.enable_observability(journal=True)
        handle = loaded_net.establish_eer(
            SRC, DST, mbps(1), src_host=HostAddr(77), dst_host=HostAddr(78)
        )
        obs.tracer.clear()
        loaded_net.send(SRC, handle, b"traced")
        journey = obs.tracer.spans(name="router.hop")
        assert len(journey) == 6  # every on-path AS decided once
        assert [span.attributes["isd_as"] for span in journey] == [
            str(hop.isd_as) for hop in handle.hops
        ]
        assert journey[-1].attributes["verdict"] == "deliver_host"
        assert not obs.journal.query(VERDICT_DROPPED)

    def test_drop_visible_in_trace(self, loaded_net):
        obs = loaded_net.enable_observability(journal=True)
        handle = loaded_net.establish_eer(
            SRC, DST, mbps(1), src_host=HostAddr(79), dst_host=HostAddr(80)
        )
        victim = handle.hops[3].isd_as
        loaded_net.router(victim).blocklist.block(SRC)
        obs.tracer.clear()
        loaded_net.send(SRC, handle, b"will die")
        (drop,) = obs.journal.query(VERDICT_DROPPED)
        assert drop.attrs["isd_as"] == str(victim)
        assert drop.attrs["verdict"] == "drop_blocked"
        assert drop.attrs["reservation"] == str(handle.reservation_id)
        # The walk stops at the dropping hop, and its span says why.
        journey = obs.tracer.spans(name="router.hop")
        assert len(journey) == 4
        assert journey[-1].attributes["verdict"] == "drop_blocked"

    def test_capacity_bound(self, loaded_net):
        """The drop record is bounded by the journal's ring: the newest
        ``journal_capacity`` events stay, evictions are counted."""
        obs = loaded_net.enable_observability(journal=True, journal_capacity=2)
        handle = loaded_net.establish_eer(
            SRC, DST, mbps(1), src_host=HostAddr(81), dst_host=HostAddr(82)
        )
        loaded_net.router(handle.hops[3].isd_as).blocklist.block(SRC)
        before = obs.journal.total_count(VERDICT_DROPPED)
        for _ in range(3):
            loaded_net.send(SRC, handle, b"will die")
        assert obs.journal.total_count(VERDICT_DROPPED) == before + 3
        assert len(obs.journal) == 2
        assert obs.journal.dropped_events == obs.journal.total_events - 2
        with pytest.raises(ValueError):
            loaded_net.enable_observability(journal=True, journal_capacity=0)
