"""Tests for the control plane: CServ workflows, dissemination, auth,
rate limiting, distributed CServ, renewal scheduling."""

import pytest

from repro.admission.policy import PerHostCapPolicy
from repro.constants import EER_LIFETIME, SEGR_LIFETIME
from repro.control import DistributedCServ, MessageBus, RateLimiter, RenewalScheduler
from repro.control.auth import AuthenticatedRequest
from repro.control.dissemination import SegmentDescriptor, SegmentRegistry
from repro.control.rpc import Unreachable
from repro.crypto.drkey import DrkeyDeriver
from repro.crypto.keyserver import KeyServer, KeyServerDirectory
from repro.dataplane.hvf import ColibriKeys
from repro.errors import (
    ColibriError,
    InsufficientBandwidth,
    MacVerificationError,
    NoPathError,
    RateLimited,
)
from repro.packets.control import AsGrant, SegActivationRequest
from repro.reservation.ids import ReservationId
from repro.sim import ColibriNetwork
from repro.topology import build_line_topology, build_two_isd_topology, IsdAs
from repro.topology.addresses import HostAddr
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


@pytest.fixture
def line_net():
    return ColibriNetwork(build_line_topology(4))


SRC = asid(1, 101)
DST = asid(2, 101)


class TestSegmentSetup:
    def test_setup_stores_at_every_on_path_as(self, net):
        segments = net.reserve_segments(SRC, DST, gbps(2))
        for reservation in segments:
            for hop in reservation.segment.hops:
                store = net.cserv(hop.isd_as).store
                assert store.has_segment(reservation.reservation_id)

    def test_granted_bandwidth_recorded(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(4))
        assert segr.bandwidth == pytest.approx(gbps(4))
        assert segr.expiry == pytest.approx(net.clock.now() + SEGR_LIFETIME)

    def test_tokens_returned_per_hop(self, line_net):
        first, last = asid(1, 1), asid(1, 4)
        (segr,) = line_net.reserve_segments(first, last, gbps(1))
        tokens = line_net.cserv(first).segment_tokens(segr.reservation_id)
        assert len(tokens) == 4
        assert all(len(token) == 4 for token in tokens)
        assert len(set(tokens)) == 4  # per-AS keys differ

    def test_res_ids_unique_per_source(self, net):
        a = net.cserv(asid(1, 1))
        seg = net.beaconing.core_segments(asid(1, 1), asid(2, 1))[0]
        r1 = a.setup_segment(seg, gbps(1))
        r2 = a.setup_segment(seg, gbps(1))
        assert r1.reservation_id != r2.reservation_id
        assert r1.reservation_id.src_as == r2.reservation_id.src_as

    def test_minimum_not_met_fails_with_bottleneck(self, line_net):
        first = asid(1, 1)
        seg = line_net.beaconing.core_segments(first, asid(1, 4))[0]
        with pytest.raises(InsufficientBandwidth) as excinfo:
            line_net.cserv(first).setup_segment(seg, gbps(100), minimum=gbps(50))
        assert excinfo.value.at_as is not None

    def test_failed_setup_leaves_no_state(self, line_net):
        first = asid(1, 1)
        seg = line_net.beaconing.core_segments(first, asid(1, 4))[0]
        with pytest.raises(InsufficientBandwidth):
            line_net.cserv(first).setup_segment(seg, gbps(100), minimum=gbps(50))
        for isd_as in [asid(1, i) for i in range(1, 5)]:
            assert line_net.cserv(isd_as).store.segment_count() == 0
            assert len(line_net.cserv(isd_as).seg_admission) == 0

    def test_cannot_initiate_foreign_segment(self, net):
        seg = net.beaconing.core_segments(asid(1, 1), asid(2, 1))[0]
        with pytest.raises(ColibriError):
            net.cserv(asid(2, 1)).setup_segment(seg, gbps(1))

    def test_admission_contention_across_sources(self, line_net):
        """Several ASes reserving over the same link share its capacity."""
        seg_fwd = line_net.beaconing.core_segments(asid(1, 1), asid(1, 4))[0]
        handles = []
        granted_total = 0.0
        for _ in range(4):
            try:
                segr = line_net.cserv(asid(1, 1)).setup_segment(seg_fwd, gbps(20))
                granted_total += segr.bandwidth
            except InsufficientBandwidth:
                pass
        assert granted_total <= gbps(40) * 0.8 * (1 + 1e-9)


class TestSegmentRenewal:
    def test_renewal_creates_pending_everywhere(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(2))
        owner = net.cserv(asid(1, 1))
        version = owner.renew_segment(segr.reservation_id, gbps(3))
        assert version == 2
        for isd_as in (asid(1, 1), asid(2, 1)):
            stored = net.cserv(isd_as).store.get_segment(segr.reservation_id)
            assert stored.active.version == 1  # not yet switched
            assert len(stored.pending_versions()) == 1

    def test_activation_switches_everywhere(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(2))
        owner = net.cserv(asid(1, 1))
        version = owner.renew_segment(segr.reservation_id, gbps(3))
        owner.activate_segment(segr.reservation_id, version)
        for isd_as in (asid(1, 1), asid(2, 1)):
            stored = net.cserv(isd_as).store.get_segment(segr.reservation_id)
            assert stored.active.version == version
            assert stored.bandwidth == pytest.approx(gbps(3))

    def test_renewal_extends_expiry(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(2))
        owner = net.cserv(asid(1, 1))
        net.advance(SEGR_LIFETIME / 2)
        version = owner.renew_segment(segr.reservation_id, gbps(2))
        owner.activate_segment(segr.reservation_id, version)
        assert segr.expiry == pytest.approx(net.clock.now() + SEGR_LIFETIME)

    def test_renewal_can_shrink(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(4))
        owner = net.cserv(asid(1, 1))
        version = owner.renew_segment(segr.reservation_id, gbps(1))
        owner.activate_segment(segr.reservation_id, version)
        assert segr.bandwidth == pytest.approx(gbps(1))


class TestEerSetup:
    def test_full_inter_isd_eer(self, net):
        net.reserve_segments(SRC, DST, gbps(2))
        handle = net.establish_eer(SRC, DST, mbps(50))
        assert handle.granted == pytest.approx(mbps(50))
        assert len(handle.hops) == 6
        assert len(handle.segment_ids) == 3

    def test_eer_without_segments_fails(self, net):
        with pytest.raises(NoPathError):
            net.establish_eer(SRC, DST, mbps(50))

    def test_eer_rejected_when_segr_full(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(80))
        with pytest.raises(InsufficientBandwidth) as excinfo:
            net.establish_eer(SRC, DST, mbps(50))
        assert excinfo.value.granted <= mbps(20) * (1 + 1e-9)

    def test_failed_eer_leaves_no_allocations(self, net):
        segments = net.reserve_segments(SRC, DST, mbps(100))
        with pytest.raises(InsufficientBandwidth):
            net.establish_eer(SRC, DST, mbps(500))
        for reservation in segments:
            for hop in reservation.segment.hops:
                store = net.cserv(hop.isd_as).store
                assert store.allocated_on_segment(reservation.reservation_id) == 0.0

    def test_eer_installed_in_gateway(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        gateway = net.gateway(SRC)
        assert handle.reservation_id in gateway.known_reservations()

    def test_hopauths_differ_per_as(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        gateway = net.gateway(SRC)
        entry = gateway._reservations[handle.reservation_id.packed]
        auths = entry.versions[1].hop_auths
        assert len(set(auths)) == len(auths)

    def test_destination_can_refuse(self):
        refused = ColibriNetwork(
            build_two_isd_topology(),
            host_acceptor=lambda eer_info, bw: False,
        )
        refused.reserve_segments(SRC, DST, gbps(1))
        with pytest.raises(InsufficientBandwidth):
            refused.establish_eer(SRC, DST, mbps(10))

    def test_source_policy_enforced(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        policy = PerHostCapPolicy(default_cap=mbps(20))
        net.cserv(SRC).eer_admission.source_policy = policy
        with pytest.raises(ColibriError):
            net.establish_eer(SRC, DST, mbps(50), src_host=HostAddr(7))
        handle = net.establish_eer(SRC, DST, mbps(10), src_host=HostAddr(7))
        assert handle.granted == pytest.approx(mbps(10))

    def test_intra_isd_eer_over_shortcutless_chain(self, net):
        a, b = asid(1, 101), asid(1, 111)
        net.reserve_segments(a, asid(1, 1), gbps(1))  # covers up only
        # down segment from core to b:
        path = net.path_lookup.paths(asid(1, 1), b, limit=1)[0]
        net.cserv(asid(1, 1)).setup_segment(path.segments[0], gbps(1))
        handle = net.establish_eer(a, b, mbps(10))
        assert handle.granted == pytest.approx(mbps(10))

    def test_transit_as_sees_correct_role(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        net.establish_eer(SRC, DST, mbps(10))
        # Transit AS 1-11 participated in one EER decision.
        assert net.cserv(asid(1, 11)).eer_admission.decisions >= 1


class TestEerRenewal:
    def test_renewal_adds_version(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle)
        assert renewed.res_info.version == 2
        stored = net.cserv(SRC).store.get_eer(handle.reservation_id)
        assert len(stored.live_versions(net.clock.now())) == 2

    def test_renewal_rate_limited(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.cserv(SRC).renew_eer(handle)
        with pytest.raises(RateLimited):
            net.cserv(SRC).renew_eer(handle)

    def test_renewal_does_not_double_book_segr(self, net):
        (up, core, down) = net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(60))
        net.advance(2.0)
        net.cserv(SRC).renew_eer(handle)  # same bandwidth
        allocated = net.cserv(asid(1, 11)).store.allocated_on_segment(
            up.reservation_id
        )
        assert allocated == pytest.approx(mbps(60))  # not 120

    def test_renewal_keeps_traffic_flowing_across_expiry(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(EER_LIFETIME - 2)
        renewed = net.cserv(SRC).renew_eer(handle)
        net.advance(4.0)  # original version now expired
        report = net.send(SRC, renewed, b"still alive")
        assert report.delivered

    def test_renewal_can_grow_if_capacity(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle, new_bandwidth=mbps(40))
        assert renewed.granted == pytest.approx(mbps(40))


class TestDissemination:
    def test_registry_query_respects_whitelist(self):
        registry = SegmentRegistry()
        net = ColibriNetwork(build_two_isd_topology())
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        descriptor = SegmentDescriptor.of(segr)
        registry.register(descriptor, whitelist={asid(1, 101)})
        assert registry.query(asid(1, 1), asid(2, 1), asid(1, 101), now=0.0)
        assert not registry.query(asid(1, 1), asid(2, 1), asid(1, 111), now=0.0)

    def test_expired_descriptors_hidden(self):
        registry = SegmentRegistry()
        net = ColibriNetwork(build_two_isd_topology())
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        registry.register(SegmentDescriptor.of(segr))
        assert registry.query(asid(1, 1), asid(2, 1), SRC, now=segr.expiry + 1) == []

    def test_remote_descriptors_cached(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        src_cserv = net.cserv(SRC)
        before = net.bus.calls_by_method.get("query_registry", 0)
        src_cserv.find_segment_chain(DST)
        after_first = net.bus.calls_by_method.get("query_registry", 0)
        src_cserv.find_segment_chain(DST)
        after_second = net.bus.calls_by_method.get("query_registry", 0)
        assert after_first > before
        assert after_second == after_first  # served from cache

    def test_sweep_expired(self):
        registry = SegmentRegistry()
        net = ColibriNetwork(build_two_isd_topology())
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        registry.register(SegmentDescriptor.of(segr))
        assert registry.sweep_expired(segr.expiry + 1) == 1
        assert len(registry) == 0


class TestControlPlaneSecurity:
    def test_tampered_request_rejected(self, net):
        """An on-path AS cannot alter the initiator's payload."""
        clock = SimClock(0.0)
        directory = KeyServerDirectory(clock)
        a = DrkeyDeriver(asid(1, 1), clock, seed=b"a" * 16)
        b = DrkeyDeriver(asid(2, 1), clock, seed=b"b" * 16)
        directory.register(KeyServer(a))
        directory.register(KeyServer(b))
        message = SegActivationRequest(
            reservation=ReservationId(asid(1, 1), 5), version=2
        )
        auth = AuthenticatedRequest.create(
            directory, asid(1, 1), [asid(1, 1), asid(2, 1)], message
        )
        auth.base_payload = auth.base_payload + b"tampered"
        with pytest.raises(MacVerificationError):
            auth.verify_at(ColibriKeys(b))

    def test_grant_tampering_detected(self, net):
        clock = SimClock(0.0)
        directory = KeyServerDirectory(clock)
        a = DrkeyDeriver(asid(1, 1), clock, seed=b"a" * 16)
        b = DrkeyDeriver(asid(2, 1), clock, seed=b"b" * 16)
        directory.register(KeyServer(a))
        directory.register(KeyServer(b))
        message = SegActivationRequest(
            reservation=ReservationId(asid(1, 1), 5), version=2
        )
        auth = AuthenticatedRequest.create(
            directory, asid(1, 1), [asid(1, 1), asid(2, 1)], message
        )
        honest = AsGrant(asid(2, 1), 100.0)
        auth._grant_under(ColibriKeys(b).control_key(auth.source), honest)
        inflated = AsGrant(asid(2, 1), 999.0)
        with pytest.raises(MacVerificationError):
            auth.verify_grants(directory, (inflated,))
        auth.verify_grants(directory, (honest,))  # the honest one passes

    def test_denied_source_cannot_reserve(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        # Transit AS 1-11 denies reservations from SRC after an offense.
        net.cserv(asid(1, 11)).report_offense(SRC, ReservationId(SRC, 1))
        with pytest.raises(ColibriError):
            net.establish_eer(SRC, DST, mbps(10))

    def test_pardon_restores_service(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        net.cserv(asid(1, 11)).report_offense(SRC, ReservationId(SRC, 1))
        net.cserv(asid(1, 11)).pardon(SRC)
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert handle.granted > 0

    def test_request_rate_limiting(self):
        limiter = RateLimiter(rate_per_second=2.0, burst=2.0)
        assert limiter.allow("as-1", now=0.0)
        assert limiter.allow("as-1", now=0.0)
        assert not limiter.allow("as-1", now=0.0)
        assert limiter.allow("as-1", now=1.0)  # refilled
        assert limiter.rejected == 1

    def test_rate_limiter_per_key(self):
        limiter = RateLimiter(rate_per_second=1.0, burst=1.0)
        assert limiter.allow("as-1", now=0.0)
        assert limiter.allow("as-2", now=0.0)

    def test_partitioned_as_breaks_setup(self, net):
        net.bus.partition(asid(2, 1))
        with pytest.raises(Unreachable):
            net.reserve_segments(SRC, DST, gbps(1))


class TestHousekeeping:
    def test_expired_segments_released(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        net.advance(SEGR_LIFETIME + 1)
        removed = net.housekeeping()
        # 3 SegRs stored at every on-path AS: up (3 ASes) + core (2) + down (3)
        assert removed["segments"] == 8
        for isd_as in net.ases():
            assert net.cserv(isd_as).store.segment_count() == 0

    def test_expired_eers_released(self, net):
        segments = net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(60))
        net.advance(EER_LIFETIME + 1)
        net.housekeeping()
        for reservation in segments:
            for hop in reservation.segment.hops:
                store = net.cserv(hop.isd_as).store
                if store.has_segment(reservation.reservation_id):
                    assert (
                        store.allocated_on_segment(reservation.reservation_id) == 0.0
                    )

    def test_gateway_state_bounded_by_live_versions(self, net):
        """Renewals must not pile up in the gateway (the e2e benchmark
        saw RSS grow 69 -> 115 MB over 17k renewals): every install
        drops the versions that expired, and the sweep that removes an
        EER from the store removes its gateway entry and token bucket."""
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        gateway = net.gateway(SRC)
        entry = gateway._reservations[handle.reservation_id.packed]
        for _ in range(12):
            net.advance(6.0)
            handle = net.cserv(SRC).renew_eer(handle)
            now = net.clock.now()
            assert all(v.is_live(now) for v in entry.versions.values())
            assert len(entry.versions) <= 3  # 16 s lifetime / 6 s cadence
        assert gateway.send(handle.reservation_id, b"still flowing")
        net.advance(EER_LIFETIME + 1)
        net.housekeeping()
        assert gateway.reservation_count() == 0
        assert gateway.monitor.watched_count() == 0

    def test_setup_abort_uninstalls_from_gateway(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        gateway = net.gateway(SRC)
        assert gateway.reservation_count() == 1
        net.cserv(SRC)._local_eer_abort(handle.reservation_id, 1)
        assert gateway.reservation_count() == 0
        assert gateway.monitor.watched_count() == 0

    def test_capacity_reusable_after_expiry(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(80))
        net.advance(EER_LIFETIME + 1)
        net.housekeeping()
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(80))
        assert handle.granted == pytest.approx(mbps(80))


class TestRenewalScheduler:
    def test_keeps_segment_alive(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        owner = net.cserv(asid(1, 1))
        scheduler = RenewalScheduler(owner, segr_lead=60.0)
        scheduler.track_segment(segr.reservation_id, bandwidth=gbps(1))
        net.advance(SEGR_LIFETIME - 30)
        actions = scheduler.tick()
        assert actions["segments"] == 1
        assert segr.expiry > net.clock.now() + 60

    def test_keeps_eer_alive(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        scheduler = RenewalScheduler(net.cserv(SRC), eer_lead=4.0)
        scheduler.track_eer(handle)
        net.advance(EER_LIFETIME - 2)
        actions = scheduler.tick()
        assert actions["eers"] == 1
        fresh = scheduler.eer_handle(handle.reservation_id)
        assert fresh.res_info.expiry > handle.res_info.expiry

    def test_no_action_when_fresh(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        scheduler = RenewalScheduler(net.cserv(asid(1, 1)))
        scheduler.track_segment(segr.reservation_id, bandwidth=gbps(1))
        assert scheduler.tick() == {
            "segments": 0, "eers": 0, "failures": 0, "transient": 0
        }

    def test_forecast_hook_used(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        owner = net.cserv(asid(1, 1))
        scheduler = RenewalScheduler(owner, segr_lead=60.0)
        scheduler.track_segment(segr.reservation_id, bandwidth_fn=lambda: gbps(2))
        net.advance(SEGR_LIFETIME - 30)
        scheduler.tick()
        assert segr.bandwidth == pytest.approx(gbps(2))


class TestDistributedCServ:
    def test_same_segr_same_worker(self, net):
        parent = net.cserv(asid(1, 11))  # transit AS on the EER path
        distributed = DistributedCServ(parent, eer_workers=4)
        net.reserve_segments(SRC, DST, gbps(1))
        for _ in range(5):
            net.establish_eer(SRC, DST, mbps(1))
        report = distributed.load_report()
        workers_used = [
            name for name, count in report.items()
            if name.startswith("eer-") and count > 0
        ]
        assert len(workers_used) == 1  # all EEReqs share one SegR
        assert sum(
            count for name, count in report.items() if name.startswith("eer-")
        ) == 5

    def test_coordinator_handles_segreqs(self, net):
        parent = net.cserv(asid(2, 1))
        distributed = DistributedCServ(parent, eer_workers=2)
        net.reserve_segments(SRC, DST, gbps(1))
        assert distributed.load_report()["coordinator"] >= 1

    def test_distinct_segrs_spread(self, net):
        parent = net.cserv(asid(1, 1))  # core AS: many SegRs traverse it
        distributed = DistributedCServ(parent, eer_workers=8)
        pairs = [(asid(1, 101), asid(2, 101)), (asid(1, 111), asid(2, 101))]
        for src, dst in pairs:
            net.reserve_segments(src, dst, gbps(1))
            net.establish_eer(src, dst, mbps(1))
        assignments = {
            distributed.assignment_of(sid)
            for sid in distributed._assignment_log
        }
        assert len(assignments) >= 1  # hashing may collide, but log is kept

    def test_rejects_zero_workers(self, net):
        with pytest.raises(ValueError):
            DistributedCServ(net.cserv(asid(1, 1)), eer_workers=0)


class TestDistributedEgress:
    def test_transfer_as_uses_egress_sub_service(self, net):
        """Appendix D: at a transfer AS the decision splits into an
        ingress and an egress part; both sub-services see the request."""
        transfer = net.cserv(asid(1, 1))  # core AS joins up- and core-SegR
        distributed = DistributedCServ(transfer, eer_workers=2, egress_workers=2)
        net.reserve_segments(SRC, DST, gbps(1))
        net.establish_eer(SRC, DST, mbps(1))
        report = distributed.load_report()
        egress_hits = sum(
            count for name, count in report.items() if name.startswith("egress-")
        )
        assert egress_hits == 1
        # The outgoing core-SegR has a stable egress assignment.
        core_segr = [
            segr.reservation_id
            for segr in transfer.store.segments()
            if segr.segment.segment_type.value == "core"
        ][0]
        assert distributed.egress_assignment_of(core_segr) is not None

    def test_non_transfer_as_never_uses_egress(self, net):
        transit = net.cserv(asid(1, 11))
        distributed = DistributedCServ(transit, eer_workers=2, egress_workers=2)
        net.reserve_segments(SRC, DST, gbps(1))
        net.establish_eer(SRC, DST, mbps(1))
        report = distributed.load_report()
        assert all(
            count == 0 for name, count in report.items() if name.startswith("egress-")
        )


class TestTransferContention:
    def test_core_segr_divided_among_up_segrs(self, net):
        """§4.7 transfer rule: when EER demand from several up-SegRs
        exceeds the core-SegR, the transfer AS divides the core-SegR
        proportionally among them."""
        # Two distinct up-SegRs (from 1-101 and 1-111) feeding ONE shared
        # core-SegR whose capacity is the bottleneck.
        src_a, src_b = SRC, asid(1, 111)
        # Build the shared core + down segments once (initiated by cores).
        core_seg = net.beaconing.core_segments(asid(1, 1), asid(2, 1))[0]
        core_segr = net.cserv(asid(1, 1)).setup_segment(core_seg, mbps(50))
        down_path = net.path_lookup.paths(asid(2, 1), DST, limit=1)[0]
        net.cserv(asid(2, 1)).setup_segment(down_path.segments[0], mbps(500))
        for src in (src_a, src_b):
            up_path = net.path_lookup.paths(src, asid(1, 1), limit=1)[0]
            net.cserv(src).setup_segment(up_path.segments[0], mbps(500))

        # Drive EER demand through both up-SegRs onto the shared core.
        handles = []
        refused = 0
        for index in range(6):
            src = src_a if index % 2 == 0 else src_b
            try:
                handles.append(
                    net.cserv(src).setup_eer(
                        DST, HostAddr(index), HostAddr(index), mbps(15)
                    )
                )
            except InsufficientBandwidth:
                refused += 1
        # The shared 50 Mbps core-SegR bounds total admitted EERs.
        total = sum(h.granted for h in handles)
        assert total <= mbps(50) * (1 + 1e-9)
        assert refused > 0
        # The transfer AS (core 1) registered per-up-SegR demand.
        transfer = net.cserv(asid(1, 1))
        assert transfer.eer_admission.distributor.total_demand(
            core_segr.reservation_id
        ) > 0
