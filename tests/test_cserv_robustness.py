"""Adversarial and edge-case tests for the CServ request handlers:
partial renewal grants (§4.2), misrouted requests, forged MACs arriving
over the bus, unknown reservations, renewal negotiation."""


import pytest

from repro.admission.policy import PerHostCapPolicy
from repro.constants import EER_LIFETIME, EER_RENEWAL_MIN_INTERVAL, SEGR_LIFETIME
from repro.control.auth import AuthenticatedRequest
from repro.control.rate_limit import RateLimiter
from repro.errors import (
    AdmissionDenied,
    ColibriError,
    InsufficientBandwidth,
    MacVerificationError,
    RateLimited,
    ReservationNotFound,
)
from repro.obs.events import ADMISSION_DECIDED
from repro.packets.control import (
    AsGrant,
    EerRenewalRequest,
    SegActivationRequest,
    SegRenewalRequest,
    SegTeardownNotice,
)
from repro.reservation.ids import ReservationId
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.topology.addresses import HostAddr
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


class TestRenewalRenegotiation:
    def test_partial_grant_when_growth_does_not_fit(self, net):
        """§4.2: an AS unable to cover the requested growth offers what
        it can; the renewal succeeds at the reduced amount rather than
        failing — 'enabling ASes to quickly adapt to changes in demand
        without interrupting service over existing reservations'."""
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(40))
        # A competitor eats most of the remaining SegR bandwidth.
        net.establish_eer(
            SRC, DST, mbps(50), src_host=HostAddr(9), dst_host=HostAddr(9)
        )
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle, new_bandwidth=mbps(90))
        # Requested 90, but only ~10 free beyond our existing 40.
        assert renewed.granted == pytest.approx(mbps(50), rel=0.01)
        assert renewed.res_info.version == 2

    def test_renewal_never_regresses_below_current(self, net):
        """Even with zero free SegR bandwidth, a same-size renewal
        succeeds: the EER's own allocation covers it."""
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(100))
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle, new_bandwidth=mbps(100))
        assert renewed.granted == pytest.approx(mbps(100))

    def test_growth_renewal_with_full_segr_gets_current(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(60))
        net.establish_eer(
            SRC, DST, mbps(40), src_host=HostAddr(9), dst_host=HostAddr(9)
        )
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle, new_bandwidth=mbps(90))
        assert renewed.granted == pytest.approx(mbps(60))  # kept, not grown

    def test_shrinking_renewal_frees_capacity_after_expiry(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(80))
        net.advance(2.0)
        renewed = net.cserv(SRC).renew_eer(handle, new_bandwidth=mbps(20))
        assert renewed.granted == pytest.approx(mbps(20))
        # Old 80 Mbps version still live: allocation stays at the max.
        up_segr = net.cserv(SRC).store.segments()[0]
        allocated = net.cserv(SRC).store.allocated_on_segment(
            up_segr.reservation_id
        )
        assert allocated == pytest.approx(mbps(80))


class TestHandlerRobustness:
    def test_misrouted_request_rejected(self, net):
        """A request whose hop index names a different AS is refused —
        a malicious neighbor cannot make AS X process AS Y's slot."""
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        segr = cserv.store.segments()[0]
        request = SegRenewalRequest(
            reservation=segr.reservation_id,
            new_bandwidth=mbps(1),
            min_bandwidth=0.0,
            new_expiry=net.clock.now() + 300,
            new_version=99,
        )
        auth = AuthenticatedRequest.create(
            net.directory, SRC, list(segr.segment.ases), request
        )
        wrong_cserv = net.cserv(asid(2, 1))  # not on this SegR's segment
        with pytest.raises(ReservationNotFound):
            wrong_cserv.store.get_segment(segr.reservation_id)

    def test_forged_control_mac_rejected_at_on_path_as(self, net):
        """An attacker AS sends a renewal claiming to be SRC but cannot
        produce SRC's DRKey MACs — the on-path AS rejects it."""
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        segr = cserv.store.segments()[0]
        request = SegRenewalRequest(
            reservation=segr.reservation_id,
            new_bandwidth=mbps(1),
            min_bandwidth=0.0,
            new_expiry=net.clock.now() + 300,
            new_version=99,
        )
        # The attacker (AS 1-111) builds the auth envelope for itself,
        # then rewrites the claimed source — MACs no longer verify.
        attacker = asid(1, 111)
        auth = AuthenticatedRequest.create(
            net.directory, attacker, list(segr.segment.ases), request
        )
        auth.source = SRC  # spoof
        transit = net.cserv(asid(1, 11))
        with pytest.raises(MacVerificationError):
            transit.handle_seg_renewal(request, auth, hop_index=1)

    def test_renewal_of_unknown_eer_fails_cleanly(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        ghost = ReservationId(SRC, 424242)
        request = EerRenewalRequest(
            reservation=ghost,
            new_bandwidth=mbps(1),
            new_expiry=net.clock.now() + 16,
            new_version=2,
        )
        auth = AuthenticatedRequest.create(net.directory, SRC, [SRC], request)
        response = net.cserv(SRC).handle_eer_renewal(request, auth, 0)
        assert not response.success

    def test_renewal_of_unknown_segr_fails_cleanly(self, net):
        ghost = ReservationId(SRC, 424242)
        request = SegRenewalRequest(
            reservation=ghost,
            new_bandwidth=mbps(1),
            min_bandwidth=0.0,
            new_expiry=net.clock.now() + 300,
            new_version=2,
        )
        auth = AuthenticatedRequest.create(net.directory, SRC, [SRC], request)
        response = net.cserv(SRC).handle_seg_renewal(request, auth, 0)
        assert not response.success

    def test_eer_over_expired_segr_fails_with_diagnostic(self, net):
        """Appendix C: a cached SegR may expire before use; the EER setup
        fails and the initiator's cache is invalidated for a clean retry."""
        from repro.constants import SEGR_LIFETIME

        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        cserv.find_segment_chain(DST)  # warm the remote-descriptor cache
        assert cserv.remote_client._cache
        net.advance(SEGR_LIFETIME + 1)  # everything expired, caches stale
        with pytest.raises(ColibriError):
            net.establish_eer(SRC, DST, mbps(10))

    def test_token_cannot_be_spliced_across_reservations(self, net):
        """§4.5: tokens include the globally unique (SrcAS, ResId), so no
        chaining is needed — a token minted for one SegR never validates
        for another, even on the same interfaces."""
        from repro.dataplane.hvf import segment_token
        from repro.packets.fields import ResInfo

        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        segr = cserv.store.segments()[0]
        tokens = cserv.segment_tokens(segr.reservation_id)
        hop = segr.segment.hops[1]
        keys = net.stack(hop.isd_as).keys
        legit = ResInfo(
            reservation=segr.reservation_id,
            bandwidth=segr.bandwidth,
            expiry=segr.expiry,
            version=1,
        )
        assert segment_token(keys.hop_key(), legit, hop.ingress, hop.egress) == tokens[1]
        spliced = ResInfo(
            reservation=ReservationId(SRC, segr.reservation_id.local_id + 1),
            bandwidth=segr.bandwidth,
            expiry=segr.expiry,
            version=1,
        )
        assert segment_token(keys.hop_key(), spliced, hop.ingress, hop.egress) != tokens[1]

    def test_activation_propagates_downstream_first(self, net):
        """If a downstream AS refuses activation, upstream ASes keep the
        old version — no half-activated SegR."""
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        owner = net.cserv(asid(1, 1))
        version = owner.renew_segment(segr.reservation_id, gbps(2))
        # Remote AS loses the pending version (simulated state loss).
        remote = net.cserv(asid(2, 1))
        remote_segr = remote.store.get_segment(segr.reservation_id)
        remote_segr.drop_pending(version)
        with pytest.raises(ColibriError):
            owner.activate_segment(segr.reservation_id, version)
        # The initiator still runs the old version.
        assert segr.active.version == 1

    def test_bottleneck_diagnosis_names_the_as(self, net):
        """§3.3: a failed setup lets the initiator locate the bottleneck."""
        net.reserve_segments(SRC, DST, mbps(100))
        # Saturate only the middle (core) SegR with a competing EER.
        net.establish_eer(SRC, DST, mbps(95))
        with pytest.raises(InsufficientBandwidth) as excinfo:
            net.establish_eer(
                SRC, DST, mbps(50), src_host=HostAddr(3), dst_host=HostAddr(3)
            )
        assert excinfo.value.at_as is not None
        assert excinfo.value.granted == pytest.approx(mbps(5), rel=0.01)


def assert_nothing_reserved(net):
    """No AS holds an EER or any EER bandwidth on its SegRs."""
    for isd_as in net.ases():
        store = net.cserv(isd_as).store
        assert store.eer_count() == 0, isd_as
        for segment in store.segments():
            assert store.allocated_on_segment(segment.reservation_id) == 0, isd_as
    assert net.audit() == []


class TestTamperedResponsePath:
    """A response whose HopAuths do not open is aborted path-wide, like
    one carrying a forged grant: every AS that committed releases the EER
    at once instead of holding its bandwidth for the EER lifetime."""

    def test_corrupted_hopauth_blob_attributed(self, net):
        """A transit AS corrupting another AS's sealed HopAuth on the
        response path is detected by the AEAD tag, and the failure names
        the affected hop (not a raw crypto error)."""
        from repro.errors import AdmissionDenied

        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        original = cserv.handle_eer_setup

        # Intercept the response at the source and corrupt hop 3's blob,
        # modelling tampering by the AS before it on the return path.
        victim_index = 3

        def corrupting(request, auth, hop_index):
            response = original(request, auth, hop_index)
            if hop_index == 0 and response.success:
                blobs = list(response.sealed_hopauths)
                corrupted = bytearray(blobs[victim_index])
                corrupted[-1] ^= 0xFF
                blobs[victim_index] = bytes(corrupted)
                response = response._replace(sealed_hopauths=tuple(blobs))
            return response

        cserv.handle_eer_setup = corrupting
        try:
            with pytest.raises(AdmissionDenied) as excinfo:
                net.establish_eer(SRC, DST, mbps(10))
        finally:
            cserv.handle_eer_setup = original
        assert excinfo.value.at_as is not None
        # Nothing usable leaked: the gateway holds no reservation, and no
        # AS on the path still holds the EER or its bandwidth.
        assert len(net.gateway(SRC)._reservations) == 0
        assert_nothing_reserved(net)

    def test_truncated_hopauth_list_rejected(self, net):
        from repro.errors import AdmissionDenied

        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        original = cserv.handle_eer_setup

        def truncating(request, auth, hop_index):
            response = original(request, auth, hop_index)
            if hop_index == 0 and response.success:
                response = response._replace(
                    sealed_hopauths=response.sealed_hopauths[:-1]
                )
            return response

        cserv.handle_eer_setup = truncating
        try:
            with pytest.raises(AdmissionDenied):
                net.establish_eer(SRC, DST, mbps(10))
        finally:
            cserv.handle_eer_setup = original
        assert len(net.gateway(SRC)._reservations) == 0
        assert_nothing_reserved(net)


class TestHostAuthentication:
    def test_valid_host_tag_accepted(self, net):
        """Footnote 2: host-specific keys authenticate the host -> CServ
        request channel."""
        from repro.crypto.mac import mac

        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        host = HostAddr(5)
        key = cserv.provision_host_key(host)
        payload = cserv._host_request_bytes(host, DST, HostAddr(6), mbps(10))
        handle = cserv.request_eer(
            host, DST, HostAddr(6), mbps(10), tag=mac(key, payload)
        )
        assert handle.granted == pytest.approx(mbps(10))

    def test_forged_host_tag_rejected(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        with pytest.raises(MacVerificationError):
            cserv.request_eer(
                HostAddr(5), DST, HostAddr(6), mbps(10), tag=b"\x00" * 16
            )

    def test_host_cannot_impersonate_another(self, net):
        """Host 5's key cannot sign a request claiming to be host 7 —
        per-host policy attribution stays sound."""
        from repro.crypto.mac import mac

        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        key_5 = cserv.provision_host_key(HostAddr(5))
        payload_as_7 = cserv._host_request_bytes(
            HostAddr(7), DST, HostAddr(6), mbps(10)
        )
        with pytest.raises(MacVerificationError):
            cserv.request_eer(
                HostAddr(7), DST, HostAddr(6), mbps(10),
                tag=mac(key_5, payload_as_7),
            )

    def test_tag_bound_to_request_parameters(self, net):
        """A captured tag cannot be replayed for different bandwidth."""
        from repro.crypto.mac import mac

        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        host = HostAddr(5)
        key = cserv.provision_host_key(host)
        payload = cserv._host_request_bytes(host, DST, HostAddr(6), mbps(10))
        tag = mac(key, payload)
        with pytest.raises(MacVerificationError):
            cserv.request_eer(host, DST, HostAddr(6), mbps(99), tag=tag)

    def test_key_provisioning_deterministic(self, net):
        cserv = net.cserv(SRC)
        assert cserv.provision_host_key(HostAddr(5)) == cserv.provision_host_key(
            HostAddr(5)
        )
        assert cserv.provision_host_key(HostAddr(5)) != cserv.provision_host_key(
            HostAddr(6)
        )


class TestRenewalLimiterForgets:
    """The per-EER renewal limiter (§4.2) holds one bucket per EER that
    was ever renewed; the bucket must go when the EER does."""

    def test_expired_eer_is_forgotten_at_the_sweep(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        cserv.renew_eer(handle)
        assert len(cserv.renewal_limiter._state) == 1
        net.advance(EER_LIFETIME + 1.0)
        assert net.housekeeping()["eers"] == 6
        assert len(cserv.renewal_limiter._state) == 0

    def test_live_eer_keeps_its_bucket(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        handle = cserv.renew_eer(handle)
        net.housekeeping()  # nothing is due: the bucket must survive it
        assert len(cserv.renewal_limiter._state) == 1
        net.advance(EER_RENEWAL_MIN_INTERVAL / 2)
        with pytest.raises(RateLimited):
            cserv.renew_eer(handle)

    def test_failed_renewal_of_a_swept_eer_leaves_no_bucket(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        handles = [
            net.establish_eer(SRC, DST, mbps(1), src_host=HostAddr(10 + i))
            for i in range(5)
        ]
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()
        for handle in handles:
            with pytest.raises(ReservationNotFound):
                cserv.renew_eer(handle)
        assert len(cserv.renewal_limiter._state) == 0

    def test_aborted_setup_is_forgotten(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        cserv.renew_eer(handle)
        cserv._abort_eer(handle.reservation_id, 1, handle.hops)
        assert len(cserv.renewal_limiter._state) == 0
        assert net.audit() == []


class TestTransferQuotaRowsGoWithTheirSegRs:
    """The transfer AS's distributor (§4.7) keys its demand rows by
    core- and up-SegR; a row must not outlive either."""

    def held(self, net):
        """``{AS: SegR ids its distributor holds a row for}``, non-empty only."""
        rows = {
            isd_as: net.cserv(isd_as).eer_admission.distributor.segments()
            for isd_as in net.ases()
        }
        return {isd_as: ids for isd_as, ids in rows.items() if ids}

    def test_expiry_and_housekeeping_leave_no_row(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        for i in range(3):
            net.establish_eer(SRC, DST, mbps(300), src_host=HostAddr(10 + i))
        with pytest.raises(InsufficientBandwidth):  # contended: SegRs full
            net.establish_eer(SRC, DST, mbps(300), src_host=HostAddr(20))
        assert self.held(net), "no transfer AS registered demand"
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()  # EERs gone, SegRs alive: rows may stay, zeroed
        assert net.audit() == []
        net.advance(SEGR_LIFETIME)
        net.housekeeping()
        assert self.held(net) == {}
        assert net.audit() == []

    def test_teardown_leaves_no_row(self, net):
        up, core, down = net.reserve_segments(SRC, DST, gbps(1))
        net.establish_eer(SRC, DST, mbps(10))
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()
        net.cserv(core.segment.first_as).teardown_segment(core.reservation_id)
        assert core.reservation_id not in set().union(*self.held(net).values())
        net.cserv(SRC).teardown_segment(up.reservation_id)
        assert self.held(net) == {}
        assert net.audit() == []


TRANSIT = asid(1, 11)  # hop 1 of both the up-SegR and the EER path
GHOST = ReservationId(SRC, 424242)  # a reservation no AS stores


def ghost_request(kind, now):
    if kind == "handle_eer_renewal":
        return EerRenewalRequest(GHOST, mbps(1), now + 16, 2)
    if kind == "handle_seg_renewal":
        return SegRenewalRequest(GHOST, mbps(1), 0.0, now + 300, 2)
    if kind == "handle_seg_teardown":
        return SegTeardownNotice(GHOST)
    return SegActivationRequest(GHOST, 2)


def deny(cserv, auth):
    cserv.report_offense(SRC, GHOST)
    return AdmissionDenied


def throttle(cserv, auth):
    cserv.request_limiter = RateLimiter(1.0, burst=1.0)
    assert cserv.request_limiter.allow(SRC, cserv.clock.now())
    return RateLimited


def forge(cserv, auth):
    tag = auth.source_macs[TRANSIT]
    auth.source_macs[TRANSIT] = bytes([tag[0] ^ 1]) + tag[1:]
    return MacVerificationError


class TestNothingBeforeTheGateAndTheMac:
    """§5.3 / §4.5: an on-path AS reads no state, journals nothing and
    answers nothing for a request that fails the rate gate, the
    denied-source check or the MAC — known reservation or not."""

    HANDLERS = (
        "handle_eer_renewal",
        "handle_seg_renewal",
        "handle_seg_teardown",
        "handle_seg_activation",
    )

    @pytest.mark.parametrize("spoil", [deny, throttle, forge])
    @pytest.mark.parametrize("handler", HANDLERS)
    def test_unknown_reservation_at_a_transit_as(self, net, handler, spoil):
        obs = net.enable_observability(seed=0, journal=True)
        cserv = net.cserv(TRANSIT)
        lookups = []
        for getter in ("get_eer", "get_segment"):
            setattr(cserv.store, getter, lambda res_id, g=getter: lookups.append(g))
        request = ghost_request(handler, net.clock.now())
        auth = AuthenticatedRequest.create(
            net.directory, SRC, [SRC, TRANSIT], request
        )
        with pytest.raises(spoil(cserv, auth)):
            getattr(cserv, handler)(request, auth, 1)
        assert lookups == []
        assert obs.journal.query(ADMISSION_DECIDED) == []


def lower_upstream_grant(cserv, handler, factor):
    """Make ``cserv`` a malicious transit AS: it rewrites the grant of
    the AS right before it on the way forward."""
    original = getattr(cserv, handler)

    def tampering(request, auth, hop_index):
        victim = request.grants[-1]
        forged = AsGrant(victim.isd_as, victim.granted * factor)
        request = request._replace(grants=request.grants[:-1] + (forged,))
        return original(request, auth, hop_index)

    setattr(cserv, handler, tampering)


def held(net):
    """Per AS: stored SegRs with pending versions, EERs with versions,
    and the bandwidth allocated on every SegR."""
    return {
        isd_as: (
            sorted(
                (
                    str(segr.reservation_id),
                    sorted(segr.versions),
                    store.allocated_on_segment(segr.reservation_id),
                )
                for segr in store.segments()
            ),
            sorted((str(e.reservation_id), sorted(e.versions)) for e in store.eers()),
        )
        for isd_as in net.ases()
        for store in [net.cserv(isd_as).store]
    }


class TestForgedGrantAbortsPathWide:
    """Every initiator verifies the grant MACs before it trusts either
    outcome: a transit AS lowering another AS's grant gets a
    MacVerificationError — not a smaller reservation, and not an
    InsufficientBandwidth framing the innocent AS — and whatever the
    forged request committed is released at every hop."""

    FORGER = asid(1, 1)  # hop 2: rewrites the grant of 1-ff00:0:b

    def check(self, net, handler, factor, operation):
        before = held(net)
        aborts = dict(net.cserv(SRC).aborts)
        lower_upstream_grant(net.cserv(self.FORGER), handler, factor)
        with pytest.raises(MacVerificationError):
            operation()
        assert held(net) == before
        assert net.audit() == []
        return {k: v - aborts[k] for k, v in net.cserv(SRC).aborts.items()}

    def test_eer_setup(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(7))
        aborted = self.check(
            net, "handle_eer_setup", 0.5,
            lambda: net.establish_eer(SRC, DST, mbps(10), src_host=HostAddr(3)),
        )
        assert aborted == {"segments": 0, "eers": 1, "undeliverable": 0}
        assert len(net.gateway(SRC)._reservations) == 1

    def test_eer_renewal(self, net):
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        self.check(
            net, "handle_eer_renewal", 0.5,
            lambda: net.cserv(SRC).renew_eer(handle, mbps(20)),
        )

    def test_segment_renewal(self, net):
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        self.check(
            net, "handle_seg_renewal", 0.5,
            lambda: net.cserv(SRC).renew_segment(segrs[0].reservation_id, mbps(200)),
        )

    def test_failed_segment_setup(self, net):
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        self.check(
            net, "handle_seg_setup", 0.0,
            lambda: net.cserv(SRC).setup_segment(segrs[0].segment, mbps(50)),
        )


class TestDecisionReleasedWhateverStopsTheRequest:
    def test_downstream_denial_returns_the_source_policy_charge(self, net):
        """The source AS charges the host's policy budget on the forward
        pass; a downstream AS refusing the source at its gate is not a
        transport error, but the charge must come back all the same."""
        net.reserve_segments(SRC, DST, mbps(100))
        policy = PerHostCapPolicy(mbps(50))
        net.cserv(SRC).eer_admission.source_policy = policy
        net.cserv(asid(2, 1)).report_offense(SRC, GHOST)
        for _ in range(3):
            with pytest.raises(AdmissionDenied):
                net.establish_eer(SRC, DST, mbps(40))
        assert policy.in_use(HostAddr(1)) == 0
        assert net.audit() == []
