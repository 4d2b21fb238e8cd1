"""Unit and property tests for repro.admission: matrices, demands, tube
fairness, EER admission, policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    AllowAllPolicy,
    DenyListPolicy,
    EerAdmission,
    PerHostCapPolicy,
    SegmentAdmission,
    TrafficMatrix,
    TransferDistributor,
    adjust_demand,
)
from repro.admission.eer_admission import AsRole
from repro.errors import (
    InsufficientBandwidth,
    PolicyDenied,
    ReservationExpired,
    TopologyError,
)
from repro.packets.fields import EerInfo
from repro.reservation import (
    E2EReservation,
    E2EVersion,
    InterfacePairIndex,
    ReservationId,
    ReservationStore,
    SegmentReservation,
    SegmentVersion,
)
from repro.topology import build_line_topology
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import NO_INTERFACE
from repro.topology.segments import HopField, Segment, SegmentType
from repro.util.units import gbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 1)
OTHER = IsdAs(1, BASE + 9)


def make_matrix(length=3, capacity=gbps(40)):
    """Traffic matrix of the middle AS of a line topology."""
    topology = build_line_topology(length, capacity=capacity)
    middle = IsdAs(1, BASE + 2)
    return TrafficMatrix(topology.node(middle))


def segr_record(local_id, bw, expiry=300.0, src=SRC):
    far_end = IsdAs(1, BASE + 50)
    segment = Segment.from_hops(
        SegmentType.CORE,
        [HopField(src, NO_INTERFACE, 1), HopField(far_end, 1, NO_INTERFACE)],
    )
    return SegmentReservation(
        reservation_id=ReservationId(src, local_id),
        segment=segment,
        first_version=SegmentVersion(version=1, bandwidth=bw, expiry=expiry),
    )


class TestTrafficMatrix:
    def test_interface_capacity_applies_share(self):
        matrix = make_matrix(capacity=gbps(40))
        # default colibri share = 80 % (control 5 + EER 75)
        assert matrix.interface_capacity(1) == pytest.approx(gbps(32))

    def test_internal_interface_defaults_to_sum(self):
        # An AS may originate up to its total egress capacity: the middle
        # AS of a 3-line has two 40 G links, 80 % Colibri share each.
        matrix = make_matrix()
        assert matrix.interface_capacity(NO_INTERFACE) == pytest.approx(gbps(64))

    def test_pair_capacity_default_is_min(self):
        matrix = make_matrix()
        assert matrix.pair_capacity(1, 2) == pytest.approx(gbps(32))

    def test_pair_override(self):
        matrix = make_matrix()
        matrix.set_pair_capacity(1, 2, gbps(5))
        assert matrix.pair_capacity(1, 2) == pytest.approx(gbps(5))
        assert matrix.pair_capacity(2, 1) == pytest.approx(gbps(32))

    def test_unknown_interface(self):
        matrix = make_matrix()
        with pytest.raises(TopologyError):
            matrix.interface_capacity(99)

    def test_invalid_share(self):
        topology = build_line_topology(3)
        with pytest.raises(ValueError):
            TrafficMatrix(topology.node(IsdAs(1, BASE + 2)), colibri_share=0)


class TestAdjustDemand:
    def test_uncontended_demand_unchanged(self):
        matrix = make_matrix()
        index = InterfacePairIndex()
        demand = adjust_demand(matrix, index, SRC, 1, 2, gbps(1))
        assert demand.capped == pytest.approx(gbps(1))
        assert demand.adjusted == pytest.approx(gbps(1))

    def test_rule2_caps_at_egress(self):
        matrix = make_matrix()
        index = InterfacePairIndex()
        demand = adjust_demand(matrix, index, SRC, 1, 2, gbps(100))
        assert demand.capped == pytest.approx(gbps(32))

    def test_rule1_scales_by_ingress_crowding(self):
        matrix = make_matrix()
        admission = SegmentAdmission(matrix)
        # Fill the ingress with existing demand equal to its capacity.
        grant = admission.admit(ReservationId(OTHER, 1), OTHER, 1, 2, gbps(32), 0.0)
        demand = adjust_demand(admission.matrix, admission.index, SRC, 1, 2, gbps(32))
        # total demand via ingress = 64 G, capacity 32 G -> rule-1 factor 0.5;
        # SRC has no prior demand at the egress, so rule-3 factor is 1.
        assert demand.adjusted == pytest.approx(gbps(16))

    def test_rule1_factor_only(self):
        matrix = make_matrix()
        admission = SegmentAdmission(matrix)
        admission.admit(ReservationId(OTHER, 1), OTHER, 1, 2, gbps(16), 0.0)
        demand = adjust_demand(admission.matrix, admission.index, SRC, 1, 2, gbps(16))
        # ingress total 32 = capacity -> factor 1; source total 16 -> factor 1
        assert demand.adjusted == pytest.approx(gbps(16))

    def test_rule3_bounds_single_source(self):
        matrix = make_matrix()
        admission = SegmentAdmission(matrix)
        # Source SRC already holds capacity-worth of demand at egress 2
        # via a different ingress (no rule-1 interaction).
        admission.admit(ReservationId(SRC, 1), SRC, NO_INTERFACE, 2, gbps(32), 0.0)
        demand = adjust_demand(admission.matrix, admission.index, SRC, 1, 2, gbps(32))
        # source total = 64 G at 32 G egress -> factor 0.5
        assert demand.adjusted == pytest.approx(gbps(16))

    def test_negative_request_rejected(self):
        matrix = make_matrix()
        with pytest.raises(ValueError):
            adjust_demand(matrix, InterfacePairIndex(), SRC, 1, 2, -1.0)


class TestSegmentAdmission:
    def test_single_request_gets_full_demand(self):
        admission = SegmentAdmission(make_matrix())
        grant = admission.admit(ReservationId(SRC, 1), SRC, 1, 2, gbps(4), gbps(1))
        assert grant.granted == pytest.approx(gbps(4))

    def test_minimum_enforced(self):
        admission = SegmentAdmission(make_matrix())
        with pytest.raises(InsufficientBandwidth) as excinfo:
            admission.admit(ReservationId(SRC, 1), SRC, 1, 2, gbps(100), gbps(50))
        assert excinfo.value.granted < gbps(50)

    def test_failed_admission_does_not_commit(self):
        admission = SegmentAdmission(make_matrix())
        with pytest.raises(InsufficientBandwidth):
            admission.admit(ReservationId(SRC, 1), SRC, 1, 2, gbps(100), gbps(50))
        assert len(admission) == 0

    def test_contention_never_exceeds_capacity(self):
        admission = SegmentAdmission(make_matrix())
        sources = [IsdAs(1, BASE + 100 + i) for i in range(4)]
        grants = [
            admission.admit(ReservationId(s, 1), s, NO_INTERFACE, 2, gbps(32), 0.0)
            for s in sources
        ]
        amounts = [g.granted for g in grants]
        # Later arrivals see a more crowded egress and receive less.
        assert amounts == sorted(amounts, reverse=True)
        assert sum(amounts) <= gbps(32) * (1 + 1e-9)

    def test_renewal_rounds_converge_to_fair_shares(self):
        """Early arrivals start over-granted; a couple of renewal rounds
        (SegRs renew every ~5 min, §3.3) converge everyone to the
        proportional tube-fair share."""
        admission = SegmentAdmission(make_matrix())
        sources = [IsdAs(1, BASE + 100 + i) for i in range(4)]
        for s in sources:
            admission.admit(ReservationId(s, 1), s, NO_INTERFACE, 2, gbps(32), 0.0)
        final = {}
        for _round in range(3):
            for s in sources:
                grant = admission.admit(
                    ReservationId(s, 1), s, NO_INTERFACE, 2, gbps(32), 0.0
                )
                final[s] = grant.granted
        shares = list(final.values())
        assert sum(shares) <= gbps(32) * (1 + 1e-9)
        # all four within 25 % of the fair share of 8 Gbps
        for share in shares:
            assert share == pytest.approx(gbps(8), rel=0.25)

    def test_botnet_size_independence(self):
        """A source multiplying its reservations cannot grow its share
        unboundedly: rule 3 caps its aggregate demand at the egress."""
        admission = SegmentAdmission(make_matrix())
        attacker = IsdAs(1, BASE + 66)
        for i in range(50):
            try:
                admission.admit(
                    ReservationId(attacker, i), attacker, 1, 2, gbps(32), 0.0
                )
            except InsufficientBandwidth:
                pass
        # A benign newcomer may get little immediately (capacity is
        # committed), but after one renewal round — where rule 3 squeezes
        # the attacker's aggregate to its fair share — the benign AS
        # receives a usable share regardless of the attacker's 50
        # reservations.
        admission.admit(ReservationId(SRC, 1), SRC, NO_INTERFACE, 2, gbps(1), 0.0)
        for i in range(50):
            if ReservationId(attacker, i) in admission.index:
                admission.admit(
                    ReservationId(attacker, i), attacker, 1, 2, gbps(32), 0.0
                )
        benign = admission.admit(
            ReservationId(SRC, 1), SRC, NO_INTERFACE, 2, gbps(1), 0.0
        )
        assert benign.granted >= gbps(1) * 0.2

    def test_renewal_excludes_own_old_demand(self):
        admission = SegmentAdmission(make_matrix())
        rid = ReservationId(SRC, 1)
        admission.admit(rid, SRC, 1, 2, gbps(8), 0.0)
        # Renewal with the same demand should grant the same amount, not
        # see itself as a competitor.
        renewed = admission.admit(rid, SRC, 1, 2, gbps(8), 0.0)
        assert renewed.granted == pytest.approx(gbps(8))
        assert len(admission) == 1

    def test_release_frees_capacity(self):
        admission = SegmentAdmission(make_matrix())
        rid = ReservationId(SRC, 1)
        admission.admit(rid, SRC, 1, 2, gbps(32), 0.0)
        admission.release(rid)
        grant = admission.admit(ReservationId(OTHER, 1), OTHER, 1, 2, gbps(32), 0.0)
        assert grant.granted == pytest.approx(gbps(32))

    def test_memoized_and_naive_agree(self):
        fast = SegmentAdmission(make_matrix(), memoize=True)
        slow = SegmentAdmission(make_matrix(), memoize=False)
        for i in range(20):
            source = IsdAs(1, BASE + 100 + (i % 5))
            f = fast.admit(ReservationId(source, i), source, 1, 2, gbps(2), 0.0)
            s = slow.admit(ReservationId(source, i), source, 1, 2, gbps(2), 0.0)
            assert f.granted == pytest.approx(s.granted)

    @given(st.lists(st.floats(min_value=1e6, max_value=4e10), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_never_overallocates_egress(self, requests):
        """Property: the sum of all grants at an egress never exceeds its
        Colibri capacity — the §5.1 guarantee that 'the admission procedure
        ensures that the sum of all reservations does not exceed the
        capacity'."""
        admission = SegmentAdmission(make_matrix())
        capacity = admission.matrix.interface_capacity(2)
        total = 0.0
        for i, request in enumerate(requests):
            source = IsdAs(1, BASE + 100 + (i % 7))
            grant = admission.admit(
                ReservationId(source, i), source, 1 if i % 2 else NO_INTERFACE, 2,
                request, 0.0,
            )
            total += grant.granted
        assert total <= capacity * (1 + 1e-9)


class TestTransferDistributor:
    def test_uncontended_full_quota(self):
        distributor = TransferDistributor()
        core = ReservationId(SRC, 1)
        up = ReservationId(OTHER, 2)
        distributor.register_demand(core, up, gbps(1), up_capacity=gbps(4))
        assert distributor.quota(core, up, core_bandwidth=gbps(10)) == gbps(10)

    def test_contended_proportional(self):
        distributor = TransferDistributor()
        core = ReservationId(SRC, 1)
        up1, up2 = ReservationId(OTHER, 2), ReservationId(OTHER, 3)
        distributor.register_demand(core, up1, gbps(6), up_capacity=gbps(10))
        distributor.register_demand(core, up2, gbps(2), up_capacity=gbps(10))
        quota1 = distributor.quota(core, up1, core_bandwidth=gbps(4))
        quota2 = distributor.quota(core, up2, core_bandwidth=gbps(4))
        assert quota1 == pytest.approx(gbps(3))
        assert quota2 == pytest.approx(gbps(1))

    def test_demand_capped_at_up_segr(self):
        distributor = TransferDistributor()
        core = ReservationId(SRC, 1)
        up = ReservationId(OTHER, 2)
        distributor.register_demand(core, up, gbps(100), up_capacity=gbps(5))
        assert distributor.total_demand(core) == pytest.approx(gbps(5))

    def test_release(self):
        distributor = TransferDistributor()
        core = ReservationId(SRC, 1)
        up = ReservationId(OTHER, 2)
        distributor.register_demand(core, up, gbps(4), up_capacity=gbps(10))
        distributor.release_demand(core, up, gbps(4))
        assert distributor.total_demand(core) == 0.0


class TestEerAdmission:
    def setup_method(self):
        self.store = ReservationStore()
        self.segr = segr_record(1, bw=gbps(1))
        self.store.add_segment(self.segr)
        self.admission = EerAdmission(SRC, self.store)

    def test_transit_grants_within_segr(self):
        decision = self.admission.decide(
            AsRole.TRANSIT, gbps(0.2), now=0.0, segment_in=self.segr.reservation_id
        )
        assert decision.granted == pytest.approx(gbps(0.2))

    def test_transit_rejects_overflow(self):
        rid = self.segr.reservation_id
        eer = ReservationId(SRC, 100)
        self.store.allocate_on_segment(rid, eer, gbps(0.9))
        with pytest.raises(InsufficientBandwidth) as excinfo:
            self.admission.decide(AsRole.TRANSIT, gbps(0.2), now=0.0, segment_in=rid)
        assert excinfo.value.granted == pytest.approx(gbps(0.1))

    def test_expired_segr_rejected(self):
        with pytest.raises(ReservationExpired):
            self.admission.decide(
                AsRole.TRANSIT, gbps(0.1), now=400.0, segment_in=self.segr.reservation_id
            )

    def test_source_applies_policy(self):
        policy = PerHostCapPolicy(default_cap=gbps(0.1))
        admission = EerAdmission(SRC, self.store, source_policy=policy)
        host = HostAddr(5)
        with pytest.raises(PolicyDenied):
            admission.decide(
                AsRole.SOURCE,
                gbps(0.5),
                now=0.0,
                segment_out=self.segr.reservation_id,
                host=host,
            )
        # under the cap it passes
        decision = admission.decide(
            AsRole.SOURCE,
            gbps(0.05),
            now=0.0,
            segment_out=self.segr.reservation_id,
            host=host,
        )
        assert decision.granted == pytest.approx(gbps(0.05))

    def test_policy_released_when_segr_check_fails(self):
        policy = PerHostCapPolicy(default_cap=gbps(10))
        admission = EerAdmission(SRC, self.store, source_policy=policy)
        host = HostAddr(5)
        with pytest.raises(InsufficientBandwidth):
            admission.decide(
                AsRole.SOURCE,
                gbps(5),
                now=0.0,
                segment_out=self.segr.reservation_id,
                host=host,
            )
        assert policy.in_use(host) == 0.0

    def test_transfer_checks_both_segments(self):
        second = segr_record(2, bw=gbps(0.1), src=OTHER)
        self.store.add_segment(second)
        with pytest.raises(InsufficientBandwidth):
            self.admission.decide(
                AsRole.TRANSFER,
                gbps(0.5),
                now=0.0,
                segment_in=self.segr.reservation_id,
                segment_out=second.reservation_id,
            )

    def test_commit_allocates_on_all_checked(self):
        second = segr_record(2, bw=gbps(1), src=OTHER)
        self.store.add_segment(second)
        decision = self.admission.decide(
            AsRole.TRANSFER,
            gbps(0.3),
            now=0.0,
            segment_in=self.segr.reservation_id,
            segment_out=second.reservation_id,
        )
        eer = ReservationId(SRC, 200)
        self.admission.commit(eer, decision, gbps(0.3))
        assert self.store.allocated_on_segment(
            self.segr.reservation_id
        ) == pytest.approx(gbps(0.3))
        assert self.store.allocated_on_segment(
            second.reservation_id
        ) == pytest.approx(gbps(0.3))

    def test_destination_role(self):
        decision = self.admission.decide(
            AsRole.DESTINATION,
            gbps(0.1),
            now=0.0,
            segment_in=self.segr.reservation_id,
            host=HostAddr(9),
        )
        assert decision.role is AsRole.DESTINATION

    @given(st.lists(st.floats(min_value=1e6, max_value=2e9), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_eer_total_never_exceeds_segr(self, requests):
        """Property: admitted EER bandwidth on a SegR never exceeds the
        SegR's bandwidth (§5.2: 'all on-path ASes check that the total
        bandwidth of EERs on a particular SegR does not exceed that
        SegR's capacity')."""
        store = ReservationStore()
        segr = segr_record(1, bw=gbps(1))
        store.add_segment(segr)
        admission = EerAdmission(SRC, store)
        for i, request in enumerate(requests):
            try:
                decision = admission.decide(
                    AsRole.TRANSIT, request, now=0.0, segment_in=segr.reservation_id
                )
            except InsufficientBandwidth:
                continue
            admission.commit(ReservationId(SRC, 100 + i), decision, request)
        assert store.allocated_on_segment(segr.reservation_id) <= gbps(1) * (1 + 1e-9)


class TestPolicies:
    def test_allow_all(self):
        policy = AllowAllPolicy()
        policy.authorize(HostAddr(1), 1e9)  # no exception
        policy.release(HostAddr(1), 1e9)

    def test_per_host_cap(self):
        policy = PerHostCapPolicy(default_cap=100.0)
        policy.authorize(HostAddr(1), 60.0)
        with pytest.raises(PolicyDenied) as excinfo:
            policy.authorize(HostAddr(1), 60.0)
        assert excinfo.value.granted == pytest.approx(40.0)
        policy.release(HostAddr(1), 60.0)
        policy.authorize(HostAddr(1), 100.0)

    def test_per_host_cap_isolated_per_host(self):
        policy = PerHostCapPolicy(default_cap=100.0)
        policy.authorize(HostAddr(1), 100.0)
        policy.authorize(HostAddr(2), 100.0)  # other host unaffected

    def test_premium_override(self):
        policy = PerHostCapPolicy(default_cap=10.0)
        policy.set_cap(HostAddr(7), 1000.0)
        policy.authorize(HostAddr(7), 500.0)

    def test_deny_list(self):
        policy = DenyListPolicy(AllowAllPolicy())
        policy.deny(HostAddr(3))
        with pytest.raises(PolicyDenied):
            policy.authorize(HostAddr(3), 1.0)
        policy.allow(HostAddr(3))
        policy.authorize(HostAddr(3), 1.0)

    def test_release_never_goes_negative(self):
        policy = PerHostCapPolicy(default_cap=10.0)
        policy.release(HostAddr(1), 99.0)
        assert policy.in_use(HostAddr(1)) == 0.0


def up_segr_record(local_id, bw, expiry=300.0, src=OTHER):
    far_end = IsdAs(1, BASE + 60)
    segment = Segment.from_hops(
        SegmentType.UP,
        [HopField(src, NO_INTERFACE, 1), HopField(far_end, 1, NO_INTERFACE)],
    )
    return SegmentReservation(
        reservation_id=ReservationId(src, local_id),
        segment=segment,
        first_version=SegmentVersion(version=1, bandwidth=bw, expiry=expiry),
    )


class TestDistributorLedger:
    """Cap-then-release symmetry: releasing must return the *applied*
    (capped) increment, not the uncapped amount that was offered."""

    def setup_method(self):
        self.distributor = TransferDistributor()
        self.core = ReservationId(SRC, 1)
        self.up = ReservationId(OTHER, 2)

    def test_capped_registration_releases_exactly_applied(self):
        flow1, flow2 = ReservationId(SRC, 100), ReservationId(SRC, 101)
        self.distributor.register_demand(
            self.core, self.up, gbps(8), up_capacity=gbps(10), key=flow1
        )
        # Second registration hits the cap: only 2 of the offered 8 land.
        applied = self.distributor.register_demand(
            self.core, self.up, gbps(8), up_capacity=gbps(10), key=flow2
        )
        assert applied == pytest.approx(gbps(2))
        self.distributor.release_demand(self.core, self.up, key=flow2)
        # Amount-based release of the uncapped 8 would leave 2 — the
        # under-count that inflated every later quota.
        assert self.distributor.total_demand(self.core) == pytest.approx(gbps(8))

    def test_release_key_returns_all_registrations(self):
        flow = ReservationId(SRC, 100)
        self.distributor.register_demand(
            self.core, self.up, gbps(3), up_capacity=gbps(10), key=flow
        )
        self.distributor.register_demand(
            self.core, self.up, gbps(9), up_capacity=gbps(10), key=flow
        )
        released = self.distributor.release_key(flow)
        assert released == pytest.approx(gbps(10))
        assert self.distributor.total_demand(self.core) == 0.0

    def test_release_unknown_key_is_noop(self):
        self.distributor.register_demand(
            self.core, self.up, gbps(3), up_capacity=gbps(10)
        )
        assert self.distributor.release_key(ReservationId(SRC, 404)) == 0.0
        self.distributor.release_demand(
            self.core, self.up, key=ReservationId(SRC, 404)
        )
        assert self.distributor.total_demand(self.core) == pytest.approx(gbps(3))

    def test_forget_segment_drops_core_row_and_up_entries(self):
        other_core, other_up = ReservationId(SRC, 3), ReservationId(OTHER, 4)
        flow1, flow2 = ReservationId(SRC, 100), ReservationId(SRC, 101)
        for core, up, flow in (
            (self.core, self.up, flow1),
            (other_core, self.up, flow2),
            (other_core, other_up, flow2),
        ):
            self.distributor.register_demand(
                core, up, gbps(3), up_capacity=gbps(10), key=flow
            )
        self.distributor.forget_segment(self.up)  # as up-SegR, in both rows
        assert self.distributor.segments() == {self.core, other_core, other_up}
        assert self.distributor.total_demand(other_core) == pytest.approx(gbps(3))
        self.distributor.forget_segment(other_core)  # as core-SegR
        assert self.distributor.segments() == {self.core}
        # The EERs outlived their SegRs: releasing them must neither
        # raise nor bring a dropped row back.
        assert self.distributor.release_key(flow1) == 0.0
        self.distributor.release_demand(other_core, other_up, key=flow2)
        assert self.distributor.release_key(flow2) == 0.0
        assert self.distributor.segments() == {self.core}

    def test_amount_release_still_supported(self):
        self.distributor.register_demand(
            self.core, self.up, gbps(4), up_capacity=gbps(10)
        )
        self.distributor.release_demand(self.core, self.up, gbps(4))
        assert self.distributor.total_demand(self.core) == 0.0


class TestTransferContention:
    """TRANSFER with core_contention: demand registration must not leak
    on the failure paths, and the quota compares against the up-SegR's
    own share, not the whole core-SegR."""

    def setup_method(self):
        self.store = ReservationStore()
        self.up = up_segr_record(2, bw=gbps(10))
        self.core = segr_record(1, bw=gbps(1))
        self.store.add_segment(self.up)
        self.store.add_segment(self.core)
        self.admission = EerAdmission(SRC, self.store)

    def decide(self, requested, flow_id=900):
        return self.admission.decide(
            AsRole.TRANSFER,
            requested,
            now=0.0,
            segment_in=self.up.reservation_id,
            segment_out=self.core.reservation_id,
            core_contention=True,
            flow=ReservationId(SRC, flow_id),
        )

    def test_core_denial_leaves_no_demand(self):
        # Saturate the core-SegR so the outgoing capacity check denies.
        self.store.allocate_on_segment(
            self.core.reservation_id, ReservationId(SRC, 800), gbps(1)
        )
        with pytest.raises(InsufficientBandwidth):
            self.decide(gbps(0.5))
        # Previously register_demand ran before the outgoing check, so
        # the denied request's demand shrank other quotas forever.
        assert self.admission.distributor.total_demand(
            self.core.reservation_id
        ) == 0.0

    def test_successful_decide_registers_keyed_demand(self):
        self.decide(gbps(0.4), flow_id=901)
        distributor = self.admission.distributor
        assert distributor.demand(
            self.core.reservation_id, self.up.reservation_id
        ) == pytest.approx(gbps(0.4))
        distributor.release_key(ReservationId(SRC, 901))
        assert distributor.total_demand(self.core.reservation_id) == 0.0

    def test_quota_uses_per_up_share(self):
        # A second up-SegR's accumulated demand must not count against
        # this up-SegR's quota headroom while the core is uncontended.
        other_up = up_segr_record(3, bw=gbps(10), src=IsdAs(1, BASE + 70))
        self.store.add_segment(other_up)
        self.admission.distributor.register_demand(
            self.core.reservation_id,
            other_up.reservation_id,
            gbps(0.5),
            up_capacity=gbps(10),
        )
        decision = self.decide(gbps(0.4), flow_id=902)
        assert decision.granted == pytest.approx(gbps(0.4))
        # Contended: this up-SegR is at its proportional share, so new
        # demand from it is denied while the other up keeps its quota.
        self.admission.distributor.register_demand(
            self.core.reservation_id,
            self.up.reservation_id,
            gbps(0.8),
            up_capacity=gbps(10),
        )
        with pytest.raises(InsufficientBandwidth):
            self.decide(gbps(0.4), flow_id=903)


class TestRenewDelta:
    """Incremental renewal: adjust the allocation in place from two O(1)
    reads per SegR, with partial grants and no demand/policy charge."""

    def setup_method(self):
        self.store = ReservationStore()
        self.first = segr_record(1, bw=gbps(1))
        self.second = segr_record(2, bw=gbps(1), src=OTHER)
        self.store.add_segment(self.first)
        self.store.add_segment(self.second)
        self.admission = EerAdmission(SRC, self.store)
        self.eer = ReservationId(SRC, 300)
        self.segment_ids = (self.first.reservation_id, self.second.reservation_id)
        for sid in self.segment_ids:
            self.store.allocate_on_segment(sid, self.eer, gbps(0.2))

    def test_growth_within_headroom(self):
        decision = self.admission.renew_delta(
            self.eer, self.segment_ids, gbps(0.5), now=0.0
        )
        assert decision.granted == pytest.approx(gbps(0.5))
        self.admission.commit_renewal(self.eer, decision, decision.granted)
        for sid in self.segment_ids:
            assert self.store.eer_allocation(sid, self.eer) == pytest.approx(
                gbps(0.5)
            )

    def test_partial_grant_at_bottleneck(self):
        # Another EER fills most of the second SegR: the offer is its
        # current allocation plus the remaining headroom, not a failure.
        self.store.allocate_on_segment(
            self.second.reservation_id, ReservationId(OTHER, 999), gbps(0.7)
        )
        decision = self.admission.renew_delta(
            self.eer, self.segment_ids, gbps(0.5), now=0.0
        )
        assert decision.granted == pytest.approx(gbps(0.3))

    def test_shrink_never_regresses_allocation(self):
        # Older versions stay live (§4.2): a smaller renewal must not
        # lower what the segments already carry.
        decision = self.admission.renew_delta(
            self.eer, self.segment_ids, gbps(0.1), now=0.0
        )
        assert decision.granted == pytest.approx(gbps(0.1))
        self.admission.commit_renewal(self.eer, decision, decision.granted)
        for sid in self.segment_ids:
            assert self.store.eer_allocation(sid, self.eer) == pytest.approx(
                gbps(0.2)
            )

    def test_expired_segr_raises(self):
        with pytest.raises(ReservationExpired):
            self.admission.renew_delta(
                self.eer, self.segment_ids, gbps(0.5), now=400.0
            )
