"""Tests for SegR teardown, EER setup auto-retry (App. C) and
renewal-round fairness convergence properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SEGR_LIFETIME
from repro.errors import ColibriError
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps
from tests._metrics import jain_fairness

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


class TestSegTeardown:
    def test_teardown_removes_state_everywhere(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(2))
        owner = net.cserv(asid(1, 1))
        owner.teardown_segment(segr.reservation_id)
        for isd_as in (asid(1, 1), asid(2, 1)):
            cserv = net.cserv(isd_as)
            assert not cserv.store.has_segment(segr.reservation_id)
            assert len(cserv.seg_admission) == 0

    def test_teardown_frees_capacity_immediately(self, net):
        first = net.cserv(asid(1, 1))
        segment = net.beaconing.core_segments(asid(1, 1), asid(2, 1))[0]
        big = first.setup_segment(segment, gbps(30))
        first.teardown_segment(big.reservation_id)
        # Without the teardown the next request could only get ~2 Gbps.
        fresh = first.setup_segment(segment, gbps(30))
        assert fresh.bandwidth == pytest.approx(gbps(30))

    def test_teardown_refused_with_live_eers(self, net):
        segments = net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(10))
        owner = net.cserv(segments[0].reservation_id.src_as)
        with pytest.raises(ColibriError):
            owner.teardown_segment(segments[0].reservation_id)
        # still intact everywhere
        assert owner.store.has_segment(segments[0].reservation_id)

    def test_only_owner_can_tear_down(self, net):
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(2))
        thief = net.cserv(asid(2, 1))  # on-path but not the initiator
        from repro.control.auth import AuthenticatedRequest
        from repro.errors import AdmissionDenied
        from repro.packets.control import SegTeardownNotice

        notice = SegTeardownNotice(reservation=segr.reservation_id)
        auth = AuthenticatedRequest.create(
            net.directory, asid(2, 1), [asid(2, 1)], notice
        )
        with pytest.raises(AdmissionDenied):
            thief.handle_seg_teardown(notice, auth, 0)


class TestEerSetupRetry:
    def test_stale_cache_retry_succeeds(self, net):
        """Appendix C: an EER setup over a SegR that expired since it was
        cached retries automatically against fresh descriptors."""
        net.reserve_segments(SRC, DST, mbps(100))
        cserv = net.cserv(SRC)
        cserv.find_segment_chain(DST)  # warm the caches
        # Let the chain expire, then create a fresh one; the stale
        # descriptors are still cached at SRC.
        net.advance(SEGR_LIFETIME - 1)
        net.reserve_segments(SRC, DST, mbps(100))
        net.advance(2.0)  # old chain now expired, new one alive
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert handle.granted == pytest.approx(mbps(10))


class TestFairnessConvergenceProperty:
    @given(
        st.lists(
            st.floats(min_value=1e9, max_value=4e10),
            min_size=2,
            max_size=8,
        ),
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_equal_demands_converge_fair(self, demands, seed):
        """Distinct sources with arbitrary (equal-rights) demands end up
        with a high fairness index over their *satisfiable* shares after
        renewal rounds — the tube-fairness guarantee under churny input."""
        from repro.admission import SegmentAdmission, TrafficMatrix
        from repro.reservation.ids import ReservationId
        from repro.topology import build_line_topology
        from repro.topology.graph import NO_INTERFACE

        topology = build_line_topology(3)
        middle = asid(1, 2)
        admission = SegmentAdmission(TrafficMatrix(topology.node(middle)))
        sources = [IsdAs(1, BASE + 500 + i) for i in range(len(demands))]
        for source, demand in zip(sources, demands):
            admission.admit(
                ReservationId(source, 1), source, NO_INTERFACE, 2, demand, 0.0
            )
        final = {}
        for _round in range(4):
            for source, demand in zip(sources, demands):
                grant = admission.admit(
                    ReservationId(source, 1), source, NO_INTERFACE, 2, demand, 0.0
                )
                final[source] = grant.granted
        capacity = admission.matrix.interface_capacity(2)
        total = sum(final.values())
        assert total <= capacity * (1 + 1e-9)
        # Normalize by demand: everyone gets a similar *fraction* of what
        # they asked for (proportional fairness).
        fractions = [
            final[source] / min(demand, capacity)
            for source, demand in zip(sources, demands)
        ]
        assert jain_fairness(fractions) > 0.85
