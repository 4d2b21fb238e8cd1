"""Unit tests for repro.reservation: ids, versions, store, index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ReservationExpired,
    ReservationNotFound,
    StoreConflict,
    VersionError,
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
from repro.reservation.index import IndexedDemand
from repro.reservation.segment import VersionState
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import NO_INTERFACE
from repro.topology.segments import HopField, Segment, SegmentType

SRC = IsdAs.parse("1-ff00:0:110")
MID = IsdAs.parse("1-ff00:0:111")
DST = IsdAs.parse("1-ff00:0:1")


def make_segment():
    return Segment.from_hops(
        SegmentType.UP,
        [
            HopField(SRC, NO_INTERFACE, 1),
            HopField(MID, 2, 3),
            HopField(DST, 4, NO_INTERFACE),
        ],
    )


def make_segr(local_id=1, bw=1e9, expiry=300.0):
    return SegmentReservation(
        reservation_id=ReservationId(SRC, local_id),
        segment=make_segment(),
        first_version=SegmentVersion(version=1, bandwidth=bw, expiry=expiry),
    )


def make_eer(local_id=100, bw=1e7, expiry=16.0, segment_ids=()):
    return E2EReservation(
        reservation_id=ReservationId(SRC, local_id),
        eer_info=EerInfo(HostAddr(1), HostAddr(2)),
        hops=make_segment().hops,
        segment_ids=segment_ids or (ReservationId(SRC, 1),),
        first_version=E2EVersion(version=1, bandwidth=bw, expiry=expiry),
    )


class TestReservationId:
    def test_roundtrip(self):
        rid = ReservationId(SRC, 42)
        assert ReservationId.unpack(rid.packed) == rid

    def test_global_uniqueness_needs_both_parts(self):
        assert ReservationId(SRC, 1) != ReservationId(DST, 1)
        assert ReservationId(SRC, 1) != ReservationId(SRC, 2)

    def test_range(self):
        with pytest.raises(ValueError):
            ReservationId(SRC, 1 << 32)

    @given(st.integers(0, (1 << 32) - 1))
    def test_roundtrip_property(self, local_id):
        rid = ReservationId(SRC, local_id)
        assert ReservationId.unpack(rid.packed) == rid


class TestSegmentReservation:
    def test_first_version_is_active(self):
        segr = make_segr()
        assert segr.active.version == 1
        assert segr.active.state is VersionState.ACTIVE
        assert segr.bandwidth == 1e9

    def test_pending_does_not_change_active(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=2e9, expiry=600.0))
        assert segr.bandwidth == 1e9
        assert len(segr.pending_versions()) == 1

    def test_explicit_activation_switches(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=2e9, expiry=600.0))
        segr.activate(2, now=100.0)
        assert segr.bandwidth == 2e9
        assert segr.active.version == 2

    def test_only_one_active_version(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=2e9, expiry=600.0))
        segr.activate(2, now=0.0)
        states = [v.state for v in segr.versions.values()]
        assert states.count(VersionState.ACTIVE) == 1

    def test_duplicate_version_rejected(self):
        segr = make_segr()
        with pytest.raises(VersionError):
            segr.add_pending(SegmentVersion(version=1, bandwidth=1, expiry=600.0))

    def test_version_must_increase(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=3, bandwidth=1, expiry=600.0))
        with pytest.raises(VersionError):
            segr.add_pending(SegmentVersion(version=2, bandwidth=1, expiry=600.0))

    def test_activate_unknown_version(self):
        with pytest.raises(VersionError):
            make_segr().activate(9, now=0.0)

    def test_activate_expired_version_rejected(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=1, expiry=50.0))
        with pytest.raises(ReservationExpired):
            segr.activate(2, now=60.0)

    def test_activate_non_pending_rejected(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=1, expiry=600.0))
        segr.activate(2, now=0.0)
        with pytest.raises(VersionError):
            segr.activate(2, now=0.0)

    def test_expiry_follows_active(self):
        segr = make_segr(expiry=300.0)
        assert not segr.is_expired(299.0)
        assert segr.is_expired(300.0)

    def test_prune_drops_retired(self):
        segr = make_segr()
        segr.add_pending(SegmentVersion(version=2, bandwidth=2e9, expiry=600.0))
        segr.activate(2, now=0.0)
        assert segr.prune(now=0.0) == 1
        assert list(segr.versions) == [2]

    def test_next_version_number(self):
        segr = make_segr()
        assert segr.next_version_number() == 2


class TestE2EReservation:
    def test_multiple_live_versions(self):
        eer = make_eer(bw=1e7, expiry=16.0)
        eer.add_version(E2EVersion(version=2, bandwidth=2e7, expiry=30.0))
        assert len(eer.live_versions(10.0)) == 2

    def test_effective_bandwidth_is_max(self):
        eer = make_eer(bw=1e7, expiry=16.0)
        eer.add_version(E2EVersion(version=2, bandwidth=2e7, expiry=30.0))
        assert eer.effective_bandwidth(10.0) == 2e7
        # after v2 expires... both expired
        assert eer.effective_bandwidth(31.0) == 0.0

    def test_latest_version_used_by_gateway(self):
        eer = make_eer()
        eer.add_version(E2EVersion(version=2, bandwidth=5e6, expiry=30.0))
        assert eer.latest_version().version == 2

    def test_latest_live_version(self):
        eer = make_eer(expiry=16.0)
        eer.add_version(E2EVersion(version=2, bandwidth=5e6, expiry=10.0))
        # v2 expires before v1: at t=12 the latest live is v1
        assert eer.latest_live_version(12.0).version == 1
        assert eer.latest_live_version(20.0) is None

    def test_versions_cannot_regress(self):
        eer = make_eer()
        eer.add_version(E2EVersion(version=3, bandwidth=1, expiry=30.0))
        with pytest.raises(VersionError):
            eer.add_version(E2EVersion(version=2, bandwidth=1, expiry=30.0))

    def test_expiry_is_latest(self):
        eer = make_eer(expiry=16.0)
        eer.add_version(E2EVersion(version=2, bandwidth=1, expiry=32.0))
        assert eer.expiry == 32.0

    def test_prune_keeps_newest(self):
        eer = make_eer(expiry=16.0)
        eer.add_version(E2EVersion(version=2, bandwidth=1, expiry=32.0))
        assert eer.prune(now=20.0) == 1
        assert list(eer.versions) == [2]


class TestReservationStore:
    def test_add_and_get_segment(self):
        store = ReservationStore()
        segr = make_segr()
        store.add_segment(segr)
        assert store.get_segment(segr.reservation_id) is segr
        assert store.segment_count() == 1

    def test_duplicate_segment_rejected(self):
        store = ReservationStore()
        store.add_segment(make_segr())
        with pytest.raises(StoreConflict):
            store.add_segment(make_segr())

    def test_unknown_lookups(self):
        store = ReservationStore()
        with pytest.raises(ReservationNotFound):
            store.get_segment(ReservationId(SRC, 9))
        with pytest.raises(ReservationNotFound):
            store.get_eer(ReservationId(SRC, 9))
        with pytest.raises(ReservationNotFound):
            store.allocated_on_segment(ReservationId(SRC, 9))

    def test_eer_allocation_accounting(self):
        store = ReservationStore()
        segr = make_segr()
        store.add_segment(segr)
        eer1, eer2 = ReservationId(SRC, 100), ReservationId(SRC, 101)
        store.allocate_on_segment(segr.reservation_id, eer1, 1e7)
        store.allocate_on_segment(segr.reservation_id, eer2, 2e7)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(3e7)
        # renewal adjusts, does not double-count
        store.allocate_on_segment(segr.reservation_id, eer1, 3e7)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(5e7)
        store.release_on_segment(segr.reservation_id, eer2)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(3e7)

    def test_transaction_rollback(self):
        store = ReservationStore()
        segr = make_segr()
        store.add_segment(segr)
        eer = make_eer()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.add_eer(eer)
                store.allocate_on_segment(
                    segr.reservation_id, eer.reservation_id, 1e7
                )
                raise RuntimeError("downstream AS denied")
        assert not store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == 0.0

    def test_transaction_commit(self):
        store = ReservationStore()
        segr = make_segr()
        store.add_segment(segr)
        eer = make_eer()
        with store.transaction():
            store.add_eer(eer)
            store.allocate_on_segment(segr.reservation_id, eer.reservation_id, 1e7)
        assert store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)

    def test_nested_transaction_rejected(self):
        store = ReservationStore()
        with store.transaction():
            with pytest.raises(StoreConflict):
                with store.transaction():
                    pass

    def test_rollback_of_segment_add(self):
        store = ReservationStore()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.add_segment(make_segr())
                raise RuntimeError("fail")
        assert store.segment_count() == 0

    def test_sweep_expired(self):
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        eer = make_eer(expiry=16.0, segment_ids=(segr.reservation_id,))
        store.add_eer(eer)
        store.allocate_on_segment(segr.reservation_id, eer.reservation_id, 1e7)
        removed = store.sweep_expired(now=20.0)
        assert removed == {"eers": 1, "segments": 0}
        assert store.allocated_on_segment(segr.reservation_id) == 0.0
        removed = store.sweep_expired(now=301.0)
        assert removed["segments"] == 1
        assert store.segment_count() == 0


class TestInterfacePairIndex:
    def demand(self, rid, source=SRC, ingress=1, egress=2, capped=10.0, adjusted=8.0):
        return IndexedDemand(
            reservation_id=ReservationId(source, rid),
            source=source,
            ingress=ingress,
            egress=egress,
            capped_demand=capped,
            adjusted_demand=adjusted,
        )

    def test_sums_update_incrementally(self):
        index = InterfacePairIndex()
        index.add(self.demand(1))
        index.add(self.demand(2, capped=5.0, adjusted=4.0))
        assert index.ingress_demand(1) == pytest.approx(15.0)
        assert index.source_demand(SRC, 2) == pytest.approx(15.0)
        assert index.egress_adjusted(2) == pytest.approx(12.0)

    def test_remove_restores_sums(self):
        index = InterfacePairIndex()
        index.add(self.demand(1))
        index.add(self.demand(2))
        index.remove(ReservationId(SRC, 1))
        assert index.ingress_demand(1) == pytest.approx(10.0)
        assert len(index) == 1

    def test_re_add_replaces(self):
        index = InterfacePairIndex()
        index.add(self.demand(1, capped=10.0))
        index.add(self.demand(1, capped=20.0, adjusted=16.0))
        assert index.ingress_demand(1) == pytest.approx(20.0)
        assert len(index) == 1

    def test_remove_unknown_is_noop(self):
        index = InterfacePairIndex()
        index.remove(ReservationId(SRC, 77))
        assert len(index) == 0

    def test_recompute_matches_incremental(self):
        incremental = InterfacePairIndex()
        demands = [self.demand(i, capped=float(i), adjusted=float(i) / 2) for i in range(1, 20)]
        for demand in demands:
            incremental.add(demand)
        rebuilt = InterfacePairIndex()
        rebuilt.recompute_from(demands)
        assert rebuilt.ingress_demand(1) == pytest.approx(incremental.ingress_demand(1))
        assert rebuilt.egress_adjusted(2) == pytest.approx(incremental.egress_adjusted(2))

    def test_no_negative_drift(self):
        index = InterfacePairIndex()
        for i in range(1, 100):
            index.add(self.demand(i, capped=0.1, adjusted=0.1))
        for i in range(1, 100):
            index.remove(ReservationId(SRC, i))
        assert index.ingress_demand(1) == 0.0
        assert index.egress_adjusted(2) == 0.0


class TestSweepTransactionality:
    """The sweep is journaled: a sweep inside a rolled-back transaction
    must leave no trace.  Previously the sweep deleted reservations
    outside the undo journal while its allocation releases were
    journaled, so a rollback restored allocations for EERs that no
    longer existed — a permanent accounting leak."""

    def build(self):
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        eer = make_eer(expiry=16.0, segment_ids=(segr.reservation_id,))
        store.add_eer(eer)
        store.allocate_on_segment(segr.reservation_id, eer.reservation_id, 1e7)
        return store, segr, eer

    def test_sweep_rolls_back_with_transaction(self):
        store, segr, eer = self.build()
        with pytest.raises(RuntimeError):
            with store.transaction():
                removed = store.sweep_expired(now=20.0)
                assert removed == {"eers": 1, "segments": 0}
                raise RuntimeError("downstream AS denied")
        # Fully restored: the EER is back AND its allocation still
        # matches it (the bug left the allocation without the EER).
        assert store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)
        assert store.eer_allocation(
            segr.reservation_id, eer.reservation_id
        ) == pytest.approx(1e7)

    def test_restored_reservations_sweep_again(self):
        # The rollback must also restore the expiry index, or the
        # revived EER would never be collected.
        store, segr, eer = self.build()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.sweep_expired(now=20.0)
                raise RuntimeError("fail")
        removed = store.sweep_expired(now=20.0)
        assert removed == {"eers": 1, "segments": 0}
        assert not store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == 0.0

    def test_segment_sweep_rolls_back(self):
        store, segr, eer = self.build()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.sweep_expired(now=301.0)
                assert store.segment_count() == 0
                raise RuntimeError("fail")
        assert store.has_segment(segr.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)
        removed = store.sweep_expired(now=301.0)
        assert removed == {"eers": 1, "segments": 1}

    def test_committed_sweep_sticks(self):
        store, segr, eer = self.build()
        with store.transaction():
            removed = store.sweep_expired(now=20.0)
        assert removed == {"eers": 1, "segments": 0}
        assert not store.has_eer(eer.reservation_id)
        assert store.sweep_expired(now=20.0) == {"eers": 0, "segments": 0}


class TestExpiryIndex:
    def test_window_queries(self):
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        near = make_eer(local_id=100, expiry=16.0, segment_ids=(segr.reservation_id,))
        far = make_eer(local_id=101, expiry=48.0, segment_ids=(segr.reservation_id,))
        store.add_eer(near)
        store.add_eer(far)
        # Each sweep surfaces exactly what came due since the last one.
        assert store.sweep_expired_details(15.9) == (
            {"eers": 0, "segments": 0}, [], [])
        assert store.sweep_expired_details(20.0) == (
            {"eers": 1, "segments": 0}, [near.reservation_id], [])
        assert store.sweep_expired_details(299.0) == (
            {"eers": 1, "segments": 0}, [far.reservation_id], [])
        assert store.sweep_expired_details(300.0) == (
            {"eers": 0, "segments": 1}, [], [segr.reservation_id])

    def test_out_of_band_renewal_heals_lazily(self):
        # A renewal adds a version directly on the object; the next sweep
        # surfaces the stale schedule, revalidates, and re-indexes
        # instead of removing the live EER.
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        eer = make_eer(expiry=16.0, segment_ids=(segr.reservation_id,))
        store.add_eer(eer)
        eer.add_version(E2EVersion(version=2, bandwidth=1e7, expiry=32.0))
        assert store.sweep_expired(now=20.0) == {"eers": 0, "segments": 0}
        assert store.has_eer(eer.reservation_id)
        assert store.sweep_expired(now=32.0) == {"eers": 1, "segments": 0}

    def test_touch_after_expiry_shrink(self):
        # Dropping the newest version *shrinks* the expiry; touch()
        # re-indexes so collection is timely, not at the old deadline.
        store = ReservationStore()
        eer = make_eer(expiry=16.0)
        store.add_eer(eer)
        eer.add_version(E2EVersion(version=2, bandwidth=1e7, expiry=160.0))
        store.touch(eer.reservation_id)
        eer.drop_version(2)
        store.touch(eer.reservation_id)
        assert store.sweep_expired_details(15.9)[1] == []
        assert store.sweep_expired_details(16.0) == (
            {"eers": 1, "segments": 0}, [eer.reservation_id], [])

    def test_touch_unknown_is_noop(self):
        store = ReservationStore()
        store.touch(ReservationId(SRC, 404))

    def test_touch_rolls_back(self):
        store = ReservationStore()
        eer = make_eer(expiry=16.0)
        store.add_eer(eer)
        with pytest.raises(RuntimeError):
            with store.transaction():
                eer.add_version(E2EVersion(version=2, bandwidth=1e7, expiry=160.0))
                store.touch(eer.reservation_id)
                raise RuntimeError("fail")
        # The object keeps the version (it is not store state), but the
        # index schedule is restored to the pre-transaction expiry.
        assert eer.scheduled_expiry == 16.0


class TestStoreTransactions:
    """One journal over every map of the store: SegRs, EERs, per-SegR
    allocations and both expiry wheels commit or roll back together."""

    def build(self):
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        eer = make_eer(expiry=16.0, segment_ids=(segr.reservation_id,))
        store.add_eer(eer)
        store.allocate_on_segment(segr.reservation_id, eer.reservation_id, 1e7)
        return store, segr, eer

    def test_interface_parity(self):
        store, segr, eer = self.build()
        assert store.get_segment(segr.reservation_id) is segr
        assert store.get_eer(eer.reservation_id) is eer
        assert store.has_segment(segr.reservation_id)
        assert store.has_eer(eer.reservation_id)
        assert store.segment_count() == 1
        assert store.eer_count() == 1
        assert store.segments() == [segr]
        assert store.eers() == [eer]
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)
        assert store.eer_allocation(
            segr.reservation_id, eer.reservation_id
        ) == pytest.approx(1e7)
        # the map persistence and the consistency checker read
        assert dict(store._eer_alloc[segr.reservation_id]) == {
            eer.reservation_id: 1e7
        }
        with pytest.raises(ReservationNotFound):
            store.get_segment(ReservationId(SRC, 404))
        with pytest.raises(ReservationNotFound):
            store.get_eer(ReservationId(SRC, 404))
        with pytest.raises(ReservationNotFound):
            store.allocated_on_segment(ReservationId(SRC, 404))

    def test_multi_step_transaction_rollback(self):
        store, segr, eer = self.build()
        other = ReservationId(SRC, 500)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.allocate_on_segment(segr.reservation_id, other, 5e6)
                store.remove_eer(eer.reservation_id)
                raise RuntimeError("fail")
        assert store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)

    def test_nested_transaction_rejected(self):
        store, _, _ = self.build()
        with store.transaction():
            with pytest.raises(StoreConflict):
                with store.transaction():
                    pass
        # The refused inner block must not have closed the outer one's
        # journal, and the store is usable again afterwards.
        with store.transaction():
            pass

    def test_transaction_is_reusable_after_rollback(self):
        store, segr, eer = self.build()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.remove_eer(eer.reservation_id)
                raise RuntimeError("fail")
        with store.transaction():
            store.remove_eer(eer.reservation_id)
        assert not store.has_eer(eer.reservation_id)

    def test_sweep_releases_allocations_of_many_eers(self):
        store = ReservationStore()
        segr = make_segr(expiry=300.0)
        store.add_segment(segr)
        for local_id in range(100, 120):
            eer = make_eer(
                local_id=local_id, expiry=16.0, segment_ids=(segr.reservation_id,)
            )
            store.add_eer(eer)
            store.allocate_on_segment(segr.reservation_id, eer.reservation_id, 1e6)
        counts, dead_eers, dead_segments = store.sweep_expired_details(now=20.0)
        assert counts == {"eers": 20, "segments": 0}
        assert len(dead_eers) == 20 and dead_segments == []
        assert store.eer_count() == 0
        assert store.allocated_on_segment(segr.reservation_id) == 0.0

    def test_sweep_rolls_back_then_sweeps_again(self):
        store, segr, eer = self.build()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.sweep_expired(now=20.0)
                raise RuntimeError("fail")
        assert store.has_eer(eer.reservation_id)
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(1e7)
        assert store.sweep_expired(now=20.0) == {"eers": 1, "segments": 0}
