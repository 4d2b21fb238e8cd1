"""Stateful property testing of end-to-end reservation accounting.

The store state machine (``test_store_statemachine.py``) drives the
store alone.  This machine drives the *composition* the control plane
actually runs — transfer-AS admission with core contention, incremental
renewal, aborts, and expiry sweeps, including transactions that fail
midway — against a brute-force model tracking allocations, distributor
demand, and the live population.  After every step the store's
incremental sums, the transfer distributor's totals, and the store
contents must match the model exactly.

This is the harness that catches all three historic accounting leaks:

* sweeps that survived a rolled-back transaction while their allocation
  releases replayed (store contents vs. model diverge);
* cap-then-release demand under-counts in the transfer distributor
  (demand totals diverge);
* demand registered before the outgoing core-SegR check denied the
  request (demand totals diverge after a denial).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.admission.eer_admission import AsRole, EerAdmission
from repro.errors import InsufficientBandwidth, ReservationExpired
from repro.packets.fields import EerInfo
from repro.reservation import (
    E2EReservation,
    E2EVersion,
    ReservationId,
    ReservationStore,
    SegmentReservation,
    SegmentVersion,
)
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import NO_INTERFACE
from repro.topology.segments import HopField, Segment, SegmentType
from repro.util.units import gbps

SRC = IsdAs.parse("1-ff00:0:110")
FAR = IsdAs.parse("1-ff00:0:111")
UP_BW = gbps(2)
CORE_BW = gbps(1)
EER_LIFETIME = 16.0
SEGR_EXPIRY = 1e9  # the SegRs outlive every machine run


def make_segment(segment_type):
    return Segment.from_hops(
        segment_type,
        [HopField(SRC, NO_INTERFACE, 1), HopField(FAR, 1, NO_INTERFACE)],
    )


def make_segr(local_id, segment_type, bandwidth):
    return SegmentReservation(
        reservation_id=ReservationId(SRC, local_id),
        segment=make_segment(segment_type),
        first_version=SegmentVersion(
            version=1, bandwidth=bandwidth, expiry=SEGR_EXPIRY
        ),
    )


class AccountingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = ReservationStore()
        self.up = make_segr(1, SegmentType.UP, UP_BW)
        self.core = make_segr(2, SegmentType.CORE, CORE_BW)
        self.store.add_segment(self.up)
        self.store.add_segment(self.core)
        self.segment_ids = (self.up.reservation_id, self.core.reservation_id)
        self.admission = EerAdmission(SRC, self.store)
        self.now = 0.0
        self.next_eer = 1000
        # The brute-force model.
        self.eers: dict = {}  # eer id -> expiry (max over versions)
        self.allocs: dict = {sid: {} for sid in self.segment_ids}
        self.demand = 0.0  # distributor demand from `up` against `core`
        self.registered: dict = {}  # eer id -> applied demand increment

    # -- helpers -------------------------------------------------------------

    def _new_eer_id(self):
        eer_id = ReservationId(SRC, self.next_eer)
        self.next_eer += 1
        return eer_id

    def _record(self, eer_id, bandwidth, expiry):
        return E2EReservation(
            reservation_id=eer_id,
            eer_info=EerInfo(HostAddr(1), HostAddr(2)),
            hops=make_segment(SegmentType.UP).hops,
            segment_ids=self.segment_ids,
            first_version=E2EVersion(version=1, bandwidth=bandwidth, expiry=expiry),
        )

    # -- rules ---------------------------------------------------------------

    @rule(
        requested=st.floats(min_value=1e6, max_value=5e8),
        fail=st.booleans(),
    )
    def admit(self, requested, fail):
        """Transfer-AS admission under core contention, then either the
        commit transaction or a mid-transaction failure plus the cleanup
        the CServ performs (keyed demand release)."""
        eer_id = self._new_eer_id()
        try:
            decision = self.admission.decide(
                AsRole.TRANSFER,
                requested,
                self.now,
                segment_in=self.up.reservation_id,
                segment_out=self.core.reservation_id,
                core_contention=True,
                flow=eer_id,
            )
        except (InsufficientBandwidth, ReservationExpired):
            return  # invariants check the denial left no demand behind
        # Mirror the capped registration `decide` performed.
        applied = min(self.demand + requested, UP_BW) - self.demand
        self.demand += applied
        if applied > 0.0:
            self.registered[eer_id] = applied
        expiry = self.now + EER_LIFETIME
        if fail:
            with pytest.raises(RuntimeError):
                with self.store.transaction():
                    self.admission.commit(eer_id, decision, decision.granted)
                    self.store.add_eer(
                        self._record(eer_id, decision.granted, expiry)
                    )
                    raise RuntimeError("downstream AS denied")
            self.admission.distributor.release_key(eer_id)
            self.demand -= self.registered.pop(eer_id, 0.0)
            return
        with self.store.transaction():
            self.admission.commit(eer_id, decision, decision.granted)
            self.store.add_eer(self._record(eer_id, decision.granted, expiry))
        self.eers[eer_id] = expiry
        for sid in self.segment_ids:
            self.allocs[sid][eer_id] = decision.granted

    @precondition(lambda self: self.eers)
    @rule(
        data=st.data(),
        new_bandwidth=st.floats(min_value=1e6, max_value=5e8),
        fail=st.booleans(),
    )
    def renew(self, data, new_bandwidth, fail):
        """Incremental renewal: delta-recompute, then the version/alloc
        commit — or a mid-transaction failure, which must leave the
        allocations untouched."""
        eer_id = data.draw(st.sampled_from(sorted(self.eers)))
        self._renew(eer_id, new_bandwidth, fail)

    def _renew(self, eer_id, new_bandwidth, fail):
        reservation = self.store.get_eer(eer_id)
        try:
            decision = self.admission.renew_delta(
                eer_id, self.segment_ids, new_bandwidth, self.now
            )
        except ReservationExpired:
            return
        if decision.granted <= 0:
            return
        expiry = self.now + EER_LIFETIME
        version = E2EVersion(
            version=reservation.next_version_number(),
            bandwidth=decision.granted,
            expiry=expiry,
        )
        if fail:
            with pytest.raises(RuntimeError):
                with self.store.transaction():
                    reservation.add_version(version)
                    self.admission.commit_renewal(
                        eer_id, decision, decision.granted
                    )
                    self.store.touch(eer_id)
                    raise RuntimeError("response lost")
            # Object state (the version) is not store state and stays;
            # allocations rolled back.  Mirror exactly that.
            self.eers[eer_id] = max(self.eers[eer_id], expiry)
            return
        with self.store.transaction():
            reservation.add_version(version)
            reservation.prune(self.now)
            self.admission.commit_renewal(eer_id, decision, decision.granted)
            self.store.touch(eer_id)
        self.eers[eer_id] = max(self.eers[eer_id], expiry)
        for sid in self.segment_ids:
            self.allocs[sid][eer_id] = max(
                self.allocs[sid][eer_id], decision.granted
            )

    @precondition(lambda self: self.eers)
    @rule(data=st.data())
    def abort(self, data):
        """Whole-EER abort (§3.3): exact cleanup of record, allocations,
        and the EER's registered transfer demand."""
        eer_id = data.draw(st.sampled_from(sorted(self.eers)))
        self._abort(eer_id)

    def _abort(self, eer_id):
        self.admission.distributor.release_key(eer_id)
        with self.store.transaction():
            for sid in self.segment_ids:
                self.store.release_on_segment(sid, eer_id)
            self.store.remove_eer(eer_id)
        del self.eers[eer_id]
        for sid in self.segment_ids:
            self.allocs[sid].pop(eer_id, None)
        self.demand -= self.registered.pop(eer_id, 0.0)

    @rule(delta=st.floats(min_value=0.0, max_value=24.0))
    def sweep(self, delta):
        """Advance time and sweep, mirroring CServ housekeeping: expired
        EERs leave the store, their allocations, and their demand."""
        self.now += delta
        counts, dead_eers, dead_segments = self.store.sweep_expired_details(
            self.now
        )
        assert dead_segments == []
        for eer_id in dead_eers:
            self.admission.distributor.release_key(eer_id)
        expected_dead = {
            eer_id for eer_id, expiry in self.eers.items() if self.now >= expiry
        }
        assert set(dead_eers) == expected_dead
        assert counts["eers"] == len(expected_dead)
        for eer_id in expected_dead:
            del self.eers[eer_id]
            for sid in self.segment_ids:
                self.allocs[sid].pop(eer_id, None)
            self.demand -= self.registered.pop(eer_id, 0.0)

    @rule(delta=st.floats(min_value=0.0, max_value=24.0))
    def sweep_aborted(self, delta):
        """A sweep inside a failing transaction must leave no trace —
        the historic leak deleted the reservations but restored their
        allocations on rollback."""
        self.now += delta
        with pytest.raises(RuntimeError):
            with self.store.transaction():
                self.store.sweep_expired(self.now)
                raise RuntimeError("batch failed")
        # Model deliberately untouched: expired EERs are still stored
        # (and still counted) until a committed sweep collects them.

    # -- invariants -------------------------------------------------------------

    @invariant()
    def population_matches(self):
        assert self.store.eer_count() == len(self.eers)
        for eer_id in self.eers:
            assert self.store.has_eer(eer_id)

    @invariant()
    def allocation_sums_match(self):
        for sid in self.segment_ids:
            expected = sum(self.allocs[sid].values())
            assert self.store.allocated_on_segment(sid) == pytest.approx(
                expected, abs=1e-3
            )
            for eer_id, bandwidth in self.allocs[sid].items():
                assert self.store.eer_allocation(sid, eer_id) == pytest.approx(
                    bandwidth
                )

    @invariant()
    def demand_matches(self):
        actual = self.admission.distributor.total_demand(self.core.reservation_id)
        assert actual == pytest.approx(self.demand, abs=1e-3)
        assert actual == pytest.approx(
            sum(self.registered.values()), abs=1e-3
        )

    @invariant()
    def no_journal_left_behind(self):
        assert self.store._journal is None


AccountingMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
TestAccountingStateMachine = AccountingMachine.TestCase


def test_campaign_churn_drains_to_zero():
    """Campaign-churn mode: the accounting machine driven with the same
    shape as the flash-crowd campaign — a baseline wave, a surge wave
    with renewals, mid-transaction failures and aborts mixed in, then a
    full teardown.  After the final sweep, *every* ledger must read
    exactly zero: no residual EERs, no residual segment allocations, no
    residual transfer demand."""
    import random

    machine = AccountingMachine()
    rng = random.Random(7)
    for arrivals in (30, 200):  # baseline, then the surge
        for _ in range(arrivals):
            machine.admit(rng.uniform(1e6, 5e8), fail=rng.random() < 0.1)
            if machine.eers and rng.random() < 0.3:
                machine._renew(
                    rng.choice(sorted(machine.eers)),
                    rng.uniform(1e6, 5e8),
                    fail=rng.random() < 0.2,
                )
            if machine.eers and rng.random() < 0.1:
                machine._abort(rng.choice(sorted(machine.eers)))
            machine.sweep(rng.uniform(0.0, 0.5))
        machine.population_matches()
        machine.allocation_sums_match()
        machine.demand_matches()
    # Teardown: advance past every possible expiry and sweep.
    machine.sweep(EER_LIFETIME + 1.0)
    machine.sweep(EER_LIFETIME + 1.0)
    assert machine.store.eer_count() == 0
    for sid in machine.segment_ids:
        assert machine.store.allocated_on_segment(sid) == pytest.approx(0.0)
    assert machine.admission.distributor.total_demand(
        machine.core.reservation_id
    ) == pytest.approx(0.0, abs=1e-6)
    assert machine.registered == {}
    machine.no_journal_left_behind()
