"""The per-AS reservation store.

The paper keeps reservations "in a transactional database" (§6.1).  This
in-memory equivalent preserves the property the protocol needs:
multi-step setup handling either commits completely or leaves no trace —
"in case of an unsuccessful request, the ASes clean up their temporary
reservations" (§3.3).  :meth:`ReservationStore.transaction` provides that
with an undo journal, so any exception inside the block rolls back every
mutation made through the store — *including* expiry sweeps, which the
original implementation deleted outside the journal (a sweep inside a
later-aborted transaction left allocations restored for EERs that no
longer existed).  The block is a plain ``__enter__``/``__exit__`` object
the store allocates once: a CServ opens one per committed request.

There is one store per AS.  A per-AS-pair sharding wrapper used to sit
in front of it; in a single-threaded CServ the extra routing lookup per
call could only cost (docs/performance.md §10), so it was removed.

The store also maintains the EER-per-SegR allocation accounting that EER
admission reads: ``allocated_on_segment`` is an O(1) lookup thanks to
incrementally maintained sums — one ingredient of the flat curves in
Fig. 4.

Expiry is time-indexed: every reservation is scheduled on an
:class:`~repro.reservation.timewheel.ExpiryWheel` keyed by its expiry,
so :meth:`sweep_expired` costs O(log buckets + matched) instead of a
full scan.  The wheel records the expiry *as of the last store
interaction* on the reservation itself (``scheduled_expiry``: the store
keeps one dict slot and one wheel-bucket entry per reservation, nothing
else); reservation objects whose
expiry moved out of band (renewal versions added, versions dropped,
activation) are lazily revalidated when they surface — a live candidate
is simply re-indexed at its real expiry — and callers that shrink an
expiry should :meth:`touch` the reservation so its removal is timely
rather than merely eventual.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import ReservationNotFound, StoreConflict
from repro.reservation.e2e import E2EReservation
from repro.reservation.ids import ReservationId
from repro.reservation.segment import SegmentReservation
from repro.reservation.timewheel import ExpiryWheel


class _Transaction:
    """The ``with store.transaction():`` block: opens the undo journal
    on entry; on exit closes it and, if the block raised, replays it in
    reverse."""

    __slots__ = ("_store",)

    def __init__(self, store: "ReservationStore"):
        self._store = store

    def __enter__(self) -> "ReservationStore":
        store = self._store
        if store._journal is not None:
            raise StoreConflict("nested transactions are not supported")
        store._journal = []
        return store

    def __exit__(self, exc_type, exc, traceback) -> bool:
        store = self._store
        journal, store._journal = store._journal, None
        if exc_type is not None:
            for undo in reversed(journal):
                undo()
        return False


class ReservationStore:
    """Holds one AS's SegRs, EERs, and EER-on-SegR allocation sums."""

    def __init__(self):
        self._segments: dict[ReservationId, SegmentReservation] = {}
        self._eers: dict[ReservationId, E2EReservation] = {}
        # SegR id -> (EER id -> allocated bandwidth); sums kept alongside.
        self._eer_alloc: dict[ReservationId, dict] = {}
        self._eer_alloc_sum: dict[ReservationId, float] = {}
        # Expiry indexes: scheduled (not necessarily current) expiries.
        self._eer_wheel = ExpiryWheel()
        self._seg_wheel = ExpiryWheel()
        self._journal: Optional[list] = None
        self._transaction = _Transaction(self)

    # -- transactions -----------------------------------------------------------

    def transaction(self) -> _Transaction:
        """All store mutations inside the block commit or roll back together."""
        return self._transaction

    def _record(self, undo: Callable[[], None]) -> None:
        if self._journal is not None:
            self._journal.append(undo)

    # -- segment reservations ----------------------------------------------------

    def add_segment(self, reservation: SegmentReservation) -> None:
        res_id = reservation.reservation_id
        if res_id in self._segments:
            raise StoreConflict(f"SegR {res_id} already stored")
        self._segments[res_id] = reservation
        self._eer_alloc[res_id] = {}
        self._eer_alloc_sum[res_id] = 0.0
        self._seg_wheel.schedule(reservation, reservation.expiry)
        self._record(lambda: self._drop_segment(reservation))

    def _drop_segment(self, reservation: SegmentReservation) -> None:
        res_id = reservation.reservation_id
        self._segments.pop(res_id, None)
        self._eer_alloc.pop(res_id, None)
        self._eer_alloc_sum.pop(res_id, None)
        self._seg_wheel.remove(reservation)

    def remove_segment(self, res_id: ReservationId) -> SegmentReservation:
        reservation = self.get_segment(res_id)
        allocations = self._eer_alloc[res_id]
        alloc_sum = self._eer_alloc_sum[res_id]
        scheduled = reservation.scheduled_expiry
        self._drop_segment(reservation)

        def undo():
            self._segments[res_id] = reservation
            self._eer_alloc[res_id] = allocations
            self._eer_alloc_sum[res_id] = alloc_sum
            if scheduled is not None:
                self._seg_wheel.schedule(reservation, scheduled)

        self._record(undo)
        return reservation

    def get_segment(self, res_id: ReservationId) -> SegmentReservation:
        reservation = self._segments.get(res_id)
        if reservation is None:
            raise ReservationNotFound(f"unknown SegR {res_id}")
        return reservation

    def find_segment(self, res_id: ReservationId) -> Optional[SegmentReservation]:
        return self._segments.get(res_id)

    def has_segment(self, res_id: ReservationId) -> bool:
        return res_id in self._segments

    def segments(self) -> list:
        return list(self._segments.values())

    def segment_count(self) -> int:
        return len(self._segments)

    # -- end-to-end reservations ---------------------------------------------------

    def add_eer(self, reservation: E2EReservation) -> None:
        res_id = reservation.reservation_id
        if res_id in self._eers:
            raise StoreConflict(f"EER {res_id} already stored")
        self._eers[res_id] = reservation
        self._eer_wheel.schedule(reservation, reservation.expiry)

        def undo():
            self._eers.pop(res_id, None)
            self._eer_wheel.remove(reservation)

        self._record(undo)

    def remove_eer(self, res_id: ReservationId) -> E2EReservation:
        """Early removal of an EER (abort of a failed setup, §3.3).

        Only the EER record itself; the caller releases its per-SegR
        allocations via :meth:`release_on_segment` so the cleanup is one
        journaled transaction.
        """
        reservation = self._eers.pop(res_id, None)
        if reservation is None:
            raise ReservationNotFound(f"unknown EER {res_id}")
        self._record(lambda: self._eers.__setitem__(res_id, reservation))
        scheduled = reservation.scheduled_expiry
        if scheduled is not None:
            self._eer_wheel.remove(reservation)
            self._record(lambda: self._eer_wheel.schedule(reservation, scheduled))
        return reservation

    def get_eer(self, res_id: ReservationId) -> E2EReservation:
        reservation = self._eers.get(res_id)
        if reservation is None:
            raise ReservationNotFound(f"unknown EER {res_id}")
        return reservation

    def find_eer(self, res_id: ReservationId) -> Optional[E2EReservation]:
        return self._eers.get(res_id)

    def has_eer(self, res_id: ReservationId) -> bool:
        return res_id in self._eers

    def eers(self) -> list:
        return list(self._eers.values())

    def eer_count(self) -> int:
        return len(self._eers)

    # -- expiry index ------------------------------------------------------------

    def touch(self, res_id: ReservationId) -> None:
        """Re-index a reservation whose expiry changed out of band.

        Version lifecycles mutate reservation objects directly (renewal
        ``add_version``, abort ``drop_version``, SegR ``activate``); the
        store cannot observe those, so the expiry index keeps the old
        schedule.  An *extension* heals lazily (the sweep revalidates and
        re-indexes); a *shrink* would only be collected at the old, later
        expiry.  Callers mutating versions should touch the reservation
        afterwards so both directions are indexed exactly.  Journaled,
        so a rolled-back transaction also restores the old schedule.
        Unknown ids are a no-op.
        """
        reservation, wheel = self._eers.get(res_id), self._eer_wheel
        if reservation is None:
            reservation, wheel = self._segments.get(res_id), self._seg_wheel
            if reservation is None:
                return
        previous, expiry = reservation.scheduled_expiry, reservation.expiry
        if previous == expiry:
            return
        wheel.schedule(reservation, expiry)

        def undo():
            if previous is None:
                wheel.remove(reservation)
            else:
                wheel.schedule(reservation, previous)

        self._record(undo)

    # -- EER-on-SegR allocation accounting -----------------------------------------

    def allocate_on_segment(
        self, segment_id: ReservationId, eer_id: ReservationId, bandwidth: float
    ) -> None:
        """Set (or raise) the bandwidth an EER occupies on a SegR.

        Renewals may change the amount; the per-SegR sum is maintained
        incrementally so admission reads it in O(1).
        """
        if segment_id not in self._eer_alloc:
            raise ReservationNotFound(f"unknown SegR {segment_id}")
        allocations = self._eer_alloc[segment_id]
        previous = allocations.get(eer_id, 0.0)
        allocations[eer_id] = bandwidth
        self._eer_alloc_sum[segment_id] += bandwidth - previous
        self._resync_sum(segment_id)

        def undo():
            if previous == 0.0 and eer_id in allocations:
                del allocations[eer_id]
            else:
                allocations[eer_id] = previous
            self._eer_alloc_sum[segment_id] += previous - bandwidth
            self._resync_sum(segment_id)

        self._record(undo)

    def release_on_segment(self, segment_id: ReservationId, eer_id: ReservationId) -> None:
        """Drop an EER's allocation (it expired)."""
        allocations = self._eer_alloc.get(segment_id)
        if allocations is None or eer_id not in allocations:
            return
        previous = allocations.pop(eer_id)
        self._eer_alloc_sum[segment_id] -= previous
        self._resync_sum(segment_id)

        def undo():
            allocations[eer_id] = previous
            self._eer_alloc_sum[segment_id] += previous
            self._resync_sum(segment_id)

        self._record(undo)

    def _resync_sum(self, segment_id: ReservationId) -> None:
        """Kill incremental float drift while staying O(1) amortized.

        An empty allocation map means an exactly-zero sum; small maps are
        cheap to resum exactly.  Large maps keep the incremental value —
        drift there stays far below any admission-relevant magnitude
        (found by the stateful property test, where add/release cycles
        left a -4e-9 residue that broke exact-zero comparisons).
        """
        allocations = self._eer_alloc[segment_id]
        if not allocations:
            self._eer_alloc_sum[segment_id] = 0.0
        elif len(allocations) <= 8:
            self._eer_alloc_sum[segment_id] = sum(allocations.values())

    def allocated_on_segment(self, segment_id: ReservationId) -> float:
        """Total EER bandwidth currently admitted on a SegR — O(1)."""
        total = self._eer_alloc_sum.get(segment_id)
        if total is None:
            raise ReservationNotFound(f"unknown SegR {segment_id}")
        return total

    def eer_allocation(self, segment_id: ReservationId, eer_id: ReservationId) -> float:
        allocations = self._eer_alloc.get(segment_id)
        if allocations is None:
            raise ReservationNotFound(f"unknown SegR {segment_id}")
        return allocations.get(eer_id, 0.0)

    # -- garbage collection -----------------------------------------------------------

    def sweep_expired(self, now: float) -> dict:
        """Remove expired reservations and release their allocations.

        Reservations "automatically expire" (§4.2); this sweep is the
        bookkeeping side.  Returns counts for observability.
        """
        counts, _, _ = self.sweep_expired_details(now)
        return counts

    def sweep_expired_details(
        self, now: float
    ) -> Tuple[dict, List[ReservationId], List[ReservationId]]:
        """:meth:`sweep_expired`, plus the ids removed.

        ``(counts, dead_eer_ids, dead_segment_ids)`` — callers holding
        per-reservation side state (segment admission entries, registry
        rows, transfer-quota demand) clean up against the id lists
        without re-scanning the store.

        Cost is O(log buckets + candidates): only reservations whose
        *scheduled* expiry has passed are examined.  Every candidate is
        revalidated against its object's real expiry; out-of-band
        renewals surface here and are simply re-indexed (and pruned of
        stale versions) instead of removed.  All removals go through the
        journal, so a sweep inside :meth:`transaction` rolls back
        completely — reservations, allocations, and expiry index alike.
        """
        dead_eers: List[ReservationId] = []
        for reservation, scheduled in self._eer_wheel.collect_due(now):
            if not reservation.is_expired(now):
                # Renewed out of band: re-index at the real expiry.
                self._reschedule(self._eer_wheel, reservation, scheduled, now)
                continue
            res_id = reservation.reservation_id
            for segment_id in reservation.segment_ids:
                self.release_on_segment(segment_id, res_id)
            self.remove_eer(res_id)
            self._record(
                lambda reservation=reservation, scheduled=scheduled:
                self._eer_wheel.schedule(reservation, scheduled)
            )
            dead_eers.append(res_id)
        dead_segments: List[ReservationId] = []
        for reservation, scheduled in self._seg_wheel.collect_due(now):
            if not reservation.is_expired(now):
                # Activated to a longer-lived version out of band.
                self._reschedule(self._seg_wheel, reservation, scheduled, now)
                continue
            self.remove_segment(reservation.reservation_id)
            self._record(
                lambda reservation=reservation, scheduled=scheduled:
                self._seg_wheel.schedule(reservation, scheduled)
            )
            dead_segments.append(reservation.reservation_id)
        return (
            {"eers": len(dead_eers), "segments": len(dead_segments)},
            dead_eers,
            dead_segments,
        )

    def _reschedule(
        self, wheel: ExpiryWheel, reservation, scheduled: float, now: float
    ) -> None:
        """Re-index a sweep candidate that turned out to be live (and
        drop its stale versions), with an undo restoring the consumed
        (earlier) schedule on rollback."""
        wheel.schedule(reservation, reservation.expiry)
        self._record(lambda: wheel.schedule(reservation, scheduled))
        reservation.prune(now)
