"""Time-indexed expiry buckets for the reservation store.

The store's old garbage collection scanned every reservation on every
sweep — O(n) per call, which the ROADMAP's million-reservation control
plane (EERs renewing every 16 s, §4.2) cannot afford.  This module keeps
the classic timer-wheel shape instead: each scheduled key lives in a
bucket covering one quantum of absolute time, and a min-heap over the
bucket indices finds the earliest non-empty bucket in O(log b).
Collecting everything due at ``now`` therefore costs O(log b + dead):
whole buckets strictly in the past drain in bulk, and only the single
boundary bucket straddling ``now`` is filtered item by item, so the
sweep never looks at a key whose expiry lies beyond the current quantum.

The wheel stores *scheduled* expiries, not live ones: reservation
objects mutate their own expiry out of band (renewal versions, aborts,
activation).  The owning store revalidates every candidate the wheel
surfaces against the object's actual state and reschedules the still
live ones — see ``ReservationStore.sweep_expired``.

What it schedules are the reservation records themselves, and a
record's schedule is the record's own ``scheduled_expiry`` attribute
(``None`` while unscheduled): the wheel keeps no second index by key,
so a scheduled reservation costs one set entry here and nothing else.

Invariant: each scheduled record appears in exactly one bucket, the one
covering its ``scheduled_expiry``, and the heap holds exactly one index
per existing bucket.  ``schedule`` migrates a record between buckets
when its expiry changes; ``collect_due`` removes what it returns.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

#: Quantum (seconds) a bucket covers.  EERs live 16 s and SegRs
#: minutes, so one-second buckets keep the bucket count small and
#: constant relative to the reservation count.
BUCKET_WIDTH = 1.0


class ExpiryWheel:
    """Buckets of records indexed by quantized expiry, earliest-first."""

    __slots__ = ("_buckets", "_heap")

    def __init__(self):
        self._buckets: dict = {}  # bucket index -> set of records
        self._heap: List[int] = []  # one entry per existing bucket

    def _bucket_of(self, expiry: float) -> int:
        return math.floor(expiry / BUCKET_WIDTH)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, record, expiry: float) -> None:
        """Index ``record`` under ``expiry``, replacing any prior schedule."""
        previous = record.scheduled_expiry
        if previous is not None:
            if previous == expiry:
                return
            self._discard_from_bucket(record, previous)
        record.scheduled_expiry = expiry
        index = self._bucket_of(expiry)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = {record}
            heapq.heappush(self._heap, index)
        else:
            bucket.add(record)

    def remove(self, record) -> None:
        """Forget a record; an unscheduled one is a no-op."""
        expiry = record.scheduled_expiry
        if expiry is not None:
            record.scheduled_expiry = None
            self._discard_from_bucket(record, expiry)

    def _discard_from_bucket(self, record, expiry: float) -> None:
        bucket = self._buckets.get(self._bucket_of(expiry))
        if bucket is not None:
            bucket.discard(record)

    # -- collection -----------------------------------------------------------

    def collect_due(self, now: float) -> List[Tuple[object, float]]:
        """Remove and return all ``(record, scheduled_expiry)`` with
        ``scheduled_expiry <= now`` — O(log buckets + returned).

        A reservation with ``expiry == now`` is no longer live
        (liveness is ``now < expiry``), so the bound is inclusive.
        """
        due: List[Tuple[object, float]] = []
        while self._heap:
            index = self._heap[0]
            bucket = self._buckets.get(index)
            if not bucket:
                # Emptied by remove()/migration: retire heap entry and slot.
                heapq.heappop(self._heap)
                self._buckets.pop(index, None)
                continue
            if index * BUCKET_WIDTH > now:
                break  # earliest possible expiry in any bucket is in the future
            whole = (index + 1) * BUCKET_WIDTH <= now
            if whole:
                # The whole bucket lies in the past: drain it in bulk.
                heapq.heappop(self._heap)
                del self._buckets[index]
                ripe = bucket
            else:
                # Boundary bucket straddling `now`: filter record by record
                # and keep the rest scheduled.
                ripe = [r for r in bucket if r.scheduled_expiry <= now]
                bucket.difference_update(ripe)
            for record in ripe:
                due.append((record, record.scheduled_expiry))
                record.scheduled_expiry = None
            if not whole:
                break  # later buckets are all future
        return due
