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

Invariant: each scheduled key appears in exactly one bucket, the one
covering its recorded expiry, and the heap holds exactly one index per
existing bucket.  ``schedule`` migrates a key between buckets when its
expiry changes; ``collect_due`` removes what it returns.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, List, Optional, Tuple

#: Quantum (seconds) a bucket covers.  EERs live 16 s and SegRs
#: minutes, so one-second buckets keep the bucket count small and
#: constant relative to the reservation count.
BUCKET_WIDTH = 1.0


class ExpiryWheel:
    """Buckets of keys indexed by quantized expiry, earliest-first."""

    __slots__ = ("_expiry", "_buckets", "_heap")

    def __init__(self):
        self._expiry: dict = {}  # key -> scheduled absolute expiry
        self._buckets: dict = {}  # bucket index -> set of keys
        self._heap: List[int] = []  # one entry per existing bucket

    def __len__(self) -> int:
        return len(self._expiry)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._expiry

    def _bucket_of(self, expiry: float) -> int:
        return math.floor(expiry / BUCKET_WIDTH)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, key: Hashable, expiry: float) -> None:
        """Index ``key`` under ``expiry``, replacing any prior schedule."""
        previous = self._expiry.get(key)
        if previous is not None:
            if previous == expiry:
                return
            self._discard_from_bucket(key, previous)
        self._expiry[key] = expiry
        index = self._bucket_of(expiry)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = {key}
            heapq.heappush(self._heap, index)
        else:
            bucket.add(key)

    def remove(self, key: Hashable) -> None:
        """Forget a key; unknown keys are a no-op."""
        expiry = self._expiry.pop(key, None)
        if expiry is not None:
            self._discard_from_bucket(key, expiry)

    def _discard_from_bucket(self, key: Hashable, expiry: float) -> None:
        bucket = self._buckets.get(self._bucket_of(expiry))
        if bucket is not None:
            bucket.discard(key)

    def scheduled_expiry(self, key: Hashable) -> Optional[float]:
        return self._expiry.get(key)

    # -- collection -----------------------------------------------------------

    def collect_due(self, now: float) -> List[Tuple[Hashable, float]]:
        """Remove and return all ``(key, scheduled_expiry)`` with
        ``scheduled_expiry <= now`` — O(log buckets + returned).

        A reservation with ``expiry == now`` is no longer live
        (liveness is ``now < expiry``), so the bound is inclusive.
        """
        due: List[Tuple[Hashable, float]] = []
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
            if (index + 1) * BUCKET_WIDTH <= now:
                # The whole bucket lies in the past: drain it in bulk.
                heapq.heappop(self._heap)
                del self._buckets[index]
                for key in bucket:
                    due.append((key, self._expiry.pop(key)))
                continue
            # Boundary bucket straddling `now`: filter item by item, keep
            # the rest scheduled, and stop — later buckets are all future.
            ripe = [key for key in bucket if self._expiry[key] <= now]
            for key in ripe:
                bucket.discard(key)
                due.append((key, self._expiry.pop(key)))
            break
        return due
