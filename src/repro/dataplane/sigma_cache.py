"""Bounded LRU cache of HopAuths (Eq. 4) for the border router.

The router's EER fast path is stateless: σ_i is re-derivable from the
packet header and the AS secret alone (§4.6).  That property is what
makes caching *safe* — a σ is a pure function of

    (K_i of one DRKey epoch, ResInfo, EERInfo, (In_i, Eg_i))

so a cache entry is pure memoization and can be dropped (or poisoned)
without ever changing a verdict: the router treats cached σs as *hints*.
A hit whose derived HVF does not match the packet falls through to the
stateless recompute, exactly as if the entry did not exist; entries are
only stored after the recomputed σ actually validated a packet, so
forged traffic can neither fill nor displace the cache with garbage.

The cache key is ``(ResId bytes, version, DRKey epoch)``:

* a renewal installs a new version whose ResInfo (and hence HopAuths)
  differ — the new version misses and is recomputed fresh;
* a DRKey epoch rollover changes the epoch component — the first packet
  after rollover misses under the new epoch, and the previous-epoch
  entry remains addressable for reservations straddling the boundary
  (§4.5 key-rotation fallback);
* capacity is bounded (LRU) so a busy router holds soft state only for
  the working set, the same argument the paper makes for DRKey itself.

Hit/miss/eviction/rejected-hint counts are plain attributes, surfaced
through :meth:`SigmaCache.snapshot` and the telemetry snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.crypto import native
from repro.crypto.mac import constant_time_equal
from repro.crypto.prf import prf_context

#: Default entry bound.  One entry is a σ plus a prehashed MAC state
#: (~300 B in CPython), so the default costs a few tens of MB at worst —
#: comparable to the gateway table the paper sizes for 2^20 reservations.
DEFAULT_SIGMA_CACHE_CAPACITY = 65536


class SigmaEntry:
    """One cached HopAuth and its prehashed Eq. (6) MAC state."""

    __slots__ = ("sigma", "state", "schedule")

    def __init__(self, sigma: bytes):
        self.sigma = sigma
        #: Prehashed keyed state, clone-only (the same discipline as
        #: :class:`repro.crypto.mac.KeyedMacContext`): the router copies
        #: it per packet and updates the copy.
        self.state = prf_context(sigma)
        #: Native single-key schedule when the cffi kernel is loaded —
        #: one C call verifies a cache hit instead of clone/update/digest
        #: plus a Python compare.  Byte-identical verdicts either way.
        backend = native.backend()
        self.schedule = (
            native.ScheduleBlock(backend, (sigma,)) if backend is not None else None
        )

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time Eq. (6) check of one packet tag under this σ."""
        schedule = self.schedule
        if schedule is not None:
            return schedule.verify(message, tag)
        state = self.state.copy()
        state.update(message)
        return constant_time_equal(state.digest()[: len(tag)], tag)


class SigmaCache:
    """LRU map ``(ResId, version, epoch) -> SigmaEntry`` with counters."""

    def __init__(self, capacity: int = DEFAULT_SIGMA_CACHE_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits whose σ failed to verify the packet (bumped by the router,
        #: which then falls through to the stateless recompute).
        self.rejected_hints = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[SigmaEntry]:
        """The entry for ``key``, refreshed as most-recently used."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def lookup(
        self, reservation_packed: bytes, version: int, epoch: int
    ) -> Optional[SigmaEntry]:
        """The σ minted in ``epoch`` or the one before (rotation fallback).

        HopAuths are minted from the hop key of the epoch the reservation
        was set up in, and reservations can straddle one epoch boundary
        (§4.5); at most one of the two keys exists.  Counts a single hit
        or miss per call, so the counters track packets, not probes.
        """
        entries = self._entries
        key = (reservation_packed, version, epoch)
        entry = entries.get(key)
        if entry is None:
            key = (reservation_packed, version, epoch - 1)
            entry = entries.get(key)
            if entry is None:
                self.misses += 1
                return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: tuple, sigma: bytes) -> SigmaEntry:
        """Remember a σ that just validated a packet (and only then)."""
        entry = SigmaEntry(sigma)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def invalidate(self, reservation_packed: bytes) -> int:
        """Drop every version/epoch entry of one reservation.

        Not needed for correctness (stale entries are verified hints) —
        this is the teardown hook that releases memory early.
        """
        stale = [key for key in self._entries if key[0] == reservation_packed]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def snapshot(self) -> dict:
        """The counters that have moved plus the current size, for
        telemetry (a counter still at zero is omitted)."""
        counts = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected_hints": self.rejected_hints,
        }
        values = {
            f"sigma_cache_{name}": count for name, count in counts.items() if count
        }
        values["sigma_cache_entries"] = len(self._entries)
        return values
