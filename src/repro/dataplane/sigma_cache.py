"""Bounded LRU cache of per-flow hop records for the border router.

The router's EER fast path is stateless: σ_i is re-derivable from the
packet header and the AS secret alone (§4.6).  That property is what
makes caching *safe* — a σ is a pure function of

    (K_i of one DRKey epoch, ResInfo, EERInfo, (In_i, Eg_i))

and a :class:`SigmaEntry` keeps that input beside the σ it produced.  An
entry is a *hint*: it counts only when the packet carries the same input
and the Eq. (6) MAC under σ matches its HVF.  Anything else — another
bandwidth, expiry, host or interface pair under the same key, a poisoned
σ — falls through to the stateless recompute as if the entry did not
exist, and entries are stored only after the recomputed σ validated a
packet, so cache contents never decide a verdict and forged traffic can
neither fill nor displace them.  What an entry memoizes besides σ is
verified the same way: the Eq. (6) key schedule is a function of σ
alone, the overuse detector's cells one of ResId (part of the key) and
of the detector that computed them (checked by identity).

The cache key is ``(ResId bytes, version, DRKey epoch)``:

* a renewal installs a new version whose ResInfo (and hence HopAuths)
  differ — it misses and is recomputed fresh, and storing version *v*
  drops version *v − 2*, which no packet carries any more;
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

#: Default entry bound.  One entry is a σ, its bound input and a 32-byte
#: key schedule (~0.5 KB in CPython): a few tens of MB at worst, comparable
#: to the gateway table the paper sizes for 2^20 reservations.
DEFAULT_SIGMA_CACHE_CAPACITY = 65536


class SigmaEntry:
    """One HopAuth, the Eq. (4) input it was minted from, its Eq. (6)
    key schedule and the flow's overuse-detector cells."""

    __slots__ = (
        "sigma", "res_info", "eer_info", "pair", "wire",
        "_backend", "schedule", "detector", "cells",
    )

    def __init__(self, sigma: bytes, res_info, eer_info, pair: tuple):
        self.sigma = sigma
        #: The bound input: three parts for the object path (compared by
        #: identity first), and ``wire``, the bytes ResInfo ‖ EERInfo
        #: occupy in a header, for the wire path.
        self.res_info, self.eer_info, self.pair = res_info, eer_info, pair
        self.wire = res_info.packed + eer_info.packed
        #: The native kernel's 32-byte schedule, or without the kernel a
        #: prehashed hashlib state (clone-only) — never both.
        self._backend = backend = native.backend()
        self.schedule = prf_context(sigma) if backend is None else backend.key_schedule(sigma)
        #: ``detector.cells_for(ResId)``, filled in by the router.
        self.detector = self.cells = None

    def verify(self, message: bytes, tag: bytes) -> Optional[bytes]:
        """The untruncated Eq. (6) MAC of ``message`` under this σ if it
        starts with ``tag`` (constant-time compare), else ``None``."""
        backend = self._backend
        if backend is None:
            state = self.schedule.copy()
            state.update(message)
            mac = state.digest()
            return mac if constant_time_equal(mac[: len(tag)], tag) else None
        if backend.lib.colibri_verify(
            self.schedule, message, len(message), tag, len(tag), backend.mac_out
        ):
            return backend.mac_view[:]
        return None


class SigmaCache:
    """LRU map ``(ResId, version, epoch) -> SigmaEntry`` with counters."""

    def __init__(self, capacity: int = DEFAULT_SIGMA_CACHE_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits the router refused (another Eq. (4) input under the key,
        #: or a σ that failed to verify the packet) and recomputed instead.
        self.rejected_hints = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, reservation_packed: bytes, version: int, epoch: int) -> Optional[SigmaEntry]:
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

    def store(self, key: tuple, entry: SigmaEntry) -> None:
        """Remember an entry whose σ just validated a packet (and only
        then); the twice-superseded version *v − 2* leaves with two O(1)
        pops, which are not evictions."""
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        reservation_packed, version, epoch = key
        entries.pop((reservation_packed, version - 2, epoch), None)
        entries.pop((reservation_packed, version - 2, epoch - 1), None)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

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
        values = {
            f"sigma_cache_{name}": getattr(self, name)
            for name in ("hits", "misses", "evictions", "rejected_hints")
            if getattr(self, name)
        }
        values["sigma_cache_entries"] = len(self._entries)
        return values
