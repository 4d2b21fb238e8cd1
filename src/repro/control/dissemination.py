"""SegR registration and hierarchical dissemination (Appendix C).

"Once a SegR is established, the initiator can choose to share it
publicly by registering it at its CServ along with a whitelist of ASes
that are allowed to use the SegR to create EERs.  An end host can then
query its local CServ for SegRs to the intended destination, which looks
up SegRs in its database and contacts remote CServs if necessary […]
These additional SegRs are then also cached at the local CServ."

:class:`SegmentRegistry` is the per-CServ database; the remote-query and
caching side is :class:`RemoteQueryClient`, which a CServ drives from
:meth:`repro.control.cserv.ColibriService.find_segment_chain`.  Entries
travel between CServs as plain :class:`SegmentDescriptor` values (no
live object sharing — the consumer AS never holds another AS's
reservation state, only the public description).

Remote queries go through the CServ's retrying caller
(:mod:`repro.control.retry`), so a lossy link costs a bounded number of
re-asks.  A query that still fails falls back to the cached previous
answer even past its freshness window (descriptors carry their own
expiry, and a stale-but-valid SegR beats no path at all); with nothing
cached the transport error propagates, so callers can tell "the remote
CServ is unreachable" apart from "the remote CServ knows no SegRs".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ColibriError, TransportError
from repro.obs.trace import traced
from repro.reservation.ids import ReservationId
from repro.reservation.segment import SegmentReservation
from repro.topology.addresses import IsdAs
from repro.topology.segments import Segment
from repro.util.clock import Clock


@dataclass(frozen=True)
class SegmentDescriptor:
    """The public description of a registered SegR."""

    reservation_id: ReservationId
    segment: Segment
    bandwidth: float
    expiry: float
    version: int

    @property
    def first_as(self) -> IsdAs:
        return self.segment.first_as

    @property
    def last_as(self) -> IsdAs:
        return self.segment.last_as

    def is_expired(self, now: float) -> bool:
        return now >= self.expiry

    @classmethod
    def of(cls, reservation: SegmentReservation) -> "SegmentDescriptor":
        active = reservation.active
        return cls(
            reservation_id=reservation.reservation_id,
            segment=reservation.segment,
            bandwidth=active.bandwidth,
            expiry=active.expiry,
            version=active.version,
        )


class SegmentRegistry:
    """Registered SegRs of one CServ, indexed by endpoint pair.

    ``whitelist=None`` means public; otherwise only listed ASes may learn
    of (and thus build EERs over) the SegR.
    """

    def __init__(self):
        self._by_pair: dict = defaultdict(dict)  # (first, last) -> {res_id: desc}
        self._whitelists: dict[ReservationId, Optional[frozenset]] = {}

    def register(
        self, descriptor: SegmentDescriptor, whitelist: Optional[set] = None
    ) -> None:
        key = (descriptor.first_as, descriptor.last_as)
        self._by_pair[key][descriptor.reservation_id] = descriptor
        self._whitelists[descriptor.reservation_id] = (
            frozenset(whitelist) if whitelist is not None else None
        )

    def update(self, descriptor: SegmentDescriptor) -> None:
        """Refresh a descriptor after renewal/activation, keeping the
        existing whitelist."""
        key = (descriptor.first_as, descriptor.last_as)
        if descriptor.reservation_id not in self._by_pair[key]:
            raise KeyError(f"SegR {descriptor.reservation_id} is not registered")
        self._by_pair[key][descriptor.reservation_id] = descriptor

    def unregister(self, reservation_id: ReservationId) -> None:
        for bucket in self._by_pair.values():
            bucket.pop(reservation_id, None)
        self._whitelists.pop(reservation_id, None)

    def query(
        self,
        first_as: IsdAs,
        last_as: IsdAs,
        requester: IsdAs,
        now: float,
    ) -> list:
        """Usable descriptors from ``first_as`` to ``last_as`` for
        ``requester``, freshest (latest expiry) first."""
        bucket = self._by_pair.get((first_as, last_as), {})
        result = []
        for descriptor in bucket.values():
            if descriptor.is_expired(now):
                continue
            whitelist = self._whitelists.get(descriptor.reservation_id)
            if whitelist is not None and requester not in whitelist:
                continue
            result.append(descriptor)
        result.sort(key=lambda d: d.expiry, reverse=True)
        return result

    def sweep_expired(self, now: float) -> int:
        removed = 0
        for bucket in self._by_pair.values():
            stale = [rid for rid, desc in bucket.items() if desc.is_expired(now)]
            for rid in stale:
                del bucket[rid]
                self._whitelists.pop(rid, None)
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_pair.values())


#: How long cached remote SegR descriptors stay fresh (Appendix C).
REMOTE_CACHE_TTL = 10.0


class RemoteQueryClient:
    """Hierarchical descriptor lookup with caching (Appendix C).

    Resolution order: the local registry, then the freshness-bounded
    cache of earlier remote answers, then a remote ``query_registry``
    call issued through ``caller`` (a retrying caller or the raw bus —
    anything with the same ``call`` signature).  When the remote query
    fails at the transport layer, unexpired descriptors from a stale
    cache entry are served instead (they remain individually valid until
    their own expiry); only with an empty cache does the transport error
    propagate.  Authoritative remote refusals still degrade to "no
    remote SegRs known".
    """

    def __init__(
        self,
        caller,
        registry: SegmentRegistry,
        clock: Clock,
        isd_as: IsdAs,
        cache_ttl: float = REMOTE_CACHE_TTL,
    ):
        self.caller = caller
        self.registry = registry
        self.clock = clock
        self.isd_as = isd_as
        self.cache_ttl = cache_ttl
        self._cache: dict = {}  # (first, last) -> (descriptors, fetched_at)
        self.remote_queries = 0
        self.remote_failures = 0
        self.stale_served = 0
        #: Optional :class:`repro.obs.ObsContext`; when set, each fetch
        #: records a ``dissemination.fetch`` span.
        self.obs = None

    @traced(
        "dissemination.fetch",
        attrs=lambda self, owner, first, last: {
            "owner": str(owner),
            "first": str(first),
            "last": str(last),
        },
    )
    def fetch(self, owner: IsdAs, first: IsdAs, last: IsdAs) -> list:
        """Local registry, then cache, then a remote CServ query."""
        now = self.clock.now()
        local = self.registry.query(first, last, self.isd_as, now)
        if local:
            return local
        cached = self._cache.get((first, last))
        if cached is not None:
            descriptors, fetched_at = cached
            fresh = [d for d in descriptors if not d.is_expired(now)]
            if fresh and now - fetched_at < self.cache_ttl:
                return fresh
        self.remote_queries += 1
        try:
            descriptors = self.caller.call(
                owner, "query_registry", first, last, self.isd_as
            )
        except TransportError:
            self.remote_failures += 1
            if cached is not None:
                stale = [d for d in cached[0] if not d.is_expired(now)]
                if stale:
                    self.stale_served += 1
                    return stale
            raise
        except ColibriError:
            self.remote_failures += 1
            return []
        self._cache[(first, last)] = (list(descriptors), now)
        return [d for d in descriptors if not d.is_expired(now)]

    def invalidate(self, descriptors: list) -> None:
        """Drop cache entries covering the given descriptors — called
        after a setup failure that smells like stale remote SegRs, so
        the retry refetches fresh state (Appendix C)."""
        for descriptor in descriptors:
            self._cache.pop((descriptor.first_as, descriptor.last_as), None)

    def cached_pairs(self) -> list:
        return sorted(self._cache)
