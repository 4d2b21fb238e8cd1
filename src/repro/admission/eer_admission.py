"""EER admission per AS role (§4.7, Fig. 4).

"The EER admission depends on the type of AS (§4.1)":

* **source AS** — checks the first SegR *and* its intra-AS policy;
* **transit AS** — checks only the SegR under the request ("this is
  necessary to defend against malicious source ASes, which may forward
  EEReqs for more bandwidth than available in the SegR");
* **transfer AS** — checks both SegRs it joins, and between up- and
  core-SegR distributes the core-SegR's bandwidth among competing
  up-SegRs proportionally to their demand;
* **destination AS** — same as the source AS (policy side applies to the
  destination host accepting the EER).

Every check is a constant number of O(1) reads against the reservation
store's incrementally maintained sums — the flat lines of Fig. 4.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.admission.policy import AdmissionPolicy, AllowAllPolicy
from repro.errors import InsufficientBandwidth, ReservationError, ReservationExpired
from repro.reservation.ids import ReservationId
from repro.reservation.store import ReservationStore
from repro.topology.addresses import HostAddr, IsdAs


class AsRole(enum.Enum):
    """Position of an AS relative to an EER's path (§4.1)."""

    SOURCE = "source"
    TRANSIT = "transit"
    TRANSFER = "transfer"
    DESTINATION = "destination"


@dataclass(frozen=True)
class EerDecision:
    """Outcome of one AS's EER admission check."""

    granted: float
    role: AsRole
    segments_checked: tuple


class TransferDistributor:
    """Proportional division of a core-SegR among competing up-SegRs (§4.7).

    A transfer AS between up- and core-SegR tracks, per core-SegR, the
    total EER demand arriving from each up-SegR (capped at that up-SegR's
    bandwidth).  When the aggregate demand exceeds the core-SegR's
    capacity, each up-SegR's share shrinks to
    ``core_bw * demand(up) / total_demand``.
    """

    def __init__(self):
        # core SegR id -> (up SegR id -> accumulated capped demand)
        self._demands: dict[ReservationId, dict] = defaultdict(lambda: defaultdict(float))
        # registration key (EER id) -> ((core, up) -> applied increment).
        # The cap makes registration non-linear: the increment actually
        # applied can be smaller than the amount offered, so symmetric
        # release needs the applied value remembered per registration.
        self._registered: dict = {}

    def register_demand(
        self,
        core_segment: ReservationId,
        up_segment: ReservationId,
        amount: float,
        up_capacity: float,
        key=None,
    ) -> float:
        """Accumulate demand from ``up_segment``; returns the *applied*
        increment after the ``up_capacity`` cap.  With ``key`` (the EER
        id) the applied increment is recorded so :meth:`release_demand`
        and :meth:`release_key` can return exactly it later."""
        demands = self._demands[core_segment]
        previous = demands[up_segment]
        demands[up_segment] = min(previous + amount, up_capacity)
        applied = demands[up_segment] - previous
        if key is not None and applied > 0.0:
            pairs = self._registered.setdefault(key, {})
            pair = (core_segment, up_segment)
            pairs[pair] = pairs.get(pair, 0.0) + applied
        return applied

    def release_demand(
        self,
        core_segment: ReservationId,
        up_segment: ReservationId,
        amount: Optional[float] = None,
        key=None,
    ) -> None:
        """Return previously registered demand.

        With ``key``, exactly the increment recorded for that key on
        this (core, up) pair is released — the only release that is
        symmetric when registration hit the ``up_capacity`` cap.  The
        ``amount`` form remains for callers without a ledger entry, but
        releasing an uncapped amount against a capped registration
        under-counts surviving demand (the cap-then-release bug).
        """
        if key is not None:
            pairs = self._registered.get(key)
            if pairs is None:
                return
            amount = pairs.pop((core_segment, up_segment), 0.0)
            if not pairs:
                del self._registered[key]
        demands = self._demands.get(core_segment)
        if not demands or not amount or up_segment not in demands:
            return
        demands[up_segment] = max(0.0, demands[up_segment] - amount)

    def release_key(self, key) -> float:
        """Release every registration recorded under ``key`` (the EER
        expired or aborted); returns the total demand returned.  The
        sweep calls this so quotas decay with the *live* population
        instead of accumulating demand from long-gone EERs."""
        pairs = self._registered.pop(key, None)
        if not pairs:
            return 0.0
        released = 0.0
        for (core_segment, up_segment), applied in pairs.items():
            demands = self._demands.get(core_segment)
            if not demands or up_segment not in demands:
                continue  # the SegR went first (forget_segment)
            demands[up_segment] = max(0.0, demands[up_segment] - applied)
            released += applied
        return released

    def forget_segment(self, res_id: ReservationId) -> None:
        """Drop what is held for a SegR that is gone (teardown, abort,
        expiry): its row as core-SegR and its entry as up-SegR in every
        other row.  Registrations still keyed to it release as no-ops."""
        self._demands.pop(res_id, None)
        for demands in self._demands.values():
            demands.pop(res_id, None)

    def segments(self) -> set:
        """Every SegR a row is held for, as core- or up-SegR."""
        held = set(self._demands)
        for demands in self._demands.values():
            held.update(demands)
        return held

    def demand(
        self, core_segment: ReservationId, up_segment: ReservationId
    ) -> float:
        """Accumulated capped demand from one up-SegR — the per-up
        ``already`` the quota check compares against its share."""
        demands = self._demands.get(core_segment)
        if not demands:
            return 0.0
        return demands.get(up_segment, 0.0)

    def total_demand(self, core_segment: ReservationId) -> float:
        return sum(self._demands.get(core_segment, {}).values())

    def quota(
        self,
        core_segment: ReservationId,
        up_segment: ReservationId,
        core_bandwidth: float,
    ) -> float:
        """Bandwidth of the core-SegR available to EERs from ``up_segment``."""
        demands = self._demands.get(core_segment, {})
        total = sum(demands.values())
        if total <= core_bandwidth:
            return core_bandwidth  # uncontended: no quota needed
        share = demands.get(up_segment, 0.0)
        return core_bandwidth * share / total if total > 0 else 0.0


class EerAdmission:
    """One AS's EER admission procedure over its reservation store."""

    def __init__(
        self,
        isd_as: IsdAs,
        store: ReservationStore,
        source_policy: Optional[AdmissionPolicy] = None,
        destination_policy: Optional[AdmissionPolicy] = None,
    ):
        self.isd_as = isd_as
        self.store = store
        self.source_policy = source_policy or AllowAllPolicy()
        self.destination_policy = destination_policy or AllowAllPolicy()
        self.distributor = TransferDistributor()
        self.decisions = 0

    # -- building blocks ---------------------------------------------------------

    def _segment_available(self, segment_id: ReservationId, now: float) -> float:
        """Free EER bandwidth on a SegR: active bandwidth minus admitted EERs."""
        segment = self.store.get_segment(segment_id)
        if segment.is_expired(now):
            raise ReservationExpired(
                f"SegR {segment_id} expired at {segment.expiry} (now {now})"
            )
        return segment.bandwidth - self.store.allocated_on_segment(segment_id)

    def _check_segment(
        self, segment_id: ReservationId, requested: float, now: float
    ) -> float:
        available = self._segment_available(segment_id, now)
        if available < requested:
            raise InsufficientBandwidth(
                f"SegR {segment_id} has {available:.0f} bps free, "
                f"EER requested {requested:.0f}",
                granted=max(0.0, available),
                at_as=self.isd_as,
            )
        return requested

    # -- the role-specific decisions (§4.7) -----------------------------------------

    def decide(
        self,
        role: AsRole,
        requested: float,
        now: float,
        segment_in: Optional[ReservationId] = None,
        segment_out: Optional[ReservationId] = None,
        host: Optional[HostAddr] = None,
        core_contention: bool = False,
        flow: Optional[ReservationId] = None,
    ) -> EerDecision:
        """Run the admission check for this AS's role on the request path.

        ``segment_in``/``segment_out`` name the SegR the request arrives
        on and departs on; source ASes only have ``segment_out``,
        destinations only ``segment_in``, transits exactly one of the two
        (the same SegR), transfers both.  With ``core_contention`` a
        transfer AS additionally applies the proportional up-SegR quota
        against the outgoing core-SegR; ``flow`` (the EER id) keys the
        demand registration so its exact capped increment can be
        released when the EER fails, aborts, or expires.
        """
        self.decisions += 1
        checked = []
        if role is AsRole.SOURCE:
            if host is not None:
                self.source_policy.authorize(host, requested)
            try:
                granted = self._check_segment(segment_out, requested, now)
            except ReservationError:
                # Expired/unknown SegR or insufficient bandwidth: undo the
                # policy charge before propagating the denial.
                if host is not None:
                    self.source_policy.release(host, requested)
                raise
            checked.append(segment_out)
        elif role is AsRole.TRANSIT:
            segment = segment_in if segment_in is not None else segment_out
            granted = self._check_segment(segment, requested, now)
            checked.append(segment)
        elif role is AsRole.TRANSFER:
            granted = self._check_segment(segment_in, requested, now)
            checked.append(segment_in)
            # The outgoing core-SegR is checked *before* any demand is
            # registered: a denial here used to leave the registration
            # behind, permanently shrinking other up-SegRs' quotas.
            granted = min(granted, self._check_segment(segment_out, requested, now))
            checked.append(segment_out)
            if core_contention:
                up_segment = self.store.get_segment(segment_in)
                core_segment = self.store.get_segment(segment_out)
                quota = self.distributor.quota(
                    segment_out, segment_in, core_segment.bandwidth
                )
                # `already` is this up-SegR's own accumulated demand, not
                # the whole core-SegR's allocation: §4.7 divides the core
                # among up-SegRs by *their* demand, so one up-SegR's
                # backlog must not consume another's share.
                already = self.distributor.demand(segment_out, segment_in)
                if requested > quota - min(already, quota):
                    raise InsufficientBandwidth(
                        f"up-SegR {segment_in} quota on core-SegR {segment_out} "
                        f"is {quota:.0f} bps",
                        granted=max(0.0, quota - already),
                        at_as=self.isd_as,
                    )
                self.distributor.register_demand(
                    segment_out, segment_in, requested, up_segment.bandwidth,
                    key=flow,
                )
        elif role is AsRole.DESTINATION:
            if host is not None:
                self.destination_policy.authorize(host, requested)
            try:
                granted = self._check_segment(segment_in, requested, now)
            except ReservationError:
                # Same roll-back as the source side (§4.7).
                if host is not None:
                    self.destination_policy.release(host, requested)
                raise
            checked.append(segment_in)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown role {role}")
        return EerDecision(granted=granted, role=role, segments_checked=tuple(checked))

    def commit(
        self, eer_id: ReservationId, decision: EerDecision, bandwidth: float
    ) -> None:
        """Record the admitted EER's bandwidth on every checked SegR."""
        for segment_id in decision.segments_checked:
            self.store.allocate_on_segment(segment_id, eer_id, bandwidth)

    # -- renewals (§4.2) ----------------------------------------------------------

    def renew_delta(
        self,
        eer_id: ReservationId,
        segment_ids,
        new_bandwidth: float,
        now: float,
        role: AsRole = AsRole.TRANSIT,
    ) -> EerDecision:
        """Incremental renewal: recompute the EER's allocation in place.

        A renewal is not a new admission — the EER already occupies
        bandwidth on every SegR it rides, and versions share that budget
        (§4.2).  Instead of releasing and re-admitting through the full
        role dispatch, each SegR offers ``current allocation + free
        bandwidth``; the grant is the request capped at the minimum
        offer across segments.  Two O(1) store reads per SegR, no
        mutation, and by construction the grant never falls below what a
        segment can absorb in place — an AS that cannot cover the full
        growth makes a *partial* grant ("all on-path ASes can specify
        the amount of bandwidth they are willing to grant", §4.2)
        instead of failing the renewal.

        Raises :class:`ReservationExpired` when a SegR is dead and
        :class:`ReservationNotFound` when one is unknown; grants of 0.0
        mean the EER survives at whatever it already holds.
        """
        self.decisions += 1
        offered = new_bandwidth
        for segment_id in segment_ids:
            current = self.store.eer_allocation(segment_id, eer_id)
            headroom = current + self._segment_available(segment_id, now)
            offered = min(offered, headroom)
        return EerDecision(
            granted=max(0.0, offered),
            role=role,
            segments_checked=tuple(segment_ids),
        )

    def commit_renewal(
        self, eer_id: ReservationId, decision: EerDecision, granted: float
    ) -> None:
        """Apply a renewal grant: raise each segment's allocation to the
        granted amount, never shrinking below what already runs (older
        versions stay live until they expire on their own, §4.2)."""
        for segment_id in decision.segments_checked:
            current = self.store.eer_allocation(segment_id, eer_id)
            if granted > current:
                self.store.allocate_on_segment(segment_id, eer_id, granted)
