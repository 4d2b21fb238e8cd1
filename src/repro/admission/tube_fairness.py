"""Bounded-tube-fairness SegR admission (§4.7, Fig. 3).

The admission algorithm "distributes the capacity among competing SegRs
proportionally to their adjusted bandwidth demand" and, per the formal
analysis the paper cites [62], guarantees that no AS or group of ASes can
reserve excessive bandwidth (botnet-size independence, §5.2).

For one request the grant is::

    ideal = adjusted * min(1, egress_capacity / total_adjusted_at_egress)
    grant = min(ideal, egress_capacity - sum_of_committed_grants)

where ``total_adjusted_at_egress`` includes the new request.  When total
adjusted demand fits in the egress, every reservation receives its full
adjusted demand; under contention, shares shrink proportionally.  The
second ``min`` keeps the hard §5.1 invariant — the sum of all grants
never exceeds capacity — at every instant.  Because a renewal excludes
the renewing reservation's own previous grant, repeated renewal rounds
converge to the proportional (tube-fair) allocation: over-granted early
arrivals shrink to their ideal share, freeing capacity that later
arrivals pick up at their next renewal.  SegRs renew every ~5 minutes
(§3.3), so convergence takes at most a couple of renewal periods.

Everything is O(1) in the number of existing SegRs: the aggregates come
from the memoized :class:`~repro.reservation.index.InterfacePairIndex`.
A ``memoize=False`` mode recomputes the aggregates from scratch on every
request, the naive O(n) behaviour Fig. 3's mutant build measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.admission.demands import AdjustedDemand, adjust_demand
from repro.admission.traffic_matrix import TrafficMatrix
from repro.errors import InsufficientBandwidth
from repro.reservation.ids import ReservationId
from repro.reservation.index import IndexedDemand, InterfacePairIndex
from repro.topology.addresses import IsdAs


@dataclass(frozen=True)
class SegmentGrant:
    """The admission outcome an AS records and reports upstream."""

    reservation_id: ReservationId
    demand: AdjustedDemand
    granted: float


class SegmentAdmission:
    """Per-AS SegR admission state and decision procedure."""

    def __init__(self, matrix: TrafficMatrix, memoize: bool = True):
        self.matrix = matrix
        self.memoize = memoize
        self.index = InterfacePairIndex()
        self.decisions = 0  # observability counter

    # -- decision ------------------------------------------------------------------

    def evaluate(
        self,
        reservation_id: ReservationId,
        source: IsdAs,
        ingress: int,
        egress: int,
        requested: float,
    ) -> SegmentGrant:
        """Compute the grant for a request without committing it.

        ``evaluate`` then :meth:`commit` mirrors the two phases of setup:
        the grant is computed when the request passes forward, and
        recorded when the successful response passes back (§3.3).
        """
        self.decisions += 1
        if not self.memoize:
            # Ablation: rebuild aggregates by iterating every entry, the
            # naive implementation whose cost grows linearly (DESIGN.md §5).
            self.index.recompute_from(list(self.index._entries.values()))
        # A renewal re-evaluates an existing reservation: exclude its old
        # demand from the aggregates so it competes only with others.
        previous = None
        if reservation_id in self.index:
            previous = self.index.entry(reservation_id)
            self.index.remove(reservation_id)
        try:
            demand = adjust_demand(
                self.matrix, self.index, source, ingress, egress, requested
            )
            eg_cap = self.matrix.interface_capacity(egress)
            total_adjusted = self.index.egress_adjusted(egress) + demand.adjusted
            if total_adjusted > eg_cap > 0:
                ideal = demand.adjusted * (eg_cap / total_adjusted)
            else:
                ideal = demand.adjusted
            free = max(0.0, eg_cap - self.index.egress_granted(egress))
            granted = min(ideal, free)
        finally:
            if previous is not None:
                self.index.add(previous)
        return SegmentGrant(
            reservation_id=reservation_id, demand=demand, granted=granted
        )

    def commit(self, grant: SegmentGrant) -> None:
        """Record a granted reservation in the aggregates."""
        demand = grant.demand
        self.index.add(
            IndexedDemand(
                reservation_id=grant.reservation_id,
                source=demand.source,
                ingress=demand.ingress,
                egress=demand.egress,
                capped_demand=demand.capped,
                adjusted_demand=demand.adjusted,
                granted=grant.granted,
            )
        )

    def admit(
        self,
        reservation_id: ReservationId,
        source: IsdAs,
        ingress: int,
        egress: int,
        requested: float,
        minimum: float,
    ) -> SegmentGrant:
        """Evaluate and commit in one step, enforcing the minimum.

        Raises :class:`InsufficientBandwidth` (carrying the would-be
        grant, for bottleneck diagnosis) when the grant is below the
        requested minimum.
        """
        grant = self.evaluate(reservation_id, source, ingress, egress, requested)
        if grant.granted < minimum:
            raise InsufficientBandwidth(
                f"granted {grant.granted:.0f} bps < minimum {minimum:.0f} bps "
                f"for SegR {reservation_id}",
                granted=grant.granted,
                at_as=self.matrix.node.isd_as,
            )
        self.commit(grant)
        return grant

    def release(self, reservation_id: ReservationId) -> None:
        """Remove an expired or torn-down SegR from the aggregates."""
        self.index.remove(reservation_id)

    def __len__(self) -> int:
        return len(self.index)
