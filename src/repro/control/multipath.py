"""Path choice and multipath reservations (§2.1).

Path-aware networking gives Colibri two abilities the paper calls out:

* **fallback** — "in case the reservation request cannot be met on the
  first path, Colibri can attempt to make a reservation on the
  alternative paths, which increases the probability of a successful
  reservation";
* **multipath** — "multiple reservations across multiple paths can also
  be used, e.g., by a multipath transport protocol."

:func:`reserve_segments_with_fallback` implements the first over a
:class:`~repro.sim.scenario.ColibriNetwork`;
:class:`MultipathEer` implements the second: several EERs over distinct
SegR chains with weighted scheduling and failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AdmissionDenied, ColibriError, InsufficientBandwidth, NoPathError
from repro.topology.addresses import HostAddr, IsdAs


@dataclass
class FallbackResult:
    """What :func:`reserve_segments_with_fallback` achieved."""

    reservations: list  # SegmentReservation records of the winning path
    path_index: int  # which candidate path succeeded (0 = first choice)
    attempts: int  # paths tried
    failures: list  # [(path, error)] for the paths that did not admit


def reserve_segments_with_fallback(
    network,
    source: IsdAs,
    destination: IsdAs,
    bandwidth: float,
    minimum: float = 0.0,
    max_paths: int = 5,
) -> FallbackResult:
    """Set up a SegR chain, falling back across alternative paths.

    Tries the candidate paths the path-aware substrate offers, shortest
    first.  A path fails cleanly — the admission rollback guarantees no
    temporary reservations linger (§3.3) — before the next is tried.
    """
    paths = network.path_lookup.paths(source, destination, limit=max_paths)
    failures = []
    for index, path in enumerate(paths):
        created = []
        try:
            for segment in path.segments:
                initiator = network.cserv(segment.first_as)
                created.append(
                    initiator.setup_segment(segment, bandwidth, minimum=minimum)
                )
            return FallbackResult(
                reservations=created,
                path_index=index,
                attempts=index + 1,
                failures=failures,
            )
        except AdmissionDenied as denial:
            failures.append((path, denial))
            # Earlier segments of this chain admitted; they simply expire
            # (no explicit removal exists for SegRs, §4.2) — but free the
            # admission state right away so fallbacks see true capacity.
            for reservation in created:
                for hop in reservation.segment.hops:
                    cserv = network.cserv(hop.isd_as)
                    if cserv.store.has_segment(reservation.reservation_id):
                        cserv.store.remove_segment(reservation.reservation_id)
                        cserv._forget_segment(reservation.reservation_id)
    raise InsufficientBandwidth(
        f"no path from {source} to {destination} admits "
        f"{bandwidth:.0f} bps (tried {len(paths)})",
        granted=max(
            (denial.granted for _, denial in failures), default=0.0
        ),
    )


@dataclass
class _Subflow:
    handle: object  # EerHandle
    weight: float
    sent: int = 0
    delivered: int = 0
    alive: bool = True


class MultipathEer:
    """Several EERs over distinct paths, used as one logical pipe.

    Packets are scheduled across subflows by deficit weighted round
    robin on the reserved bandwidths; a subflow whose packets start
    dying (path failure, expiry) is marked dead and its share shifts to
    the survivors — the availability benefit §2.1 promises.
    """

    def __init__(self, network, source: IsdAs):
        self.network = network
        self.source = source
        self._subflows: list[_Subflow] = []
        self._deficits: list[float] = []

    @classmethod
    def establish(
        cls,
        network,
        source: IsdAs,
        destination: IsdAs,
        bandwidth_each: float,
        subflows: int = 2,
        src_host: HostAddr = HostAddr(1),
        dst_host: HostAddr = HostAddr(2),
    ) -> "MultipathEer":
        """Open up to ``subflows`` EERs over *distinct* SegR chains.

        Distinctness is judged on the AS sequence; fewer chains than
        requested is fine as long as at least one admits.
        """
        multipath = cls(network, source)
        cserv = network.cserv(source)
        candidates = {}
        for descriptors, path in cserv.find_segment_chains(
            destination, limit=subflows * 3
        ):
            candidates.setdefault(path.ases, (descriptors, path))
        # Prefer maximally AS-disjoint chains: subflows that share no
        # transit AS share no fate (§2.1).
        from repro.topology.selection import most_disjoint

        ordered = most_disjoint(
            [path for _, path in candidates.values()], count=len(candidates)
        )
        for path in ordered:
            descriptors, path = candidates[path.ases]
            try:
                handle = cserv.setup_eer(
                    destination,
                    src_host,
                    dst_host,
                    bandwidth_each,
                    chain=(descriptors, path),
                )
            except ColibriError:
                continue
            multipath.add_subflow(handle)
            if len(multipath._subflows) >= subflows:
                break
        if not multipath._subflows:
            raise NoPathError(
                f"no EER could be established from {source} to {destination}"
            )
        return multipath

    def add_subflow(self, handle, weight: Optional[float] = None) -> None:
        if weight is None:
            weight = handle.res_info.bandwidth
        self._subflows.append(_Subflow(handle=handle, weight=weight))
        self._deficits.append(0.0)

    @property
    def subflow_count(self) -> int:
        return len(self._subflows)

    def live_subflows(self) -> list:
        return [subflow for subflow in self._subflows if subflow.alive]

    @property
    def aggregate_bandwidth(self) -> float:
        return sum(s.handle.res_info.bandwidth for s in self.live_subflows())

    def _pick(self) -> int:
        """Deficit-weighted choice among live subflows."""
        live = [
            (index, subflow)
            for index, subflow in enumerate(self._subflows)
            if subflow.alive
        ]
        if not live:
            raise ColibriError("all multipath subflows are dead")
        total = sum(subflow.weight for _, subflow in live)
        for index, subflow in live:
            self._deficits[index] += subflow.weight / total
        index = max(live, key=lambda pair: self._deficits[pair[0]])[0]
        self._deficits[index] -= 1.0
        return index

    def send(self, payload: bytes):
        """Send one packet over the next scheduled subflow; on network
        drop, mark the subflow dead and retry over a survivor."""
        while True:
            index = self._pick()
            subflow = self._subflows[index]
            subflow.sent += 1
            try:
                report = self.network.send(self.source, subflow.handle, payload)
            except ColibriError:
                subflow.alive = False
                continue
            if report.delivered:
                subflow.delivered += 1
                return report
            subflow.alive = False

    def distribution(self) -> dict:
        """Delivered-packet counts per subflow path (for tests/telemetry)."""
        return {
            tuple(hop.isd_as for hop in subflow.handle.hops): subflow.delivered
            for subflow in self._subflows
        }
