"""Multi-hop latency simulation (§9, "Low Overhead").

"Protecting performance-sensitive (e.g., low-latency) traffic is one of
the main benefits of bandwidth reservation systems.  However, if a
system's overhead creates similar or worse effects as congestion, as in
many past proposals, this benefit is negated."

:class:`PathPipeline` quantifies that benefit end to end: a packet walks
every on-path border router and then queues at each hop's output port
(a strict-priority :class:`~repro.dataplane.queueing.PriorityScheduler`),
while best-effort cross-traffic loads the same ports.  The
observable is per-packet **end-to-end latency**: Colibri EER packets see
only serialization + propagation, while best-effort packets see the
congestion backlog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.dataplane.queueing import PriorityScheduler, TrafficClass
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import IsdAs


@dataclass
class LatencyReport:
    delivered: bool
    latency: float  # seconds, end to end
    per_hop: list  # [(IsdAs, seconds)]
    dropped_at: Optional[IsdAs] = None


class PathPipeline:
    """End-to-end latency of packets along an EER's path."""

    def __init__(
        self,
        network: ColibriNetwork,
        handle,
        capacity: float,
        propagation: float = 0.001,
    ):
        self.network = network
        self.handle = handle
        self.propagation = propagation  # seconds per hop
        # Unbounded queues: cross traffic is a backlog to wait behind, never
        # tail-dropped (the §9 figure offers each port up to 100 MB at once).
        self.ports = {
            hop.isd_as: PriorityScheduler(capacity, queue_bytes=math.inf)
            for hop in handle.hops
        }

    def load_cross_traffic(self, rate: float, duration: float, ases=None) -> None:
        """Pour best-effort volume into (a subset of) the ports, drained to now first."""
        targets = ases if ases is not None else list(self.ports)
        for isd_as in targets:
            self.ports[isd_as].transit_delay(
                rate * duration / 8, TrafficClass.BEST_EFFORT, self.network.clock.now()
            )

    def send(self, payload: bytes, traffic_class: TrafficClass = TrafficClass.EER_DATA) -> LatencyReport:
        """One packet through routers + queues, accumulating latency.

        ``traffic_class`` overrides let the ablation push the same packet
        through the best-effort queues (no isolation).  The routers are
        walked by :meth:`~repro.sim.scenario.ColibriNetwork.send`; each
        accepting hop's port is then charged in path order (routers never
        read ports, so the delays are those of an interleaved walk).
        """
        now = self.network.clock.now()
        report = self.network.send(self.handle.hops[0].isd_as, self.handle, payload)
        size = report.packet.total_size
        latency = 0.0
        per_hop = []
        for isd_as, verdict in report.verdicts:
            if verdict.is_drop:
                return LatencyReport(
                    delivered=False,
                    latency=latency,
                    per_hop=per_hop,
                    dropped_at=isd_as,
                )
            hop_delay = (
                self.ports[isd_as].transit_delay(size, traffic_class, now + latency)
                + self.propagation
            )
            latency += hop_delay
            per_hop.append((isd_as, hop_delay))
        return LatencyReport(delivered=True, latency=latency, per_hop=per_hop)
