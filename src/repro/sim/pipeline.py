"""Multi-hop latency simulation (§9, "Low Overhead").

"Protecting performance-sensitive (e.g., low-latency) traffic is one of
the main benefits of bandwidth reservation systems.  However, if a
system's overhead creates similar or worse effects as congestion, as in
many past proposals, this benefit is negated."

:class:`PathPipeline` quantifies that benefit end to end: a packet walks
every on-path border router and then queues at each hop's output port
(strict-priority classes over :class:`~repro.dataplane.queueing`
semantics), while best-effort cross-traffic loads the same ports.  The
observable is per-packet **end-to-end latency**: Colibri EER packets see
only serialization + propagation, while best-effort packets see the
congestion backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dataplane.queueing import TrafficClass
from repro.dataplane.router import Verdict
from repro.errors import ColibriError
from repro.packets.colibri import ColibriPacket, WirePacketView
from repro.packets.wire import PacketArena
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import IsdAs


@dataclass
class HopPort:
    """One hop's output port as a fluid priority queue.

    Tracks per-class backlog in bytes; arrivals join their class, and
    the virtual service process drains strictly by priority.  A packet's
    queueing delay is the time to serve everything ahead of it.
    """

    capacity: float  # bits per second
    propagation: float = 0.001  # seconds
    backlog: dict = field(
        default_factory=lambda: {cls: 0.0 for cls in TrafficClass}
    )
    _last_drain: float = 0.0

    def _drain_to(self, now: float) -> None:
        budget = max(0.0, (now - self._last_drain)) * self.capacity / 8
        self._last_drain = now
        for traffic_class in TrafficClass:  # priority order
            take = min(budget, self.backlog[traffic_class])
            self.backlog[traffic_class] -= take
            budget -= take
            if budget <= 0:
                break

    def offer_cross_traffic(self, size_bytes: float, traffic_class: TrafficClass, now: float) -> None:
        """Background load joining the queue (not individually tracked)."""
        self._drain_to(now)
        self.backlog[traffic_class] += size_bytes

    def transit_delay(self, size_bytes: int, traffic_class: TrafficClass, now: float) -> float:
        """Delay a tracked packet experiences crossing this hop now.

        Queueing (everything at equal-or-higher priority ahead of it) +
        its own serialization + propagation.  The packet's bytes join the
        backlog so later packets queue behind it.
        """
        self._drain_to(now)
        ahead = sum(
            self.backlog[cls] for cls in TrafficClass if cls <= traffic_class
        )
        self.backlog[traffic_class] += size_bytes
        return (ahead + size_bytes) * 8 / self.capacity + self.propagation


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
        self.ports = {
            hop.isd_as: HopPort(capacity=capacity, propagation=propagation)
            for hop in handle.hops
        }

    def load_cross_traffic(self, rate: float, duration: float, ases=None) -> None:
        """Pour best-effort volume into (a subset of) the hop ports."""
        targets = ases if ases is not None else list(self.ports)
        for isd_as in targets:
            self.ports[isd_as].offer_cross_traffic(
                rate * duration / 8,
                TrafficClass.BEST_EFFORT,
                self.network.clock.now(),
            )

    def send(self, payload: bytes, traffic_class: TrafficClass = TrafficClass.EER_DATA) -> LatencyReport:
        """One packet through routers + queues, accumulating latency.

        ``traffic_class`` overrides let the ablation push the same packet
        through the best-effort queues (no isolation).
        """
        gateway = self.network.gateway(self.handle.hops[0].isd_as)
        packet = gateway.send(self.handle.reservation_id, payload)
        now = self.network.clock.now()
        latency = 0.0
        per_hop = []
        while True:
            isd_as = self.handle.hops[packet.hop_index].isd_as
            router = self.network.router(isd_as)
            result = router.process(packet)
            if result.verdict.is_drop:
                return LatencyReport(
                    delivered=False,
                    latency=latency,
                    per_hop=per_hop,
                    dropped_at=isd_as,
                )
            hop_delay = self.ports[isd_as].transit_delay(
                packet.total_size, traffic_class, now + latency
            )
            latency += hop_delay
            per_hop.append((isd_as, hop_delay))
            if result.verdict in (Verdict.DELIVER_HOST, Verdict.DELIVER_CSERV):
                return LatencyReport(
                    delivered=True, latency=latency, per_hop=per_hop
                )
            if result.verdict is not Verdict.FORWARD:
                raise ColibriError(f"unexpected verdict {result.verdict}")

    def send_batch(
        self,
        payloads: list,
        traffic_class: TrafficClass = TrafficClass.EER_DATA,
    ) -> List[LatencyReport]:
        """A burst through the batched fast paths, wave by wave.

        One :meth:`~repro.dataplane.gateway.ColibriGateway.send_batch`
        stamps the whole burst, then each hop's router handles the wave
        with one :meth:`~repro.dataplane.router.BorderRouter.process_batch`
        call.  Verdicts are identical to sequential :meth:`send` calls;
        *latencies* model the burst arriving back-to-back, so packets
        queue behind their batch-mates at every port (a burst is a burst
        — sequential sends would interleave drains between packets).
        Returns one report per payload, aligned; gateway drops come back
        undelivered with ``dropped_at`` set to the source AS.
        """
        gateway = self.network.gateway(self.handle.hops[0].isd_as)
        outcomes = gateway.send_batch(
            [(self.handle.reservation_id, payload) for payload in payloads]
        )
        return self._walk(outcomes, ColibriPacket, _process_hop, traffic_class)

    def send_batch_wire(
        self,
        payloads: list,
        traffic_class: TrafficClass = TrafficClass.EER_DATA,
        arena: Optional[PacketArena] = None,
    ) -> List[LatencyReport]:
        """:meth:`send_batch` over zero-copy wire forms.

        The gateway stamps the burst straight into a packet arena
        (:meth:`~repro.dataplane.gateway.ColibriGateway.send_batch_wire`),
        each hop's router validates the views in place
        (:meth:`~repro.dataplane.router.BorderRouter.validate_wire_batch`),
        and forwarding advances the wire hop pointer with a one-byte
        in-place patch — no packet object and no reserialization
        anywhere on the path.  This models the EER *forwarding* fast
        path: a packet validating at every hop is delivered at the
        last one, a packet failing validation drops at that AS
        (control-plane verdicts never arise for EER data packets).
        Latency accounting is identical to :meth:`send_batch`.

        Pass ``arena`` to reuse one slab across bursts; by default a
        burst-sized arena is allocated here.
        """
        gateway = self.network.gateway(self.handle.hops[0].isd_as)
        if arena is None:
            header = ColibriPacket.header_size_for(
                len(self.handle.hops), is_eer_data=True
            )
            slot = header + max(
                (len(payload) for payload in payloads), default=0
            )
            arena = PacketArena(slots=max(1, len(payloads)), slot_size=slot)
        outcomes = gateway.send_batch_wire(
            [(self.handle.reservation_id, payload) for payload in payloads],
            arena,
        )
        return self._walk(outcomes, WirePacketView, _validate_hop, traffic_class)

    def _walk(
        self, outcomes: list, packet_type: type, step, traffic_class: TrafficClass
    ) -> List[LatencyReport]:
        """Carry a stamped burst hop by hop to delivery or drop.

        ``step(router, packets)`` is the per-hop router work: it returns
        one fate per packet — ``None`` dropped here, ``True`` delivered
        here, ``False`` forwarded (hop pointer already advanced).
        Outcomes that are not ``packet_type`` are gateway drops.
        """
        source = self.handle.hops[0].isd_as
        now = self.network.clock.now()
        reports: List[Optional[LatencyReport]] = [None] * len(outcomes)
        wave = []
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, packet_type):
                wave.append((index, outcome, 0.0, []))
            else:
                reports[index] = LatencyReport(
                    delivered=False, latency=0.0, per_hop=[], dropped_at=source
                )
        while wave:
            # All burst packets share the handle's path, so one wave sits
            # at one AS and one router call covers it.
            isd_as = self.handle.hops[wave[0][1].hop_index].isd_as
            fates = step(
                self.network.router(isd_as), [packet for _, packet, _, _ in wave]
            )
            port = self.ports[isd_as]
            next_wave = []
            for (index, packet, latency, per_hop), delivered in zip(wave, fates):
                if delivered is None:
                    reports[index] = LatencyReport(
                        delivered=False,
                        latency=latency,
                        per_hop=per_hop,
                        dropped_at=isd_as,
                    )
                    continue
                hop_delay = port.transit_delay(
                    packet.total_size, traffic_class, now + latency
                )
                latency += hop_delay
                per_hop.append((isd_as, hop_delay))
                if delivered:
                    reports[index] = LatencyReport(
                        delivered=True, latency=latency, per_hop=per_hop
                    )
                else:
                    next_wave.append((index, packet, latency, per_hop))
            wave = next_wave
        return reports


def _process_hop(router, packets: list) -> list:
    """Per-hop step over packet objects: the full §4.6 pipeline."""
    fates = []
    for result in router.process_batch(packets):
        verdict = result.verdict
        if verdict.is_drop:
            fates.append(None)
        elif verdict in (Verdict.DELIVER_HOST, Verdict.DELIVER_CSERV):
            fates.append(True)
        elif verdict is Verdict.FORWARD:
            fates.append(False)
        else:
            raise ColibriError(f"unexpected verdict {verdict}")
    return fates


def _validate_hop(router, views: list) -> list:
    """Per-hop step over wire views: in-place validation, then the
    one-byte hop-pointer patch a forwarding router performs."""
    fates = []
    for view, valid in zip(views, router.validate_wire_batch(views)):
        if not valid:
            fates.append(None)
        elif view.hop_index + 1 >= view.hop_count:
            fates.append(True)
        else:
            view.advance_hop()
            fates.append(False)
    return fates
