"""Link-level simulation of the data-plane protection experiment (§7.1).

The paper's testbed sends "different mixtures of best-effort and
authentic and unauthentic Colibri traffic over the three input ports,
where the packets are all destined to the same output port" and measures
per-class output rates (Table 2).  :class:`PortSim` reproduces that
geometry:

* several input streams (traffic sources from :mod:`repro.sim.traffic`);
* one border router, which authenticates/polices every Colibri packet;
* one output port with strict-priority class queues
  (:class:`~repro.dataplane.queueing.PriorityScheduler`).

Per tick, arriving packets are run through the router, survivors are
enqueued in their class under their row's label, and the scheduler drains
one tick of the output capacity.  The port credits every byte it sends to
its packet's label, which gives exactly the rows of Table 2.
"""

from __future__ import annotations

from collections import defaultdict

from repro.dataplane.queueing import PriorityScheduler, TrafficClass
from repro.dataplane.router import BorderRouter
from repro.util.clock import SimClock


class AtHop:
    """Adapter placing a source's packets at the measuring router's hop.

    Sources stamp packets at hop 0 (the source AS); the Table 2 router
    sits mid-path, so its position must be set before processing.
    """

    def __init__(self, source, hop_index: int):
        self.source = source
        self.hop_index = hop_index

    def packets(self, now: float, tick: float):
        for packet in self.source.packets(now, tick):
            packet.hop_index = self.hop_index
            yield packet


class PortSim:
    """Three-inputs-one-output congestion experiment (Table 2)."""

    def __init__(self, router: BorderRouter, clock: SimClock, capacity: float):
        self.router = router
        self.clock = clock
        self.scheduler = PriorityScheduler(capacity)
        self.input_bytes: dict = defaultdict(int)  # (port, label) -> bytes
        self.router_drops: dict = defaultdict(int)  # verdict -> count

    # Labels: reservations are tracked individually, other traffic by class.
    BEST_EFFORT = "best-effort"
    UNAUTH = "colibri-unauthentic"

    def run(
        self,
        duration: float,
        colibri_inputs: list,
        best_effort_inputs: list,
        tick: float = 0.001,
    ) -> dict:
        """Drive the port for ``duration`` seconds.

        ``colibri_inputs`` — list of ``(port, source, label)`` where the
        source yields Colibri packets per tick and ``label`` names the
        output row (a reservation name or :data:`UNAUTH`).
        ``best_effort_inputs`` — list of ``(port, source)`` yielding raw
        sizes.

        Returns ``{label: output_gbps}``.
        """
        steps = int(round(duration / tick))
        for _step in range(steps):
            now = self.clock.now()
            for port, source, label in colibri_inputs:
                for packet in source.packets(now, tick):
                    size = packet.total_size
                    self.input_bytes[(port, label)] += size
                    result = self.router.process(packet)
                    if result.verdict.is_drop:
                        self.router_drops[result.verdict] += 1
                        continue
                    self.scheduler.enqueue(size, TrafficClass.EER_DATA, label)
            for port, source in best_effort_inputs:
                for size in source.sizes(now, tick):
                    self.input_bytes[(port, self.BEST_EFFORT)] += size
                    self.scheduler.enqueue(size, TrafficClass.BEST_EFFORT, self.BEST_EFFORT)
            self.scheduler.drain(tick)
            self.clock.advance(tick)
        return {
            label: total * 8 / duration / 1e9
            for label, total in self.scheduler.sent_by_label.items()
        }
