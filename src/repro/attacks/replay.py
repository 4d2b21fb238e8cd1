"""On-path capture-and-replay adversary (§5.1, framing DoS).

"An adversary could try to turn the monitoring subsystem against benign
ASes by […] capturing and replaying legitimate packets to overuse the
reserved bandwidth, thus framing the legitimate source."

The attacker sits at an on-path AS, records authenticated packets
crossing it, and re-injects copies at a later hop at high rate.  The
defence is the in-network duplicate suppression at benign ASes: "all
copies of the same packet are thus discarded."
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.dataplane.router import Verdict
from repro.packets.colibri import ColibriPacket
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import IsdAs


@dataclass
class ReplayReport:
    captured: int = 0
    replayed: int = 0
    replays_delivered: int = 0
    replays_suppressed: int = 0
    victim_blocked: bool = False


class ReplayAttack:
    """Capture packets at ``vantage`` and replay them ``copies`` times."""

    def __init__(self, network: ColibriNetwork, vantage: IsdAs):
        self.network = network
        self.vantage = vantage
        self._captured: list = []

    def capture(self, packet: ColibriPacket) -> None:
        """Record a packet as it crosses the compromised AS.

        A deep copy models the wire tap: the original continues unchanged.
        """
        self._captured.append(copy.deepcopy(packet))

    def observe_delivery(self, report) -> None:
        """Convenience: capture from a :class:`DeliveryReport` if the
        packet crossed the vantage AS."""
        if any(isd_as == self.vantage for isd_as, _ in report.verdicts):
            self.capture(report.packet)

    def replay(self, copies: int = 10) -> ReplayReport:
        """Re-inject every captured packet ``copies`` times at the
        vantage point's router."""
        report = ReplayReport(captured=len(self._captured))
        router = self.network.router(self.vantage)
        for original in self._captured:
            for _ in range(copies):
                packet = copy.deepcopy(original)
                # Reset the hop pointer to the vantage AS's position so
                # the replay looks exactly like the original arrival.
                packet.hop_index = self._vantage_index(packet)
                report.replayed += 1
                result = router.process(packet)
                if result.verdict is Verdict.DROP_DUPLICATE:
                    report.replays_suppressed += 1
                elif not result.verdict.is_drop:
                    report.replays_delivered += 1
        victim = self._captured[0].res_info.src_as if self._captured else None
        if victim is not None:
            report.victim_blocked = router.blocklist.is_blocked(victim)
        return report

    def _vantage_index(self, packet: ColibriPacket) -> int:
        source_cserv = self.network.cserv(packet.res_info.src_as)
        reservation = source_cserv.store.get_eer(packet.res_info.reservation)
        for index, hop in enumerate(reservation.hops):
            if hop.isd_as == self.vantage:
                return index
        raise ValueError(f"vantage AS {self.vantage} is not on the packet's path")
