"""Source-spoofing / bogus-traffic adversary (§5.1).

Two variants of the off-path adversary's forged Colibri traffic:

* **header forgery** — fabricate packets claiming a victim's SrcAS and
  reservation ID with guessed authentication tags; defeated by the HVF
  check (the adversary lacks every key involved);
* **tag reuse** — take an authentic packet and modify any authenticated
  field (source, bandwidth, payload size); defeated because Eqs. (4)/(6)
  bind all of them.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from repro.dataplane.router import Verdict
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs


@dataclass
class SpoofingReport:
    sent: int = 0
    accepted: int = 0
    rejected_bad_hvf: int = 0
    rejected_other: int = 0

    @property
    def all_rejected(self) -> bool:
        return self.accepted == 0 and self.sent > 0


class SpoofingAttack:
    """Forge Colibri packets naming ``victim`` as the source AS."""

    def __init__(self, network: ColibriNetwork, victim: IsdAs, target: IsdAs, seed: int = 1):
        self.network = network
        self.victim = victim
        self.target = target  # AS whose router receives the forgeries
        self._rng = random.Random(seed)

    def forge_fresh(self, count: int, path_pairs=((0, 1), (2, 0))) -> SpoofingReport:
        """Fabricated packets with random reservation IDs and random tags."""
        report = SpoofingReport()
        router = self.network.router(self.target)
        now = self.network.clock.now()
        for _ in range(count):
            res_info = ResInfo(
                reservation=ReservationId(self.victim, self._rng.randrange(1 << 31)),
                bandwidth=1e9,
                expiry=now + 10.0,
                version=1,
            )
            packet = ColibriPacket(
                packet_type=PacketType.EER_DATA,
                path=PathField(path_pairs),
                res_info=res_info,
                timestamp=Timestamp.create(now, res_info.expiry),
                hvfs=[
                    self._rng.getrandbits(32).to_bytes(4, "big")
                    for _ in range(len(path_pairs))
                ],
                eer_info=EerInfo(HostAddr(66), HostAddr(67)),
                payload=b"attack",
            )
            report.sent += 1
            self._classify(router.process(packet).verdict, report)
        return report

    def mutate_authentic(self, packet: ColibriPacket, count: int) -> SpoofingReport:
        """Field-tampering attempts against one captured authentic packet."""
        report = SpoofingReport()
        router = self.network.router(self.target)
        mutations = [
            lambda p: setattr(p, "res_info", p.res_info._replace(bandwidth=1e12)),
            lambda p: setattr(p, "payload", p.payload + b"pad"),
            lambda p: setattr(
                p,
                "res_info",
                p.res_info._replace(
                    reservation=ReservationId(
                        self.victim, (p.res_info.reservation.local_id + 1) % (1 << 31)
                    ),
                ),
            ),
            lambda p: setattr(p, "eer_info", EerInfo(HostAddr(66), HostAddr(67))),
        ]
        for index in range(count):
            mutant = copy.deepcopy(packet)
            mutant.hop_index = packet.hop_index
            mutations[index % len(mutations)](mutant)
            report.sent += 1
            self._classify(router.process(mutant).verdict, report)
        return report

    @staticmethod
    def _classify(verdict: Verdict, report: SpoofingReport) -> None:
        if verdict is Verdict.DROP_BAD_HVF:
            report.rejected_bad_hvf += 1
        elif verdict.is_drop:
            report.rejected_other += 1
        else:
            report.accepted += 1
