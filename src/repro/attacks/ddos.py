"""Volumetric DDoS orchestration (§5.1, threats 1-3 of §7.1).

Drives the three congestion vectors against a victim link —

1. best-effort floods (defeated by traffic-class isolation),
2. bogus Colibri floods (defeated by authentication),
3. reservation overuse by a rogue AS (defeated by monitoring/policing)

— and reports whether a benign reservation's traffic kept flowing.
:class:`VolumetricAttack` is the scenario driver behind both the §5
security tests and the §5 figure of ``benchmarks/figures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataPlaneError
from repro.packets.colibri import ColibriPacket
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import IsdAs


@dataclass
class AttackOutcome:
    benign_sent: int = 0
    benign_delivered: int = 0
    attack_sent: int = 0
    attack_delivered: int = 0
    attacker_blocked: bool = False
    drop_reasons: dict = field(default_factory=dict)

    @property
    def benign_delivery_rate(self) -> float:
        return self.benign_delivered / self.benign_sent if self.benign_sent else 0.0

    @property
    def attack_delivery_rate(self) -> float:
        return self.attack_delivered / self.attack_sent if self.attack_sent else 0.0


class VolumetricAttack:
    """Overuse attack: a rogue AS floods over a legitimate reservation.

    The rogue AS's gateway "fails" to monitor (the worst case of §7.1's
    threat 3): we disable its deterministic monitor, so every flood packet
    leaves the source AS validly stamped.  Transit policing must catch it.
    """

    def __init__(
        self,
        network: ColibriNetwork,
        attacker: IsdAs,
        benign: IsdAs,
        destination: IsdAs,
    ):
        self.network = network
        self.attacker = attacker
        self.benign = benign
        self.destination = destination

    def run(
        self,
        attack_handle,
        benign_handle,
        rounds: int = 2000,
        overuse_factor: float = 10.0,
        tick: float = 0.001,
    ) -> AttackOutcome:
        """Interleave benign (conforming) and attack (overusing) traffic.

        Per tick the benign source sends exactly its reserved share while
        the attacker sends ``overuse_factor`` times its own.  Packet sizes
        are chosen so one benign packet per tick equals the reserved rate.
        """
        outcome = AttackOutcome()
        rogue_gateway = self.network.gateway(self.attacker)
        # The rogue AS does not monitor its customers (§7.1 threat 3) —
        # neither at its gateway nor at its own border router.  Catching
        # the overuse is the job of the *other* on-path ASes (§4.8).
        rogue_gateway.monitor.unwatch(attack_handle.reservation_id.packed)
        rogue_router = self.network.router(self.attacker)
        rogue_router.ofd.overuse_factor = float("inf")

        benign_bytes = int(
            benign_handle.res_info.bandwidth * tick / 8
        )
        attack_bytes_per_tick = int(
            attack_handle.res_info.bandwidth * tick * overuse_factor / 8
        )
        attack_packet = max(200, benign_bytes)
        attack_count = max(1, attack_bytes_per_tick // attack_packet)
        benign_payload = b"b" * max(
            0, benign_bytes - ColibriPacket.header_size_for(len(benign_handle.hops))
        )
        attack_payload = b"a" * max(
            0, attack_packet - ColibriPacket.header_size_for(len(attack_handle.hops))
        )

        for _ in range(rounds):
            # Benign conforming packet.
            outcome.benign_sent += 1
            try:
                report = self.network.send(self.benign, benign_handle, benign_payload)
                if report.delivered:
                    outcome.benign_delivered += 1
                else:
                    self._count_drop(outcome, report)
            except DataPlaneError:
                pass
            # Attack burst.
            for _ in range(attack_count):
                outcome.attack_sent += 1
                try:
                    report = self.network.send(
                        self.attacker, attack_handle, attack_payload
                    )
                    if report.delivered:
                        outcome.attack_delivered += 1
                    else:
                        self._count_drop(outcome, report)
                except DataPlaneError:
                    # Rogue gateway re-arms its monitor? No: we unwatched,
                    # so this only happens on expiry.
                    pass
            self.network.advance(tick)

        on_path = [hop.isd_as for hop in attack_handle.hops[1:]]
        outcome.attacker_blocked = any(
            self.network.router(isd_as).blocklist.is_blocked(self.attacker)
            for isd_as in on_path
        )
        return outcome

    @staticmethod
    def _count_drop(outcome: AttackOutcome, report) -> None:
        for _, verdict in report.verdicts:
            if verdict.is_drop:
                outcome.drop_reasons[verdict] = (
                    outcome.drop_reasons.get(verdict, 0) + 1
                )
