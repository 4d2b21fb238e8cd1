"""Denial-of-capability attacks on reservation setup (§5.3).

"The only remaining avenue for malicious actors is to try and prevent
legitimate ASes or end hosts to set up Colibri reservations in the first
place": (i) exhaust the CServ with bogus requests, (ii) congest the
network so setup packets never arrive.

Defences exercised here:

* per-AS rate limiting at the CServ drops the flood cheaply;
* renewals travel *over existing reservations* and are therefore immune
  to best-effort congestion — modelled by the bus staying reachable for
  reservation-borne control traffic while the "best-effort path" is
  saturated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ColibriError, RateLimited
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import IsdAs


@dataclass
class DocReport:
    flood_sent: int = 0
    flood_rejected: int = 0
    victim_renewal_succeeded: bool = False


class DocAttack:
    """Request-flood the CServ of ``target`` from ``attacker``."""

    def __init__(self, network: ColibriNetwork, attacker: IsdAs, target: IsdAs):
        self.network = network
        self.attacker = attacker
        self.target = target

    def flood_requests(self, count: int) -> DocReport:
        """Hammer the target CServ with setup requests from one AS.

        The attacker uses syntactically valid, DRKey-authenticated
        requests (it is a real AS) — rate limiting, not authentication,
        is the defence being measured.
        """
        report = DocReport()
        attacker_cserv = self.network.cserv(self.attacker)
        # Find any segment from attacker towards the target to flood over.
        segments = self.network.beaconing.core_segments(self.attacker, self.target)
        if not segments:
            paths = self.network.path_lookup.paths(self.attacker, self.target, limit=1)
            segments = [paths[0].segments[0]]
        segment = segments[0]
        for _ in range(count):
            report.flood_sent += 1
            try:
                attacker_cserv.setup_segment(segment, 1e6, register=False)
            except RateLimited:
                report.flood_rejected += 1
            except ColibriError:
                report.flood_rejected += 1
        return report

    def victim_renewal_under_flood(self, victim_handle, victim: IsdAs) -> bool:
        """Can the victim still renew its EER during the flood?

        Renewals ride the existing reservation (protected control
        traffic, §5.3), so they bypass the congested best-effort path and
        the per-AS limiter state of the *attacker* — the victim's own
        budget is untouched.
        """
        try:
            self.network.cserv(victim).renew_eer(victim_handle)
            return True
        except ColibriError:
            return False
