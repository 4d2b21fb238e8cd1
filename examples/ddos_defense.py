#!/usr/bin/env python3
"""The §5 DDoS-resilience analysis, live: four adversaries, four defences.

1. replay    — an on-path AS re-injects captured packets   -> suppressed
2. spoofing  — forged packets framing a victim source AS   -> dropped
3. overuse   — a rogue AS floods over its own reservation  -> policed + blocked
4. DoC flood — setup-request flood against a CServ         -> rate limited,
               while the victim's renewal (protected control traffic) succeeds

Run:  python examples/ddos_defense.py
"""

from repro import ColibriNetwork, IsdAs
from repro.attacks import DocAttack, ReplayAttack, SpoofingAttack, VolumetricAttack
from repro.topology import build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
VICTIM = IsdAs(1, BASE + 101)
ROGUE = IsdAs(1, BASE + 111)
DST = IsdAs(2, BASE + 101)
CORE2 = IsdAs(2, BASE + 1)


def banner(title):
    print(f"\n=== {title} {'=' * (60 - len(title))}")


def replay_demo(network):
    banner("1. replay attack (on-path adversary, §5.1)")
    handle = network.establish_eer(VICTIM, DST, mbps(10))
    attack = ReplayAttack(network, vantage=CORE2)
    for index in range(5):
        attack.observe_delivery(network.send(VICTIM, handle, f"pkt{index}".encode()))
    outcome = attack.replay(copies=20)
    print(f"captured {outcome.captured} packets, replayed {outcome.replayed}")
    print(f"suppressed by duplicate filter: {outcome.replays_suppressed}")
    print(f"honest source framed/blocked:   {outcome.victim_blocked}")


def spoofing_demo(network):
    banner("2. source spoofing / bogus Colibri packets (§5.1, §7.1)")
    attack = SpoofingAttack(network, victim=VICTIM, target=IsdAs(1, BASE + 1))
    report = attack.forge_fresh(count=500)
    print(f"forged packets sent: {report.sent}")
    print(f"rejected by HVF check: {report.rejected_bad_hvf}")
    print(f"accepted: {report.accepted}")
    blocked = network.router(IsdAs(1, BASE + 1)).blocklist.is_blocked(VICTIM)
    print(f"victim blocked by framing: {blocked}")


def overuse_demo(network):
    banner("3. reservation overuse by a rogue AS (§5.1, Table 2 phase 3)")
    network.reserve_segments(ROGUE, DST, gbps(1))
    benign_handle = network.establish_eer(VICTIM, DST, mbps(8))
    rogue_handle = network.establish_eer(ROGUE, DST, mbps(8))
    attack = VolumetricAttack(network, ROGUE, VICTIM, DST)
    outcome = attack.run(rogue_handle, benign_handle, rounds=600, overuse_factor=10.0)
    print(f"rogue offered 10x its reservation ({outcome.attack_sent} packets)")
    print(f"rogue delivery rate:  {outcome.attack_delivery_rate:.1%}")
    print(f"rogue AS blocked:     {outcome.attacker_blocked}")
    print(f"benign delivery rate: {outcome.benign_delivery_rate:.1%}")


def doc_demo(network):
    banner("4. denial-of-capability flood against a CServ (§5.3)")
    victim_handle = network.establish_eer(VICTIM, DST, mbps(5))
    target_cserv = network.cserv(IsdAs(2, BASE + 1))
    target_cserv.request_limiter.rate = 5.0
    target_cserv.request_limiter.burst = 5.0
    attack = DocAttack(network, attacker=IsdAs(1, BASE + 1), target=IsdAs(2, BASE + 1))
    report = attack.flood_requests(count=60)
    network.advance(2.0)
    renewed = attack.victim_renewal_under_flood(victim_handle, VICTIM)
    print(f"flood requests sent: {report.flood_sent}")
    print(f"rejected by per-AS rate limiting: {report.flood_rejected}")
    print(f"victim EER renewal during flood succeeded: {renewed}")


def main():
    network = ColibriNetwork(build_two_isd_topology())
    network.reserve_segments(VICTIM, DST, gbps(1))
    replay_demo(network)
    spoofing_demo(network)
    overuse_demo(network)
    doc_demo(network)
    print("\nall four attacks defeated; reservation guarantees held.")


if __name__ == "__main__":
    main()
