"""Operator health reporting: one seeded scenario, one readable verdict.

``python -m repro health`` drives a small two-ISD deployment with the
full observability stack armed (journal + SLO burn-rate alerting, with
the simulation clock doubling as the latency clock so every number is
byte-deterministic per seed), optionally injects the §7.1 threat-3
overuse attacker, and renders what an on-call operator would want at a
glance:

* the SLO table — each objective's alert state and burn rates;
* firing alerts (a clean run fires none; the attack run burns the
  hop-drop-ratio budget);
* journal statistics and the noisiest reservations by event volume;
* §5 overuse evidence assembled from the journal by
  :class:`~repro.obs.forensics.EvidenceBuilder` and re-checked by
  :func:`~repro.obs.forensics.verify_evidence`.

The module is deliberately CLI-shaped but importable: tests call
:func:`run_health_scenario` + :func:`health_report` directly and assert
on the dict.
"""

from __future__ import annotations

import json

from repro.obs.forensics import EvidenceBuilder, verify_evidence
from repro.packets.colibri import ColibriPacket
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.generator import build_two_isd_topology
from repro.util.units import format_bandwidth, gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)
ATTACKER = IsdAs(1, BASE + 111)

#: Engine sampling stride: one AlertEngine tick per this many rounds.
TICK_EVERY = 5


def run_health_scenario(
    seed: int = 0,
    attack: bool = False,
    rounds: int = 1500,
    tick: float = 0.001,
    overuse_factor: float = 10.0,
):
    """Run the canonical health workload; returns ``(network, obs)``.

    Benign traffic flows at exactly its reserved rate throughout.  With
    ``attack=True`` a rogue AS (its gateway "forgetting" to monitor, its
    own border router's OFD blinded — §7.1 threat 3) floods
    ``overuse_factor`` times its reservation over the same destination,
    so transit policing must catch it.  The burn-rate engine is ticked
    throughout; everything downstream is deterministic per ``seed``.
    """
    network = ColibriNetwork(build_two_isd_topology())
    obs = network.enable_observability(
        seed=seed, journal=True, slos=True, perf=network.clock
    )
    network.reserve_segments(SRC, DST, gbps(1))
    network.reserve_segments(ATTACKER, DST, gbps(1))
    benign_handle = network.establish_eer(
        SRC, DST, mbps(8), src_host=HostAddr(1), dst_host=HostAddr(2)
    )
    benign_bytes = int(benign_handle.res_info.bandwidth * tick / 8)
    # Both EERs run from a stub under ISD 1's core to DST: one header size.
    header = ColibriPacket.header_size_for(len(benign_handle.hops))
    attack_handle = None
    attack_count = 0
    if attack:
        attack_handle = network.establish_eer(
            ATTACKER, DST, mbps(8), src_host=HostAddr(3), dst_host=HostAddr(2)
        )
        # The rogue AS does not police its own customers (§7.1 threat 3).
        network.gateway(ATTACKER).monitor.unwatch(
            attack_handle.reservation_id.packed
        )
        network.router(ATTACKER).ofd.overuse_factor = float("inf")
        attack_bytes = int(
            attack_handle.res_info.bandwidth * tick * overuse_factor / 8
        )
        attack_packet = max(200, benign_bytes)
        attack_count = max(1, attack_bytes // attack_packet)
    for index in range(rounds):
        network.send(SRC, benign_handle, b"b" * max(0, benign_bytes - header))
        for _ in range(attack_count):
            network.send(ATTACKER, attack_handle, b"a" * max(0, attack_packet - header))
        network.advance(tick)
        if index % TICK_EVERY == 0:
            obs.alerts.tick()
    obs.alerts.tick()
    return network, obs


# -- report assembly ---------------------------------------------------------------


def health_report(network, obs) -> dict:
    """The full health snapshot as one JSON-serializable dict."""
    alerts = [
        {
            "slo": alert.slo,
            "state": alert.state,
            "since": alert.since,
            "fast_burn": round(alert.fast_burn, 6),
            "slow_burn": round(alert.slow_burn, 6),
        }
        for alert in obs.alerts.alerts()
    ]
    journal = obs.journal
    evidence = []
    builder = EvidenceBuilder(journal)
    for flow in builder.confirmed_flows():
        record = builder.build(flow)
        problems = verify_evidence(record, journal)
        evidence.append(
            {
                "flow": record.flow,
                "reservation": record.reservation,
                "src_as": record.src_as,
                "isd_as": record.isd_as,
                "admitted_bps": record.admitted_bps,
                "drop_count": record.drop_count,
                "dropped_bytes": record.dropped_bytes,
                "ofd_hits": record.ofd_hits,
                "drkey_epoch": record.drkey_epoch,
                "samples": len(record.sample_packets),
                "accepted": not problems,
                "problems": problems,
            }
        )
    return {
        "slos": alerts,
        "firing": sorted(a["slo"] for a in alerts if a["state"] == "firing"),
        "journal": {
            **journal.stats(),
            "by_type": journal.count_by_type(),
        },
        "noisy_reservations": _noisy_reservations(journal),
        "evidence": evidence,
        "telemetry_total": network.telemetry()["total"],
    }


def _noisy_reservations(journal) -> list:
    """The five reservations with the most journal events, noisiest first."""
    counts: dict = {}
    for event in journal.events():
        reservation = event.attrs.get("reservation")
        if reservation is not None:
            counts[reservation] = counts.get(reservation, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"reservation": reservation, "events": count}
        for reservation, count in ranked[:5]
    ]


# -- rendering ---------------------------------------------------------------------


def render_health(report: dict) -> str:
    """The text form of :func:`health_report` — the on-call view."""
    lines = ["== SLOs =="]
    if report["slos"]:
        width = max(len(a["slo"]) for a in report["slos"])
        for alert in report["slos"]:
            lines.append(
                f"  {alert['slo']:<{width}}  {alert['state']:<8}"
                f"  fast={alert['fast_burn']:.3f}  slow={alert['slow_burn']:.3f}"
            )
    else:
        lines.append("  (no SLOs registered)")
    firing = report["firing"]
    lines.append("== Firing alerts ==")
    lines.append(
        "  " + (", ".join(firing) if firing else "none — error budgets intact")
    )
    stats = report["journal"]
    lines.append("== Event journal ==")
    lines.append(
        f"  {stats['total']} events recorded, {stats['retained']} retained "
        f"(capacity {stats['capacity']}, {stats['dropped']} evicted)"
    )
    for event_type, count in sorted(stats["by_type"].items()):
        lines.append(f"    {event_type}: {count}")
    lines.append("== Noisy reservations ==")
    if report["noisy_reservations"]:
        for entry in report["noisy_reservations"]:
            lines.append(f"  {entry['reservation']}: {entry['events']} events")
    else:
        lines.append("  none")
    lines.append("== Overuse evidence ==")
    if report["evidence"]:
        for record in report["evidence"]:
            verdict = "ACCEPTED" if record["accepted"] else "REJECTED"
            lines.append(
                f"  flow {record['flow']} (res {record['reservation']}, "
                f"src {record['src_as']}) confirmed at {record['isd_as']}: "
                f"{record['drop_count']} verified drops, "
                f"{record['ofd_hits']} OFD hits, admitted "
                f"{format_bandwidth(record['admitted_bps'])} — {verdict}"
            )
            for problem in record["problems"]:
                lines.append(f"    ! {problem}")
    else:
        lines.append("  none — no monitor-confirmed overuse")
    return "\n".join(lines) + "\n"


def render_events(obs) -> str:
    """Trace spans and journal events interleaved chronologically.

    The ``trace --events`` view: spans sort by start time, journal
    events by record time; ties resolve spans-first (a drop's span opens
    before its journal event is emitted).  Deterministic per seed.
    """
    entries = []
    for span in obs.tracer.spans():
        end = f"{span.end:.6f}" if span.end is not None else "open"
        entries.append(
            (span.start, 0, f"[span ] {span.start:.6f}..{end} {span.name}")
        )
    if obs.journal is not None:
        for event in obs.journal.events():
            attrs = json.dumps(event.attrs, sort_keys=True)
            entries.append(
                (event.time, 1, f"[event] {event.time:.6f} {event.type} {attrs}")
            )
    entries.sort(key=lambda item: (item[0], item[1]))
    return "\n".join(line for _, _, line in entries) + ("\n" if entries else "")
