"""Command-line interface: ``python -m repro <command>``.

Four commands for kicking the tires without writing code:

* ``demo``      — the quickstart flow with verbose per-hop output;
* ``attack``    — run one of the §5 adversaries and print the outcome;
* ``topology``  — describe a generated topology and its beaconed segments;
* ``telemetry`` — run a small workload and dump the management-plane view;
* ``trace``     — run a seeded workload with tracing on and dump the spans;
* ``health``    — the operator health report: SLO burn rates, firing
  alerts, journal statistics, and §5 overuse evidence, over a clean or
  attacked seeded scenario.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import ColibriNetwork, EndHost, HostAddr, IsdAs
from repro.topology import Beaconing, build_internet_like, build_two_isd_topology
from repro.util.units import format_bandwidth, gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)


def cmd_demo(args) -> int:
    network = ColibriNetwork(build_two_isd_topology())
    print(f"deployed Colibri on {len(network.ases())} ASes")
    segments = network.reserve_segments(SRC, DST, gbps(2))
    for segr in segments:
        print(
            f"  SegR {segr.reservation_id} "
            f"({segr.segment.segment_type.value}): "
            f"{format_bandwidth(segr.bandwidth)}"
        )
    host = EndHost(network, SRC, HostAddr(1))
    socket = host.connect(DST, HostAddr(2), mbps(args.bandwidth))
    print(
        f"EER {socket.handle.reservation_id}: "
        f"{format_bandwidth(socket.reserved_bandwidth)} over "
        f"{len(socket.handle.hops)} ASes"
    )
    for index in range(args.packets):
        report = socket.send(f"packet {index}".encode())
        status = "delivered" if report.delivered else f"dropped at {report.dropped_at}"
        print(f"  packet {index}: {status}")
    return 0


def cmd_attack(args) -> int:
    from repro.attacks import ReplayAttack, SpoofingAttack

    network = ColibriNetwork(build_two_isd_topology())
    network.reserve_segments(SRC, DST, gbps(1))
    handle = network.establish_eer(SRC, DST, mbps(10))
    if args.kind == "replay":
        attack = ReplayAttack(network, vantage=IsdAs(2, BASE + 1))
        for index in range(5):
            attack.observe_delivery(network.send(SRC, handle, f"p{index}".encode()))
        outcome = attack.replay(copies=args.intensity)
        print(f"replayed {outcome.replayed}, suppressed {outcome.replays_suppressed}")
        print(f"victim framed: {outcome.victim_blocked}")
        return 0 if outcome.replays_delivered == 0 else 1
    attack = SpoofingAttack(network, victim=SRC, target=IsdAs(1, BASE + 1))
    report = attack.forge_fresh(count=args.intensity)
    print(f"forged {report.sent}, rejected {report.rejected_bad_hvf}")
    return 0 if report.all_rejected else 1


def cmd_topology(args) -> int:
    if args.shape == "two-isd":
        topology = build_two_isd_topology()
    else:
        topology = build_internet_like(isd_count=args.isds)
    print(topology)
    beaconing = Beaconing(topology)
    counts = beaconing.segment_count()
    print(f"beaconing: {counts}")
    for node in topology.ases():
        print(f"  {node}")
    return 0


def cmd_telemetry(args) -> int:
    network = ColibriNetwork(build_two_isd_topology())
    network.reserve_segments(SRC, DST, gbps(1))
    handle = network.establish_eer(SRC, DST, mbps(10))
    for _ in range(args.packets):
        network.send(SRC, handle, b"telemetry workload")
    if args.format == "prometheus":
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        network.export_telemetry(registry)
        print(registry.render(), end="")
    else:
        print(json.dumps(network.telemetry(), indent=2))
    return 0


def cmd_trace(args) -> int:
    if args.distributed:
        return _trace_distributed(args)
    network = ColibriNetwork(build_two_isd_topology())
    obs = network.enable_observability(seed=args.seed, journal=args.events)
    network.reserve_segments(SRC, DST, gbps(1))
    handle = network.establish_eer(SRC, DST, mbps(10))
    for _ in range(args.packets):
        network.send(SRC, handle, b"trace workload")
    if args.events:
        from repro.obs.report import render_events

        print(render_events(obs), end="")
    elif args.format == "jsonl":
        print(obs.tracer.export_jsonl(), end="")
    else:
        print(obs.tracer.render_tree())
    if args.metrics:
        print(obs.metrics.render(), end="")
    return 0


def _trace_distributed(args) -> int:
    """A two-worker sharded pass with trace propagation: the parent
    opens the root span, each worker adopts the remote context, and the
    captures stitch into one forest (docs/observability.md §9)."""
    from repro.dataplane.shards import ShardExecutor
    from repro.obs.distributed import TraceContext, merge_traces
    from repro.obs.trace import TraceCollector, render_span_forest, spans_jsonl
    from repro.util.clock import SimClock

    tracer = TraceCollector(SimClock(0.0), seed=args.seed)
    span = tracer.start("fig6.sharded_run")
    context = TraceContext.from_span(span)
    executor = ShardExecutor(
        "router", reservations=64, packets=args.packets or 256, batch=64,
        seed=args.seed, obs_seed=args.seed, trace=context,
    )
    try:
        result = executor.run(2)
    finally:
        tracer.finish(span)
    merged = result.merged_telemetry()
    stitched = merge_traces(tracer.spans(), merged.spans)
    if args.format == "jsonl":
        print(spans_jsonl(stitched), end="")
    else:
        print(render_span_forest(stitched))
    if args.events:
        print(merged.events_jsonl(), end="")
    if args.metrics:
        print(merged.registry.render(), end="")
    return 0


def cmd_health(args) -> int:
    from repro.obs.report import health_report, render_health, run_health_scenario

    network, obs = run_health_scenario(seed=args.seed, attack=args.attack)
    report = health_report(network, obs)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_health(report), end="")
    return 1 if report["firing"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Colibri (CoNEXT 2021) reproduction — demo CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="segments -> EER -> guaranteed packets")
    demo.add_argument("--bandwidth", type=float, default=50.0, help="EER Mbps")
    demo.add_argument("--packets", type=int, default=3)
    demo.set_defaults(handler=cmd_demo)

    attack = sub.add_parser("attack", help="run a §5 adversary")
    attack.add_argument("kind", choices=["replay", "spoofing"])
    attack.add_argument("--intensity", type=int, default=100)
    attack.set_defaults(handler=cmd_attack)

    topology = sub.add_parser("topology", help="describe a generated topology")
    topology.add_argument("--shape", choices=["two-isd", "internet"], default="two-isd")
    topology.add_argument("--isds", type=int, default=3)
    topology.set_defaults(handler=cmd_topology)

    telemetry = sub.add_parser("telemetry", help="dump the management-plane view")
    telemetry.add_argument("--packets", type=int, default=10)
    telemetry.add_argument(
        "--format", choices=["json", "prometheus"], default="json"
    )
    telemetry.set_defaults(handler=cmd_telemetry)

    trace = sub.add_parser("trace", help="dump trace spans of a seeded workload")
    trace.add_argument("--packets", type=int, default=3)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--format", choices=["tree", "jsonl"], default="tree")
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="append the metrics registry in exposition format",
    )
    trace.add_argument(
        "--events",
        action="store_true",
        help="interleave journal events with the spans, chronologically",
    )
    trace.add_argument(
        "--distributed",
        action="store_true",
        help="run a 2-worker sharded pass and print the "
        "stitched cross-process span forest",
    )
    trace.set_defaults(handler=cmd_trace)

    health = sub.add_parser(
        "health", help="SLO burn rates, alerts, journal stats, overuse evidence"
    )
    health.add_argument("--seed", type=int, default=0)
    health.add_argument(
        "--attack",
        action="store_true",
        help="inject the §7.1 threat-3 overuse attacker",
    )
    health.add_argument("--format", choices=["text", "json"], default="text")
    health.set_defaults(handler=cmd_health)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
