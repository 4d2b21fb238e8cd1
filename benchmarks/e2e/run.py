#!/usr/bin/env python3
"""End-to-end packet and EER-setup benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--workload W] --repeat N [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

The first form is one measurement in this process: it prints every
metric by name with its unit, runs the correctness pass, prints one JSON
object as the last line and exits non-zero when an outcome was wrong.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics and the budget table.  The other two
forms are the noise protocol (noise.py).  Nothing here crosses a
network: all stacks run in this process on a simulated clock.
"""
# A wall-clock benchmark: the injected-Clock rule does not apply here.
# colibri-lint: disable-file=CL001

from __future__ import annotations

import argparse
import collections
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: the program under test is missing: {REPO / 'src' / 'repro'}")
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import probes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

from repro.app.host import ColibriSocket, EndHost  # noqa: E402
from repro.control.renewal import RenewalScheduler  # noqa: E402
from repro.dataplane import hvf  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

#: ``peak_rss_mb`` is read after set-up and this many timed blocks: a
#: fixed amount of work, so a faster program, which runs more blocks in
#: ``--seconds`` and installs more state, does not read as a memory loss.
RSS_BLOCKS = 6

#: Layer boundaries per AS stack: (attribute path, method, layer, keep spans).
STACK_LAYERS = (
    ("cserv", "setup_eer", "control.cserv.setup_eer", True),
    ("cserv", "handle_eer_setup", "control.cserv.handle_eer_setup", True),
    ("cserv", "renew_eer", "control.cserv.renew_eer", True),
    ("cserv", "handle_eer_renewal", "control.cserv.handle_eer_renewal", True),
    ("cserv", "find_segment_chain", "control.cserv.find_segment_chain", False),
    ("cserv", "housekeeping", "control.cserv.housekeeping", False),
    ("cserv.caller", "call", "control.retry.call", False),
    ("cserv.eer_admission", "decide", "admission.eer.decide", False),
    ("cserv.eer_admission", "commit", "admission.eer.commit", False),
    ("cserv.eer_admission", "renew_delta", "admission.eer.renew_delta", False),
    ("cserv.eer_admission", "commit_renewal", "admission.eer.commit_renewal", False),
    ("cserv.store", "add_eer", "reservation.store.add_eer", False),
    ("cserv.store", "get_eer", "reservation.store.get_eer", False),
    ("cserv.store", "touch", "reservation.store.touch", False),
    ("cserv.store", "sweep_expired_details", "reservation.store.sweep", False),
    ("gateway", "send", "dataplane.gateway.send", False),
    ("gateway", "send_batch", "dataplane.gateway.send_batch", True),
    ("gateway", "install", "dataplane.gateway.install", False),
    ("router", "process", "dataplane.router.process", False),
    ("router", "process_batch", "dataplane.router.process_batch", True),
    ("router.duplicates", "check_and_insert", "dataplane.duplicate.check", False),
    ("router.ofd", "observe", "dataplane.ofd.observe", False),
    ("router.monitor", "check", "dataplane.monitor.check", False),
)


def instrument(tracer: Tracer, net) -> None:
    """Wrap the public layer boundaries of every stack of ``net``."""
    for isd_as in net.ases():
        stack = net.stack(isd_as)
        for path, method, layer, keep in STACK_LAYERS:
            owner = stack
            for part in path.split("."):
                owner = getattr(owner, part)
            tracer.wrap(owner, method, layer, keep)
    tracer.wrap(net.bus, "call", "control.rpc.bus_call", True)
    tracer.wrap(net, "forward", "sim.scenario.forward", False)
    tracer.wrap(net, "housekeeping", "sim.scenario.housekeeping", True)
    tracer.wrap(ColibriSocket, "send", "app.host.send", False)
    tracer.wrap(EndHost, "connect", "app.host.connect", True)
    tracer.wrap(RenewalScheduler, "tick", "control.renewal.tick", False)


#: One timed block, already scaled to the reference host speed.
Block = collections.namedtuple(
    "Block", "ops_per_s cpu_us_per_op op_p50_us cpu_busy host_speed"
)


class Phase:
    """The timed blocks of one phase of a run.

    Figures are medians over blocks, not totals over the phase, and each
    block is scaled to the reference host speed by the host-speed sample
    taken right before and after it (:func:`probes.host_speed_ns`).
    Blocks do equal work; this host runs a third slower for seconds or
    minutes at a time, which moves raw medians of ten runs by 10-25%
    and the scaled ones by 4-9%.  ``host_speed`` (below 1: slow) says
    how far the host was from the reference, so raw figures can be
    recovered.
    """

    def __init__(self):
        self.rec = Recorder()
        self.wall_ns = 0
        self.blocks = []
        self.rss_mb = 0.0

    def median(self, figure: str) -> float:
        return statistics.median(getattr(block, figure) for block in self.blocks)


def measure(workload, seconds: float, blocks: int, tracer: Tracer = None) -> Phase:
    """Run timed blocks for ``seconds`` of timed wall time (or exactly
    ``blocks`` of them); input generation, renewals and the host-speed
    samples between blocks are outside the timed region."""
    phase = Phase()
    rec = phase.rec
    while len(phase.blocks) < blocks if blocks else phase.wall_ns < seconds * 1e9:
        workload.prepare_block()
        done, ops = rec.done, len(rec.latency_ns)
        sample = probes.host_speed_ns()
        cpu = time.process_time_ns()
        wall = time.perf_counter_ns()
        if tracer is None:
            workload.run_block(rec)
        else:
            with tracer.root("measure"):
                workload.run_block(rec)
        wall = time.perf_counter_ns() - wall
        cpu = time.process_time_ns() - cpu
        scale = probes.reference_scale(sample)
        done = max(1, rec.done - done)
        phase.wall_ns += wall
        phase.blocks.append(Block(
            ops_per_s=done / wall * 1e9 / scale,
            cpu_us_per_op=cpu / done / 1e3 * scale,
            op_p50_us=statistics.median(rec.latency_ns[ops:]) / 1e3 * scale,
            cpu_busy=cpu / wall,
            host_speed=scale,
        ))
        if len(phase.blocks) <= RSS_BLOCKS:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return phase


def timed_setups(cls, seed: int, quick: bool):
    """Set up from scratch several times; returns the last workload and
    every set-up time, scaled to the reference host speed like a block.
    Cheap set-ups repeat until two seconds are spent (``quick`` runs
    stop at three)."""
    times, spent, workload = [], 0.0, None
    enough = 0.0 if quick else 2.0
    while len(times) < 3 or (spent < enough and len(times) < 25):
        workload = None
        gc.collect()
        workload = cls(seed, quick)
        sample = probes.host_speed_ns()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        spent += elapsed
        times.append(elapsed * probes.reference_scale(sample))
    return workload, times


def percentile(samples, share: float) -> float:
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, int(share * len(ordered)))]) if ordered else 0.0


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def end_to_end(setup_times, phase: Phase) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": phase.median("ops_per_s"),
        "cpu_us_per_op": phase.median("cpu_us_per_op"),
        "op_p50_us": phase.median("op_p50_us"),
        "peak_rss_mb": phase.rss_mb,
    }


def per_layer(tracer, setup_totals, traced: Phase, plain: Phase, counts, probed, gcs) -> dict:
    """Every per-layer metric; a layer a workload never enters reads 0.

    Times are scaled by the median host speed of the phase they were
    taken in (traced for the layers, untraced for ``op.*`` and
    ``tail.*``); the probes are already the fastest of five rounds.
    """
    speed = traced.median("host_speed")
    plain_speed = plain.median("host_speed")

    def own(layer):  # self time per call
        return tracer.self_us(layer) / max(1, tracer.calls(layer)) * speed

    def whole(layer):  # inclusive time per call, set-up calls included
        calls, inclusive_ns, _ = setup_totals.get(layer, (0, 0, 0))
        return (tracer.inclusive_us(layer) + inclusive_ns / 1e3) / max(
            1, tracer.calls(layer) + calls
        ) * speed

    def untraced_us(samples, share=0.5):
        return percentile(samples, share) / 1e3 * plain_speed

    calls = tracer.calls
    packet_hops = max(1, calls("dataplane.duplicate.check"))
    decided = calls("admission.eer.decide") + calls("admission.eer.renew_delta")
    committed = calls("admission.eer.commit") + calls("admission.eer.commit_renewal")
    root = tracer.totals["measure"]
    rec = plain.rec
    metrics = {
        "op.admit_p50_us": untraced_us(rec.class_ns["admit"]),
        "op.reject_far_p50_us": untraced_us(rec.class_ns["reject_far"]),
        "op.reject_near_p50_us": untraced_us(rec.class_ns["reject_near"]),
        "op.renew_p50_us": untraced_us(rec.class_ns["renew"]),
        "app.host.send.self_us": own("app.host.send"),
        "app.host.connect.us": whole("app.host.connect"),
        "sim.scenario.forward.self_us": own("sim.scenario.forward"),
        "sim.scenario.housekeeping.us": whole("sim.scenario.housekeeping"),
        "dataplane.gateway.send.us": whole("dataplane.gateway.send"),
        "dataplane.gateway.send_batch.us_per_pkt": (
            tracer.inclusive_us("dataplane.gateway.send_batch")
            / max(1, traced.rec.attempted) * speed
        ),
        "dataplane.gateway.install.us": whole("dataplane.gateway.install"),
        "dataplane.gateway.sent": counts["gateway.sent"],
        "dataplane.gateway.dropped": counts["gateway.dropped"],
        "dataplane.router.process.self_us_per_hop": own("dataplane.router.process"),
        "dataplane.router.process_batch.us_per_pkt_hop": (
            tracer.self_us("dataplane.router.process_batch") / packet_hops * speed
        ),
        "dataplane.router.verdicts.forward": counts["verdicts.forward"],
        "dataplane.router.verdicts.deliver_host": counts["verdicts.deliver_host"],
        "dataplane.router.verdicts.drop_duplicate": counts["verdicts.drop_duplicate"],
        "dataplane.router.verdicts.drop_other": counts["verdicts.drop_other"],
        "dataplane.duplicate.check.us_per_hop": whole("dataplane.duplicate.check"),
        "dataplane.ofd.observe.us_per_hop": whole("dataplane.ofd.observe"),
        "dataplane.monitor.check.us_per_hop": whole("dataplane.monitor.check"),
        "dataplane.sigma_cache.hit_ratio": counts["sigma_cache.hit_ratio"],
        "dataplane.sigma_cache.evictions": counts["sigma_cache.evictions"],
        "control.cserv.setup_eer.self_us": own("control.cserv.setup_eer"),
        "control.cserv.handle_eer_setup.self_us_per_hop": own("control.cserv.handle_eer_setup"),
        "control.cserv.renew_eer.self_us": own("control.cserv.renew_eer"),
        "control.cserv.handle_eer_renewal.self_us_per_hop": own("control.cserv.handle_eer_renewal"),
        "control.cserv.find_segment_chain.us": whole("control.cserv.find_segment_chain"),
        "control.cserv.housekeeping.us": whole("control.cserv.housekeeping"),
        "control.renewal.tick.us": whole("control.renewal.tick"),
        "control.rpc.bus_call.self_us": own("control.rpc.bus_call"),
        "control.rpc.bus_calls_per_op": calls("control.rpc.bus_call") / max(1, traced.rec.attempted),
        "control.retry.call.self_us": own("control.retry.call"),
        "control.retry.attempts_per_call": counts["retry.attempts"] / max(1, counts["retry.calls"]),
        "admission.eer.decide.us": whole("admission.eer.decide"),
        "admission.eer.commit.us": whole("admission.eer.commit"),
        "admission.eer.renew_delta.us": whole("admission.eer.renew_delta"),
        "admission.eer.commit_renewal.us": whole("admission.eer.commit_renewal"),
        "admission.eer.admit_ratio": committed / decided if decided else 0.0,
        "reservation.store.add_eer.us": whole("reservation.store.add_eer"),
        "reservation.store.get_eer.us": whole("reservation.store.get_eer"),
        "reservation.store.touch.us": whole("reservation.store.touch"),
        "reservation.store.sweep.us": whole("reservation.store.sweep"),
        "reservation.store.sweep_dead_per_call": (
            traced.rec.swept / max(1, calls("reservation.store.sweep"))
        ),
        "reservation.store.live_eers": counts["live_eers"],
        "tail.op_p95_us": untraced_us(rec.latency_ns, 0.95),
        "tail.op_p99_us": untraced_us(rec.latency_ns, 0.99),
        "tail.admit_p99_us": untraced_us(rec.class_ns["admit"], 0.99),
        "tail.renew_p99_us": untraced_us(rec.class_ns["renew"], 0.99),
        "tail.sweep_max_us": untraced_us(rec.sweep_ns, 1.0),
        "run.cpu_busy_ratio": plain.median("cpu_busy"),
        "run.host_speed_ratio": plain_speed,
        "run.gc_collections": gcs,
        "trace.overhead_ratio": plain.median("ops_per_s") / traced.median("ops_per_s"),
        "trace.unattributed_ratio": root[2] / root[1],
    }
    metrics.update(probed)
    return metrics


def print_budget(tracer: Tracer, workload_name: str) -> None:
    wall_ms = tracer.totals["measure"][1] / 1e6
    print(f"budget {workload_name}: traced wall {wall_ms:.1f} ms, self time per layer")
    print(f"  {'layer':<42}{'calls':>10}{'self ms':>12}{'share':>9}{'us/call':>10}")
    for layer, calls, own_ms, share in tracer.budget("measure"):
        print(
            f"  {layer:<42}{calls:>10}{own_ms:>12.2f}{share:>9.2%}"
            f"{own_ms * 1e3 / calls:>10.2f}"
        )


#: Probe metrics only some workloads produce; the others report 0.
WORKLOAD_PROBES = (
    "packets.colibri.to_bytes.us",
    "packets.colibri.from_bytes.us",
    "dataplane.router.validate_batch.us_per_pkt",
    "reservation.store.bytes_per_eer",
)


def run_plain(cls, seed, seconds, quick, blocks):
    """Untraced: repeated set-up, then the timed blocks."""
    workload, setup_times = timed_setups(cls, seed, quick)
    phase = measure(workload, seconds, blocks)
    return workload, phase, end_to_end(setup_times, phase), {"counts": workload.counts()}


def run_traced(cls, seed, seconds, quick, blocks):
    """One set-up under the wrappers, half the time traced, half not."""
    tracer = Tracer()
    workload = cls(seed, quick)
    workload.tracer = tracer
    gcs = gc_collections()
    try:
        with tracer.root("setup"):
            workload.setup(on_built=lambda net: instrument(tracer, net))
        setup_totals = {layer: tuple(record) for layer, record in tracer.totals.items()}
        for record in tracer.totals.values():
            record[:] = [0, 0, 0]
        traced = measure(workload, seconds / 2, blocks, tracer)
    finally:
        tracer.unwrap_all()
    workload.tracer = None
    plain = measure(workload, seconds / 2, blocks)
    gcs = gc_collections() - gcs
    probed = dict.fromkeys(WORKLOAD_PROBES, 0.0)
    probed["dataplane.duplicate.false_positive_ratio"] = probes.false_positive_ratio(
        workload.net
    )
    probed.update(probes.crypto_probes(workload.net))
    probed.update(workload.probe())
    counts = workload.counts()
    metrics = per_layer(tracer, setup_totals, traced, plain, counts, probed, gcs)
    print_budget(tracer, cls.name)
    plain.rec.attempted += traced.rec.attempted
    plain.rec.failed += traced.rec.failed
    plain.rec.failures += traced.rec.failures
    return workload, plain, metrics, {
        "counts": counts,
        "budget": tracer.budget("measure"),
        "spans": tracer.spans,
        "spans_dropped": tracer.spans_dropped,
    }


def run_once(name: str, seed: int, seconds: float, trace: bool,
             quick: bool = False, blocks: int = 0) -> dict:
    """One measurement of one workload: the four keys of the JSON line
    plus ``counts`` (program-side), ``problems`` and, traced, the budget
    rows and the stored spans."""
    hvf.backend_name()  # builds the native kernel now, outside any timing
    run, spec = (run_traced, SPEC["per_layer"]) if trace else (run_plain, SPEC["end_to_end"])
    workload, phase, metrics, extra = run(WORKLOADS[name], seed, seconds, quick, blocks)
    problems = workload.verify()
    rec = phase.rec
    if rec.failed > workload.failed_limit * rec.attempted:
        problems.append(f"{rec.failed} of {rec.attempted} operations failed")
    if set(metrics) != {entry["name"] for entry in spec}:
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {entry['name'] for entry in spec})}"
        )
    return {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec
        },
        "problems": problems + rec.failures,
        "blocks": len(phase.blocks),
        **extra,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import noise

        return noise.compare(argv[1:], SPEC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true",
                        help="small populations and blocks (smoke test)")
    parser.add_argument("--blocks", type=int, default=0,
                        help="run exactly this many timed blocks instead of --seconds")
    parser.add_argument("--repeat", type=int, default=0,
                        help="noise protocol: N interleaved runs per workload")
    parser.add_argument("--out", help="write the full result as JSON")
    args = parser.parse_args(argv)

    if args.repeat or not args.workload:
        import noise

        return noise.repeat(args, SPEC, Path(__file__))

    result = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.blocks
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
