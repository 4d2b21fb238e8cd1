"""Figure 6: gateway and border-router throughput vs. number of cores.

Paper result: "for both components, the performance is almost perfectly
linear in the number of cores dedicated to packet processing"; the
border router is faster than the gateway (34.4 Mpps vs 18.7 Mpps at 16
cores, 4-AS paths, ~32k reservations), and the gateway curves order by
reservation count.

Reproduction: :class:`~repro.dataplane.shards.ShardExecutor` partitions
the reservation space over k shared-nothing shards — each an OS process
owning its *own* gateway/router/monitor — and measures aggregate
throughput.  Every row is one process dispatch per configuration; the
sweep stops at the CPUs this process may run on
(:meth:`ShardExecutor.available_cpus`), so a row the host cannot run
in parallel is not printed.

Shape targets: BR single-core pps > GW single-core pps; GW pps ordered
by reservation count; per-shard throughput flat in k (no contention).
"""

from __future__ import annotations

import random

import pytest

from _helpers import quick_mode, report, report_json, throughput
from test_fig5_gateway import build_gateway, make_batches, batch_pps, random_send
from repro.dataplane.hvf import backend_name
from repro.dataplane.shards import ShardExecutor, ShardSpec, _router_stack

if quick_mode():
    CORE_COUNTS = [1, 2]
    GATEWAY_RESERVATIONS = [1, 2**10]
    SHARD_PACKETS = 2048
else:
    CORE_COUNTS = [1, 2, 4, 8, 16]
    GATEWAY_RESERVATIONS = [1, 2**10, 2**15]
    SHARD_PACKETS = 16384


def build_router_and_packets(count: int = 64, path_length: int = 4):
    """A border router plus ``count`` honestly stamped packets arriving
    at its hop — the BR validation workload of Fig. 6, as one shard of
    one builds it."""
    router, packets, _ = _router_stack(
        ShardSpec("router", 0, 1, path_length=path_length, reservations=count)
    )
    return router, packets


def router_pps(duration: float = 0.12, samples: int = 3) -> float:
    """Single-stack router validation rate (batched bursts)."""
    router, packets = build_router_and_packets()
    rng = random.Random(5)
    bursts = [
        [packets[rng.randrange(len(packets))] for _ in range(64)]
        for _ in range(64)
    ]
    index = 0

    def one():
        nonlocal index
        router.validate_batch(bursts[index % len(bursts)])
        index += 1

    # Best-of sampling: host scheduler noise is one-sided.
    return max(throughput(one, duration=duration) for _ in range(samples)) * 64


def gateway_pps(reservations: int, duration: float = 0.12, samples: int = 3) -> float:
    """Single-stack gateway stamping rate (batched bursts)."""
    gateway, ids = build_gateway(4, reservations)
    batches = make_batches(ids, random.Random(5), count=128)
    return max(batch_pps(gateway, batches, duration) for _ in range(samples))


@pytest.mark.benchmark(group="fig6")
def test_fig6_series(benchmark):
    cpus = ShardExecutor.available_cpus()
    core_counts = [cores for cores in CORE_COUNTS if cores <= cpus]
    router_exec = ShardExecutor(
        "router", reservations=2**10, packets=SHARD_PACKETS
    )
    gateway_execs = {
        r: ShardExecutor("gateway", reservations=r, packets=SHARD_PACKETS)
        for r in GATEWAY_RESERVATIONS
    }

    json_rows = []
    rows = {}
    modes = {}
    per_shard = []
    backend = backend_name()
    # One cold dispatch per configuration: every worker builds and warms
    # its own stack untimed, then times only the packet loop.  Packets
    # per shard is part of each row's config, so tools/bench_regress.py
    # never gates a quick run against a full one.
    for cores in core_counts:
        br = router_exec.run(cores)
        per_shard.append(max(o.pps for o in br.shards if o.packets))
        gw = {r: gateway_execs[r].run(cores) for r in GATEWAY_RESERVATIONS}
        rows[cores] = [br.aggregate_pps] + [
            gw[r].aggregate_pps for r in GATEWAY_RESERVATIONS
        ]
        modes[cores] = br.mode
        json_rows.append(
            {
                "config": {
                    "component": "router",
                    "cores": cores,
                    "mode": br.mode,
                    "packets": SHARD_PACKETS,
                    "backend": backend,
                },
                "pps": round(br.aggregate_pps, 1),
            }
        )
        for r in GATEWAY_RESERVATIONS:
            json_rows.append(
                {
                    "config": {
                        "component": "gateway",
                        "cores": cores,
                        "reservations": r,
                        "mode": gw[r].mode,
                        "packets": SHARD_PACKETS,
                        "backend": backend,
                    },
                    "pps": round(gw[r].aggregate_pps, 1),
                }
            )

    lines = [
        f"{'cores':>6} | {'mode':>10} | {'BR':>9} | "
        + " | ".join(f"GW r=2^{r.bit_length() - 1:<2}" for r in GATEWAY_RESERVATIONS)
    ]
    for cores in core_counts:
        lines.append(
            f"{cores:>6} | {modes[cores]:>10} | "
            + " | ".join(f"{v / 1000:8.1f}k" for v in rows[cores])
        )
    lines.append(
        f"(pps; shared-nothing shards via repro.dataplane.shards — every "
        f"row ran one OS process per shard; this process may run on "
        f"{cpus} CPU(s), so the sweep stops at {core_counts[-1]}.)"
    )
    report("fig6_scaling", "Fig. 6 — BR and GW throughput vs. cores", lines)
    report_json("fig6", "fig6_core_scaling", json_rows)

    # Shape: BR beats GW (it computes 2 MACs vs. path-length MACs + state).
    br_single = rows[1][0]
    gw_single = dict(zip(GATEWAY_RESERVATIONS, rows[1][1:]))
    assert br_single > gw_single[GATEWAY_RESERVATIONS[-1]]
    # Shape: GW ordered by reservation count (cache pressure).
    assert gw_single[1] >= gw_single[GATEWAY_RESERVATIONS[-1]] * 0.95
    # Shape: per-shard throughput flat in k — shards share nothing, so
    # the only allowed trend is noise (and smaller per-shard tables).
    assert max(per_shard) < 2.0 * min(per_shard), (
        f"shard contention detected: {per_shard}"
    )

    router, packets = build_router_and_packets()
    rng = random.Random(5)
    benchmark(lambda: router.validate_only(packets[rng.randrange(len(packets))]))


@pytest.mark.benchmark(group="fig6")
def test_benchmark_router_full_pipeline(benchmark):
    """The complete §4.6 pipeline (auth + replay + policing), not just
    validation — the per-packet cost a deployed BR pays."""
    router, packets = build_router_and_packets(count=4096)
    iterator = iter(packets)

    def one():
        nonlocal iterator
        try:
            packet = next(iterator)
        except StopIteration:  # replays would be suppressed; restart set
            router.duplicates._current.clear()
            router.duplicates._previous.clear()
            iterator = iter(packets)
            packet = next(iterator)
        router.process(packet)

    benchmark(one)


@pytest.mark.benchmark(group="fig6")
@pytest.mark.skipif(
    ShardExecutor.available_cpus() == 1,
    reason="single-CPU host: parallel run is meaningless",
)
def test_parallel_router_scaling(benchmark):
    """On multi-core hosts: aggregate pps relative to one worker."""
    executor = ShardExecutor("router", reservations=2**10, packets=SHARD_PACKETS)
    lines = []
    single = executor.run(1).aggregate_pps
    for workers in [k for k in (1, 2, 4) if k <= executor.available_cpus()]:
        result = executor.run(workers)
        lines.append(
            f"{workers} workers [{result.mode}]: "
            f"{result.aggregate_pps / 1000:8.1f}k pps "
            f"({result.aggregate_pps / single:.2f}x)"
        )
    report("fig6_parallel_measured", "Fig. 6 — measured multi-process scaling", lines)
    benchmark(lambda: None)
