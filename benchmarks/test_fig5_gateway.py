"""Figure 5: gateway forwarding performance vs. path length and number
of installed reservations.

Paper result (one core): performance decreases with the number of
on-path ASes {2, 4, 8, 16} (more HVFs to compute per packet, Eq. 6) and
with the number of existing reservations r in {2^0, 2^10, 2^15, 2^17,
2^20} (cache pressure on the reservation table); even the worst case
(16 ASes, 2^20 reservations) still forwards 0.4 Mpps.  Packets arrive
with *random* reservation IDs — the worst case for caching (§7.1).

Measured through :meth:`ColibriGateway.send_batch` over 64-packet
bursts, matching the paper's DPDK burst processing; request batches are
pregenerated so the timed region contains gateway work only.  The serial
``send`` path stamps byte-identical packets (enforced by
tests/test_batch_equivalence.py) — the batch API only amortizes fixed
costs.

Shape targets: pps monotonically decreasing in path length; mild
decrease with r; absolute numbers are Python-scale (kpps, not Mpps).
r is capped at 2^17 here (2^20 gateway entries exceed a laptop-class
memory budget in pure Python; the cache-pressure trend is visible well
before that).
"""

from __future__ import annotations

import random
import time

import pytest

from _helpers import quick_mode, report, report_json, throughput
from repro.constants import EER_LIFETIME
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import (
    backend_name,
    eer_hvf_message,
    sigma_schedule,
    sigma_states,
    verify_hvfs_batch,
)
from repro.obs.profile import profiling
from repro.packets.colibri import ColibriPacket
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.packets.wire import PacketArena
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 1)

BATCH = 64  # packets per send_batch burst (a typical NIC burst size)

if quick_mode():
    PATH_LENGTHS = [2, 16]
    RESERVATION_COUNTS = [1, 2**10]
    DURATION = 0.04
else:
    PATH_LENGTHS = [2, 4, 8, 16]
    RESERVATION_COUNTS = [1, 2**10, 2**15, 2**17]
    DURATION = 0.12


def build_gateway(path_length: int, reservations: int):
    """A gateway with ``reservations`` installed EERs on ``path_length``-AS
    paths.  HopAuths are synthetic (the gateway never verifies them; it
    only MACs under them, so random keys exercise the same code path)."""
    clock = SimClock(1000.0)
    gateway = ColibriGateway(SRC, clock)
    rng = random.Random(42)
    pairs = [(0, 1)] + [(2, 3)] * (path_length - 2) + [(4, 0)]
    path = PathField(tuple(pairs))  # shared: the path is not the sweep axis
    eer_info = EerInfo(HostAddr(1), HostAddr(2))
    expiry = clock.now() + EER_LIFETIME * 1000  # keep alive for the bench
    ids = []
    for index in range(reservations):
        res_id = ReservationId(SRC, index + 1)
        res_info = ResInfo(
            reservation=res_id, bandwidth=gbps(1000), expiry=expiry, version=1
        )
        hop_auths = tuple(
            rng.getrandbits(128).to_bytes(16, "big") for _ in range(path_length)
        )
        gateway.install(res_id, path, eer_info, res_info, hop_auths)
        ids.append(res_id)
    return gateway, ids


def random_send(gateway: ColibriGateway, ids: list, rng: random.Random):
    """One serial send with a random reservation ID (the per-packet
    baseline path; kept for other benches and the ablations)."""
    gateway.send(ids[rng.randrange(len(ids))], b"")


def make_batches(ids: list, rng: random.Random, count: int, batch: int = BATCH):
    """Pregenerated random-ID request bursts: the workload arrives from
    end hosts; generating it is not gateway work and stays untimed."""
    n = len(ids)
    return [
        [(ids[rng.randrange(n)], b"") for _ in range(batch)]
        for _ in range(count)
    ]


def batch_pps(gateway: ColibriGateway, batches: list, duration: float) -> float:
    """Sustained send_batch throughput, cycling over ``batches``.

    The virtual clock advances one microsecond per burst: Ts uniqueness
    gives each microsecond 2^16 sequence numbers, and a frozen SimClock
    would exhaust them at r=1 (every packet lands on one reservation in
    the "same" instant — a regime no physical NIC can produce).
    """
    gateway.send_batch(batches[0])  # warm up
    send_batch = gateway.send_batch
    advance = gateway.clock.advance
    count = len(batches)
    index = 0
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < duration:
        send_batch(batches[index])
        advance(1e-6)
        done += BATCH
        index += 1
        if index == count:
            index = 0
    return done / (time.perf_counter() - start)


def wire_pps(
    gateway: ColibriGateway, batches: list, arena: PacketArena, duration: float
) -> float:
    """Sustained zero-copy throughput: the same bursts through
    ``send_batch_wire``, every packet written in place into ``arena``."""
    gateway.send_batch_wire(batches[0], arena)  # warm up
    send_wire = gateway.send_batch_wire
    advance = gateway.clock.advance
    count = len(batches)
    index = 0
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < duration:
        send_wire(batches[index], arena)
        advance(1e-6)
        done += BATCH
        index += 1
        if index == count:
            index = 0
    return done / (time.perf_counter() - start)


@pytest.mark.benchmark(group="fig5")
def test_fig5_series(benchmark):
    lines = [
        f"{'on-path ASes':>13} | "
        + " | ".join(f"r=2^{r.bit_length() - 1:<3}" for r in RESERVATION_COUNTS)
    ]
    json_rows = []
    by_length = {}
    by_r = {}
    backend = backend_name()
    wire_lines = []
    for path_length in PATH_LENGTHS:
        row = []
        wire_row = []
        arena = PacketArena(
            slots=BATCH, slot_size=ColibriPacket.header_size_for(path_length)
        )
        for reservations in RESERVATION_COUNTS:
            gateway, ids = build_gateway(path_length, reservations)
            rng = random.Random(7)
            batches = make_batches(ids, rng, count=256)
            # Best of three samples: shared-host scheduler noise only
            # ever slows a sample down.
            pps = max(batch_pps(gateway, batches, DURATION) for _ in range(3))
            row.append(pps)
            by_length.setdefault(reservations, {})[path_length] = pps
            by_r.setdefault(path_length, {})[reservations] = pps
            json_rows.append(
                {
                    "config": {
                        "on_path_ases": path_length,
                        "reservations": reservations,
                        "batch": BATCH,
                        "mode": "send_batch",
                        "backend": backend,
                    },
                    "pps": round(pps, 1),
                }
            )
            pps_wire = max(
                wire_pps(gateway, batches, arena, DURATION) for _ in range(3)
            )
            wire_row.append(pps_wire)
            json_rows.append(
                {
                    "config": {
                        "on_path_ases": path_length,
                        "reservations": reservations,
                        "batch": BATCH,
                        "mode": "send_batch_wire",
                        "backend": backend,
                    },
                    "pps": round(pps_wire, 1),
                }
            )
        lines.append(
            f"{path_length:>13} | "
            + " | ".join(f"{v / 1000:6.1f}k" for v in row)
        )
        wire_lines.append(
            f"{path_length:>13} | "
            + " | ".join(f"{v / 1000:6.1f}k" for v in wire_row)
        )
    lines.append(
        f"(values: packets per second, one core, random reservation IDs, "
        f"{BATCH}-packet send_batch bursts, {backend} Eq. 6 backend)"
    )
    lines.append("")
    lines.append("zero-copy wire forms (send_batch_wire into a packet arena):")
    lines.extend(wire_lines)
    report("fig5_gateway", "Fig. 5 — gateway forwarding performance", lines)

    # One extra instrumented pass over a mid-size config attaches a
    # hot-path profile to the JSON report.  It runs *after* the timed
    # sweep (profiling wraps every @profiled call, so it must never
    # overlap the measurements) and its timings stay outside the run id.
    # The burst pipeline's three steps are separate @profiled sites
    # (gateway.plan / gateway.stamp / gateway.emit_packets or
    # gateway.emit_wire), so driving send_batch, send_batch_wire and a
    # σ-hit style burst verification gives BENCH_fig5.json a per-stage
    # breakdown of where a burst's time goes, not just end-to-end pps.
    gateway, ids = build_gateway(4, RESERVATION_COUNTS[-1])
    batches = make_batches(ids, random.Random(7), count=64)
    arena = PacketArena(slots=BATCH, slot_size=ColibriPacket.header_size_for(4))
    with profiling() as profiler:
        batch_pps(gateway, batches, DURATION)
        wire_pps(gateway, batches, arena, DURATION)
        # Verify stage: authenticate one burst's first-hop HVFs exactly
        # as a σ-cache-hit router would (hvf.verify_hvfs_batch).
        outcomes = gateway.send_batch(batches[0])
        states, messages, tags = [], [], []
        for (res_id, _), packet in zip(batches[0], outcomes):
            sigma = gateway._reservations[res_id.packed]._latest.hop_auths[0]
            states.append(
                sigma_schedule((sigma,)) or sigma_states((sigma,))[0]
            )
            messages.append(
                eer_hvf_message(packet.timestamp, packet.total_size)
            )
            tags.append(packet.hvfs[0])
        assert all(verify_hvfs_batch(states, messages, tags))
    report_json(
        "fig5", "fig5_gateway_forwarding", json_rows,
        profile=profiler.snapshot(),
    )

    # Shape: longer paths are never meaningfully *faster*.  With the
    # 8-way vectorized backend, 2–8 hops cost one compress group and
    # 16 hops two, so the per-hop slope is far shallower than the
    # serial-MAC model this assertion originally encoded — a direction
    # check with noise headroom is all the cost model still promises
    # (same stance as the cache-pressure check below).
    for reservations, series in by_length.items():
        ordered = [series[length] for length in PATH_LENGTHS]
        assert ordered[-1] <= ordered[0] * 1.30, (
            f"16 hops should not beat 2 hops at r={reservations}: {ordered}"
        )
    # Shape: the largest table is not meaningfully faster than the
    # single-entry one.  (In Python the dict-scaling effect is weak —
    # DESIGN.md §2 — so this is a direction check with noise headroom,
    # unlike the paper's strong DPDK cache-pressure signal.)
    for path_length, series in by_r.items():
        assert series[RESERVATION_COUNTS[-1]] <= series[1] * 1.30, (
            f"expected cache pressure at len={path_length}: {series}"
        )

    gateway, ids = build_gateway(4, RESERVATION_COUNTS[-1])
    batches = make_batches(ids, random.Random(7), count=64)
    iterator = iter(())

    def one_burst():
        nonlocal iterator
        try:
            gateway.send_batch(next(iterator))
        except StopIteration:
            iterator = iter(batches)
            gateway.send_batch(next(iterator))

    benchmark(one_burst)


@pytest.mark.benchmark(group="fig5")
def test_benchmark_gateway_worst_case(benchmark):
    """The paper's stress point: long paths, large table — serial send,
    so pytest-benchmark tracks the per-packet (not per-burst) cost."""
    gateway, ids = build_gateway(16, RESERVATION_COUNTS[-1])
    rng = random.Random(7)
    benchmark(lambda: random_send(gateway, ids, rng))


@pytest.mark.benchmark(group="fig5")
def test_batch_vs_serial_speedup(benchmark):
    """The batch API must actually pay for itself: the same workload
    through send_batch vs. one send() per packet."""
    gateway, ids = build_gateway(8, 2**10)
    rng = random.Random(11)
    batches = make_batches(ids, rng, count=128)
    batch_rate = max(batch_pps(gateway, batches, DURATION) for _ in range(3))
    serial_rate = max(
        throughput(lambda: random_send(gateway, ids, rng), duration=DURATION)
        for _ in range(3)
    )
    report(
        "fig5_batch_vs_serial",
        "Fig. 5 companion — batch vs. serial gateway path",
        [
            f"send_batch ({BATCH}/burst): {batch_rate / 1000:8.1f}k pps",
            f"send (per packet):        {serial_rate / 1000:8.1f}k pps",
            f"speedup:                  {batch_rate / serial_rate:8.2f}x",
        ],
    )
    # The batch path amortizes the clock read and loop fixed costs; it
    # must never be slower than serial sends (noise headroom included).
    assert batch_rate >= serial_rate * 0.9, (batch_rate, serial_rate)
    benchmark(lambda: random_send(gateway, ids, rng))
