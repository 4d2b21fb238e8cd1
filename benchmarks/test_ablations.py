"""Ablations of the design choices DESIGN.md §5 calls out.

1. **Memoization** (§4.7/Fig. 3): disable the incremental aggregates and
   SegR admission degenerates to O(n) — the curve the paper avoided.
2. **Two-step MAC** (§4.5/Fig. 2): recompute the HopAuth (Eq. 4) per
   packet at the gateway instead of caching it per reservation — the
   per-packet cost roughly doubles per hop.
3. **Traffic-class isolation** (§3.4/App. B): push reservation traffic
   through the shared best-effort queue and its guarantee disappears
   under a flood.
"""

from __future__ import annotations

import random

import pytest

from _helpers import report, time_per_call, throughput
from test_fig3_segr_admission import NEW_SOURCE, build_admission, one_admission
from test_fig5_gateway import build_gateway
from repro.admission import SegmentAdmission, TrafficMatrix
from repro.dataplane.hvf import eer_hvf, hop_authenticator
from repro.dataplane.queueing import PriorityScheduler, TrafficClass
from repro.packets.fields import Timestamp
from repro.reservation.ids import ReservationId
from repro.topology import IsdAs, build_line_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def build_naive_admission(existing: int) -> SegmentAdmission:
    topology = build_line_topology(3, capacity=gbps(400_000))
    middle = IsdAs(1, BASE + 2)
    admission = SegmentAdmission(TrafficMatrix(topology.node(middle)), memoize=False)
    for index in range(existing):
        source = IsdAs(1, BASE + 10_000 + index)
        admission.admit(ReservationId(source, index + 1), source, 1, 2, mbps(1), 0.0)
    return admission


@pytest.mark.benchmark(group="ablation")
def test_ablation_memoization(benchmark):
    counts = [0, 1000, 2000, 4000]
    lines = [f"{'existing SegRs':>15} | {'memoized':>10} | {'naive':>10}"]
    memoized, naive = [], []
    for existing in counts:
        fast = build_admission(existing, 0.0)
        slow = build_naive_admission(existing)
        fast_time = time_per_call(
            lambda: one_admission(fast, 999_999), repeat=20, number=10
        )
        slow_time = time_per_call(
            lambda: one_admission(slow, 999_999), repeat=5, number=2
        )
        memoized.append(fast_time)
        naive.append(slow_time)
        lines.append(
            f"{existing:>15} | {fast_time * 1e6:8.1f}µs | {slow_time * 1e6:8.1f}µs"
        )
    report(
        "ablation_memoization",
        "Ablation — memoized vs naive SegR admission (Fig. 3 without the trick)",
        lines,
    )
    # Naive grows with state; memoized stays flat.
    assert naive[-1] > naive[0] * 5, f"naive should grow: {naive}"
    assert memoized[-1] < memoized[0] * 5, f"memoized should stay flat: {memoized}"

    fast = build_admission(4000, 0.0)
    benchmark(lambda: one_admission(fast, 999_999))


@pytest.mark.benchmark(group="ablation")
def test_ablation_two_step_mac(benchmark):
    """Per-packet HVF crypto at the gateway, isolated: with the two-step
    scheme the HopAuth sigma_i (Eq. 4) is computed once per reservation
    at setup and each packet costs only Eq. 6; the ablated design pays
    Eq. 4 + Eq. 6 on every packet for every hop."""
    gateway, ids = build_gateway(4, 2**10)
    entry = gateway._reservations[ids[0].packed]
    version = entry.versions[1]
    sigmas = version.hop_auths
    hop_key = b"k" * 16
    timestamp = Timestamp(123456, 0)
    hops = len(entry.path)

    def two_step_crypto():
        for hop_index in range(hops):
            eer_hvf(sigmas[hop_index], timestamp, 600)

    def ablated_crypto():
        for hop_index in range(hops):
            sigma = hop_authenticator(
                hop_key,
                version.res_info,
                entry.eer_info,
                *entry.path.pair(hop_index),
            )
            eer_hvf(sigma, timestamp, 600)

    two_step_rate = throughput(two_step_crypto, duration=0.2)
    ablated_rate = throughput(ablated_crypto, duration=0.2)
    lines = [
        f"two-step (cached sigma, Eq. 6 only): {two_step_rate / 1000:8.1f}k pkt/s of HVF work",
        f"ablated (Eq. 4 + Eq. 6 per packet):  {ablated_rate / 1000:8.1f}k pkt/s of HVF work",
        f"two-step speedup: {two_step_rate / ablated_rate:.2f}x at {hops} hops",
    ]
    report(
        "ablation_two_step_mac",
        "Ablation — two-step HVF computation (Fig. 2)",
        lines,
    )
    # Halving the MACs per hop must show up as a clear speedup.
    assert two_step_rate > ablated_rate * 1.3
    benchmark(two_step_crypto)


@pytest.mark.benchmark(group="ablation")
def test_ablation_isolation(benchmark):
    """Reservation survival with and without traffic classes (App. B)."""

    def run(isolated: bool) -> float:
        scheduler = PriorityScheduler(mbps(40), queue_bytes=25_000)
        reservation_class = (
            TrafficClass.EER_DATA if isolated else TrafficClass.BEST_EFFORT
        )
        delivered = offered = 0
        flood_carry = 0.0
        for _tick in range(500):
            flood_carry += mbps(160) * 0.001 / 8
            while flood_carry >= 500:
                flood_carry -= 500
                scheduler.enqueue(500, TrafficClass.BEST_EFFORT)
            offered += 1
            if scheduler.enqueue(500, reservation_class):
                delivered += 1
            scheduler.drain(0.001)
        return delivered / offered

    with_isolation = run(isolated=True)
    without = run(isolated=False)
    lines = [
        f"reservation enqueue success with class isolation:    {with_isolation:6.1%}",
        f"reservation enqueue success without class isolation: {without:6.1%}",
    ]
    report(
        "ablation_isolation",
        "Ablation — traffic-class isolation under a 4x best-effort flood",
        lines,
    )
    assert with_isolation == 1.0
    assert without < 0.9

    scheduler = PriorityScheduler(mbps(40))
    benchmark(lambda: (scheduler.enqueue(500, TrafficClass.EER_DATA), scheduler.drain(0.001)))
