"""The paper's evaluation, one function per artefact (§5-§7, §9, App. E).

What the paper claims are *shapes* — admission time flat in the number of
reservations, forwarding rate falling with path length and growing with
cores, Table 2's three protection phases, payload independence — and a
shape can be asserted on any host.  So every artefact here is one function

    figure(scale, build=<stack builder>) -> Figure(title, header, rows, shape, note)

whose ``shape`` is a list of named predicates built from three
combinators, :func:`flat`, :func:`monotone` and :func:`ratio_at_least`
(plus :func:`equal` for counts on the simulated clock).  ``build`` makes
the stack under measurement; running the same function on a deliberately
broken build (a *mutant* builder: memoization off, MAC over the payload,
token bucket off, ...) must violate the predicate named beside it in
:data:`REGISTRY` — :func:`self_test` checks exactly that, and that the
unbroken build violates nothing.

Timed cells follow ``benchmarks/e2e``'s protocol and import it: a cell is
the median of :data:`REPETITIONS` interleaved repetitions summarised by
``noise.summarize``, each in-process sample scaled to the reference host
speed (``probes.reference_scale``).  A predicate compares quartile
intervals, not medians: it is *ok* when it holds for every value between
the cells' quartiles, *violated* when it fails for every such value and
*unresolved* otherwise.  ``tools/make_report.py`` is the one command that
runs all this.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "e2e")]

import probes  # noqa: E402
from noise import summarize  # noqa: E402

from repro.admission import EerAdmission, SegmentAdmission, TrafficMatrix  # noqa: E402
from repro.admission.eer_admission import AsRole  # noqa: E402
from repro.attacks import DocAttack, ReplayAttack, SpoofingAttack, VolumetricAttack  # noqa: E402
from repro.baselines import DiffServRouter, DscpClass, IntServNetwork  # noqa: E402
from repro.constants import EER_LIFETIME, L_HVF  # noqa: E402
from repro.crypto.mac import mac, truncated_mac  # noqa: E402
from repro.dataplane.gateway import ColibriGateway  # noqa: E402
from repro.dataplane.hvf import backend_name, eer_hvf, hop_authenticator  # noqa: E402
from repro.dataplane.queueing import PriorityScheduler, TrafficClass  # noqa: E402
from repro.dataplane.router import Verdict  # noqa: E402
from repro.dataplane.shards import (  # noqa: E402
    ShardExecutor,
    ShardRunResult,
    ShardSpec,
    _router_stack,
    run_shard,
)
from repro.dataplane.sigma_cache import SigmaCache, SigmaEntry  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.packets.fields import EerInfo, PathField, ResInfo  # noqa: E402
from repro.reservation import (  # noqa: E402
    ReservationId,
    ReservationStore,
    SegmentReservation,
    SegmentVersion,
)
from repro.sim import ColibriNetwork, PortSim  # noqa: E402
from repro.sim.netsim import AtHop  # noqa: E402
from repro.sim.pipeline import HopPort, PathPipeline  # noqa: E402
from repro.sim.traffic import (  # noqa: E402
    BestEffortSource,
    BogusColibriSource,
    OverusingSource,
    ReservationSource,
)
from repro.topology import IsdAs, build_line_topology, build_two_isd_topology  # noqa: E402
from repro.topology.addresses import HostAddr  # noqa: E402
from repro.topology.graph import NO_INTERFACE  # noqa: E402
from repro.topology.segments import HopField, Segment, SegmentType  # noqa: E402
from repro.util.clock import SimClock  # noqa: E402
from repro.util.memsize import deep_size  # noqa: E402
from repro.util.units import gbps, kbps, mbps  # noqa: E402

BASE = 0xFF00_0000_0000

# -- the protocol ------------------------------------------------------------

#: Interleaved repetitions per timed cell.  Seven, not five: the exclusive
#: quartiles of seven samples leave out the fastest and the slowest one.
REPETITIONS = 7
#: Wall time of one timing round; a sample is the best of three rounds.
_ROUND_NS = 20_000_000


def per_call(op: Callable) -> Callable:
    """A measure of ``op``: microseconds per call on the reference host.

    The call count is fixed once, so that a round lasts about
    :data:`_ROUND_NS`; every sample is then ``probes.per_call_us`` (best of
    three rounds) scaled by the host-speed samples taken around it."""
    op()
    once = min(_elapsed_ns(op) for _ in range(3))
    calls = max(1, min(20_000, _ROUND_NS // max(1, once)))

    def measure() -> float:
        before = probes.host_speed_ns()
        return probes.per_call_us(op, calls=calls, rounds=3) * probes.reference_scale(before)

    return measure


def _elapsed_ns(op: Callable) -> int:
    start = time.perf_counter_ns()
    op()
    return time.perf_counter_ns() - start


def interleaved(measures: dict) -> dict:
    """``{key: cell}``: every measure sampled once per repetition, the
    order reversed on odd repetitions, each cell ``summarize``d."""
    keys = list(measures)
    samples = {key: [] for key in keys}
    for repetition in range(REPETITIONS):
        for key in keys if repetition % 2 == 0 else reversed(keys):
            samples[key].append(measures[key]())
    return {key: summarize(values) for key, values in samples.items()}


def exact(value) -> dict:
    """The cell of a quantity that has no spread (simulated clock)."""
    return summarize([float(value)])


# -- shape predicates --------------------------------------------------------

OK, VIOLATED, UNRESOLVED = "ok", "violated", "unresolved"


class Predicate(NamedTuple):
    name: str
    verdict: str
    detail: str


def _decide(name: str, claims: list, detail: str) -> Predicate:
    """Each claim ``(low, factor, high)`` reads ``low <= factor * high``."""
    verdict = OK
    for low, factor, high in claims:
        if low["q1"] > factor * high["q3"]:
            return Predicate(name, VIOLATED, detail)
        if low["q3"] > factor * high["q1"]:
            verdict = UNRESOLVED
    return Predicate(name, verdict, detail)


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.2f}" if b else "inf"


def flat(name: str, series: list, band: float) -> Predicate:
    """No cell of ``series`` is more than ``1 + band`` times another — or
    itself: a cell whose quartiles are further apart than the band leaves
    the predicate unresolved."""
    medians = [cell["median"] for cell in series]
    detail = f"max/min {_ratio(max(medians), min(medians))}, band {1 + band:.2f}"
    claims = [(a, 1 + band, b) for a in series for b in series]
    return _decide(name, claims, detail)


def monotone(name: str, series: list, direction: str, band: float = 0.0) -> Predicate:
    """``series`` is ``"falling"`` or ``"rising"``: no step goes the other
    way by more than ``band``."""
    steps = list(zip(series, series[1:]))
    if direction == "rising":
        steps = [(after, before) for before, after in steps]
    worst = max(after["median"] / before["median"] for before, after in steps)
    detail = f"largest step against {direction} {worst:.2f}, allowed {1 + band:.2f}"
    return _decide(name, [(after, 1 + band, before) for before, after in steps], detail)


def ratio_at_least(name: str, a: dict, b: dict, k: float, detail: str = "") -> Predicate:
    """``a >= k * b``."""
    detail = detail or f"ratio {_ratio(a['median'], b['median'])}, at least {k:.2f}"
    return _decide(name, [(b, 1 / k, a)], detail)


def equal(name: str, got, want) -> Predicate:
    return Predicate(name, OK if got == want else VIOLATED, f"{got!r}, expected {want!r}")


class Figure(NamedTuple):
    title: str
    header: tuple
    rows: list
    shape: list
    note: str = ""

    def violated(self) -> list:
        return [p.name for p in self.shape if p.verdict == VIOLATED]


def _us(cell: dict) -> str:
    return f"{cell['median']:.2f} µs [{cell['spread']:.0%}]"


def _kpps(cell: dict, per_call_packets: int = 0) -> str:
    """A packets/s cell — or, given the packets one call moves, a
    µs-per-call cell — in thousands per second."""
    pps = per_call_packets * 1e6 / cell["median"] if per_call_packets else cell["median"]
    return f"{pps / 1e3:.1f}k [{cell['spread']:.0%}]"


TIMED_NOTE = f"median of {REPETITIONS} interleaved repetitions [IQR / median], reference-host scale"

# -- Fig. 3: SegR admission time vs. existing SegRs ---------------------------

_NEW_SOURCE = IsdAs(1, BASE + 7777)


def segr_admission(existing: int, ratio: float) -> SegmentAdmission:
    """A transit AS holding ``existing`` SegRs over one interface pair,
    ``ratio`` of them from the source of the request to come."""
    topology = build_line_topology(3, capacity=gbps(400_000))
    admission = SegmentAdmission(TrafficMatrix(topology.node(IsdAs(1, BASE + 2))))
    for index in range(existing):
        source = _NEW_SOURCE if index < int(existing * ratio) else IsdAs(1, BASE + 10_000 + index)
        admission.admit(ReservationId(source, index + 1), source, 1, 2, mbps(1), 0.0)
    return admission


def naive_segr_admission(existing: int, ratio: float) -> SegmentAdmission:
    """Mutant: the aggregates are rebuilt from every entry per request."""
    admission = segr_admission(existing, ratio)
    admission.memoize = False
    return admission


def _admit_and_release(admission: SegmentAdmission) -> Callable:
    request = ReservationId(_NEW_SOURCE, 999_999)

    def op():
        admission.commit(admission.evaluate(request, _NEW_SOURCE, 1, 2, mbps(1)))
        admission.release(request)

    return op


def fig3(scale: str, build=segr_admission) -> Figure:
    counts = {"quick": (0, 500, 2000), "full": (0, 2000, 4000, 6000, 8000, 10_000)}[scale]
    ratios = {"quick": (0.0, 0.5), "full": (0.0, 0.1, 0.5, 0.9)}[scale]
    cells = interleaved(
        {
            (existing, ratio): per_call(_admit_and_release(build(existing, ratio)))
            for existing in counts
            for ratio in ratios
        }
    )
    return Figure(
        "Fig. 3 — SegR admission time vs. existing SegRs",
        ("existing SegRs", *(f"ratio {ratio}" for ratio in ratios)),
        [[f"{n:,}", *(_us(cells[n, ratio]) for ratio in ratios)] for n in counts],
        [
            flat(f"SegR admission flat in existing SegRs (ratio {ratio})",
                 [cells[n, ratio] for n in counts], 0.5)
            for ratio in ratios
        ],
        f"evaluate + commit + release at a transit AS; {TIMED_NOTE}",
    )


# -- Fig. 4: EER admission time at a transit AS -------------------------------

_SRC, _FAR, _TRANSIT = (IsdAs(1, BASE + index) for index in (1, 2, 3))


def transit_admission(eers: int, segrs: int):
    """``(admission, target)``: a transit AS holding ``segrs`` SegRs of one
    source, the ``target`` one carrying ``eers`` admitted EERs."""
    store = ReservationStore()
    segment = Segment.from_hops(
        SegmentType.CORE, [HopField(_SRC, NO_INTERFACE, 1), HopField(_FAR, 1, NO_INTERFACE)]
    )
    for index in range(segrs):
        store.add_segment(
            SegmentReservation(
                reservation_id=ReservationId(_SRC, index + 1),
                segment=segment,
                first_version=SegmentVersion(version=1, bandwidth=gbps(10_000), expiry=1e9),
            )
        )
    target = ReservationId(_SRC, 1)
    for index in range(eers):
        store.allocate_on_segment(target, ReservationId(_SRC, 1_000_000 + index), kbps(1))
    return EerAdmission(_TRANSIT, store), target


def summing_transit_admission(eers: int, segrs: int):
    """Mutant: the SegR's allocated bandwidth is summed per request
    instead of kept incrementally."""
    admission, target = transit_admission(eers, segrs)
    store = admission.store
    store.allocated_on_segment = lambda segment: sum(store._eer_alloc[segment].values())
    return admission, target


def fig4(scale: str, build=transit_admission) -> Figure:
    eer_counts = {"quick": (10, 1000, 10_000), "full": (10, 100, 1000, 10_000, 100_000)}[scale]
    segr_counts = {"quick": (1, 1000), "full": (1, 5000, 10_000)}[scale]
    cells = {}
    for segrs in segr_counts:  # one column alive at a time
        measures = {}
        for eers in eer_counts:
            admission, target = build(eers, segrs)
            measures[eers, segrs] = per_call(
                lambda a=admission, t=target: a.decide(AsRole.TRANSIT, kbps(1), now=0.0, segment_in=t)
            )
        cells.update(interleaved(measures))
        del measures, admission  # free the column before the next is built
    shape = [
        flat(f"EER admission flat in existing EERs (s={segrs:,})",
             [cells[eers, segrs] for eers in eer_counts], 0.5)
        for segrs in segr_counts
    ]
    shape.append(
        flat("EER admission flat in SegRs sharing the source",
             [cells[eer_counts[-1], segrs] for segrs in segr_counts], 0.5)
    )
    return Figure(
        "Fig. 4 — EER admission time at a transit AS",
        ("existing EERs", *(f"s={segrs:,}" for segrs in segr_counts)),
        [[f"{n:,}", *(_us(cells[n, segrs]) for segrs in segr_counts)] for n in eer_counts],
        shape,
        f"one transit decision; s = SegRs of the same source; {TIMED_NOTE}",
    )


# -- Fig. 5: gateway forwarding vs. path length and reservation count ---------

BATCH = 64  # packets per send_batch burst (a NIC burst)
_MESSAGE_SIZE = 12  # Eq. (6) input, Ts || PktSize


def stamping_gateway(path_length: int, reservations: int):
    """``(gateway, ids)``: ``reservations`` EERs on ``path_length``-AS paths.
    HopAuths are random: the gateway only ever MACs under them."""
    clock = SimClock(1000.0)
    gateway = ColibriGateway(_SRC, clock)
    rng = random.Random(42)
    path = PathField(((0, 1), *[(2, 3)] * (path_length - 2), (4, 0)))
    eer_info = EerInfo(HostAddr(1), HostAddr(2))
    expiry = clock.now() + EER_LIFETIME * 1000
    ids = []
    for index in range(reservations):
        res_id = ReservationId(_SRC, index + 1)
        res_info = ResInfo(reservation=res_id, bandwidth=gbps(1000), expiry=expiry, version=1)
        hop_auths = tuple(rng.getrandbits(128).to_bytes(16, "big") for _ in range(path_length))
        gateway.install(res_id, path, eer_info, res_info, hop_auths)
        ids.append(res_id)
    return gateway, ids


def rekeying_gateway(path_length: int, reservations: int):
    """Mutant: every HVF pays its σ's key schedule again, per packet and
    hop, instead of the schedule prehashed at install."""
    gateway, ids = stamping_gateway(path_length, reservations)

    def stamp(plan) -> bytes:
        messages = bytes(plan.messages)
        return b"".join(
            truncated_mac(sigma, messages[n * _MESSAGE_SIZE : (n + 1) * _MESSAGE_SIZE], L_HVF)
            for n, row in enumerate(plan.rows)
            for sigma in row[2].hop_auths
        )

    gateway._stamp = stamp
    return gateway, ids


def _burst_op(gateway: ColibriGateway, ids: list) -> Callable:
    """One ``send_batch`` of random reservation ids (the paper's worst
    case for caching) per call; bursts are pregenerated, and the clock
    moves a microsecond per burst so Ts sequence numbers never run out."""
    rng = random.Random(7)
    bursts = [[(ids[rng.randrange(len(ids))], b"") for _ in range(BATCH)] for _ in range(64)]
    cursor = [0]

    def op():
        gateway.send_batch(bursts[cursor[0] & 63])
        gateway.clock.advance(1e-6)
        cursor[0] += 1

    return op


def _per_hop(long: dict, short: dict, hops_and_packets: int) -> dict:
    """The interval of ``(long - short) / hops_and_packets``."""
    return {
        "median": (long["median"] - short["median"]) / hops_and_packets,
        "q1": (long["q1"] - short["q3"]) / hops_and_packets,
        "q3": (long["q3"] - short["q1"]) / hops_and_packets,
    }


def fig5(scale: str, build=stamping_gateway) -> Figure:
    lengths = {"quick": (2, 8, 16), "full": (2, 4, 8, 16)}[scale]
    counts = {"quick": (1, 2**10), "full": (1, 2**10, 2**15)}[scale]
    sigma, message = bytes(range(16)), bytes(_MESSAGE_SIZE)
    cells = {}
    for length in lengths:  # one row alive at a time
        measures = {(length, r): per_call(_burst_op(*build(length, r))) for r in counts}
        if length == lengths[-1]:
            measures["rekeyed"] = per_call(lambda: truncated_mac(sigma, message, L_HVF))
        cells.update(interleaved(measures))
        del measures  # free the row before the next is built
    shape = [
        monotone(f"rate falls with path length (r={r:,})",
                 [cells[length, r] for length in lengths], "rising", 0.3)
        for r in counts
    ]
    shape += [
        monotone(f"rate falls with reservation count ({length} ASes)",
                 [cells[length, r] for r in counts], "rising", 0.3)
        for length in lengths
    ]
    span = (lengths[-1] - lengths[0]) * BATCH
    for r in counts:
        hop = _per_hop(cells[lengths[-1], r], cells[lengths[0], r], span)
        shape.append(
            ratio_at_least(f"an added hop costs under a re-keyed Eq. 6 MAC (r={r:,})",
                           cells["rekeyed"], hop, 1.4,
                           f"re-keyed MAC {cells['rekeyed']['median']:.2f} µs, "
                           f"added hop {hop['median']:.2f} µs, ratio at least 1.40")
        )
    return Figure(
        "Fig. 5 — gateway forwarding rate vs. path length and reservations",
        ("on-path ASes", *(f"r={r:,}" for r in counts)),
        [[length, *(_kpps(cells[length, r], BATCH) for r in counts)] for length in lengths],
        shape,
        f"packets/s, one core, random reservation ids, {BATCH}-packet bursts, "
        f"{backend_name()} Eq. 6 backend; {TIMED_NOTE}",
    )


# -- Fig. 6: throughput vs. cores ---------------------------------------------

def shard_executor(component: str, reservations: int, packets: int) -> ShardExecutor:
    return ShardExecutor(component, reservations=reservations, packets=packets)


class SerialExecutor:
    """Mutant: the shards run one after another in this process, so a
    burst completes after the sum of their loop times."""

    def __init__(self, component: str, reservations: int, packets: int):
        self._specs = shard_executor(component, reservations, packets)._specs

    def run(self, num_shards: int) -> ShardRunResult:
        outcomes = [run_shard(spec) for spec in self._specs(num_shards)]
        busy = sum(outcome.elapsed for outcome in outcomes if outcome.packets)
        return ShardRunResult("serial", outcomes, sum(o.packets for o in outcomes) / busy)


def fig6(scale: str, build=shard_executor) -> Figure:
    table_sizes = {"quick": (1, 2**15), "full": (1, 2**10, 2**15)}[scale]
    packets = 16384
    cpus = ShardExecutor.available_cpus()
    cores = [k for k in (1, 2, 4, 8, 16) if k <= cpus]
    executors = {"BR": build("router", 2**10, packets)}
    executors.update({f"GW r={r:,}": build("gateway", r, packets) for r in table_sizes})
    modes = {}

    def aggregate(label: str, k: int) -> Callable:
        def measure() -> float:
            result = executors[label].run(k)
            modes[k] = result.mode
            return result.aggregate_pps

        return measure

    cells = interleaved({(label, k): aggregate(label, k) for label in executors for k in cores})
    largest = f"GW r={table_sizes[-1]:,}"
    shape = [
        ratio_at_least("border router above the gateway at the largest table",
                       cells["BR", 1], cells[largest, 1], 1.0),
        monotone("gateway rate ordered by table size",
                 [cells[f"GW r={r:,}", 1] for r in table_sizes], "falling", 0.05),
    ]
    for label in ("BR", largest):
        name = f"{label} aggregate grows with shards"
        if len(cores) == 1:
            shape.append(Predicate(name, UNRESOLVED, "this process may run on one CPU"))
        shape += [
            ratio_at_least(f"{name} ({k} to {more})", cells[label, more], cells[label, k], 1.4)
            for k, more in zip(cores, cores[1:])
        ]
    return Figure(
        "Fig. 6 — border-router and gateway throughput vs. cores",
        ("cores", "mode", *executors),
        [
            [k, modes[k], *(_kpps(cells[label, k]) for label in executors)]
            for k in cores
        ],
        shape,
        f"aggregate packets/s over k shared-nothing shards, one OS process each "
        f"(repro.dataplane.shards); this process may run on {cpus} CPU(s), so the sweep "
        f"stops at {cores[-1]}; median of {REPETITIONS} interleaved runs [IQR / median]",
    )


# -- Table 2: data-plane protection phases ------------------------------------

_SRC1, _SRC2, _DST = IsdAs(1, BASE + 101), IsdAs(1, BASE + 111), IsdAs(2, BASE + 101)
_MEASURE = IsdAs(2, BASE + 1)  # the router whose output port is watched
#: The paper's Gbps, scaled to Mbps: every mechanism is rate-free.
CAPACITY, RES1, RES2, FLOOD = mbps(40), mbps(0.4), mbps(0.8), mbps(40)
_PACKET, _DURATION = 500, 0.5


def protection_port(overuse: bool):
    """``(net, sim, source1, source2)``: the 3-in / 1-out port of §7.1 at a
    transfer AS's real border router; with ``overuse`` reservation 1's
    source AS floods :data:`FLOOD` past its gateway's monitor."""
    net = ColibriNetwork(build_two_isd_topology())
    net.reserve_segments(_SRC1, _DST, mbps(10))
    net.reserve_segments(_SRC2, _DST, mbps(10))
    handle1 = net.establish_eer(_SRC1, _DST, RES1)
    handle2 = net.establish_eer(_SRC2, _DST, RES2)
    gateway1 = net.gateway(_SRC1)
    if overuse:
        source1 = OverusingSource(gateway1, handle1, FLOOD, _PACKET)
        gateway1.monitor.unwatch(handle1.reservation_id.packed)
    else:
        source1 = ReservationSource(gateway1, handle1, RES1, _PACKET)
    source2 = ReservationSource(net.gateway(_SRC2), handle2, RES2, _PACKET)
    sim = PortSim(net.router(_MEASURE), net.clock, CAPACITY)
    at = lambda source, handle: AtHop(  # noqa: E731
        source, [hop.isd_as for hop in handle.hops].index(_MEASURE)
    )
    return net, sim, at(source1, handle1), at(source2, handle2)


def unpoliced_port(overuse: bool):
    """Mutant: the overuse detector never names a suspect, so no token
    bucket is ever armed."""
    built = protection_port(overuse)
    built[1].router.ofd.overuse_factor = float("inf")
    return built


class _TrustedEntry(SigmaEntry):
    """A σ-cache entry under which any HVF verifies."""

    def verify(self, message: bytes, tag: bytes) -> bytes:
        return hashlib.blake2s(self.wire + message + tag, digest_size=16).digest()


def unauthenticated_port(overuse: bool):
    """Mutant: step 3 of §4.6 accepts whatever HVF a packet carries."""
    built = protection_port(overuse)
    router = built[1].router
    router._policer = None  # the kernel would check the HVF itself
    router._recompute = lambda res_info, eer_info, pair, message, tag, now: _TrustedEntry(
        bytes(16), res_info, eer_info, pair
    )
    return built


class _FifoScheduler(PriorityScheduler):
    """One drop-tail queue served in arrival order; classes only label bytes."""

    def __init__(self, capacity: float):
        super().__init__(capacity)
        self._fifo = deque()

    def enqueue(self, size_bytes: int, traffic_class: TrafficClass) -> bool:
        self._fifo.append((size_bytes, traffic_class))
        return True

    def drain(self, duration: float) -> dict:
        budget_bits = self.capacity * duration
        while self._fifo and self._fifo[0][0] * 8 <= budget_bits:
            size, traffic_class = self._fifo.popleft()
            budget_bits -= size * 8
            self.sent_bytes[traffic_class] += size
        return dict(self.sent_bytes)


def unisolated_port(overuse: bool):
    """Mutant: no traffic classes at the output port (App. B undone)."""
    built = protection_port(overuse)
    built[1].scheduler = _FifoScheduler(CAPACITY)
    return built


def _phase(phase: int, build) -> tuple:
    """``(output rates in bps by row, router drops)`` of one §7.1 phase."""
    net, sim, source1, source2 = build(phase == 3)
    colibri = [(1, source1, "res1"), (2, source2, "res2")]
    best_effort = [(2, BestEffortSource(mbps(39.2), _PACKET))]
    if phase == 1:
        best_effort.append((3, BestEffortSource(mbps(40), _PACKET)))
    else:
        best_effort.append((3, BestEffortSource(mbps(20), _PACKET)))
        bogus = BogusColibriSource(
            IsdAs(1, BASE + 121), ((0, 1), (2, 0)), mbps(20), _PACKET,
            expiry=net.clock.now() + 100,
        )
        colibri.append((3, AtHop(bogus, 0), PortSim.UNAUTH))
    rates = sim.run(_DURATION, colibri, best_effort)
    return {label: rate * 1e9 for label, rate in rates.items()}, sim.router_drops


def table2(scale: str, build=protection_port) -> Figure:
    del scale  # simulated clock: one size
    classes = (
        ("Reservation 1", "res1"),
        ("Reservation 2", "res2"),
        ("Best effort", PortSim.BEST_EFFORT),
        ("Colibri unauth.", PortSim.UNAUTH),
    )
    rates, drops = {}, {}
    for phase in (1, 2, 3):
        rates[phase], drops[phase] = _phase(phase, build)
    cell = lambda phase, key: exact(rates[phase].get(key, 0.0))  # noqa: E731
    shape = []
    for phase in (1, 2):
        shape += [
            flat(f"phase {phase}: reservation 1 holds its guarantee",
                 [cell(phase, "res1"), exact(RES1)], 0.1),
            flat(f"phase {phase}: reservation 2 holds its guarantee",
                 [cell(phase, "res2"), exact(RES2)], 0.1),
            ratio_at_least(f"phase {phase}: best effort fills the rest of the port",
                           cell(phase, PortSim.BEST_EFFORT), exact(CAPACITY), 0.9),
        ]
    policed = drops[3].get(Verdict.DROP_OVERUSE, 0) + drops[3].get(Verdict.DROP_BLOCKED, 0)
    shape += [
        equal("phase 2: unauthentic Colibri output is zero", rates[2].get(PortSim.UNAUTH, 0.0), 0.0),
        equal("phase 2: forged packets die at the HVF check", drops[2][Verdict.DROP_BAD_HVF] > 0, True),
        ratio_at_least("phase 3: the overuser is clamped", exact(FLOOD), cell(3, "res1"), 4.0),
        flat("phase 3: reservation 2 holds its guarantee", [cell(3, "res2"), exact(RES2)], 0.1),
        equal("phase 3: the overuse is policed at the router", policed > 0, True),
    ]
    return Figure(
        "Table 2 — data-plane protection phases",
        ("traffic class", "phase 1", "phase 2", "phase 3"),
        [[label, *(f"{rates[p].get(key, 0.0) / 1e6:.3f}" for p in (1, 2, 3))] for label, key in classes],
        shape,
        "output Mbps for the paper's Gbps (x1000 down): three 40-unit inputs into one 40-unit "
        f"output, {_DURATION} s in 1 ms ticks on the simulated clock, a real border router in the loop",
    )


# -- §9: latency protection under congestion ----------------------------------

_PORT = mbps(100)
_LOADS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


def latency_pipeline() -> PathPipeline:
    """A 10 Mbps EER over the 6-AS inter-ISD path, 100 Mbps ports."""
    net = ColibriNetwork(build_two_isd_topology())
    net.reserve_segments(_SRC1, _DST, gbps(1))
    return PathPipeline(net, net.establish_eer(_SRC1, _DST, mbps(10)), capacity=_PORT)


class _FifoPort(HopPort):
    def transit_delay(self, size_bytes: int, traffic_class: TrafficClass, now: float) -> float:
        return super().transit_delay(size_bytes, TrafficClass.BEST_EFFORT, now)


def fifo_pipeline() -> PathPipeline:
    """Mutant: strict priority off — every packet queues behind all bytes."""
    pipeline = latency_pipeline()
    pipeline.ports = {
        isd_as: _FifoPort(port.capacity, port.propagation) for isd_as, port in pipeline.ports.items()
    }
    return pipeline


def latency(scale: str, build=latency_pipeline) -> Figure:
    del scale  # simulated clock: one size
    reserved, best_effort = [], []
    for load in _LOADS:
        pipeline = build()
        if load:
            pipeline.load_cross_traffic(_PORT * load, duration=1.0)
        reserved.append(exact(pipeline.send(b"x" * 500).latency))
        best_effort.append(
            exact(pipeline.send(b"x" * 500, traffic_class=TrafficClass.BEST_EFFORT).latency)
        )
    return Figure(
        "§9 — reserved vs. best-effort latency under congestion",
        ("cross load", "reserved", "best effort"),
        [
            [f"{load:.1f}x", f"{r['median'] * 1e3:.2f} ms", f"{b['median'] * 1e3:.2f} ms"]
            for load, r, b in zip(_LOADS, reserved, best_effort)
        ],
        [
            flat("reserved latency flat in cross load", reserved, 0.5),
            ratio_at_least("best-effort latency explodes at the same ports",
                           best_effort[-1], reserved[-1], 100.0),
        ],
        "end to end over 6 ASes, one second of best-effort cross traffic at a multiple of "
        "port capacity on every hop; simulated clock",
    )


# -- §5: the adversaries, over the whole path ---------------------------------

_ATTACKER = _SRC2


def attacked_network() -> ColibriNetwork:
    net = ColibriNetwork(build_two_isd_topology())
    net.reserve_segments(_SRC1, _DST, gbps(1))
    net.reserve_segments(_ATTACKER, _DST, gbps(1))
    limiter = net.cserv(_MEASURE).request_limiter
    limiter.rate = limiter.burst = 5.0  # so a 50-request flood trips it
    return net


def unpoliced_network() -> ColibriNetwork:
    """Mutant: no router ever names an overuse suspect."""
    net = attacked_network()
    for isd_as in net.ases():
        net.router(isd_as).ofd.overuse_factor = float("inf")
    return net


def unlimited_network() -> ColibriNetwork:
    """Mutant: the CServs' per-AS request limiter admits everything."""
    net = attacked_network()
    for isd_as in net.ases():
        limiter = net.cserv(isd_as).request_limiter
        limiter.rate = limiter.burst = 1e12
        limiter._state.clear()
    return net


def security(scale: str, build=attacked_network) -> Figure:
    del scale  # simulated clock: one size
    net = build()
    handle = net.establish_eer(_SRC1, _DST, mbps(10))
    replay = ReplayAttack(net, _MEASURE)
    for index in range(5):
        replay.observe_delivery(net.send(_SRC1, handle, f"packet {index}".encode()))
    replayed = replay.replay(copies=20)
    forged = SpoofingAttack(net, victim=_SRC1, target=IsdAs(1, BASE + 1)).forge_fresh(count=500)

    net = build()
    benign = net.establish_eer(_SRC1, _DST, mbps(8))
    rogue = net.establish_eer(_ATTACKER, _DST, mbps(8))
    overuse = VolumetricAttack(net, _ATTACKER, _SRC1, _DST).run(
        rogue, benign, rounds=400, overuse_factor=10.0
    )

    net = build()
    victim = net.establish_eer(_SRC1, _DST, mbps(10))
    doc = DocAttack(net, attacker=IsdAs(1, BASE + 1), target=_MEASURE)
    flood = doc.flood_requests(count=50)
    net.advance(2.0)
    renewed = doc.victim_renewal_under_flood(victim, _SRC1)
    return Figure(
        "§5 — the adversaries, over the 6-AS path",
        ("adversary", "sent", "got through", "defence held"),
        [
            ["replay (§5.1)", replayed.replayed, replayed.replays_delivered,
             f"{replayed.replays_suppressed} suppressed, source framed: {replayed.victim_blocked}"],
            ["spoofed source (§5.1)", forged.sent, forged.accepted,
             f"{forged.rejected_bad_hvf} dropped at the HVF check"],
            ["reservation overuse x10 (§5.1)", overuse.attack_sent, overuse.attack_delivered,
             f"rogue AS blocked: {overuse.attacker_blocked}; benign flow delivered "
             f"{overuse.benign_delivered}/{overuse.benign_sent}"],
            ["request flood (§5.3)", flood.flood_sent, flood.flood_sent - flood.flood_rejected,
             f"victim's renewal during the flood: {renewed}"],
        ],
        [
            equal("every replayed copy is suppressed", replayed.replays_suppressed, replayed.replayed),
            equal("the replayed source is not framed", replayed.victim_blocked, False),
            equal("every forged packet dies at the HVF check", forged.rejected_bad_hvf, forged.sent),
            equal("the overusing AS ends up blocked", overuse.attacker_blocked, True),
            ratio_at_least("most of the overuse dies in the network",
                           exact(overuse.attack_sent), exact(overuse.attack_delivered), 2.0),
            ratio_at_least("the benign reservation keeps flowing under overuse",
                           exact(overuse.benign_delivered), exact(overuse.benign_sent), 0.95),
            ratio_at_least("most of a request flood is refused by the rate limiter",
                           exact(flood.flood_rejected), exact(flood.flood_sent), 0.5),
            equal("the victim renews over its reservation during the flood", renewed, True),
        ],
        "repro.attacks drivers against a ColibriNetwork on the two-ISD topology; simulated clock",
    )


# -- §1 / §4.6: router state and the IntServ / DiffServ baselines -------------

_CACHE_FLOWS = 64  # σ-cache bound of the measured router, below every row
_IS_PATH = [IsdAs(1, BASE + index) for index in range(1, 5)]


def bounded_router(flows: int):
    """A border router that has validated one packet of each of ``flows``
    reservations; its σ-cache (soft state, an LRU) holds 64 flows."""
    router, packets, _ = _router_stack(ShardSpec("router", 0, 1, reservations=flows))
    router.sigma_cache = SigmaCache(capacity=_CACHE_FLOWS)
    if not all(router.validate_batch(packets)):
        raise SimulationError("an honest packet failed validation")
    return router


def remembering_router(flows: int):
    """Mutant: the router keeps a record of every flow it has seen."""
    router, packets, _ = _router_stack(ShardSpec("router", 0, 1, reservations=flows))
    router.sigma_cache = SigmaCache(capacity=10**9)
    router.validate_batch(packets)
    return router


def _diffserv_victim_share() -> float:
    """Share of its premium traffic a victim keeps while an attacker
    marks a flood of four times the link as EF too."""
    ticks, size = 1000, 500
    router = DiffServRouter(capacity=mbps(40), queue_bytes=25_000)
    flood_per_tick = int(mbps(160) / ticks / 8) // size
    for tick in range(ticks):
        if tick % 2 == 0:  # alternate who arrives first
            router.enqueue("victim", size, DscpClass.EF)
        for _ in range(flood_per_tick):
            router.enqueue("attacker", size, DscpClass.EF)
        if tick % 2 == 1:
            router.enqueue("victim", size, DscpClass.EF)
        router.drain(1.0 / ticks)
    return router.flow_rate(DscpClass.EF, "victim", 1.0) / (size * ticks * 8)


def baselines(scale: str, build=bounded_router) -> Figure:
    all_flows = {"quick": (100, 1000), "full": (100, 1000, 10_000)}[scale]
    rows, heaps = [], {"BR": [], "GW": [], "IntServ": []}
    shape = []
    for flows in all_flows:
        net = IntServNetwork(_IS_PATH, capacity=gbps(10_000))
        for _ in range(flows):
            net.reserve(_IS_PATH[0], _IS_PATH[-1], mbps(1), now=0.0)
        hop = net.routers[_IS_PATH[0]]
        entries = hop.state_size
        hop.refresh_work = 0
        hop.refresh_sweep(now=1.0)
        sizes = {
            "BR": deep_size(build(flows)),
            "GW": deep_size(stamping_gateway(4, flows)[0]),
            "IntServ": deep_size(hop),
        }
        for name, size in sizes.items():
            heaps[name].append(exact(size))
        rows.append([f"{flows:,}", *(f"{sizes[n] / 1024:,.0f} KB" for n in heaps), entries, hop.refresh_work])
        shape += [
            equal(f"IntServ keeps one entry per flow at every hop ({flows:,} flows)", entries, flows),
            equal(f"an RSVP refresh period touches every flow ({flows:,} flows)", hop.refresh_work, flows),
        ]
    diffserv = _diffserv_victim_share()
    colibri = _phase(3, protection_port)[0]["res2"] / RES2
    growth = all_flows[-1] / all_flows[0] / 2
    shape += [
        flat("border-router heap flat in flows", heaps["BR"], 0.1),
        ratio_at_least("gateway heap grows with the flows it originates",
                       heaps["GW"][-1], heaps["GW"][0], growth),
        ratio_at_least("IntServ router heap grows with flows", heaps["IntServ"][-1], heaps["IntServ"][0], growth),
        ratio_at_least("a DiffServ victim loses premium traffic to an EF-marked flood",
                       exact(0.9), exact(diffserv), 1.0,
                       f"DiffServ victim keeps {diffserv:.1%}; the conforming Colibri "
                       f"reservation of Table 2 phase 3 keeps {colibri:.1%}"),
        ratio_at_least("the Colibri victim of the same flood keeps its guarantee",
                       exact(colibri), exact(diffserv), 1.5),
    ]
    return Figure(
        "State per component, and the IntServ / DiffServ baselines",
        ("flows", "Colibri BR heap", "Colibri GW heap", "IntServ router heap",
         "IntServ entries / router", "RSVP refresh ops / period"),
        rows,
        shape,
        f"deep heap size after one packet of every flow; the border router's σ-cache is "
        f"capped at {_CACHE_FLOWS} flows here (65,536 as shipped) — bounded soft state that "
        "no verdict depends on",
    )


# -- App. E: forwarding rate vs. payload size ---------------------------------

_PAYLOADS = (0, 100, 500, 1500, 9000)
_KEY = bytes(range(16))


def forwarding_stack(reservations: int):
    """``(send, validate)``: each maps a payload size to the timed call.
    One gateway holds ``reservations`` EERs on 4-AS paths; the router side
    restamps 64 honest packets per size, since Eq. (6) covers PktSize."""
    gateway, ids = stamping_gateway(4, reservations)
    rng = random.Random(3)

    def send(payload: int) -> Callable:
        body = bytes(payload)

        def op():
            gateway.send(ids[rng.randrange(len(ids))], body)
            gateway.clock.advance(1e-6)

        return op

    def validate(payload: int) -> Callable:
        router, packets, _ = _router_stack(ShardSpec("router", 0, 1, reservations=64))
        hop_key = router.keys.hop_key()
        for packet in packets:
            packet.payload = bytes(payload)
            sigma = hop_authenticator(
                hop_key, packet.res_info, packet.eer_info, *packet.path.interface_pairs[1]
            )
            packet.hvfs[1] = eer_hvf(sigma, packet.timestamp, packet.total_size)

        def op():
            if not router.validate_only(packets[rng.randrange(len(packets))]):
                raise SimulationError("an honest packet failed validation")

        return op

    return send, validate


def payload_mac_stack(reservations: int):
    """Mutant: Eq. (6) covers the payload bytes — one more MAC over them
    per on-path AS at the gateway, one at the router."""
    send, validate = forwarding_stack(reservations)

    def covering(op_for: Callable, macs: int) -> Callable:
        def with_payload(payload: int) -> Callable:
            op, body = op_for(payload), bytes(payload)

            def mutant():
                for _ in range(macs):
                    mac(_KEY, body)
                op()

            return mutant

        return with_payload

    return covering(send, 4), covering(validate, 1)


def appendix_e(scale: str, build=forwarding_stack) -> Figure:
    reservations = {"quick": 2**10, "full": 2**15}[scale]
    send, validate = build(reservations)
    measures = {}
    for payload in _PAYLOADS:
        measures["GW", payload] = per_call(send(payload))
        measures["BR", payload] = per_call(validate(payload))
    cells = interleaved(measures)
    return Figure(
        "App. E — forwarding rate vs. payload size",
        ("payload bytes", "gateway", "border router"),
        [[f"{p:,}", _kpps(cells["GW", p], 1), _kpps(cells["BR", p], 1)] for p in _PAYLOADS],
        [
            flat("gateway rate flat in payload size", [cells["GW", p] for p in _PAYLOADS], 0.5),
            flat("border-router rate flat in payload size", [cells["BR", p] for p in _PAYLOADS], 0.5),
        ],
        f"packets/s, one core; gateway send() over {reservations:,} reservations on 4-AS paths, "
        f"router validate_only(); {TIMED_NOTE}",
    )


# -- the registry -------------------------------------------------------------

class Entry(NamedTuple):
    key: str
    figure: Callable
    #: ``{mutant name: (builder, prefix of the predicate it must violate)}``
    mutants: dict


REGISTRY = (
    Entry("fig3", fig3, {"memoization off": (naive_segr_admission, "SegR admission flat")}),
    Entry("fig4", fig4, {"allocation sum not kept": (summing_transit_admission, "EER admission flat in existing EERs")}),
    Entry("fig5", fig5, {"per-packet re-keying": (rekeying_gateway, "an added hop costs under")}),
    Entry("fig6", fig6, {"shards one after another": (SerialExecutor, "BR aggregate grows")}),
    Entry("table2", table2, {
        "token bucket off": (unpoliced_port, "phase 3: the overuser is clamped"),
        "HVF check off": (unauthenticated_port, "phase 2: unauthentic Colibri output is zero"),
        "traffic classes off": (unisolated_port, "phase 1: reservation 1 holds"),
    }),
    Entry("appendix_e", appendix_e, {"MAC over the payload": (payload_mac_stack, "border-router rate flat")}),
    Entry("latency", latency, {"strict priority off": (fifo_pipeline, "reserved latency flat")}),
    Entry("security", security, {
        "overuse detector off": (unpoliced_network, "the overusing AS ends up blocked"),
        "request limiter off": (unlimited_network, "most of a request flood is refused"),
    }),
    Entry("baselines", baselines, {"router remembers every flow": (remembering_router, "border-router heap flat")}),
)


def self_test(entry: Entry, scale: str = "quick") -> list:
    """What is wrong with ``entry``: predicates the unbroken build violates,
    and mutants that do not violate the predicate named for them."""
    problems = [
        f"{entry.key}: the unbroken build violates {name!r}"
        for name in entry.figure(scale).violated()
    ]
    for mutant, (build, predicate) in entry.mutants.items():
        violated = entry.figure(scale, build=build).violated()
        if not any(name.startswith(predicate) for name in violated):
            problems.append(
                f"{entry.key}: mutant {mutant!r} does not violate {predicate!r} (violated: {violated})"
            )
    return problems
