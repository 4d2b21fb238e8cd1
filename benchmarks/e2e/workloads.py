"""The four closed-loop workloads of the end-to-end benchmark.

Each workload drives the real per-AS stacks of
:class:`repro.sim.scenario.ColibriNetwork` through their long-lived
public surface only (listed in README.md), one client, one thread.  A
workload is built from ``--seed`` — the seed reaches the input
generator and nothing else — and exposes five steps the runner calls:

``setup``          topology, SegRs and the initial EER population;
``prepare_block``  untimed: generate the next block's inputs, keep SegRs
                   (and, on the burst workload, EERs) renewed;
``run_block``      timed: a fixed number of operations, each checked
                   against its expected outcome;
``counts``         program-side counters, identical for identical seeds;
``verify``         the untimed correctness pass after the timed blocks.

The simulated clock advances by a fixed amount per operation, so rate
limiters, token buckets, the duplicate filter and the expiry wheel see
the same load whatever the host's speed.
"""

from __future__ import annotations

import collections
import hashlib
import random
import time

import probes
from repro.app.host import EndHost
from repro.constants import DUPLICATE_WINDOW, EER_LIFETIME, FRESHNESS_WINDOW
from repro.control.renewal import RenewalScheduler
from repro.dataplane.gateway import split_batch
from repro.dataplane.router import Verdict
from repro.errors import BandwidthExceeded, ColibriError, InsufficientBandwidth
from repro.packets.colibri import ColibriPacket
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.generator import build_two_isd_topology
from repro.topology.graph import Topology
from repro.util.units import gbps, kbps, mbps

_clock = time.perf_counter_ns

SRC_HOST = HostAddr(1)
DST_HOST = HostAddr(2)

# Leaves and the far transfer AS of build_two_isd_topology.
AS111 = IsdAs.parse("1-ff00:0:65")
AS121 = IsdAs.parse("1-ff00:0:6f")
AS211 = IsdAs.parse("2-ff00:0:65")
AS22 = IsdAs.parse("2-ff00:0:c")
CORE2 = IsdAs.parse("2-ff00:0:1")

#: What the data-plane correctness pass must observe.  The smoke test
#: swaps in a wrong verdict to show that a mismatch fails the run.
EXPECTED_VERDICTS = {
    "replay": Verdict.DROP_DUPLICATE,
    "bad_hvf": Verdict.DROP_BAD_HVF,
    "stale": Verdict.DROP_STALE,
}


class Recorder:
    """Outcomes and latencies of the timed operations."""

    def __init__(self):
        self.attempted = 0
        self.done = 0  # operations whose outcome was the expected one
        self.failed = 0
        self.latency_ns = []  # one sample per burst / packet / request
        self.class_ns = collections.defaultdict(list)
        self.sweep_ns = []  # housekeeping() calls inside the timed blocks
        self.swept = 0  # EERs those calls removed, all ASes
        self.failures = []  # the first few, for the error message

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)


class Workload:
    """Common plumbing: the network, SegR keep-alive, the tracer hook."""

    name = ""
    #: Share of operations allowed to miss their expected outcome.
    failed_limit = 0.0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        #: Set by the runner on traced runs; ``op_id`` labels spans.
        self.tracer = None

    def _new_network(self, topology: Topology) -> ColibriNetwork:
        self.rng = random.Random(self.seed)
        #: Digest of every generated input, for the determinism check.
        self.inputs = hashlib.blake2s()
        self.ops = 0
        self.net = ColibriNetwork(topology)
        self._keepers = []
        return self.net

    def _reserve(self, source: IsdAs, destination: IsdAs, bandwidths) -> None:
        """One SegR per segment of the shortest path, kept renewed.

        SegRs live 300 simulated seconds and a faster program covers
        more simulated time in the same wall time, so every SegR is
        tracked by a :class:`RenewalScheduler` ticked between blocks.
        """
        path = self.net.path_lookup.paths(source, destination, limit=1)[0]
        for segment, bandwidth in zip(path.segments, bandwidths):
            cserv = self.net.cserv(segment.first_as)
            reservation = cserv.setup_segment(segment, bandwidth)
            keeper = RenewalScheduler(cserv)
            keeper.track_segment(reservation.reservation_id, bandwidth=bandwidth)
            self._keepers.append(keeper)

    def _next_op(self) -> None:
        self.ops += 1
        if self.tracer is not None:
            self.tracer.op_id = self.ops

    def setup(self, on_built=None) -> None:
        raise NotImplementedError

    def prepare_block(self) -> None:
        for keeper in self._keepers:
            keeper.tick()

    def run_block(self, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self) -> list:
        raise NotImplementedError

    def counts(self) -> dict:
        """Program-side counters; equal for equal seeds and op counts."""
        total = self.net.telemetry()["total"]
        stacks = [self.net.stack(isd_as) for isd_as in self.net.ases()]
        verdicts = collections.Counter()
        for stack in stacks:
            for verdict, count in stack.router.stats.items():
                verdicts[verdict] += count
        known = (Verdict.FORWARD, Verdict.DELIVER_HOST, Verdict.DROP_DUPLICATE)
        lookups = total.get("sigma_cache_hits", 0) + total.get("sigma_cache_misses", 0)
        return {
            "inputs": self.inputs.hexdigest(),
            "verdicts.forward": verdicts[Verdict.FORWARD],
            "verdicts.deliver_host": verdicts[Verdict.DELIVER_HOST],
            "verdicts.drop_duplicate": verdicts[Verdict.DROP_DUPLICATE],
            "verdicts.drop_other": sum(
                count for verdict, count in verdicts.items() if verdict not in known
            ),
            "gateway.sent": total["gateway_sent"],
            "gateway.dropped": total["gateway_dropped"],
            "bus_calls": total["bus_calls"],
            "live_eers": total["eers"],
            "eer_decisions": total["eer_decisions"],
            "sigma_cache.hit_ratio": (
                total.get("sigma_cache_hits", 0) / lookups if lookups else 0.0
            ),
            "sigma_cache.evictions": total.get("sigma_cache_evictions", 0),
            "retry.calls": sum(stack.cserv.caller.stats.calls for stack in stacks),
            "retry.attempts": sum(stack.cserv.caller.stats.attempts for stack in stacks),
        }

    def probe(self) -> dict:
        """Standalone probes on this workload's own inputs (traced runs)."""
        raise NotImplementedError


# ----------------------------------------------------------- data plane ----


def window_step(ops_per_block: int) -> float:
    """Simulated seconds per operation such that one block spans one
    duplicate-filter window: every block then pays exactly one filter
    rotation per router, and blocks are comparable.

    At the block sizes used this is ~2 kpps simulated.  A 2^20-bit
    filter then holds ~2,400 identifiers per window and drops an honest
    packet with probability ~1e-8 per router; at 20 kpps it would drop
    ~1e-3 of the packets of a 16-router path.
    """
    return DUPLICATE_WINDOW * (1 + 1e-6) / ops_per_block


def walk(routers, packets) -> int:
    """Pass a stamped burst through every on-path border router.

    Returns how many packets the last router delivered to the host;
    a packet any router does not forward is not handed on.
    """
    for router in routers[:-1]:
        packets = [
            result.packet
            for result in router.process_batch(packets)
            if result.verdict is Verdict.FORWARD
        ]
    return sum(
        1
        for result in routers[-1].process_batch(packets)
        if result.verdict is Verdict.DELIVER_HOST
    )


class _Refused(Exception):
    """The gateway dropped a packet the correctness pass needed."""


def verify_data_plane(net, handle, payload: bytes) -> list:
    """The data workloads' correctness pass on one live EER.

    Delivered payload bytes match; a replayed burst dies as duplicates
    at the first router; a flipped HVF byte dies at exactly that hop; a
    packet older than the freshness window is stale; the gateway refuses
    traffic above the reserved rate.  Returns the mismatches.
    """
    expected = EXPECTED_VERDICTS
    problems = []
    gateway = net.gateway(handle.hops[0].isd_as)
    routers = [net.router(hop.isd_as) for hop in handle.hops]
    eer = handle.reservation_id
    net.advance(1.0)  # refill the flow's token bucket

    def stamp(count: int) -> list:
        packets, refused = split_batch(gateway.send_batch([(eer, payload)] * count))
        if refused:
            raise _Refused(refused[0][1])
        return packets

    try:
        burst = stamp(4)
        wire = [packet.to_bytes() for packet in burst]
        if walk(routers, burst) != len(wire):
            problems.append("an honest burst was not fully delivered")
        for packet, sent in zip(burst, wire):
            received = ColibriPacket.from_bytes(sent).payload
            if packet.payload != payload or received != payload:
                problems.append("delivered payload differs from the payload sent")
                break

        replayed = routers[0].process_batch(
            [ColibriPacket.from_bytes(sent) for sent in wire]
        )
        for result in replayed:
            if result.verdict is not expected["replay"]:
                problems.append(
                    f"replay: {result.verdict.name}, expected {expected['replay'].name}"
                )
                break

        hop = len(routers) // 2
        (forged,) = stamp(1)
        tag = bytearray(forged.hvfs[hop])
        tag[0] ^= 0x01
        forged.hvfs[hop] = bytes(tag)
        for index, router in enumerate(routers):
            verdict = router.process(forged).verdict
            if verdict is not Verdict.FORWARD:
                break
        if (index, verdict) != (hop, expected["bad_hvf"]):
            problems.append(
                f"bad_hvf at hop {hop}: {verdict.name} at hop {index}, "
                f"expected {expected['bad_hvf'].name}"
            )

        (late,) = stamp(1)
        net.advance(FRESHNESS_WINDOW + 0.5)
        verdict = routers[0].process(late).verdict
        if verdict is not expected["stale"]:
            problems.append(
                f"stale: {verdict.name}, expected {expected['stale'].name}"
            )
    except _Refused as refusal:
        problems.append(f"the gateway refused an honest packet: {refusal}")

    # Far above any reservation used here: 4,000 x 1,400 B at one instant.
    outcomes = gateway.send_batch([(eer, b"\x00" * 1400)] * 4000)
    if not any(isinstance(outcome, BandwidthExceeded) for outcome in outcomes):
        problems.append("the gateway let a flow exceed its reserved rate")
    return problems


class DataWorkload(Workload):
    """A workload whose operations are packets over live EERs."""

    #: The duplicate filter may drop an honest packet (Bloom false
    #: positive); anything beyond that share is a failure of the run.
    failed_limit = 1e-3
    PAYLOAD = 0

    def live_handle(self):
        """An EER with at least 4 s of life left, for verify and probe."""
        raise NotImplementedError

    def verify(self) -> list:
        return verify_data_plane(self.net, self.live_handle(), self.rng.randbytes(1000))

    def probe(self) -> dict:
        return probes.packet_probes(self.net, self.live_handle(), bytes(self.PAYLOAD))


def build_long_path_topology():
    """Sixteen on-path ASes: 5-AS customer chain, 6-AS core line, 5-AS
    customer chain.  Beaconing caps a core segment at six hops, so a
    single core line cannot be longer."""
    topology = Topology()
    core = [IsdAs(1, 0xFF00_0000_0100 + index) for index in range(6)]
    up = [IsdAs(1, 0xFF00_0000_0200 + index) for index in range(5)]
    down = [IsdAs(1, 0xFF00_0000_0300 + index) for index in range(5)]
    for isd_as in core:
        topology.add_as(isd_as, is_core=True)
    for isd_as in up + down:
        topology.add_as(isd_as)
    for a, b in zip(core, core[1:]):
        topology.add_link(a, b)
    for chain, parent in ((up, core[0]), (down, core[-1])):
        for isd_as in chain:
            topology.add_link(parent, isd_as)
            parent = isd_as
    return topology, up[-1], down[-1]


class BurstLongPath(DataWorkload):
    """64-packet bursts of header-only packets over 16 border routers."""

    name = "burst_long_path"
    BURST = 64
    #: Renew every EER once the oldest is this close to expiry.
    RENEW_MARGIN = 6.0

    def setup(self, on_built=None) -> None:
        topology, source, destination = build_long_path_topology()
        net = self._new_network(topology)
        if on_built is not None:
            on_built(net)
        self._reserve(source, destination, (gbps(20),) * 3)
        self.cserv = net.cserv(source)
        self.gateway = net.gateway(source)
        self.handles = []
        for _ in range(16 if self.quick else 256):
            self.handles.append(
                self.cserv.setup_eer(destination, SRC_HOST, DST_HOST, mbps(10))
            )
            net.advance(0.002)  # 500 requests/s, under the per-AS limiter
        self.routers = [net.router(hop.isd_as) for hop in self.handles[0].hops]
        self.bursts_per_block = 4 if self.quick else 40
        self.step = window_step(self.bursts_per_block)

    def _renew_eers(self) -> None:
        now = self.net.clock.now()
        if min(h.res_info.expiry for h in self.handles) - now > self.RENEW_MARGIN:
            return
        for index, handle in enumerate(self.handles):
            self.handles[index] = self.cserv.renew_eer(handle)
            self.net.advance(0.002)

    def prepare_block(self) -> None:
        super().prepare_block()
        self._renew_eers()
        ids = [handle.reservation_id for handle in self.handles]
        draw = self.rng.randrange
        self.block = [
            [(ids[draw(len(ids))], b"") for _ in range(self.BURST)]
            for _ in range(self.bursts_per_block)
        ]
        self.inputs.update(repr(self.block).encode())

    def run_block(self, rec: Recorder) -> None:
        gateway, routers, advance = self.gateway, self.routers, self.net.advance
        for requests in self.block:
            self._next_op()
            start = _clock()
            packets, _ = split_batch(gateway.send_batch(requests))
            delivered = walk(routers, packets)
            rec.latency_ns.append(_clock() - start)
            rec.attempted += len(requests)
            rec.done += delivered
            if delivered != len(requests):
                rec.fail(len(requests) - delivered, "honest packets not delivered")
            advance(self.step)

    def live_handle(self):
        self._renew_eers()
        return self.handles[0]


class HostSerialPath(DataWorkload):
    """One ``ColibriSocket.send`` at a time over the 6-AS two-ISD path."""

    name = "host_serial_path"
    PAYLOAD = 1000

    def setup(self, on_built=None) -> None:
        net = self._new_network(build_two_isd_topology())
        if on_built is not None:
            on_built(net)
        self._reserve(AS111, AS211, (gbps(10),) * 3)
        host = EndHost(net, AS111, SRC_HOST)
        self.sockets = [
            host.connect(AS211, DST_HOST, mbps(1), auto_renew=True)
            for _ in range(8 if self.quick else 64)
        ]
        self.rounds_per_block = 4 if self.quick else 37
        self.step = window_step(self.rounds_per_block * len(self.sockets))

    def prepare_block(self) -> None:
        super().prepare_block()
        self.payload = self.rng.randbytes(self.PAYLOAD)
        self.inputs.update(self.payload)

    def run_block(self, rec: Recorder) -> None:
        advance, payload = self.net.advance, self.payload
        for _ in range(self.rounds_per_block):
            for socket in self.sockets:
                self._next_op()
                start = _clock()
                try:
                    report = socket.send(payload)
                    good = report.delivered and report.packet.payload == payload
                except ColibriError as error:
                    good = False
                    report = error
                rec.latency_ns.append(_clock() - start)
                rec.attempted += 1
                if good:
                    rec.done += 1
                else:
                    rec.fail(1, f"packet not delivered intact: {report!r}")
                advance(self.step)

    def live_handle(self):
        socket = self.sockets[0]
        socket.send(b"")  # renews inline when due
        return socket.handle


# -------------------------------------------------------- control plane ----


class ControlWorkload(Workload):
    """A workload whose operations are CServ requests."""

    def verify(self) -> list:
        """Audit, then let everything expire: no store may keep an EER."""
        problems = [f"audit: {violation}" for violation in self.net.audit()]
        self.net.advance(EER_LIFETIME + 1.0)
        self.net.housekeeping()
        for isd_as, snapshot in self.net.telemetry().items():
            if snapshot["eers"]:
                problems.append(
                    f"{isd_as}: {snapshot['eers']} EERs survive expiry + sweep"
                )
        return problems

    def probe(self) -> dict:
        return {
            "reservation.store.bytes_per_eer": probes.store_bytes_per_eer(
                self.net, AS111
            )
        }


class SetupMix(ControlWorkload):
    """EER setups as111 -> as211: admitted, refused far, refused near."""

    name = "setup_mix"
    STEP = 0.002  # 500 requests/s, under the 1,000/s per-AS limiter
    #: class -> (share, bandwidth, AS that must refuse or None)
    CLASSES = (
        ("admit", 0.6, kbps(64), None),
        ("reject_far", 0.2, gbps(2), CORE2),
        ("reject_near", 0.2, gbps(20), AS111),
    )

    def setup(self, on_built=None) -> None:
        net = self._new_network(build_two_isd_topology())
        if on_built is not None:
            on_built(net)
        self._reserve(AS111, AS211, (gbps(10), gbps(10), gbps(1)))
        self.cserv = net.cserv(AS111)
        self.requests_per_block = 300 if self.quick else 1000
        # One simulated second of admitted requests: fills the descriptor
        # and key caches, and makes the set-up long enough to time (the
        # SegRs alone take 3 ms, which repeats only within 20%).
        for _ in range(50 if self.quick else 500):
            self.cserv.setup_eer(AS211, SRC_HOST, DST_HOST, kbps(64))
            net.advance(self.STEP)

    def prepare_block(self) -> None:
        super().prepare_block()
        kinds = [entry[0] for entry in self.CLASSES]
        shares = [entry[1] for entry in self.CLASSES]
        self.block = self.rng.choices(kinds, shares, k=self.requests_per_block)
        self.inputs.update(" ".join(self.block).encode())

    def run_block(self, rec: Recorder) -> None:
        net, setup_eer = self.net, self.cserv.setup_eer
        classes = {kind: (bw, at_as) for kind, _, bw, at_as in self.CLASSES}
        for kind in self.block:
            bandwidth, refuser = classes[kind]
            self._next_op()
            start = _clock()
            try:
                handle = setup_eer(AS211, SRC_HOST, DST_HOST, bandwidth)
                outcome = "admitted" if handle.granted == bandwidth else "partial"
            except InsufficientBandwidth as denial:
                outcome = denial.at_as
            except ColibriError as error:
                outcome = repr(error)
            elapsed = _clock() - start
            rec.latency_ns.append(elapsed)
            rec.class_ns[kind].append(elapsed)
            rec.attempted += 1
            if outcome == (refuser or "admitted"):
                rec.done += 1
            else:
                rec.fail(1, f"{kind}: got {outcome}, expected {refuser or 'admitted'}")
            net.advance(self.STEP)
            if self.ops % 500 == 0:  # once per simulated second
                start = _clock()
                rec.swept += net.housekeeping()["eers"]
                rec.sweep_ns.append(_clock() - start)


class ChurnLargeStore(ControlWorkload):
    """Renewals and replacements against thousands of live EERs."""

    name = "churn_large_store"
    PAIRS = ((AS111, AS211), (AS211, AS111), (AS121, AS22), (AS22, AS121))
    AGE = 10.0  # an EER is renewed or replaced at this age
    TICK = 0.05
    REPLACED = 0.05  # share abandoned and replaced by a fresh setup

    def setup(self, on_built=None) -> None:
        net = self._new_network(build_two_isd_topology())
        if on_built is not None:
            on_built(net)
        for source, destination in self.PAIRS:
            self._reserve(source, destination, (gbps(2),) * 3)
        population = 400 if self.quick else 4000
        self.ticks_per_block = 10 if self.quick else 40
        # Spread over one AGE, so renewals then arrive at a steady
        # population/AGE per simulated second.
        self.due = collections.deque()
        for index in range(population):
            pair = index % len(self.PAIRS)
            source, destination = self.PAIRS[pair]
            handle = net.cserv(source).setup_eer(
                destination, SRC_HOST, DST_HOST, kbps(16)
            )
            self.due.append((net.clock.now() + self.AGE, pair, handle))
            net.advance(self.AGE / population)
        self.tick = 0

    def prepare_block(self) -> None:
        super().prepare_block()
        horizon = self.net.clock.now() + self.ticks_per_block * self.TICK
        pending = sum(1 for due, _, _ in self.due if due <= horizon)
        self.replace = [self.rng.random() < self.REPLACED for _ in range(pending)]
        self.inputs.update(bytes(self.replace))

    def run_block(self, rec: Recorder) -> None:
        net, due, replace = self.net, self.due, iter(self.replace)
        for _ in range(self.ticks_per_block):
            now = net.clock.now()
            while due and due[0][0] <= now:
                _, pair, handle = due.popleft()
                source, destination = self.PAIRS[pair]
                cserv = net.cserv(source)
                fresh = next(replace, False)
                self._next_op()
                start = _clock()
                try:
                    if fresh:
                        handle = cserv.setup_eer(
                            destination, SRC_HOST, DST_HOST, kbps(16)
                        )
                    else:
                        handle = cserv.renew_eer(handle)
                    good = handle.granted == kbps(16)
                except ColibriError as error:
                    good = False
                    handle = error
                elapsed = _clock() - start
                rec.latency_ns.append(elapsed)
                rec.class_ns["setup" if fresh else "renew"].append(elapsed)
                rec.attempted += 1
                if good:
                    rec.done += 1
                    due.append((now + self.AGE, pair, handle))
                else:
                    rec.fail(1, f"{'setup' if fresh else 'renew'}: {handle!r}")
            net.advance(self.TICK)
            self.tick += 1
            if self.tick % 20 == 0:  # once per simulated second
                start = _clock()
                rec.swept += net.housekeeping()["eers"]
                rec.sweep_ns.append(_clock() - start)


WORKLOADS = {
    cls.name: cls
    for cls in (BurstLongPath, HostSerialPath, SetupMix, ChurnLargeStore)
}
