"""Differential test of the border router's burst loop against §4.6.

``BorderRouter`` has one fused per-burst loop behind ``process`` and
``process_batch``, a σ-cache, a Bloom-filter pair and an array sketch.
:class:`ReferenceRouter` below is the same pipeline written straight
from the paper with none of that: the stateless Eq. (3)/(4)+(6)
recompute, a ``set`` of seen packet MACs, a dict-of-floats count-min
with the same hash, the real :class:`TokenBucket`.  One seeded script
runs through the reference, through ``process`` packet by packet and
through ``process_batch`` in bursts of 1, 7 and 64, each on a fresh
router, and after every burst compares the verdict sequence, egress,
hop pointers and policing state with the reference, and *everything*
(filter bytes, sketch rows, bucket levels, σ-cache counters and LRU
order) between the optimized modes — on the native backend and on
``COLIBRI_NATIVE=0``.  The script's warm-cache tamper block and
``test_warm_cache_verdicts_equal_cold_cache_verdicts`` pin that a σ-cache
entry answers only for the Eq. (4) input it was minted from.

Mutants.  With the kernel loaded, steps 3-5 of a packet are one
``colibri_hop`` call; the packet on which a filter rotation or a sketch
roll is due takes the Python trio, whatever the build.  The script is
written so that a one-line mutant of either body changes something
compared here, and docs/performance.md lists them (§11: fourteen, applied to
``_burst`` and the trio; §14: those again in C where they have a C form,
and the kernel's own).  Three of the latter shaped this file:

* *previous filter not consulted* (``colibri_bloom_check``): the replay of
  ``recent[0]`` sits **behind** the packet that rotates the filters, where
  the kernel decides it;
* *sketch added before the duplicate test* (``colibri_hop``): a duplicate
  inside a burst would leave its size in the sketch cells;
* ``>=`` *for* ``>`` *at the threshold*: flow "edge" lands on the threshold
  exactly, one packet before it exceeds it.
"""

import collections
import dataclasses
import hashlib
import random
import struct

import pytest

from repro.constants import (
    DEFAULT_BURST_SECONDS,
    DRKEY_VALIDITY,
    DUPLICATE_WINDOW,
    FRESHNESS_WINDOW,
    L_HVF,
    MAX_CLOCK_SKEW,
    OFD_DEFAULT_DEPTH,
    OFD_DEFAULT_WINDOW,
    OFD_OVERUSE_FACTOR,
)
from repro.crypto import native
from repro.crypto.drkey import DrkeyDeriver
from repro.crypto.mac import mac
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.hvf import ColibriKeys, eer_hvf, hop_authenticator, segment_token
from repro.dataplane.ofd import OveruseFlowDetector
from repro.dataplane.monitor import (
    DEFAULT_CONFIRMATION_DROPS,
    DEFAULT_CONFIRMATION_WINDOW,
)
from repro.dataplane.router import BorderRouter, Verdict
from repro.dataplane.token_bucket import TokenBucket
from repro.packets.colibri import ColibriPacket, PacketType, WirePacketView
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, kbps

SRC = IsdAs.parse("1-ff00:0:110")
ROGUE = IsdAs.parse("1-ff00:0:120")  # drives one flow over its rate
BANNED = IsdAs.parse("1-ff00:0:130")  # on the blocklist from the start
HERE = IsdAs.parse("1-ff00:0:111")  # the router under test, hop 1 of every path
HOP = 1
EER = EerInfo(HostAddr(1), HostAddr(2))
#: A sketch this narrow makes flows share cells, so the estimate being
#: the *minimum* over rows decides who is flagged.
OFD_WIDTH = 2
#: The script starts 5 s before a DRKey epoch boundary and crosses it.
START = 3 * DRKEY_VALIDITY - 5.0


def _edge():
    """A payload and a bandwidth at which one packet of a 3-hop EER is worth
    exactly half the sketch threshold, in floating point as computed."""
    path = PathField(((0, 1), (2, 3), (4, 0)))
    half = OFD_DEFAULT_WINDOW * OFD_OVERUSE_FACTOR / 2
    for length in range(64):
        size = ColibriPacket.header_size_for(len(path)) + length
        bandwidth = size * 8 / half
        if size * 8 / bandwidth == half and half + half == 2 * half < half + half + half:
            return b"e" * length, bandwidth
    raise AssertionError("no payload length lands on the threshold")


EDGE_PAYLOAD, EDGE_BANDWIDTH = _edge()


# ------------------------------------------------------------ reference ----


class ReferenceRouter:
    """§4.6, one step after the other, exact state, no fast path."""

    def __init__(self, keys, clock, blocked):
        self.keys, self.clock = keys, clock
        self.blocked = set(blocked)
        self.seen = set()  # replay: the Eq. (6) MAC of every packet ever authenticated
        self.cells, self.window_start, self.suspects = {}, 0.0, set()
        self.buckets, self.streaks, self.confirmed = {}, {}, set()
        self.stats = collections.Counter()
        self.offenses = []

    def authentic(self, packet, now, size):
        """The packet's full MAC if its HVF is the start of it, else ``None``."""
        ingress, egress = packet.path.pair(packet.hop_index)
        for when in (now, now - DRKEY_VALIDITY):  # this epoch's key, then the last
            key = self.keys.hop_key(when)
            if packet.packet_type == PacketType.EER_DATA:
                sigma = hop_authenticator(key, packet.res_info, packet.eer_info, ingress, egress)
                expected = mac(sigma, packet.timestamp.packed + struct.pack("!I", size))
            else:
                expected = segment_token(key, packet.res_info, ingress, egress)
            if expected[:L_HVF] == packet.hvfs[packet.hop_index]:
                return expected
        return None

    def suspect(self, label, size, bandwidth, now):
        if now - self.window_start >= OFD_DEFAULT_WINDOW:
            self.cells, self.suspects, self.window_start = {}, set(), now
        if bandwidth <= 0:  # nothing reserved: overuse by definition, on every packet
            self.suspects.add(label)
            return True
        digest = hashlib.blake2b(label, digest_size=4 * OFD_DEFAULT_DEPTH).digest()
        counts = []
        for row in range(OFD_DEFAULT_DEPTH):
            cell = row, int.from_bytes(digest[4 * row : 4 * row + 4], "big") % OFD_WIDTH
            self.cells[cell] = self.cells.get(cell, 0.0) + size * 8 / bandwidth
            counts.append(self.cells[cell])
        if label in self.suspects or min(counts) <= OFD_DEFAULT_WINDOW * OFD_OVERUSE_FACTOR:
            return False
        self.suspects.add(label)
        return True

    def conforms(self, label, size, now):
        bucket = self.buckets.get(label)
        if bucket is None or bucket.conforms(size, now):
            return True
        count, last = self.streaks.get(label, (0, now))
        count = 1 if now - last > DEFAULT_CONFIRMATION_WINDOW else count + 1
        self.streaks[label] = (count, now)
        if count >= DEFAULT_CONFIRMATION_DROPS:
            self.confirmed.add(label)
        return False

    def process(self, packet):
        verdict, egress = self.decide(packet)
        self.stats[verdict] += 1
        return verdict, egress

    def decide(self, packet):
        now, info = self.clock.now(), packet.res_info
        size = len(packet.to_bytes())
        if now > info.expiry + MAX_CLOCK_SKEW:
            return Verdict.DROP_EXPIRED, None
        if abs(now - packet.timestamp.absolute(info.expiry)) > FRESHNESS_WINDOW:
            return Verdict.DROP_STALE, None
        if info.src_as in self.blocked:
            return Verdict.DROP_BLOCKED, None
        identifier = self.authentic(packet, now, size)
        if identifier is None:
            return Verdict.DROP_BAD_HVF, None
        if packet.packet_type != PacketType.EER_DATA:
            return Verdict.DELIVER_CSERV, None
        label = info.reservation.packed
        if identifier in self.seen:
            return Verdict.DROP_DUPLICATE, None
        self.seen.add(identifier)
        if self.suspect(label, size, info.bandwidth, now) and label not in self.buckets:
            self.buckets[label] = TokenBucket(info.bandwidth, DEFAULT_BURST_SECONDS, now=now)
        if not self.conforms(label, size, now):
            if label in self.confirmed:
                self.blocked.add(info.src_as)
                self.offenses.append((info.src_as, info.reservation))
            return Verdict.DROP_OVERUSE, None
        if packet.hop_index == packet.hop_count - 1:
            return Verdict.DELIVER_HOST, None
        egress = packet.path.pair(packet.hop_index)[1]
        packet.hop_index += 1
        return Verdict.FORWARD, egress


# ---------------------------------------------------------------- world ----


class World:
    """One router (reference or real) and the honest sources around it.

    Packets are stamped here, not by a gateway: the test needs a source
    that overuses, which an honest gateway's monitor would refuse.
    """

    def __init__(self, reference: bool):
        self.clock = SimClock(START)
        self.keys = ColibriKeys(DrkeyDeriver(HERE, self.clock, seed=b"here" * 4))
        self.offenses = []
        if reference:
            self.router = ReferenceRouter(self.keys, self.clock, [BANNED])
            self.offenses = self.router.offenses
        else:
            self.router = BorderRouter(
                HERE, self.keys, self.clock,
                ofd=OveruseFlowDetector(width=OFD_WIDTH),
                on_offense=lambda source, res_id: self.offenses.append((source, res_id)),
            )
            self.router.blocklist.block(BANNED)
        self.ids = {}
        self.flows = {}  # name -> (path, res_info, sigma at HOP)
        self.sequence = collections.Counter()  # per flow, as Ts is (§4.3)

    def reserve(self, name, source, hops, bandwidth=gbps(1), lifetime=16.0, version=1):
        """A (new version of an) EER crossing the router at ``HOP``."""
        local_id = self.ids.setdefault(name, len(self.ids) + 1)  # renewals keep it
        path = PathField(((0, 1),) + ((2, 3),) * (hops - 2) + ((4, 0),))
        res_info = ResInfo(
            ReservationId(source, local_id), bandwidth, self.clock.now() + lifetime, version
        )
        sigma = hop_authenticator(
            self.keys.hop_key(self.clock.now()), res_info, EER, *path.pair(HOP)
        )
        self.flows[name] = (path, res_info, sigma)

    def stamp(self, name, payload=b""):
        path, res_info, sigma = self.flows[name]
        self.sequence[name] += 1
        timestamp = Timestamp.create(self.clock.now(), res_info.expiry, self.sequence[name])
        packet = ColibriPacket.blank(
            PacketType.EER_DATA, path, res_info, timestamp, EER, payload
        )
        packet.hvfs[HOP] = eer_hvf(sigma, timestamp, packet.total_size)
        packet.hop_index = HOP
        return packet

    def control(self, name, honest=True):
        """A SegR control packet over the flow's path (Eq. 3 token)."""
        path, res_info, _ = self.flows[name]
        timestamp = Timestamp.create(self.clock.now(), res_info.expiry)
        packet = ColibriPacket.blank(PacketType.SEGMENT, path, res_info, timestamp, payload=b"ctl")
        key = self.keys.hop_key(self.clock.now()) if honest else b"k" * 16
        packet.hvfs[HOP] = segment_token(key, res_info, *path.pair(HOP))
        packet.hop_index = HOP
        return packet


def copy_of(packet):
    """The same wire bytes again, as a replayer who captured the packet
    on its way into this router would send them."""
    replayed = ColibriPacket.from_bytes(packet.to_bytes())
    replayed.hop_index = HOP
    return replayed


def tampered(packet, pair=None, eer_info=None, **res_fields):
    """The packet's bytes and authentic HVF around rewritten header
    fields: what the source AS, which holds σ, or a replayer can send.
    Eq. (6) covers none of them directly — Eq. (4) does, through σ."""
    forged = copy_of(packet)
    forged.res_info = dataclasses.replace(forged.res_info, **res_fields)
    if eer_info is not None:
        forged.eer_info = eer_info
    if pair is not None:
        pairs = forged.path.interface_pairs
        forged.path = PathField(pairs[:HOP] + (pair,) + pairs[HOP + 1 :])
    return forged


def tamper_cases(world, captured, age):
    """Four forgeries around authentic HVFs of flow "late" and of
    ``captured``, a packet of flow "long" sent ``age`` seconds ago."""
    stamp = world.stamp
    return [
        tampered(stamp("late"), bandwidth=gbps(1000)),  # evades OFD normalization
        tampered(captured, expiry=captured.res_info.expiry + age),  # a replay made fresh
        tampered(stamp("late"), eer_info=EerInfo(EER.dst_host, EER.src_host)),
        tampered(stamp("late"), pair=(2, 7)),  # steers the egress
    ]


def script(world):
    """Yields bursts (lists of packets); moves the world's clock and
    reservations between them.  Every mode replays it on its own world."""
    rng = random.Random(13)
    clock, stamp = world.clock, world.stamp
    world.reserve("short", SRC, hops=2)  # HOP is its last hop
    world.reserve("long", SRC, hops=16)
    world.reserve("brief", SRC, hops=3, lifetime=1.0)
    world.reserve("rogue", ROGUE, hops=3, bandwidth=kbps(100))
    world.reserve("banned", BANNED, hops=3)
    world.reserve("heavy", SRC, hops=3, bandwidth=kbps(100))

    def honest(count):
        return [stamp(rng.choice(("short", "long")), b"h" * rng.randrange(300)) for _ in range(count)]

    # Honest traffic, cold σ-cache then warm; a SegR packet, a forged one.
    first, captured = honest(40), stamp("long", b"captured")
    yield first + [captured, world.control("long"), world.control("long", honest=False)]
    # A duplicate inside one burst, and duplicates of an earlier burst.
    again = stamp("long", b"twice")
    yield honest(5) + [again, stamp("short"), copy_of(again)] + [copy_of(p) for p in first[:3]]
    # A flipped HVF byte; a blocked source; a packet held past freshness.
    forged = stamp("long", b"forged")
    forged.hvfs[HOP] = bytes([forged.hvfs[HOP][0] ^ 1]) + forged.hvfs[HOP][1:]
    held, brief = stamp("long", b"held"), stamp("brief")
    yield [forged, stamp("banned"), stamp("short"), stamp("banned")]
    clock.advance(0.4)
    last = stamp("brief")
    yield honest(7)  # same filter window, same OFD window
    clock.advance(0.65)
    recent = honest(3)
    yield [last] + recent  # 0.05 s past its expiry: inside the assumed skew
    clock.advance(0.6)  # filter rotation + OFD roll
    # Stale, expired, stale — and a replay still fresh after the rotation,
    # which only the previous filter remembers.
    # The replay comes after the packet that rotates (the Python body's,
    # whatever the build), so the kernel too must consult the previous filter.
    yield [held, brief, copy_of(first[0])] + honest(3) + [copy_of(recent[0])] + honest(3)
    # Overuse: 600 B packets on 100 kbps.  The sketch flags the flow, the
    # monitor confirms it, the blocklist escalates — all inside one burst,
    # so its tail must be DROP_BLOCKED without touching filter or sketch.
    # "heavy" stays inside its own rate but shares sketch cells with it.
    burst = [stamp("heavy", b"v" * 540) for _ in range(10)]
    for _ in range(40):
        burst.append(stamp("rogue", b"r" * 540))
        if rng.random() < 0.4:
            burst.extend(honest(1))
    yield burst  # the escalation lies inside its first 64 packets
    yield [stamp("rogue"), stamp("short")]
    # A renewal between bursts: version 2 misses the σ-cache once.
    world.reserve("long", SRC, hops=16, version=2)
    yield honest(12)
    # Across the DRKey epoch boundary: "short" is warm (its σ sits under
    # the old epoch), "late" was set up before the boundary but is first
    # seen after it (cold, previous-epoch fallback), "new" is minted after.
    world.reserve("late", SRC, hops=16)
    clock.set(3 * DRKEY_VALIDITY + 0.5)
    world.reserve("new", SRC, hops=2)
    yield [stamp("short"), stamp("late"), stamp("new"), stamp("late"), stamp("short")]
    # Three silent windows: both filters start over.
    clock.advance(3 * DUPLICATE_WINDOW)
    yield [stamp("short"), stamp("late", b"x" * 100)] + [stamp("new") for _ in range(5)]
    # Alone in a fresh sketch window, three packets of half the threshold
    # each: the second lands exactly on it, which is not yet overuse.
    world.reserve("edge", SRC, hops=3, bandwidth=EDGE_BANDWIDTH)
    clock.advance(OFD_DEFAULT_WINDOW)
    yield [stamp("edge", EDGE_PAYLOAD) for _ in range(3)]
    # Warm σ-cache, tampered headers: each is DROP_BAD_HVF as on a cold
    # cache, and the flows' honest packets around them still pass.  By now
    # ``captured`` is past freshness and out of both filters.
    age = clock.now() - START
    assert age > FRESHNESS_WINDOW + 2 * DUPLICATE_WINDOW
    yield [stamp("late"), copy_of(captured)] + tamper_cases(world, captured, age) + [stamp("late")]
    # A seeded random mix, time moving in small steps.
    for _ in range(6):
        clock.advance(rng.choice((0.0, 1e-3, 0.3, 1.3)))
        mix = [stamp(rng.choice(("short", "late", "new", "rogue", "banned"))) for _ in range(30)]
        yield mix + [copy_of(p) for p in rng.sample(mix, 4)]


# ----------------------------------------------------------- the modes ----


def run_reference(router, burst):
    return [router.process(packet) for packet in burst]


def run_serial(router, burst):
    return [(r.verdict, r.egress) for r in map(router.process, burst)]


def run_batches(size):
    def run(router, burst):
        results = []
        for start in range(0, len(burst), size):
            results += router.process_batch(burst[start : start + size])
        return [(r.verdict, r.egress) for r in results]

    return run


def policing_state(router):
    """What the reference and the real router must agree on."""
    if isinstance(router, ReferenceRouter):
        buckets, streaks, confirmed = router.buckets, router.streaks, router.confirmed
        cells = {cell: count for cell, count in router.cells.items() if count}
        suspects, blocked = router.suspects, router.blocked
        stats = dict(router.stats)
    else:
        monitor = router.monitor
        buckets, streaks, confirmed = monitor._buckets, monitor._drops, monitor._confirmed
        cells = {
            divmod(cell, OFD_WIDTH): count
            for cell, count in enumerate(router.ofd._counts or ())
            if count
        }
        suspects, blocked = router.ofd._suspects, set(router.blocklist.blocked_ases())
        stats = {verdict: count for verdict, count in router.stats.items() if count}
    levels = {label: (b.rate, b._tokens, b._updated) for label, b in buckets.items()}
    return stats, set(blocked), cells, set(suspects), levels, dict(streaks), set(confirmed)


def full_state(router):
    """Everything the optimized modes must agree on among themselves."""
    duplicates, ofd, cache = router.duplicates, router.ofd, router.sigma_cache
    return {
        "filters": (bytes(duplicates._current._array), bytes(duplicates._previous._array)),
        "insertions": (duplicates._current.insertions, duplicates._previous.insertions),
        "rotated_at": duplicates._rotated_at,
        "caught": duplicates.duplicates_caught,
        "ofd": (ofd._window_start, ofd.packets_seen, ofd.reports, dict(ofd._hits)),
        "monitor": (router.monitor.packets_passed, router.monitor.packets_dropped),
        "blocks_imposed": router.blocklist.blocks_imposed,
        "sigma_counters": cache.snapshot(),
        "sigma_lru": list(cache._entries),
    }


def replay(run, reference=False):
    world = World(reference)
    trace = []
    for burst in script(world):
        outcomes = run(world.router, burst)
        trace.append((
            outcomes,
            [packet.hop_index for packet in burst],
            list(world.offenses),
            policing_state(world.router),
            None if reference else full_state(world.router),
        ))
    return trace


@pytest.fixture(params=["native", "hashlib"])
def backend(request, monkeypatch):
    if request.param == "hashlib":
        monkeypatch.setenv("COLIBRI_NATIVE", "0")
    native.reset_for_tests()
    if request.param == "native" and native.backend() is None:
        pytest.skip("native backend unavailable")
    yield request.param
    monkeypatch.undo()
    native.reset_for_tests()


def test_burst_loop_matches_the_reference(backend):
    reference = replay(run_reference, reference=True)
    serial = replay(run_serial)
    modes = {"process": serial}
    modes.update((f"process_batch/{n}", replay(run_batches(n))) for n in (1, 7, 64))
    for label, trace in modes.items():
        assert len(trace) == len(reference)
        for step, (expected, actual, one_by_one) in enumerate(zip(reference, trace, serial)):
            where = f"{label}/{backend}, burst {step}"
            assert actual[0] == expected[0], f"verdicts or egress differ: {where}"
            assert actual[1] == expected[1], f"hop pointers differ: {where}"
            assert actual[2] == expected[2], f"offense reports differ: {where}"
            assert actual[3] == expected[3], f"policing state differs: {where}"
            assert actual[4] == one_by_one[4], f"filters, sketch or σ-cache differ: {where}"

    # The script really drove every shape it claims to.
    seen = collections.Counter(v for outcomes, *_ in reference for v, _ in outcomes)
    assert set(seen) == set(Verdict)
    # Escalation happened mid-burst: one report, and the rogue flow's
    # tail in that burst is DROP_BLOCKED after exactly three overuse drops.
    escalated = next(i for i, step in enumerate(reference) if step[2])
    verdicts = [v for v, _ in reference[escalated][0]]
    assert verdicts.count(Verdict.DROP_OVERUSE) == DEFAULT_CONFIRMATION_DROPS
    assert verdicts.count(Verdict.DROP_BLOCKED) > 10
    assert verdicts.index(Verdict.DROP_OVERUSE) < verdicts.index(Verdict.DROP_BLOCKED) < 64
    assert len(reference[-1][2]) == 1
    # σ-cache: nine cold misses (one per flow version that got as far as
    # step 3), warm hits, the forged tag and the four tampered headers as
    # the rejected hints, and σs under both DRKey epochs; the filters
    # rotated at four instants or more.
    final = serial[-1][4]
    assert final["sigma_counters"]["sigma_cache_misses"] == 9
    assert final["sigma_counters"]["sigma_cache_hits"] > 100
    assert final["sigma_counters"]["sigma_cache_rejected_hints"] == 1 + 4
    assert {epoch for _, _, epoch in final["sigma_lru"]} == {2, 3}
    assert len({step[4]["rotated_at"] for step in serial}) >= 4


def test_warm_cache_verdicts_equal_cold_cache_verdicts(backend):
    """Every path that consults the σ-cache gives a tampered header the
    verdict a cold cache gives it, and counts the hint it refused."""
    expected = [Verdict.FORWARD, Verdict.DROP_STALE] + [Verdict.DROP_BAD_HVF] * 4 + [Verdict.FORWARD]
    tamper_burst, reference = next(
        (index, step[0])
        for index, step in enumerate(replay(run_reference, reference=True))
        if [verdict for verdict, _ in step[0]] == expected
    )
    for label, run in [("process", run_serial)] + [
        (f"process_batch/{n}", run_batches(n)) for n in (1, 7, 64)
    ]:
        world, before = World(reference=False), None
        for index, burst in enumerate(script(world)):
            if index == tamper_burst:
                before = world.router.sigma_cache.rejected_hints
            outcomes = run(world.router, burst)
            if index == tamper_burst:
                assert outcomes == reference, label
                assert world.router.sigma_cache.rejected_hints == before + 4, label
                break

    def as_views(packets):
        views, buffer = [], bytearray()
        for packet in packets:
            wire = packet.to_bytes()
            views.append((len(buffer), len(wire)))
            buffer += wire
        return [WirePacketView(buffer, offset, length) for offset, length in views]

    validators = {
        "validate_batch": lambda router, packets: router.validate_batch(packets),
        "validate_wire_batch": lambda router, packets: router.validate_wire_batch(as_views(packets)),
    }
    for label, validate in validators.items():
        world = World(reference=False)
        world.reserve("long", SRC, hops=16)
        world.reserve("late", SRC, hops=16)
        captured = world.stamp("long", b"captured")
        assert validate(world.router, [captured, world.stamp("late")]) == [True, True]
        age = FRESHNESS_WINDOW + 2 * DUPLICATE_WINDOW + 4.4
        world.clock.advance(age)
        cases = tamper_cases(world, captured, age)
        cache = world.router.sigma_cache
        assert len(cache) == 2 and cache.rejected_hints == 0
        warm = validate(world.router, cases + [world.stamp("late")])
        assert cache.rejected_hints == 4, label
        cache.clear()
        cold = validate(world.router, cases + [world.stamp("late")])
        assert warm == cold == [False] * 4 + [True], label


def test_the_filter_is_keyed_on_the_untruncated_mac(backend):
    """Step 4 names a packet by all 16 bytes of its Eq. (6) MAC, on a
    σ-cache miss and on a hit alike — not by the 4-byte HVF.  The trio is
    watched through ``check_and_insert``; the kernel, which never calls
    it, by the bits it left in the filter."""
    world = World(reference=False)
    world.reserve("long", SRC, hops=16)
    seen = []
    check_and_insert = world.router.duplicates.check_and_insert
    world.router.duplicates.check_and_insert = lambda identifier, now: (
        seen.append(identifier) or check_and_insert(identifier, now)
    )
    packets = [world.stamp("long", b"p" * size) for size in (0, 10, 20)]
    sigma = world.flows["long"][2]
    expected = [
        mac(sigma, packet.timestamp.packed + struct.pack("!I", packet.total_size))
        for packet in packets
    ]
    assert [r.verdict for r in world.router.process_batch(packets)] == [Verdict.FORWARD] * 3
    if backend == "hashlib":
        assert seen == expected
    else:
        assert seen == expected[:1]  # the first packet opened the sketch window: trio
        oracle = DuplicateSuppressor(world.clock)
        assert all(oracle.check_and_insert(identifier, world.clock.now()) for identifier in expected)
        assert any(oracle._current._array)
        assert world.router.duplicates._current._array == oracle._current._array
        assert world.router.duplicates._current.insertions == 3
    assert [packet.hvfs[HOP] for packet in packets] == [m[:L_HVF] for m in expected]
