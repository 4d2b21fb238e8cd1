"""The router's policing body across the Python/C boundary.

With :mod:`repro.crypto.native` loaded, ``BorderRouter._burst`` runs §4.6
steps 3-5 of a packet as one ``colibri_hop`` call on the tables the
router's ``DuplicateSuppressor`` and ``OveruseFlowDetector`` own; without
it (and for the packet on which a rotation or roll is due) it runs the
Python trio ``entry.verify`` / ``check_and_insert`` / ``observe``.  Here the
two bodies are held to each other, at the router:

* what the trio refuses, the kernel refuses — same exception type, and the
  kernel writes nothing;
* a replaced buffer is the one the next packet lands in (no stale pointer);
* any sequence of bursts and clock steps leaves a kernel router, a
  ``COLIBRI_NATIVE=0`` router and the reference router with equal verdicts
  and policing state, and the first two bit-equal, journals included.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import native
from repro.dataplane import DuplicateSuppressor, OveruseFlowDetector
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.router import Verdict
from repro.obs import ObsContext
from repro.topology.addresses import IsdAs
from repro.util.clock import SimClock
from repro.util.units import kbps
from tests import test_dataplane
from tests import test_router_differential as differential
from tests.test_router_differential import HOP, ROGUE, SRC, World, copy_of


def build(use_native, build_fn):
    """``build_fn()`` with the kernel probed as asked; a router keeps the
    policing body it was built with, so both kinds can then run side by side."""
    patch = pytest.MonkeyPatch()
    if not use_native:
        patch.setenv("COLIBRI_NATIVE", "0")
    native.reset_for_tests()
    try:
        if use_native and native.backend() is None:
            pytest.skip("native backend unavailable")
        return build_fn()
    finally:
        patch.undo()
        native.reset_for_tests()


@pytest.fixture(params=["native", "python"])
def make(request):
    """``make(build_fn)``: build on this param's backend."""
    return lambda build_fn: build(request.param == "native", build_fn)


def warm_world(make):
    """A router past its first packet (which opens the sketch window, so
    it took the trio): from here the kernel, if built in, polices."""
    world = make(lambda: World(reference=False))
    world.reserve("flow", SRC, hops=3, lifetime=600.0)
    assert world.router.process(world.stamp("flow")).verdict is Verdict.FORWARD
    policer = world.router._policer
    world.kernel = policer is not None
    if world.kernel:
        assert policer.bind(world.router.duplicates, world.router.ofd, world.clock.now()) is not None
    return world


def tables(router):
    duplicates = router.duplicates
    return (
        bytes(duplicates._current._array),
        bytes(duplicates._previous._array),
        router.ofd._counts.tobytes(),
        duplicates._current.insertions,
        router.ofd.packets_seen,
        dict(router.stats),
    )


def send(world, *args):
    return world.router.process(world.stamp("flow", *args)).verdict


# ------------------------------------------------- what both bodies refuse ----


class TestRefusals:
    def test_identifier_must_be_a_whole_mac(self, make):
        """The filter names packets by whole MACs only; the kernel computes
        the MAC itself, so what can be malformed there is the tag: up to
        16 bytes are compared, a longer one never matches."""
        world = warm_world(make)
        before = tables(world.router)
        for identifier in (b"", b"short", b"x" * 15, b"x" * 17, b"x" * 32):
            with pytest.raises(struct.error):
                world.router.duplicates.check_and_insert(identifier, world.clock.now())
        wide, longer = world.stamp("flow"), world.stamp("flow")
        sigma = world.flows["flow"][2]
        for packet, extra in ((wide, b""), (longer, b"\0")):
            message = packet.timestamp.packed + struct.pack("!I", packet.total_size)
            packet.hvfs[HOP] = differential.mac(sigma, message) + extra
        assert world.router.process(longer).verdict is Verdict.DROP_BAD_HVF
        after = tables(world.router)
        assert after[:5] == before[:5]
        assert world.router.process(wide).verdict is Verdict.FORWARD

    def test_filter_geometry_must_be_positive(self, make):
        for bits, hashes in [(0, 4), (-8, 4), (1 << 10, 0), (1 << 10, -1)]:
            with pytest.raises(ValueError):
                make(lambda: DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes))

    def test_bits_beyond_the_buffer_are_never_touched(self, make):
        """A filter claiming more bits than its buffers hold: the Python
        loop indexes past the end, the kernel is told the buffers' length
        and refuses before the filter or the sketch is written."""
        world = warm_world(make)
        duplicates = world.router.duplicates
        before = tables(world.router)
        duplicates._current.bits = duplicates._previous.bits = 1 << 40
        with pytest.raises(IndexError):
            for _ in range(64):  # some position of some MAC is out of range
                send(world)
        assert len(duplicates._current._array) == (1 << 20) // 8
        if world.kernel:
            assert tables(world.router) == before
        duplicates._current.bits = duplicates._previous.bits = 1 << 20
        assert send(world) is Verdict.FORWARD

    def test_cell_outside_the_sketch(self, make):
        world = warm_world(make)
        router, ofd = world.router, world.router.ofd
        (entry,) = router.sigma_cache._entries.values()
        last = ofd.width * ofd.depth - 1

        def plant(*cells):  # as cells_for hands them out on this backend
            entry.cells = cells if ofd._backend is None else ofd._backend.ffi.new("uint32_t[]", cells)

        before = tables(router)
        for cells in [(last + 1,), (0, last + 1), (last, 1 << 31)]:
            plant(*cells)
            with pytest.raises(IndexError):
                send(world)
            if world.kernel:  # every cell is checked before the first write, to either table
                assert tables(router) == before
        plant(0, last)  # first and last cell are in range
        assert send(world) is Verdict.FORWARD
        assert ofd._counts[0] > 0 and ofd._counts[last] > 0


# ------------------------------------------------------ replaced buffers ----


class TestViewsFollowTheirBuffers:
    def test_rotation_and_clear(self, make):
        world = warm_world(make)
        clock, duplicates = world.clock, world.router.duplicates
        clock.advance(0.5)
        packet = world.stamp("flow")
        assert world.router.process(packet).verdict is Verdict.FORWARD
        first = duplicates._current._array
        recorded = bytes(first)
        assert any(recorded) and duplicates._current.insertions == 2
        # One window: the buffer with both packets becomes previous, current
        # is new, and the next packets land there and are tested against both.
        clock.advance(0.75)
        assert send(world) is Verdict.FORWARD  # rotation was due: the trio's packet
        assert duplicates._previous._array is first and duplicates._current._array is not first
        assert world.router.process(copy_of(packet)).verdict is Verdict.DROP_DUPLICATE
        assert send(world) is Verdict.FORWARD
        assert bytes(first) == recorded and duplicates._current.insertions == 2
        # A long silence replaces both; a direct clear() replaces one.
        clock.advance(5.0)
        assert send(world) is Verdict.FORWARD
        assert not any(duplicates._previous._array) and bytes(first) == recorded
        stale = duplicates._current._array
        recorded = bytes(stale)
        duplicates._current.clear()
        assert send(world) is Verdict.FORWARD
        assert any(duplicates._current._array) and duplicates._current.insertions == 1
        assert bytes(stale) == recorded

    def test_roll(self, make):
        world = warm_world(make)
        ofd = world.router.ofd
        per_packet = world.stamp("flow").total_size * 8 / world.flows["flow"][1].bandwidth
        assert send(world) is Verdict.FORWARD
        old = ofd._counts
        recorded = old.tobytes()
        assert sum(old) == pytest.approx(2 * ofd.depth * per_packet)
        world.clock.advance(1.0)
        assert send(world) is Verdict.FORWARD and send(world) is Verdict.FORWARD
        assert ofd._counts is not old and old.tobytes() == recorded
        assert sum(ofd._counts) == pytest.approx(2 * ofd.depth * per_packet)
        rolled = ofd._counts
        ofd._roll(world.clock.now())  # replaced behind the router's back
        assert send(world) is Verdict.FORWARD
        assert sum(ofd._counts) == pytest.approx(ofd.depth * per_packet)
        assert sum(rolled) == pytest.approx(2 * ofd.depth * per_packet)


def test_bit_positions_on_both_backends(make):
    """``TestDuplicateSuppressor.test_bit_positions_are_the_digest_words``
    (4,999- and 1,000-bit filters included): as is on the Python body, and
    the same rule read off the filter ``colibri_hop`` wrote."""
    make(test_dataplane.TestDuplicateSuppressor().test_bit_positions_are_the_digest_words)
    backend = make(native.backend)
    if backend is None:
        return
    key = b"k" * 16
    schedule = backend.key_schedule(key)
    cells = backend.ffi.new("uint32_t[]", [0])
    for bits, hashes in [(1 << 12, 4), (1 << 12, 3), (4999, 7), (1000, 1)]:
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes)
        ofd = OveruseFlowDetector(width=1, depth=1)
        ofd._roll(0.0)
        policer = native.HopPolicer(backend)
        state = policer.bind(suppressor, ofd, 0.0)
        expected = bytearray((bits + 7) // 8)
        for index in range(300):
            message = b"id-%d" % index
            identifier = hashlib.blake2s(message, key=key, digest_size=16).digest()
            positions = test_dataplane.bloom_bits(identifier, bits, hashes)
            seen = all(expected[p >> 3] & (1 << (p & 7)) for p in positions)
            outcome = policer.hop(state, schedule, message, len(message), identifier[:4], 4, cells, 1, 0.001)
            assert outcome == (1 if seen else 2) and policer.mac[:] == identifier
            for position in positions:
                expected[position >> 3] |= 1 << (position & 7)
        assert suppressor._current._array == expected
        assert state.estimate == ofd._counts[0] > 0


def test_a_burst_that_raises_keeps_its_tallies():
    """What a burst wrote before packet 3 of 5 raised — filter bits, sketch
    cells, hop pointers — is in the counters too, on either body."""

    class Refused(Exception):
        pass

    def report(source, reservation):
        raise Refused(source)

    def run(use_native):
        world = build(use_native, lambda: World(reference=False))
        router = world.router
        router.monitor, router.on_offense = DeterministicMonitor(confirmation_drops=1), report
        world.reserve("flow", SRC, hops=3)
        world.reserve("zero", ROGUE, hops=3, bandwidth=0.0)
        assert send(world) is Verdict.FORWARD
        burst = [world.stamp(name) for name in ("flow", "flow", "zero", "flow", "flow")]
        with pytest.raises(Refused):
            router.process_batch(burst)
        assert [packet.hop_index for packet in burst] == [HOP + 1] * 2 + [HOP] * 3
        return (
            {verdict: count for verdict, count in router.stats.items() if count},
            router.duplicates._current.insertions,
            router.ofd.packets_seen,
            router.monitor.packets_passed,
            router.monitor.packets_dropped,
        )

    assert run(True) == run(False) == ({Verdict.FORWARD: 3}, 4, 4, 3, 1)


# ------------------------------- kernel ≡ trio ≡ reference, state and journal ----

ZERO = IsdAs.parse("1-ff00:0:140")  # holds a reservation of no bandwidth
LAPSED = IsdAs.parse("1-ff00:0:150")  # holds one too, until it is renewed
#: name -> (source AS, hops, bandwidth; ``None`` is the default 1 Gbps)
FLOWS = {
    "a": (SRC, 3, None), "b": (SRC, 2, None), "rogue": (ROGUE, 3, kbps(100)),
    "zero": (ZERO, 3, 0.0), "lapsed": (LAPSED, 3, 0.0),
}
ADVANCES = [0.001, 0.3, 1.0, 1.25, 2.5, 4.0]  # under a window; a roll; a rotation; silence
names = st.sampled_from(sorted(FLOWS))
steps = st.one_of(
    st.tuples(st.just("send"), names, st.integers(0, 600)),
    st.tuples(st.just("replay"), st.integers(0, 30)),
    st.tuples(st.just("forge"), names),
    st.tuples(st.just("renew"), names),
    st.tuples(st.just("cut")),
    st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
)
#: Every shape the seam has, whatever hypothesis then appends.
PREFIX = (
    [("send", "a", 0), ("send", "b", 10), ("send", "a", 20), ("advance", 0.3)]  # windows open: trio, then kernel
    + [("send", "a", 30), ("replay", 0), ("send", "b", 0), ("cut",)]  # a duplicate inside a burst
    + [("forge", "a"), ("send", "a", 0), ("cut",)]  # a forged HVF on a warm entry
    # Flagged for having no bandwidth, then renewed with some, inside one burst
    # that began with no suspect: a suspect under the threshold still counts a hit.
    + [("send", "lapsed", 0), ("renew", "lapsed"), ("send", "lapsed", 0), ("cut",)]
    # No bandwidth: flagged on every packet, confirmed on the third, blocked
    # from the fourth, in a burst that began with an empty blocklist.
    + [("send", "zero", 0)] * 5 + [("send", "a", 0), ("cut",)]
    # Over its rate: flagged by the sketch, escalated inside the burst.
    + [("send", "rogue", 540)] * 40 + [("send", "b", 5), ("cut",)]
    + [("send", "a", 77), ("advance", 1.0)]  # filter rotation and sketch roll
    + [("send", "b", 0), ("replay", 1)]  # still fresh, and only the previous filter remembers it
    + [("send", "a", 0), ("send", "zero", 0), ("send", "rogue", 0), ("renew", "a")]
    + [("advance", 1.0), ("advance", 0.001), ("send", "a", 0), ("send", "b", 0)]  # a roll alone
    + [("advance", 0.3), ("send", "a", 0), ("send", "b", 0), ("cut",)]  # a rotation alone
)


def scripted_world(use_native=None):
    """A reference world, or (``use_native`` given) a real one with a journal;
    nobody is blocked yet."""
    if use_native is None:
        world = World(reference=True)
        world.router.blocked.clear()
    else:
        world = build(use_native, lambda: World(reference=False))
        router = world.router
        router.blocklist.unblock(differential.BANNED)
        obs = ObsContext.create(world.clock, journal=True)
        for part in (router, router.duplicates, router.ofd, router.monitor):
            part.obs, part.isd_as = obs, "here"
    world.versions = dict.fromkeys(FLOWS, 0)
    for name in FLOWS:
        renew(world, name)
    world.sent, world.burst = [], []
    return world


def renew(world, name):
    """The flow's next version; a renewal always reserves the default 1 Gbps."""
    source, hops, bandwidth = FLOWS[name]
    world.versions[name] += 1
    extra = {} if bandwidth is None or world.versions[name] > 1 else {"bandwidth": bandwidth}
    world.reserve(name, source, hops=hops, lifetime=600.0, version=world.versions[name], **extra)


def apply(world, step):
    """One script step on one world; returns the burst to run, if it ended one."""
    kind = step[0]
    if kind == "send":
        packet = world.stamp(step[1], b"s" * step[2])
        world.sent.append(packet)
        world.burst.append(packet)
    elif kind == "forge":
        packet = world.stamp(step[1])
        packet.hvfs[HOP] = bytes([packet.hvfs[HOP][0] ^ 1]) + packet.hvfs[HOP][1:]
        world.burst.append(packet)
    elif kind == "replay":
        if world.sent:
            world.burst.append(copy_of(world.sent[-1 - step[1] % len(world.sent)]))
    elif kind == "renew":
        renew(world, step[1])
    else:
        burst, world.burst = world.burst, []
        return burst
    return None


@settings(max_examples=50, deadline=None)
@given(script=st.lists(steps, max_size=60))
def test_native_and_python_bodies_agree(script):
    kernel, trio, reference = scripted_world(True), scripted_world(False), scripted_world()
    assert kernel.router._policer is not None and trio.router._policer is None
    runs = (differential.run_batches(64), differential.run_batches(64), differential.run_reference)
    seen = set()
    for step in PREFIX + script + [("cut",)]:
        traces = []
        for world, run in zip((kernel, trio, reference), runs):
            burst = apply(world, step)
            if burst is not None:
                outcomes = run(world.router, burst)
                traces.append((
                    outcomes,
                    [packet.hop_index for packet in burst],
                    list(world.offenses),
                    differential.policing_state(world.router),
                ))
        if traces:
            assert traces[0] == traces[1] == traces[2], step
            assert differential.full_state(kernel.router) == differential.full_state(trio.router), step
            lines = [world.router.obs.journal.export_jsonl() for world in (kernel, trio)]
            assert lines[0] == lines[1], step
            seen.update(verdict for verdict, _ in traces[0][0])
        if step[0] == "advance":
            for world in (kernel, trio, reference):
                world.clock.advance(step[1])
    assert {Verdict.DROP_DUPLICATE, Verdict.DROP_BAD_HVF, Verdict.DROP_OVERUSE, Verdict.DROP_BLOCKED} <= seen
    journal = kernel.router.obs.journal
    assert journal.total_count("DuplicateSuppressed") >= 2 and journal.total_count("OfdFlagged") >= 4
    assert kernel.router.duplicates._rotated_at > differential.START
    assert {ZERO, ROGUE} <= set(kernel.router.blocklist.blocked_ases())
