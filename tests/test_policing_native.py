"""The router's burst loop across the Python/C boundary.

With :mod:`repro.crypto.native` loaded, ``BorderRouter._burst`` runs §4.6
steps 1 and 3-5 of a burst as ``colibri_burst`` calls on the tables the
router's ``DuplicateSuppressor`` and ``OveruseFlowDetector`` own, σ from
the kernel's flow table; without it (and for each packet the kernel
hands back) it runs the Python body, which recomputes σ and calls
``check_and_insert`` / ``observe``.  Here the two bodies are held to each
other, at the router:

* what the Python body refuses, the kernel refuses — same exception type,
  and the kernel writes nothing;
* a replaced buffer is the one the next packet lands in (no stale pointer);
* the flow table is sound: a poisoned slot changes no verdict, a forged
  header stores nothing;
* any sequence of bursts and clock steps leaves a kernel router, a
  ``COLIBRI_NATIVE=0`` router and the reference router with equal verdicts
  and policing state, and the first two bit-equal, journals included.
"""

import gc
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import OFD_OVERUSE_FACTOR
from repro.crypto import native
from repro.dataplane import DuplicateSuppressor, OveruseFlowDetector
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.router import BorderRouter, RouterResult, Verdict
from repro.packets.colibri import ColibriPacket
from repro.obs import ObsContext
from repro.sim import ColibriNetwork
from repro.topology import build_two_isd_topology
from repro.topology.addresses import IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, kbps, mbps
from tests import test_dataplane
from tests._work import work_of
from tests import test_router_differential as differential
from tests.test_router_differential import HERE, HOP, ROGUE, SRC, World, build, copy_of


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
    world.kernel = world.router.kernel is not None
    assert_aimed(world.router)
    return world


def assert_aimed(router):
    """The kernel's struct names the router's live buffers, geometry,
    windows and threshold — as the tables left it, no packet sent, nothing
    polled."""
    kernel = router.kernel
    if kernel is None:
        return
    ffi, state = kernel._ffi, kernel.state
    duplicates, ofd = router.duplicates, router.ofd

    def address(cdata):
        return int(ffi.cast("uintptr_t", cdata))

    buffers = (duplicates._current._array, duplicates._previous._array, ofd._counts)
    assert [address(state.current), address(state.previous), address(state.counts)] == [
        address(ffi.from_buffer(buffer)) for buffer in buffers
    ]
    assert (state.nbytes, state.ncounts) == (len(buffers[0]), len(ofd._counts))
    current = duplicates._current
    assert (state.bits, state.hashes) == (current.bits, current.hashes)
    assert state.threshold == ofd.window * ofd.overuse_factor
    assert (state.width, state.depth) == (ofd.width, ofd.depth)
    assert (state.rotated_at, state.window_start) == (duplicates._rotated_at, ofd._window_start)


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

    def test_sketch_depth_fits_a_flow_entry(self, make):
        """Both bodies take 1 to ``native.SKETCH_DEPTH`` rows, the cells a
        flow-table entry holds, and neither takes more."""
        for depth in (1, native.SKETCH_DEPTH):
            assert make(lambda: OveruseFlowDetector(width=4, depth=depth)).depth == depth
        for depth in (0, native.SKETCH_DEPTH + 1, 16):
            with pytest.raises(ValueError):
                make(lambda: OveruseFlowDetector(width=4, depth=depth))

    def test_bits_beyond_the_buffer_are_never_touched(self, make):
        """A filter claiming more bits than its buffers hold: the Python
        loop indexes past the end, the kernel is told the buffers' length
        and refuses before the filter or the sketch is written."""
        world = warm_world(make)
        duplicates = world.router.duplicates
        before = tables(world.router)
        duplicates._current.bits = duplicates._previous.bits = 1 << 40
        assert_aimed(world.router)  # the kernel is told the new geometry too
        with pytest.raises(IndexError):
            for _ in range(64):  # some position of some MAC is out of range
                send(world)
        assert len(duplicates._current._array) == (1 << 20) // 8
        if world.kernel:
            assert tables(world.router) == before
        duplicates._current.bits = duplicates._previous.bits = 1 << 20
        assert send(world) is Verdict.FORWARD

    def test_cell_outside_the_sketch(self, make):
        """Cells planted where each body reads them: the kernel's flow
        table, ``cells_for`` for the Python body."""
        world = warm_world(make)
        router, ofd = world.router, world.router.ofd
        world.clock.advance(0.01)  # the window the warm-up opened, not due
        assert send(world) is Verdict.FORWARD  # the kernel's first: it stores the flow
        last = ofd.width * ofd.depth - 1

        def plant(*cells):
            ofd.cells_for = lambda label: cells
            if world.kernel:
                (slot,) = differential.flows(router.kernel).values()
                for row in range(ofd.depth):
                    slot.cells[row] = cells[row % len(cells)]

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
    """The tables push every change to the kernel's struct: after each one
    ``assert_aimed`` reads it before the next packet, and nothing polls."""

    def test_the_hooks_fire_where_the_tables_change(self, make):
        """Steady packets re-point nothing; a rotation re-points once, from
        the filter it clears, and a roll once, from the sketch."""
        world = warm_world(make)
        kernel, calls = world.router.kernel, []

        def hook(table):
            return lambda: calls.append(table) or (kernel and kernel.point())

        for table in (world.router.duplicates._current, world.router.duplicates._previous):
            table._repoint = hook("filter")
        world.router.duplicates._repoint = hook("clock")
        world.router.ofd._repoint = hook("sketch")
        for _ in range(5):
            assert send(world) is Verdict.FORWARD
        assert calls == []
        world.clock.advance(1.25)
        assert send(world) is Verdict.FORWARD
        assert calls == ["filter", "clock", "sketch"]
        assert_aimed(world.router)

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
        assert_aimed(world.router)
        assert world.router.process(copy_of(packet)).verdict is Verdict.DROP_DUPLICATE
        assert send(world) is Verdict.FORWARD
        assert bytes(first) == recorded and duplicates._current.insertions == 2
        # A long silence replaces both; a direct clear() replaces one.
        clock.advance(5.0)
        assert send(world) is Verdict.FORWARD
        assert not any(duplicates._previous._array) and bytes(first) == recorded
        assert_aimed(world.router)
        stale = duplicates._current._array
        recorded = bytes(stale)
        duplicates._current.clear()
        assert_aimed(world.router)
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
        assert_aimed(world.router)
        assert send(world) is Verdict.FORWARD
        assert sum(ofd._counts) == pytest.approx(ofd.depth * per_packet)
        assert sum(rolled) == pytest.approx(2 * ofd.depth * per_packet)

    def test_overuse_factor_on_a_warm_router(self, make):
        """What attacks/ddos.py, obs/report.py and benchmarks/figures.py do
        after construction: an infinite factor, then the default again."""
        world = warm_world(make)
        ofd = world.router.ofd
        world.reserve("rogue", ROGUE, hops=3, lifetime=600.0, bandwidth=kbps(100))

        def flood():
            return {world.router.process(world.stamp("rogue", b"r" * 540)).verdict for _ in range(30)}

        ofd.overuse_factor = float("inf")
        assert_aimed(world.router)
        assert flood() == {Verdict.FORWARD} and ofd.reports == 0
        ofd.overuse_factor = OFD_OVERUSE_FACTOR
        assert_aimed(world.router)
        world.clock.advance(1.0)  # a fresh window: the flood now crosses the threshold
        assert Verdict.DROP_OVERUSE in flood() and ofd.reports == 1


def test_bit_positions_on_both_backends(make):
    """``TestDuplicateSuppressor.test_bit_positions_are_the_digest_words``
    (4,999- and 1,000-bit filters included): as is on the Python body, and
    the same rule read off the filter a router's kernel wrote, a packet
    dropped as a duplicate exactly when its MAC's bits were all set."""
    make(test_dataplane.TestDuplicateSuppressor().test_bit_positions_are_the_digest_words)
    for bits, hashes in [(1 << 12, 4), (1 << 12, 3), (4999, 7), (1000, 1)]:

        def geometry():
            world = World(reference=False)
            world.router = BorderRouter(
                HERE, world.keys, world.clock, ofd=OveruseFlowDetector(width=1, depth=1),
                duplicates=DuplicateSuppressor(world.clock, bits=bits, hashes=hashes),
            )
            return world

        world = make(geometry)
        world.reserve("flow", SRC, hops=3, lifetime=600.0)
        sigma = world.flows["flow"][2]
        expected = bytearray((bits + 7) // 8)
        for index in range(300):
            packet = world.stamp("flow", b"p" * (index % 7))
            message = packet.timestamp.packed + struct.pack("!I", packet.total_size)
            positions = test_dataplane.bloom_bits(differential.mac(sigma, message), bits, hashes)
            seen = all(expected[p >> 3] & (1 << (p & 7)) for p in positions)
            verdict = world.router.process(packet).verdict
            assert verdict is (Verdict.DROP_DUPLICATE if seen else Verdict.FORWARD)
            for position in positions:
                expected[position >> 3] |= 1 << (position & 7)
        assert world.router.duplicates._current._array == expected
        assert world.router.ofd._counts[0] > 0


# ------------------------------------------------------- work per packet ----


#: Ceilings per burst on a warm router, honest traffic, nobody blocked:
#: ``(python, builtin)`` calls as ``per burst + per packet * packets``, the
#: per-burst term two above the count on CPython 3.11.  The Python body's
#: per-packet term is the count on CPython 3.9, 3.11 and 3.12 alike; the
#: native body's was counted on 3.11.  A helper call or a ``dict.get`` per
#: packet-hop that creeps back raises the per-packet term and fails the
#: 64-packet burst.  These packets carry no ``_row`` memo: the native body
#: builds it (``len`` twice, the two ``pack`` calls) and calls the glue's
#: ``burst`` again, which gathers on from there.
WORK = {"native": ((5, 4), (0, 5)), "python": ((6, 3), (25, 22))}


@pytest.mark.parametrize("size", [1, 64])
def test_calls_per_packet(make, size):
    """``process`` (a burst of one) and ``process_batch`` (64 packets)."""
    world = warm_world(make)
    world.router.blocklist._blocked.discard(differential.BANNED)
    send(world)  # the kernel stores the flow
    packets = [world.stamp("flow") for _ in range(size)]
    run = world.router.process if size == 1 else world.router.process_batch
    work = work_of(lambda: run(packets[0] if size == 1 else packets))
    base, per_packet = WORK["native" if world.kernel else "python"]
    assert world.router.stats[Verdict.FORWARD] == size + 2
    ceilings = [fixed + each * size for fixed, each in zip(base, per_packet)]
    assert work.python <= ceilings[0] and work.builtin <= ceilings[1], (work, ceilings)


#: The same for packets that arrive with their gateway's ``_row`` memo
#: (stamped, then forwarded by hop 0): one call of the glue's ``burst``
#: packs each row from it and builds each result, no call per packet-hop.
WARM_WORK = {"native": ((5, 4), (0, 0)), "python": ((6, 3), (26, 21))}


@pytest.mark.parametrize("size", [1, 64])
def test_calls_per_packet_with_the_gateway_row(make, size):
    """``process`` and a 64-packet ``process_batch`` at hop 1 of packets a
    gateway stamped; the Python body reads HVFs through ``HvfVector``."""
    path = make(differential.GatewayPath)
    router = path.routers[HOP]
    router.process(path.at_hop_one(1)[0])  # the kernel stores the flow
    packets = path.at_hop_one(size)
    run = router.process if size == 1 else router.process_batch
    work = work_of(lambda: run(packets[0] if size == 1 else packets))
    base, per_packet = WARM_WORK["native" if router.kernel else "python"]
    assert router.stats[Verdict.FORWARD] == size + 2
    ceilings = [fixed + each * size for fixed, each in zip(base, per_packet)]
    assert work.python <= ceilings[0] and work.builtin <= ceilings[1], (work, ceilings)


#: ``(python, builtin)`` calls per ``gateway.send`` and per
#: ``ColibriNetwork.forward`` as ``fixed + per hop * hops``, on a warm EER
#: of the two-ISD topology.  Python calls are pinned exactly, builtin
#: calls' fixed terms two above the count on CPython 3.11.  A native send is
#: ``send``, ``send_batch`` and the clock, and the glue's ``send``; the Python
#: body's gateway stamps with one hashlib MAC per hop.  A native hop is
#: ``process``, ``_burst`` and the clock, and the glue's ``burst`` plus the
#: walk's own ``append``.
SEND_WORK = {"native": ((3, 5), (0, 0)), "python": ((11, 16), (0, 4))}
FORWARD_WORK = {"native": ((5, 5), (3, 2)), "python": ((5, 6), (30, 22))}


def two_isd_as(isd, index):
    """An AS of ``build_two_isd_topology``."""
    return IsdAs(isd, 0xFF00_0000_0000 + index)


@pytest.mark.parametrize("destination", [(1, 1), (2, 101)])
def test_calls_per_send_and_per_forward_hop(make, destination):
    """A host's packet end to end: stamped by its gateway, then walked over
    3 or 6 on-path routers."""
    source, target = two_isd_as(1, 101), two_isd_as(*destination)

    def build():
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(source, target, gbps(1))
        return net, net.establish_eer(source, target, mbps(10))

    net, handle = make(build)
    gateway, kind = net.gateway(source), "native" if net.router(source).kernel else "python"
    for _ in range(3):  # every memo and table warm
        assert net.forward(gateway.send(handle.reservation_id, b"x" * 100)).delivered
        net.advance(0.001)
    sent, reports = [], []
    send = work_of(lambda: sent.append(gateway.send(handle.reservation_id, b"x" * 100)))
    forward = work_of(lambda: reports.append(net.forward(sent[0])))
    hops = len(reports[0].verdicts)
    assert reports[0].delivered and hops == len(handle.hops) == (3 if destination[0] == 1 else 6)
    for work, (base, per_hop) in ((send, SEND_WORK[kind]), (forward, FORWARD_WORK[kind])):
        ceilings = [fixed + each * hops for fixed, each in zip(base, per_hop)]
        assert work.python == ceilings[0] and work.builtin <= ceilings[1], (work, ceilings)


#: The same per ``send_batch`` on that topology's six-hop EER, as ``fixed + per
#: packet * packets``: a native burst is ``send_batch``, the clock, ``tuple`` and
#: the glue's ``send`` at any size; the Python body pays its plan, stamp and
#: emit per packet.
SEND_BATCH_WORK = {"native": ((2, 4), (0, 0)), "python": ((5, 4), (5, 35))}


@pytest.mark.parametrize("size", [1, 64])
def test_calls_per_packet_of_send_batch(make, size):
    """``send_batch`` of 1 and of 64 requests on a warm EER: no call per
    packet on native."""
    source, target = two_isd_as(1, 101), two_isd_as(2, 101)

    def build():
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(source, target, gbps(1))
        return net, net.establish_eer(source, target, mbps(10))

    net, handle = make(build)
    gateway, requests = net.gateway(source), [(handle.reservation_id, b"x" * 100)] * size
    for _ in range(3):  # every memo and table warm
        gateway.send_batch(requests)
        net.advance(0.001)
    sent = []
    work = work_of(lambda: sent.extend(gateway.send_batch(requests)))
    assert len(handle.hops) == 6 and [type(packet) for packet in sent] == [ColibriPacket] * size
    base, per_packet = SEND_BATCH_WORK["native" if gateway._drive else "python"]
    ceilings = [fixed + each * size for fixed, each in zip(base, per_packet)]
    assert work.python == ceilings[0] and work.builtin <= ceilings[1], (work, ceilings)


def test_one_packet_object_twice_in_a_burst(make):
    """Its second copy meets the hop the first forwarded it to, as under
    two ``process`` calls: here the last hop, whose HVF is blank."""
    world = warm_world(make)
    twice, once = world.stamp("flow"), world.stamp("flow")
    batch = [result.verdict for result in world.router.process_batch([twice, twice])]
    serial = [world.router.process(once).verdict for _ in range(2)]
    assert batch == serial == [Verdict.FORWARD, Verdict.DROP_BAD_HVF]
    assert twice.hop_index == once.hop_index == differential.HOP + 1


def test_a_repeat_after_a_python_row(make):
    """``[a, b, a]`` with b's source blocked: the burst returns to Python at
    b, and a's second copy, past that return, still meets the hop its first
    copy was forwarded to, as under three ``process`` calls."""
    world = warm_world(make)
    world.reserve("banned", differential.BANNED, hops=3, lifetime=600.0)
    twice, once = world.stamp("flow"), world.stamp("flow")
    batch = world.router.process_batch([twice, world.stamp("banned"), twice])
    serial = [world.router.process(packet) for packet in (once, world.stamp("banned"), once)]
    assert [r.verdict for r in batch] == [r.verdict for r in serial] == [
        Verdict.FORWARD, Verdict.DROP_BLOCKED, Verdict.DROP_BAD_HVF]
    assert [r.egress for r in batch] == [r.egress for r in serial]
    assert twice.hop_index == once.hop_index == differential.HOP + 1


def test_the_glue_serves_grow_rekey_and_cells_in_one_burst(make):
    """A fresh router's first burst, 40 new flows: the kernel stops for the
    DRKey epoch's keys, for each flow's cells and for room once 32 flows
    fill half the table, each served between two calls of the glue's
    ``burst``; every packet is forwarded, as by the Python body."""
    world = make(lambda: World(reference=False))
    names = [f"f{index}" for index in range(40)]
    for name in names:
        world.reserve(name, SRC, hops=3, lifetime=600.0)
    results = world.router.process_batch([world.stamp(name) for name in names])
    assert [r.verdict for r in results] == [Verdict.FORWARD] * 40
    kernel = world.router.kernel
    if kernel is not None:
        stops = {name: count for name, count in kernel.snapshot().items() if name.startswith("router_stops")}
        assert stops == {"router_stops_rekey": 1, "router_stops_python": 1,
                         "router_stops_cells": 39, "router_stops_grow": 1}
        assert kernel.state.count == 39 and kernel.state.nslots == 128


def test_a_renewal_round_stops_for_cells_once_per_flow_and_router():
    """ROADMAP item 19(a)'s cost, pinned: 6 EERs over the two-ISD path, a
    packet each per round, then each renewed.  Every on-path router's kernel
    stops with CELLS exactly 6 times per round (a renewed flow's label is not
    the one it was last handed cells for), and ``net.telemetry()`` reads
    the same stops on a second run.  A round's first packet, on a flow never
    renewed, takes the due rotation to the Python body."""
    source, target, flows = two_isd_as(1, 101), two_isd_as(2, 101), 6

    def run():
        net = build(True, lambda: ColibriNetwork(build_two_isd_topology()))
        net.reserve_segments(source, target, gbps(1))
        warm, *handles = [net.establish_eer(source, target, mbps(1)) for _ in range(flows + 1)]
        gateway, cserv, rounds = net.gateway(source), net.cserv(source), []
        for _ in range(3):
            for handle in [warm] + handles:
                assert net.forward(gateway.send(handle.reservation_id, b"x")).delivered
            rounds.append({isd_as: {name: count for name, count in telemetry.items() if "stops" in name}
                           for isd_as, telemetry in net.telemetry().items()})
            handles = [cserv.renew_eer(handle) for handle in handles]
            net.advance(1.5)  # past the renewal rate limit and the filter window
        return rounds, [str(hop.isd_as) for hop in warm.hops]

    rounds, path = run()
    assert len(path) == 6
    for before, after in zip([{}] + rounds, rounds):
        for isd_as in path:
            cells = after[isd_as]["router_stops_cells"] - before.get(isd_as, {}).get("router_stops_cells", 0)
            assert cells == flows, (isd_as, after[isd_as])
    assert rounds[-1]["total"]["router_stops_cells"] == 3 * flows * len(path)
    assert run() == (rounds, path)


def test_the_glue_keeps_no_reference():
    """2,000 bursts through the glue's ``burst`` — a FORWARD, a DELIVER and a
    duplicate each, so each burst returns to Python at the flags (a source is
    blocked) and at the duplicate — leave the refcounts of a sampled packet,
    of ``Verdict.FORWARD`` and of ``RouterResult`` as they were, and the
    objects the collector tracks within a small constant."""
    world = build(True, lambda: World(reference=False))
    world.reserve("far", SRC, hops=3, lifetime=600.0)
    world.reserve("near", ROGUE, hops=2, lifetime=600.0)  # HOP is its last
    router, sample = world.router, world.stamp("far")

    def bursts(count):
        for _ in range(count):
            far = world.stamp("far")
            results = router.process_batch([far, world.stamp("near"), copy_of(far)])
            assert [result.verdict for result in results] == [
                Verdict.FORWARD, Verdict.DELIVER_HOST, Verdict.DROP_DUPLICATE]

    bursts(100)
    gc.collect()
    before = [sys.getrefcount(thing) for thing in (sample, Verdict.FORWARD, RouterResult)]
    tracked = len(gc.get_objects())
    bursts(1000)
    assert [result.verdict for result in router.process_batch([sample])] == [Verdict.FORWARD]
    bursts(1000)
    gc.collect()
    assert [sys.getrefcount(thing) for thing in (sample, Verdict.FORWARD, RouterResult)] == before
    assert len(gc.get_objects()) - tracked < 50


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
    st.tuples(st.just("control"), names),
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
    # Past the DRKey epoch boundary: "a" and "b" verify under the previous
    # epoch's K_i only, "b" renewed under the new one; a SegR packet among them.
    + [("advance", 3.0), ("send", "a", 0), ("control", "a"), ("send", "b", 0)]
    + [("renew", "b"), ("send", "b", 0), ("send", "a", 9), ("cut",)]
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
        router.blocklist._blocked.discard(differential.BANNED)
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
    elif kind == "control":
        world.burst.append(world.control(step[1]))
    elif kind == "replay":
        if world.sent:
            world.burst.append(copy_of(world.sent[-1 - step[1] % len(world.sent)]))
    elif kind == "renew":
        renew(world, step[1])
    else:
        burst, world.burst = world.burst, []
        return burst
    return None


def tables_of(router):
    """``full_state`` but the flow table, which only a kernel router has."""
    return {k: v for k, v in differential.full_state(router).items() if not k.startswith("sigma")}


@settings(max_examples=50, deadline=None)
@given(script=st.lists(steps, max_size=60))
def test_native_and_python_bodies_agree(script):
    kernel, trio, reference = scripted_world(True), scripted_world(False), scripted_world()
    assert kernel.router.kernel is not None and trio.router.kernel is None
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
            assert tables_of(kernel.router) == tables_of(trio.router), step
            lines = [world.router.obs.journal.export_jsonl() for world in (kernel, trio)]
            assert lines[0] == lines[1], step
            seen.update(verdict for verdict, _ in traces[0][0])
        if step[0] == "advance":
            for world in (kernel, trio, reference):
                world.clock.advance(step[1])
    assert {Verdict.DROP_DUPLICATE, Verdict.DROP_BAD_HVF, Verdict.DROP_OVERUSE, Verdict.DROP_BLOCKED} <= seen
    assert Verdict.DELIVER_CSERV in seen and kernel.clock.now() > differential.DRKEY_VALIDITY * 3
    journal = kernel.router.obs.journal
    assert journal.total_count("DuplicateSuppressed") >= 2 and journal.total_count("OfdFlagged") >= 4
    assert kernel.router.duplicates._rotated_at > differential.START
    assert {ZERO, ROGUE} <= set(kernel.router.blocklist.blocked_ases())
