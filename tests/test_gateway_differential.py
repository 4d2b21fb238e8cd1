"""Differential test of the gateway's two APIs against a reference.

``ColibriGateway.send`` (a burst of one) and ``send_batch`` share one
plan → stamp → emit pipeline;
:class:`ReferenceGateway` below is §4.3 and §4.6 written down per packet,
sharing no code with it.  The randomized workload in
tests/test_batch_equivalence.py draws uniformly over a handful of live
EERs; this script drives the shapes that draw misses — single-EER
bursts, the same id recurring non-adjacently, an EER whose every version
expired, a renewal installed between bursts, a version expiring while its
successor lives, a renewal expiring before its predecessor, unknown ids,
over-rate payloads, a flow the monitor stops watching and watches again,
and a Ts sequence crossing 2^16 inside one microsecond — and compares
*everything observable*: packet bytes, request-aligned drop types and
messages, the raised ``PacketFieldError``, both gateway counters, the
monitor's counters, every bucket's level and every entry's Ts state
after every step, on the native backend and on ``COLIBRI_NATIVE=0``.
Every packet's ``_row`` memo, which no byte form shows but every router's
native gather trusts as its MAC input, must equal the one rebuilt from the
packet's own fields.  With the kernel loaded both APIs run the glue's
``send``; requests it does not take (hostile ones below) get the Python
body's outcome, and it keeps no reference.
"""

import gc
import random
import struct
import sys

import pytest

from repro.constants import DEFAULT_BURST_SECONDS
from repro.crypto import native
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import eer_hvf
from repro.dataplane.token_bucket import TokenBucket
from repro.errors import (
    BandwidthExceeded,
    DataPlaneError,
    PacketFieldError,
    ReservationError,
    ReservationExpired,
    ReservationNotFound,
)
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, kbps

SRC = IsdAs.parse("1-ff00:0:110")
EER = EerInfo(HostAddr(1), HostAddr(2))
START = 1000.0

#: local id -> hop count.  Mixed path lengths make the Python body's tag
#: offsets irregular and give the glue's tag strings different sizes.
HOPS = {1: 2, 2: 3, 3: 8, 4: 16, 5: 3, 6: 2}
STREAM, SECOND, LONG, LONGEST, SLOW, DOOMED = (ReservationId(SRC, n) for n in HOPS)
UNKNOWN = ReservationId(SRC, 99)
SLOW_RATE = kbps(400)


class ReferenceGateway:
    """The source gateway's job per packet (§4.3, §4.6), in a few lines.

    Find the EER; take its latest *live* version; give the packet a
    unique Ts — microseconds before that version's expiry, plus a
    sequence for packets of the same microsecond; charge the flow's own
    token bucket with the whole packet's size; stamp Eq. (6) once per σ.
    No ``GatewayVersion``, no key schedule, no native code.

    Each one-line mutant of dataplane/gateway.py below fails
    :func:`test_burst_pipeline_matches_serial_reference` (checked by
    applying them one at a time to a copy of the tree):

    * the Ts sequence is not reset on a new microsecond
      (``_plan``: ``last[0] == micros`` dropped from the sequence rule);
    * the latest version is used instead of the latest live one
      (``latest_live``: ``if v.is_live(now)`` dropped);
    * ``micros`` is kept across a mid-burst version switch
      (``_plan``: ``if version is not current`` → ``if current is None``);
    * ``len(payload)`` is missing from PktSize
      (``_plan``: ``size = entry.header_size``);
    * the bucket refill is skipped (``_plan``: ``tokens += …`` dropped);
    * a drop is not counted (``_plan``: the policed request's
      ``self.packets_dropped += 1`` dropped);
    * the one-row stamp reads the wrong field of its row (``_stamp``:
      ``row[3]``, the payload, stamped for ``row[5]``, the Eq. 6 message);
    * a row's tag offset counts a policed request (``_plan``:
      ``position += entry.tag_bytes`` before its ``continue``), so the
      emitter reads past tags the stamps wrote back to back (hashlib
      only: the glue gives each packet a tag string of its own);
    * a memo head cached per entry across renewals (``_emit_packets``:
      ``head = version._row_head = entry.__dict__.setdefault("head", …)``),
      caught by the memo check only: the bytes are right;
    * a memo Ts with its sequence dropped (``_emit_packets``: ``message``
      → ``message[:6] + bytes(2) + message[8:]`` in the memo), also on
      native: the Python body emits each version's first packet.
    """

    def __init__(self, clock):
        self.clock = clock
        self.eers = {}  # packed id -> _Eer
        self.buckets = {}  # packed id -> TokenBucket, while watched
        self.sent = self.dropped = self.passed = self.policed = 0

    def install(self, reservation_id, path, eer_info, res_info, hop_auths):
        now = self.clock.now()
        eer = self.eers.setdefault(reservation_id.packed, _Eer(path, eer_info))
        eer.versions = {n: v for n, v in eer.versions.items() if now < v[0].expiry}
        eer.versions[res_info.version] = (res_info, tuple(hop_auths))
        bandwidth = max((v[0].bandwidth for v in eer.live(now)), default=0.0)
        self.watch(reservation_id.packed, bandwidth)

    def watch(self, flow: bytes, bandwidth: float) -> None:
        now = self.clock.now()
        bucket = self.buckets.get(flow)
        if bucket is None:
            self.buckets[flow] = TokenBucket(bandwidth, DEFAULT_BURST_SECONDS, now)
        elif bucket.rate != bandwidth:
            bucket.set_rate(bandwidth, now, DEFAULT_BURST_SECONDS)

    def send(self, reservation_id, payload) -> ColibriPacket:
        now = self.clock.now()
        eer = self.eers.get(reservation_id.packed)
        if eer is None:
            self.dropped += 1
            raise ReservationNotFound(f"gateway has no EER {reservation_id}")
        if not eer.live(now):
            self.dropped += 1
            raise ReservationExpired(f"all versions of EER {reservation_id} expired")
        res_info, sigmas = max(eer.live(now), key=lambda v: v[0].version)
        micros = int((res_info.expiry - now) * 1e6)
        sequence = eer.last[1] + 1 if eer.last and eer.last[0] == micros else 0
        eer.last = (micros, sequence)
        timestamp = Timestamp(micros, sequence)
        empty = [ColibriPacket.EMPTY_HVF] * len(sigmas)
        packet = ColibriPacket(
            PacketType.EER_DATA, eer.path, res_info, timestamp, empty, eer.eer_info, payload
        )
        size = packet.total_size
        bucket = self.buckets.get(reservation_id.packed)
        if bucket is not None and not bucket.conforms(size, now):
            self.dropped += 1
            self.policed += 1
            raise BandwidthExceeded(f"EER {reservation_id} exceeded its reserved rate")
        self.sent += 1
        self.passed += 1
        packet.hvfs = [eer_hvf(sigma, timestamp, size) for sigma in sigmas]
        return packet


class _Eer:
    def __init__(self, path, eer_info):
        self.path, self.eer_info = path, eer_info
        self.versions = {}  # version number -> (ResInfo, σs)
        self.last = None  # (micros, sequence) of the latest stamped packet

    def live(self, now):
        return [v for v in self.versions.values() if now < v[0].expiry]


def path_of(hops: int) -> PathField:
    return PathField(((0, 1),) + ((2, 3),) * (hops - 2) + ((4, 0),))


def install(gateway, res_id, version=1, bandwidth=gbps(1), lifetime=16.0):
    hops = HOPS[res_id.local_id]
    rng = random.Random(res_id.local_id * 1000 + version)
    gateway.install(
        res_id,
        path_of(hops),
        EER,
        ResInfo(
            reservation=res_id,
            bandwidth=bandwidth,
            expiry=gateway.clock.now() + lifetime,
            version=version,
        ),
        tuple(rng.getrandbits(128).to_bytes(16, "big") for _ in range(hops)),
    )


def script():
    """The step list every mode replays: ``("burst", requests)``,
    ``("advance", seconds)``, ``("install", kwargs)``, ``("unwatch",
    res_id)`` / ``("watch", res_id)`` (the monitor stops / resumes
    policing the flow at ``SLOW_RATE``) or ``("saturate", res_id)`` (park
    the id's Ts sequence five below the 16-bit limit for the current
    microsecond)."""
    rng = random.Random(12)

    def small():
        return b"s" * rng.randrange(0, 200)

    steps = [("burst", [(STREAM, small()) for _ in range(24)])]
    # The same microsecond again: sequences continue across bursts.
    steps.append(("burst", [(STREAM, small()) for _ in range(8)]))
    steps.append(("advance", 1e-6))
    # Non-adjacent recurrence over different hop counts, unknown ids mixed in.
    ids = [STREAM, LONG, STREAM, SECOND, UNKNOWN, LONGEST, STREAM, LONG, UNKNOWN]
    steps.append(("burst", [(ids[n % len(ids)], small()) for n in range(40)]))
    steps.append(("advance", 3e-6))
    # Over-rate: a 400 kbps EER (5 kB bucket) fed 1,400 B payloads drops
    # partway through, while its neighbours in the burst keep passing.
    burst = []
    for n in range(12):
        burst.append((SLOW, b"x" * 1400))
        burst.append((SECOND if n % 2 else LONGEST, small()))
    steps.append(("burst", burst))
    steps.append(("advance", 0.01))
    # Policed requests ahead of a burst's only conforming row.
    steps.append(("burst", [(SLOW, b"x" * 1400)] * 4 + [(STREAM, b"")]))
    # Unwatched, the flow is not policed at all; watched again, it is.
    steps.append(("unwatch", SLOW))
    steps.append(("burst", [(SLOW, b"x" * 1400)] * 8))
    steps.append(("watch", SLOW))
    steps.append(("burst", [(SLOW, b"x" * 1400)] * 6))
    # A renewal that expires before its predecessor: once it has, the
    # older version is the latest live one again.
    steps.append(("install", dict(res_id=LONG, version=2, lifetime=1.0)))
    steps.append(("burst", [(LONG, small()), (STREAM, small())]))
    # An EER whose only version has expired; the others are still live.
    steps.append(("advance", 2.0))
    steps.append(("burst", [(DOOMED, b"late"), (STREAM, small()), (DOOMED, b"")]))
    steps.append(("burst", [(DOOMED, small()) for _ in range(5)] + [(LONG, small())]))
    # A renewal between bursts: v2 outlives v1, both live at first...
    steps.append(("install", dict(res_id=STREAM, version=2, lifetime=16.0)))
    steps.append(("burst", [(STREAM, small()) for _ in range(6)] + [(LONG, b"")]))
    # ...then v1 (and every other v1) expires while v2 carries on.
    steps.append(("advance", 14.5))
    steps.append(("burst", [(STREAM, small()), (LONG, b"gone"), (STREAM, b"")]))
    # Ts sequence crossing 2^16 inside one microsecond, mid-burst.
    steps.append(("install", dict(res_id=SECOND, version=2)))
    steps.append(("saturate", STREAM))
    burst = []
    for n in range(10):
        burst.append((STREAM, small()))
        burst.append((SECOND, small()))
    steps.append(("burst", burst))
    # The gateway stays usable afterwards.
    steps.append(("advance", 1e-6))
    steps.append(("burst", [(STREAM, small()), (UNKNOWN, b""), (SECOND, small())]))
    # And a seeded random mix over everything, renewals included.
    for version in (3, 4):
        steps.append(("install", dict(res_id=LONGEST, version=version)))
        pool = [STREAM, SECOND, LONG, LONGEST, SLOW, DOOMED, UNKNOWN]
        steps.append(
            ("burst", [(rng.choice(pool), b"r" * rng.randrange(0, 900)) for _ in range(64)])
        )
        steps.append(("advance", rng.choice((0.0, 1e-6, 0.25))))
    return steps


def bucket_state(bucket):
    return None if bucket is None else (bucket._tokens, bucket._updated, bucket.rate)


def state_of(target):
    """Everything the modes must agree on after every step: ``(sent,
    dropped, monitor passed, monitor dropped)`` and, per EER, ``(Ts
    state, installed versions, bucket)``."""
    if isinstance(target, ReferenceGateway):
        counters = (target.sent, target.dropped, target.passed, target.policed)
        entries = {
            flow: (eer.last, sorted(eer.versions), bucket_state(target.buckets.get(flow)))
            for flow, eer in target.eers.items()
        }
        return counters, entries
    monitor = target.monitor
    counters = (
        target.packets_sent,
        target.packets_dropped,
        monitor.packets_passed,
        monitor.packets_dropped,
    )
    entries = {
        flow: (entry.last_micros, sorted(entry.versions), bucket_state(monitor._buckets.get(flow)))
        for flow, entry in target._reservations.items()
    }
    return counters, entries


def memo_of(packet):
    """The ``_row`` memo a router's GATHER build makes of ``packet``'s own
    fields: ResInfo ‖ EERInfo, Ts ‖ PktSize, the interface pairs, the last
    hop's index and no flags; ``None`` for a payload that is not bytes."""
    if packet.payload.__class__ is not bytes:
        return None
    head = packet.res_info.packed + packet.eer_info.packed
    tail = packet.timestamp.packed + struct.pack("!I", packet.total_size)
    return (head, tail, packet.path.interface_pairs, len(packet.path) - 1, 0)


def observed(target, outcome):
    """A packet's bytes (its memo checked, if ``target`` is a gateway), or a
    drop's type and message."""
    if not isinstance(outcome, ColibriPacket):
        return (type(outcome).__name__, str(outcome))
    if isinstance(target, ColibriGateway):
        assert outcome._row == memo_of(outcome), outcome
    return outcome.to_bytes()


def send_serial(target, requests):
    """``send`` per request.  A drop is an outcome; any other error
    propagates and ends the burst, as it does out of a burst's plan."""
    outcomes = []
    for res_id, payload in requests:
        try:
            outcomes.append(observed(target, target.send(res_id, payload)))
        except (ReservationError, DataPlaneError) as error:
            outcomes.append(observed(target, error))
    return outcomes


def send_object(gateway, requests):
    return [observed(gateway, outcome) for outcome in gateway.send_batch(requests)]


def saturate(target, res_id):
    now = target.clock.now()
    if isinstance(target, ReferenceGateway):
        eer = target.eers[res_id.packed]
        expiry = max(eer.live(now), key=lambda v: v[0].version)[0].expiry
        eer.last = (int((expiry - now) * 1e6), 0xFFFF - 5)
    else:
        entry = target._reservations[res_id.packed]
        expiry = entry.latest_live(now).expiry
        entry.last_micros = (int((expiry - now) * 1e6), 0xFFFF - 5)


def replay(factory, send_burst):
    """Run the script through one mode; returns the per-step trace."""
    clock = SimClock(START)
    target = factory(clock)
    for res_id in (STREAM, SECOND, LONG, LONGEST):
        install(target, res_id)
    install(target, SLOW, bandwidth=SLOW_RATE)
    install(target, DOOMED, lifetime=1.0)
    trace = []
    for kind, argument in script():
        if kind == "advance":
            clock.advance(argument)
        elif kind == "install":
            install(target, **argument)
        elif kind == "saturate":
            saturate(target, argument)
        elif kind in ("unwatch", "watch"):
            rewatch = kind == "watch"
            if isinstance(target, ReferenceGateway):
                if rewatch:
                    target.watch(argument.packed, SLOW_RATE)
                else:
                    del target.buckets[argument.packed]
            elif rewatch:
                target.monitor.watch(argument.packed, SLOW_RATE, clock.now())
            else:
                target.monitor.unwatch(argument.packed)
            trace.append(("monitor", kind, state_of(target)))
        else:
            try:
                outcomes = send_burst(target, argument)
            except PacketFieldError as error:
                # What was stamped before the raising request is visible
                # in the state below in every mode.
                outcomes = ("raised", type(error).__name__, str(error))
            trace.append((outcomes, state_of(target)))
    return trace


def gateway(clock):
    return ColibriGateway(SRC, clock)


MODES = {"send": send_serial, "send_batch": send_object}


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


def assert_traces_equal(reference, other, label):
    assert len(reference) == len(other)
    for step, (expected, actual) in enumerate(zip(reference, other)):
        assert actual[:-1] == expected[:-1], f"{label}: outcomes differ at step {step}"
        assert actual[-1] == expected[-1], f"{label}: state differs after step {step}"


def test_burst_pipeline_matches_serial_reference(backend):
    reference = replay(ReferenceGateway, send_serial)
    for label, send_burst in MODES.items():
        assert_traces_equal(reference, replay(gateway, send_burst), f"{label}/{backend}")

    # The script really drove every shape it claims to.
    bursts = [step for step in reference if step[0] != "monitor"]
    kinds = set()
    raised = [outcomes for outcomes, _ in bursts if outcomes[:1] == ("raised",)]
    for outcomes, _ in bursts:
        if outcomes[:1] != ("raised",):
            kinds.update(o[0] for o in outcomes if isinstance(o, tuple))
    assert kinds == {"ReservationNotFound", "ReservationExpired", "BandwidthExceeded"}
    assert [r[1] for r in raised] == ["PacketFieldError"]
    # The overflow surfaced at STREAM's sixth request of that burst, with
    # the five before it (and SECOND's five) stamped and accounted.
    overflow = next(i for i, (o, _) in enumerate(bursts) if o[:1] == ("raised",))
    before, after = bursts[overflow - 1][1], bursts[overflow][1]
    assert after[0][0] - before[0][0] == 10
    assert after[1][STREAM.packed][0][1] == 0x10000
    # Unwatched, SLOW passed all eight over-rate requests; watched again,
    # its fresh bucket policed it.
    unwatched = next(i for i, step in enumerate(reference) if step[:2] == ("monitor", "unwatch"))
    assert all(isinstance(o, bytes) for o in reference[unwatched + 1][0])
    assert any(isinstance(o, tuple) for o in reference[unwatched + 3][0])

    def versions_of(res_id):
        return {
            ColibriPacket.from_bytes(o).res_info.version
            for outcomes, _ in bursts
            if outcomes[:1] != ("raised",)
            for o in outcomes
            if isinstance(o, bytes)
            and ColibriPacket.from_bytes(o).res_info.reservation == res_id
        }

    assert versions_of(STREAM) == {1, 2}
    assert versions_of(LONG) == {1, 2}


def test_backends_agree_on_the_reference(monkeypatch):
    """The reference runs no native code, so the parametrizations above
    hold both backends to one behaviour; ``send`` agrees with itself
    across them too."""
    try:
        monkeypatch.delenv("COLIBRI_NATIVE", raising=False)
        native.reset_for_tests()
        with_native = replay(gateway, send_serial)
        monkeypatch.setenv("COLIBRI_NATIVE", "0")
        native.reset_for_tests()
        with_hashlib = replay(gateway, send_serial)
    finally:
        monkeypatch.undo()
        native.reset_for_tests()
    assert with_native == with_hashlib == replay(ReferenceGateway, send_serial)


class Sneaky(ReservationId):
    """A ReservationId whose ``packed`` runs Python: ``hook`` on every read."""

    hook = None

    @property
    def packed(self):
        if Sneaky.hook is not None:
            Sneaky.hook()
        return self.src_as.packed + self.local_id.to_bytes(4, "big")


def hostile(gateway, api):
    """One burst of requests the glue does not take, or takes around code
    that runs Python, through ``api`` after a packet on each EER: ``(outcomes,
    state, hooks fired, payloads the Python body planned)``.  A policed
    request's ``record_drop`` installs SECOND's version 7 on its first drop;
    a Sneaky id's ``packed`` leaves LONG with one expired version on its
    first read."""
    clock = gateway.clock
    for res_id in (STREAM, SECOND, LONG, LONGEST):
        install(gateway, res_id)
    install(gateway, SLOW, bandwidth=SLOW_RATE)
    warm = MODES[api](gateway, [(res_id, b"") for res_id in (STREAM, SECOND, LONG, LONGEST, SLOW)])
    fired, planned, record_drop, plan = [], [], gateway.monitor.record_drop, gateway._plan

    def renew(flow, now, bucket=None):
        record_drop(flow, now, bucket)
        if "renew" not in fired:
            fired.append("renew")
            install(gateway, SECOND, version=7)

    def expire():
        if "expire" not in fired:
            fired.append("expire")
            gateway.uninstall(LONG)
            install(gateway, LONG, version=9, lifetime=0.0)

    def counting(requests, now):
        planned.extend(requests)
        return plan(requests, now)

    gateway.monitor.record_drop, gateway._plan, Sneaky.hook = renew, counting, expire
    twice = (STREAM, b"twice")
    requests = [
        (LONG, b"before"), twice, (STREAM, bytearray(b"not bytes")), twice, (LONGEST, b"")
    ] + [(SLOW, b"x" * 1400)] * 4 + [
        (SECOND, b"renewed"), (Sneaky(SRC, 2), b"sneaky"), (LONG, b"after"), [STREAM, b"a list"],
        (Sneaky(SRC, 99), b"unknown"), (STREAM, memoryview(b"a view")), twice, (SECOND, b"last"),
    ]
    try:
        outcomes = MODES[api](gateway, requests)
        clock.advance(1e-6)
        outcomes += MODES[api](gateway, [twice, (Sneaky(SRC, 1), b"again"), (SECOND, b"")])
    finally:
        Sneaky.hook = None
    return warm + outcomes, state_of(gateway), fired, [request[1] for request in planned]


@pytest.mark.parametrize("api", sorted(MODES))
def test_hostile_requests_get_the_python_bodys_outcome(backend, api):
    """A non-bytes payload, a ReservationId subclass, a request that is a
    list, one request object thrice, a renewal installed by a drop's
    ``record_drop`` and an EER left expired by a ``packed`` hook, all mid-
    burst: packets, memos, drops, counters, buckets and Ts state as the
    Python body makes them, and the glue served every other request but a
    new version's first (its memo head is packed in Python)."""
    glued = ColibriGateway(SRC, SimClock(START))
    body = ColibriGateway(SRC, SimClock(START))
    body._drive = None
    outcomes, state, fired, planned = hostile(glued, api)
    assert (outcomes, state, fired) == hostile(body, api)[:3]
    assert fired == ["renew", "expire"]
    kinds = {o[0] for o in outcomes if isinstance(o, tuple)}
    assert kinds == {"ReservationNotFound", "ReservationExpired", "BandwidthExceeded"}
    if glued._drive is not None:  # the Python body planned only these (``send`` makes the list a tuple)
        assert planned == [b"not bytes", b"x" * 1400, b"renewed", b"sneaky", b"after"] + [b"a list"] * (
            api == "send_batch") + [b"unknown", memoryview(b"a view"), b"again"]


def test_the_glue_keeps_no_reference():
    """2,000 bursts through the glue's ``send`` — packets, a policed request
    and an unknown id each, so each returns to Python twice — and as many
    ``send`` calls leave the refcounts of the requests and of the entry's
    objects as they were, and the objects the collector tracks within a
    small constant."""
    native.reset_for_tests()
    if native.backend() is None:
        pytest.skip("native backend unavailable")
    clock = SimClock(START)
    gateway = ColibriGateway(SRC, clock)
    install(gateway, STREAM, lifetime=600.0)
    install(gateway, SLOW, bandwidth=SLOW_RATE, lifetime=600.0)
    payload = b"p" * 10
    request, over, unknown = (STREAM, payload), (SLOW, b"x" * 1400), (UNKNOWN, b"")

    def bursts(count):
        for _ in range(count):
            outcomes = gateway.send_batch([request, over, request, unknown])
            assert [type(o) for o in outcomes[::2]] == [ColibriPacket, ColibriPacket]
            assert gateway.send(STREAM, payload).payload is payload
            clock.advance(1e-6)

    bursts(100)
    gc.collect()
    entry = gateway._reservations[STREAM.packed]
    version = entry._latest
    things = (STREAM, payload, request, entry, version, version.res_info, version._row_head, version._schedule,
              entry.path, entry.path.interface_pairs, entry.eer_info, gateway.monitor._buckets[SLOW.packed])
    before = [sys.getrefcount(thing) for thing in things]
    tracked = len(gc.get_objects())
    bursts(1000)
    bursts(1000)
    gc.collect()
    assert [sys.getrefcount(thing) for thing in things] == before
    assert len(gc.get_objects()) - tracked < 50
