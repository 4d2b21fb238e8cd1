"""Differential test of the gateway's burst pipeline against ``send``.

``ColibriGateway.send`` is the tens-of-lines serial reference;
``send_batch`` and ``send_batch_wire`` share one plan → stamp → emit
pipeline that must be indistinguishable from it.  The randomized
workload in tests/test_batch_equivalence.py draws uniformly over a
handful of live EERs; this script drives the shapes that draw misses —
single-EER bursts, the same id recurring non-adjacently, an EER whose
every version expired, a renewal installed between bursts, a version
expiring while its successor lives, unknown ids, over-rate payloads, and
a Ts sequence crossing 2^16 inside one microsecond — and compares
*everything observable*: packet bytes, request-aligned drop types, the
raised ``PacketFieldError``, both gateway counters, the monitor's
counters, every bucket's level and every entry's ``last_micros`` after
every step, on the native backend and on ``COLIBRI_NATIVE=0``.
"""

import random

import pytest

from repro.crypto import native
from repro.dataplane.gateway import ColibriGateway
from repro.errors import DataPlaneError, PacketFieldError, ReservationError
from repro.packets.colibri import ColibriPacket
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.packets.wire import PacketArena
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, kbps

SRC = IsdAs.parse("1-ff00:0:110")
EER = EerInfo(HostAddr(1), HostAddr(2))
START = 1000.0

#: local id -> hop count.  Mixed path lengths make the scatter plan's
#: tag offsets irregular.
HOPS = {1: 2, 2: 3, 3: 8, 4: 16, 5: 3, 6: 2}
STREAM, SECOND, LONG, LONGEST, SLOW, DOOMED = (ReservationId(SRC, n) for n in HOPS)
UNKNOWN = ReservationId(SRC, 99)


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
    ``("advance", seconds)``, ``("install", kwargs)`` or
    ``("saturate", res_id)`` (park the id's Ts sequence five below the
    16-bit limit for the current microsecond)."""
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
    steps.append(("burst", [(SLOW, b"x" * 1400)] * 4 + [(STREAM, b"")]))
    # An EER whose only version has expired; the others are still live.
    steps.append(("advance", 2.0))
    steps.append(("burst", [(DOOMED, b"late"), (STREAM, small()), (DOOMED, b"")]))
    steps.append(("burst", [(DOOMED, small()) for _ in range(5)]))
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


def state_of(gateway):
    """Everything the three modes must agree on after every step."""
    monitor = gateway.monitor
    entries = {}
    for packed_id, entry in gateway._reservations.items():
        bucket = entry.bucket
        entries[packed_id] = (
            entry.last_micros,
            sorted(entry.versions),
            (bucket._tokens, bucket._updated, bucket.rate),
        )
    return (
        gateway.packets_sent,
        gateway.packets_dropped,
        monitor.packets_passed,
        monitor.packets_dropped,
        entries,
    )


def send_serial(gateway, requests, _arena):
    """The reference: ``send`` per request.  A drop is an outcome; any
    other error propagates and ends the burst, as it does out of a
    burst's plan."""
    outcomes = []
    for res_id, payload in requests:
        try:
            outcomes.append(gateway.send(res_id, payload).to_bytes())
        except (ReservationError, DataPlaneError) as error:
            outcomes.append((type(error).__name__, str(error)))
    return outcomes


def send_object(gateway, requests, _arena):
    return [
        outcome.to_bytes()
        if isinstance(outcome, ColibriPacket)
        else (type(outcome).__name__, str(outcome))
        for outcome in gateway.send_batch(requests)
    ]


def send_wire(gateway, requests, arena):
    return [
        (type(outcome).__name__, str(outcome))
        if isinstance(outcome, Exception)
        else outcome.materialize()
        for outcome in gateway.send_batch_wire(requests, arena)
    ]


def replay(send_burst):
    """Run the script through one mode; returns the per-step trace."""
    clock = SimClock(START)
    gateway = ColibriGateway(SRC, clock)
    for res_id in (STREAM, SECOND, LONG, LONGEST):
        install(gateway, res_id)
    install(gateway, SLOW, bandwidth=kbps(400))
    install(gateway, DOOMED, lifetime=1.0)
    arena = PacketArena(slots=64, slot_size=2048)
    trace = []
    for kind, argument in script():
        if kind == "advance":
            clock.advance(argument)
        elif kind == "install":
            install(gateway, **argument)
        elif kind == "saturate":
            entry = gateway._reservations[argument.packed]
            expiry = entry.latest_live(clock.now()).expiry
            entry.last_micros = (int((expiry - clock.now()) * 1e6), 0xFFFF - 5)
        else:
            try:
                outcomes = send_burst(gateway, argument, arena)
            except PacketFieldError as error:
                # What was stamped before the raising request is visible
                # in the state below in every mode.
                outcomes = ("raised", type(error).__name__, str(error))
            trace.append((outcomes, state_of(gateway)))
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


def assert_traces_equal(reference, other, label):
    assert len(reference) == len(other)
    for step, (expected, actual) in enumerate(zip(reference, other)):
        assert actual[0] == expected[0], f"{label}: outcomes differ at burst {step}"
        assert actual[1] == expected[1], f"{label}: state differs after burst {step}"


def test_burst_pipeline_matches_serial_reference(backend):
    reference = replay(send_serial)
    assert_traces_equal(reference, replay(send_object), f"send_batch/{backend}")
    assert_traces_equal(reference, replay(send_wire), f"send_batch_wire/{backend}")

    # The script really drove every shape it claims to.
    kinds = set()
    raised = [outcomes for outcomes, _ in reference if outcomes[:1] == ("raised",)]
    for outcomes, _ in reference:
        if outcomes[:1] != ("raised",):
            kinds.update(o[0] for o in outcomes if isinstance(o, tuple))
    assert kinds == {"ReservationNotFound", "ReservationExpired", "BandwidthExceeded"}
    assert [r[1] for r in raised] == ["PacketFieldError"]
    # The overflow surfaced at STREAM's sixth request of that burst, with
    # the five before it (and SECOND's five) stamped and accounted.
    overflow = next(i for i, (o, _) in enumerate(reference) if o[:1] == ("raised",))
    before, after = reference[overflow - 1][1], reference[overflow][1]
    assert after[0] - before[0] == 10
    assert after[4][STREAM.packed][0][1] == 0x10000
    versions = {
        ColibriPacket.from_bytes(o).res_info.version
        for outcomes, _ in reference
        if outcomes[:1] != ("raised",)
        for o in outcomes
        if isinstance(o, bytes)
        and ColibriPacket.from_bytes(o).res_info.reservation == STREAM
    }
    assert versions == {1, 2}


def test_backends_agree_on_the_reference(monkeypatch):
    """The serial trace itself is backend-independent, so the two
    parametrizations above pin one behaviour, not two."""
    try:
        monkeypatch.delenv("COLIBRI_NATIVE", raising=False)
        native.reset_for_tests()
        with_native = replay(send_serial)
        monkeypatch.setenv("COLIBRI_NATIVE", "0")
        native.reset_for_tests()
        with_hashlib = replay(send_serial)
    finally:
        monkeypatch.undo()
        native.reset_for_tests()
    assert with_native == with_hashlib
