"""Property-based tests (hypothesis) on core data structures and
system invariants, complementing the per-module suites."""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import FRESHNESS_WINDOW, MAX_CLOCK_SKEW
from repro.crypto import aead_open, aead_seal
from repro.dataplane import TokenBucket
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.queueing import PriorityScheduler, TrafficClass
from repro.errors import ColibriError, PacketDecodeError
from repro.packets import ColibriPacket, EerInfo, PacketType, PathField, ResInfo, Timestamp
from repro.packets.control import decode_message
from repro.reservation import ReservationId, ReservationStore
from repro.reservation.e2e import E2EReservation, E2EVersion
from repro.reservation.segment import SegmentReservation, SegmentVersion
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import NO_INTERFACE
from repro.topology.segments import HopField, Segment, SegmentType
from repro.util.clock import SimClock
from tests.test_topology import assert_joined

SRC = IsdAs.parse("1-ff00:0:110")

# -- strategies -----------------------------------------------------------------

isd_as_st = st.builds(
    IsdAs, st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 48) - 1)
)
res_id_st = st.builds(ReservationId, isd_as_st, st.integers(0, (1 << 32) - 1))
ifid_st = st.integers(0, (1 << 16) - 1)
pairs_st = st.lists(st.tuples(ifid_st, ifid_st), min_size=1, max_size=8).map(tuple)
res_info_st = st.builds(
    ResInfo,
    reservation=res_id_st,
    bandwidth=st.floats(min_value=0, max_value=1e15, allow_nan=False),
    expiry=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    version=st.integers(0, (1 << 16) - 1),
)
timestamp_st = st.builds(
    Timestamp, st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 16) - 1)
)


@st.composite
def packet_st(draw):
    pairs = draw(pairs_st)
    packet_type = draw(st.sampled_from([PacketType.SEGMENT, PacketType.EER_DATA]))
    eer_info = None
    if packet_type == PacketType.EER_DATA:
        eer_info = EerInfo(
            HostAddr(draw(st.integers(0, (1 << 32) - 1))),
            HostAddr(draw(st.integers(0, (1 << 32) - 1))),
        )
    return ColibriPacket(
        packet_type=packet_type,
        path=PathField(pairs),
        res_info=draw(res_info_st),
        timestamp=draw(timestamp_st),
        hvfs=[draw(st.binary(min_size=4, max_size=4)) for _ in pairs],
        eer_info=eer_info,
        payload=draw(st.binary(max_size=256)),
        hop_index=draw(st.integers(0, len(pairs) - 1)),
    )


class TestPacketProperties:
    @given(packet_st())
    @settings(max_examples=200)
    def test_serialization_roundtrip(self, packet):
        parsed = ColibriPacket.from_bytes(packet.to_bytes())
        assert parsed.packet_type == packet.packet_type
        assert parsed.path == packet.path
        assert parsed.res_info == packet.res_info
        assert parsed.timestamp == packet.timestamp
        assert parsed.hvfs == packet.hvfs
        assert parsed.eer_info == packet.eer_info
        assert parsed.payload == packet.payload
        assert parsed.hop_index == packet.hop_index

    @given(packet_st())
    @settings(max_examples=100)
    def test_total_size_is_serialized_length(self, packet):
        assert packet.total_size == len(packet.to_bytes())

    @given(packet_st(), st.integers(0, 200), st.binary(min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_mutated_bytes_never_crash(self, packet, position, junk):
        """Parsing corrupted input either succeeds or raises the typed
        decode error — never an unhandled exception."""
        data = bytearray(packet.to_bytes())
        position %= len(data)
        data[position : position + len(junk)] = junk
        try:
            ColibriPacket.from_bytes(bytes(data))
        except PacketDecodeError:
            pass
        except ColibriError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=100)
    def test_random_control_payloads_never_crash(self, data):
        try:
            decode_message(data)
        except PacketDecodeError:
            pass

    def test_a_negative_bandwidth_on_the_wire_is_a_decode_error(self):
        """Bytes the property above once drew: a SegSetupRequest whose ResInfo
        carries bandwidth -1.0 raised ResInfo's PacketFieldError out of
        ``decode_message`` instead of a PacketDecodeError."""
        data = b"\x01" + ResInfo.WIRE.pack(bytes(12), -1.0, 0.0, 0)
        with pytest.raises(PacketDecodeError, match="negative"):
            decode_message(data)


class TestIdProperties:
    """``IsdAs``, ``ReservationId`` and ``HostAddr`` are tuples of their
    fields: they hash, compare and order in C, and their hashes are
    ``hash((isd, asn))``, ``hash(((isd, asn), local_id))`` and
    ``hash((value,))`` as ever, so no set order, journal or digest
    moves.  A tuple-backed id therefore compares equal to the plain
    tuple of its fields, ``IsdAs(1, 5) == (1, 5)``; no map of the
    program mixes ids and plain tuples as keys."""

    host_st = st.builds(HostAddr, st.integers(0, (1 << 32) - 1))

    @given(st.lists(res_id_st, min_size=1, max_size=8), st.lists(host_st, max_size=4))
    def test_hash_and_order_are_the_field_tuples(self, ids, hosts):
        for res_id in ids:
            src = res_id.src_as
            assert hash(src) == hash((src.isd, src.asn))
            assert hash(res_id) == hash(((src.isd, src.asn), res_id.local_id))
        for host in hosts:
            assert hash(host) == hash((host.value,))
        fields = [((r.src_as.isd, r.src_as.asn), r.local_id) for r in ids]
        assert [
            ((r.src_as.isd, r.src_as.asn), r.local_id) for r in sorted(ids)
        ] == sorted(fields)
        ases = [(r.src_as.isd, r.src_as.asn) for r in ids]
        assert [(a.isd, a.asn) for a in sorted(r.src_as for r in ids)] == sorted(ases)

    @given(res_id_st, host_st)
    def test_packed_pickle_and_repr_round_trip(self, res_id, host):
        src = res_id.src_as
        assert IsdAs.unpack(src.packed) == src
        assert ReservationId.unpack(res_id.packed) == res_id
        assert HostAddr.unpack(host.packed) == host
        assert res_id.packed == src.packed + res_id.local_id.to_bytes(4, "big")
        for value in (src, res_id, host):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)
            assert copy.packed == value.packed
        assert repr(src) == f"IsdAs.parse({str(src)!r})"
        assert repr(res_id) == f"ReservationId(src_as={src!r}, local_id={res_id.local_id})"
        assert repr(host) == f"HostAddr(value={host.value})"
        names = {"IsdAs": IsdAs, "ReservationId": ReservationId, "HostAddr": HostAddr}
        assert eval(repr(res_id), names) == res_id
        fields = (src, "isd"), (src, "x"), (res_id, "local_id"), (host, "value")
        for value, field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 1)

    @given(
        st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 16)),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 48)),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 32)),
    )
    def test_out_of_range_fields_raise(self, isd, asn, local):
        cases = (
            (lambda: IsdAs(isd, 1), rf"ISD {isd} out of range \[0, 2\^16\)"),
            (lambda: IsdAs(1, asn), rf"AS number {asn} out of range \[0, 2\^48\)"),
            (
                lambda: ReservationId(SRC, local),
                rf"local reservation ID {local} out of range \[0, 2\^32\)",
            ),
            (lambda: HostAddr(local), rf"host address {local} out of range \[0, 2\^32\)"),
        )
        for build, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()


class TestCryptoProperties:
    @given(
        st.binary(min_size=1, max_size=32),
        st.binary(max_size=128),
        st.binary(max_size=32),
    )
    @settings(max_examples=100)
    def test_aead_roundtrip_always(self, key, plaintext, associated):
        sealed = aead_seal(key, plaintext, associated)
        assert aead_open(key, sealed, associated) == plaintext


class TestTokenBucketProperties:
    @given(
        st.floats(min_value=1e3, max_value=1e9),
        st.lists(st.tuples(st.floats(0, 0.01), st.integers(1, 2000)), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_long_run_rate_never_exceeds_reservation(self, rate, arrivals):
        """Whatever the arrival pattern, accepted volume over the run is
        bounded by rate x elapsed + the burst depth."""
        bucket = TokenBucket(rate=rate, burst_seconds=0.1, now=0.0)
        now = 0.0
        accepted_bits = 0
        for gap, size in arrivals:
            now += gap
            if bucket.conforms(size, now):
                accepted_bits += size * 8
        bound = rate * now + rate * 0.1 + 1e-6
        assert accepted_bits <= bound


class TestVersionProperties:
    @given(st.lists(st.integers(2, 500), min_size=1, max_size=30, unique=True))
    @settings(max_examples=50)
    def test_segr_at_most_one_active_version(self, versions):
        segment = Segment.from_hops(
            SegmentType.CORE,
            [HopField(SRC, NO_INTERFACE, 1),
             HopField(IsdAs.parse("1-ff00:0:111"), 1, NO_INTERFACE)],
        )
        segr = SegmentReservation(
            reservation_id=ReservationId(SRC, 1),
            segment=segment,
            first_version=SegmentVersion(version=1, bandwidth=1.0, expiry=1e9),
        )
        activated = 1
        for version in sorted(versions):
            segr.add_pending(SegmentVersion(version=version, bandwidth=1.0, expiry=1e9))
            if version % 2 == 0:  # activate every other pending version
                segr.activate(version, now=0.0)
                activated = version
        states = [v.state.value for v in segr.versions.values()]
        assert states.count("active") == 1
        assert segr.active.version == activated

    @given(
        st.lists(
            st.tuples(st.floats(1, 1e9), st.floats(1.0, 100.0)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_eer_effective_bandwidth_is_max_of_live(self, specs):
        eer = E2EReservation(
            reservation_id=ReservationId(SRC, 1),
            eer_info=EerInfo(HostAddr(1), HostAddr(2)),
            hops=(HopField(SRC, NO_INTERFACE, 1),),
            segment_ids=(ReservationId(SRC, 99),),
            first_version=E2EVersion(version=1, bandwidth=specs[0][0], expiry=specs[0][1]),
        )
        for index, (bandwidth, expiry) in enumerate(specs[1:], start=2):
            eer.add_version(E2EVersion(version=index, bandwidth=bandwidth, expiry=expiry))
        now = 0.5
        live = [bw for bw, exp in specs if exp > now]
        assert eer.effective_bandwidth(now) == (max(live) if live else 0.0)


class TestStoreProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.floats(0, 1e9)), max_size=60))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    def test_allocation_sum_matches_recomputation(self, operations):
        """The incrementally maintained per-SegR sum always equals the
        sum of individual allocations — the O(1) read is trustworthy."""
        store = ReservationStore()
        segment = Segment.from_hops(
            SegmentType.CORE,
            [HopField(SRC, NO_INTERFACE, 1),
             HopField(IsdAs.parse("1-ff00:0:111"), 1, NO_INTERFACE)],
        )
        segr = SegmentReservation(
            reservation_id=ReservationId(SRC, 1),
            segment=segment,
            first_version=SegmentVersion(version=1, bandwidth=1e12, expiry=1e9),
        )
        store.add_segment(segr)
        for host, bandwidth in operations:
            eer_id = ReservationId(SRC, 100 + host)
            if bandwidth < 1:  # treat tiny values as releases
                store.release_on_segment(segr.reservation_id, eer_id)
            else:
                store.allocate_on_segment(segr.reservation_id, eer_id, bandwidth)
        exact = sum(store._eer_alloc[segr.reservation_id].values())
        assert store.allocated_on_segment(segr.reservation_id) == pytest.approx(exact)


class TestDuplicateProperties:
    @given(st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_never_accepts_twice_within_window(self, identifiers):
        suppressor = DuplicateSuppressor(SimClock(0.0), window=10.0)
        accepted = set()
        for identifier in identifiers:
            if suppressor.check_and_insert(identifier, 0.0):
                assert identifier not in accepted
                accepted.add(identifier)


class TestSchedulerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(TrafficClass)),
                st.integers(1, 5000),
                st.floats(0.001, 0.2),
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_conservation_and_budget(self, arrivals):
        """Over many slices, bytes out never exceed capacity x elapsed time
        (to within the port's nanosecond of rounding slack), and nothing
        is created or silently lost (sent + backlog = enqueued); once
        arrivals stop, every queued packet leaves, even one longer than a
        slice."""
        capacity = 80_000.0
        scheduler = PriorityScheduler(capacity=capacity, queue_bytes=50_000)
        enqueued = sent = 0
        elapsed = 0.0

        def drain(duration):
            nonlocal sent, elapsed
            sent += sum(scheduler.drain(duration).values())
            elapsed += duration
            assert sent * 8 <= capacity * (elapsed + 1e-9)  # a nanosecond's rounding
            assert sent + sum(scheduler._queued_bytes.values()) == enqueued

        for traffic_class, size, duration in arrivals:
            if scheduler.enqueue(size, traffic_class):
                enqueued += size
            drain(duration)
        # 10 ms slices carry 100 B, less than most packets.
        for _ in range(math.ceil(sum(scheduler._queued_bytes.values()) * 8 / (capacity * 0.01)) + 1):
            drain(0.01)
        assert sum(scheduler._queued_bytes.values()) == 0
        assert sent == enqueued


class TestClockSkewProperties:
    @given(
        st.floats(-MAX_CLOCK_SKEW, MAX_CLOCK_SKEW),
        st.floats(-MAX_CLOCK_SKEW, MAX_CLOCK_SKEW),
    )
    @settings(max_examples=50, deadline=None)
    def test_eer_survives_any_legal_skew(self, src_skew, router_skew):
        """Within the paper's ±0.1 s synchronization assumption, a fresh
        packet always passes the router's expiry and freshness checks."""
        from repro.sim import ColibriNetwork
        from repro.topology import build_two_isd_topology
        from repro.util.units import gbps, mbps

        BASE = 0xFF00_0000_0000
        skews = {
            IsdAs(1, BASE + 101): src_skew,
            IsdAs(2, BASE + 1): router_skew,
        }
        net = ColibriNetwork(
            build_two_isd_topology(), skew=lambda a: skews.get(a, 0.0)
        )
        src, dst = IsdAs(1, BASE + 101), IsdAs(2, BASE + 101)
        net.reserve_segments(src, dst, gbps(1))
        handle = net.establish_eer(src, dst, mbps(10))
        report = net.send(src, handle, b"skewed but fine")
        assert report.delivered


class TestBeaconingProperties:
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_beaconed_segments_always_valid(self, isds, cores, depth, seed):
        """Every segment beaconing produces is structurally valid against
        its topology, on arbitrary generated hierarchies."""
        from repro.topology import Beaconing, build_internet_like

        topology = build_internet_like(
            isd_count=isds, cores_per_isd=cores, depth=depth, seed=seed
        )
        beaconing = Beaconing(topology)
        for (core, leaf), segments in beaconing._down.items():
            for segment in segments:
                assert_joined(segment, topology)
                assert segment.first_as == core
                assert segment.last_as == leaf
        for (first, last), segments in beaconing._core.items():
            for segment in segments:
                assert_joined(segment, topology)
                assert segment.first_as == first
                assert segment.last_as == last

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_combined_paths_never_loop(self, seed):
        """Any path the lookup yields visits each AS exactly once and is
        wired by real links end to end."""
        from repro.errors import NoPathError
        from repro.topology import Beaconing, PathLookup, build_internet_like

        topology = build_internet_like(isd_count=2, depth=2, seed=seed)
        lookup = PathLookup(Beaconing(topology))
        leaves = [n.isd_as for n in topology.ases() if not n.is_core]
        src = leaves[seed % len(leaves)]
        dst = leaves[(seed + 7) % len(leaves)]
        if src == dst:
            return
        try:
            paths = lookup.paths(src, dst, limit=5)
        except NoPathError:
            return
        for path in paths:
            ases = [hop.isd_as for hop in path.hops]
            assert len(set(ases)) == len(ases)
            for prev, nxt in zip(path.hops, path.hops[1:]):
                link = topology.node(prev.isd_as).interfaces[prev.egress]
                far = link.other_end(prev.isd_as)
                assert far.owner == nxt.isd_as
                assert far.ifid == nxt.ingress
