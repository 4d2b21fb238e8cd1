"""Unit tests for repro.dataplane: HVF crypto, token bucket, duplicate
suppression, OFD, blocklist, monitor, queueing."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import L_HVF
from repro.dataplane import (
    Blocklist,
    ColibriKeys,
    DeterministicMonitor,
    DuplicateSuppressor,
    OveruseFlowDetector,
    PriorityScheduler,
    TokenBucket,
    TrafficClass,
    eer_hvf,
    hop_authenticator,
    segment_token,
    verify_segment_token,
)
from repro.crypto.drkey import DrkeyDeriver
from repro.crypto.mac import truncated_mac
from repro.dataplane.hvf import eer_hvf_message
from repro.errors import HvfMismatch
from repro.packets.fields import EerInfo, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

SRC = IsdAs.parse("1-ff00:0:110")


def res_info(bw=1e9, expiry=1000.0, version=1, local_id=7):
    return ResInfo(
        reservation=ReservationId(SRC, local_id),
        bandwidth=bw,
        expiry=expiry,
        version=version,
    )


def make_keys(name=b"AS-A", seed=b"k" * 16):
    return ColibriKeys(DrkeyDeriver(name, SimClock(100.0), seed=seed))


def mac_like(name: str) -> bytes:
    """A 16-byte pseudorandom packet identifier, as the router's Eq. (6)
    MAC is to the duplicate filter."""
    return hashlib.blake2s(name.encode(), digest_size=16).digest()


def bloom_bits(identifier: bytes, bits: int, hashes: int) -> list:
    """The filter's position rule, written out: double hashing over the
    identifier's two big-endian 64-bit halves."""
    first = int.from_bytes(identifier[:8], "big")
    step = int.from_bytes(identifier[8:], "big")
    return [(first + index * step) % bits for index in range(hashes)]


class TestHvfCrypto:
    def test_segment_token_roundtrip(self):
        keys = make_keys()
        token = segment_token(keys.hop_key(), res_info(), 2, 5)
        assert len(token) == L_HVF
        verify_segment_token(keys.hop_key(), res_info(), 2, 5, token)

    def test_segment_token_binds_interfaces(self):
        keys = make_keys()
        token = segment_token(keys.hop_key(), res_info(), 2, 5)
        with pytest.raises(HvfMismatch):
            verify_segment_token(keys.hop_key(), res_info(), 2, 6, token)

    def test_segment_token_binds_res_info(self):
        keys = make_keys()
        token = segment_token(keys.hop_key(), res_info(bw=1e9), 2, 5)
        with pytest.raises(HvfMismatch):
            verify_segment_token(keys.hop_key(), res_info(bw=2e9), 2, 5, token)

    def test_hop_authenticator_full_width(self):
        keys = make_keys()
        eer = EerInfo(HostAddr(1), HostAddr(2))
        sigma = hop_authenticator(keys.hop_key(), res_info(), eer, 2, 5)
        assert len(sigma) == 16  # untruncated: sigma doubles as a key

    def test_hop_authenticator_binds_hosts(self):
        keys = make_keys()
        sigma1 = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(2)), 2, 5
        )
        sigma2 = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(3)), 2, 5
        )
        assert sigma1 != sigma2

    def test_eer_hvf_two_step(self):
        keys = make_keys()
        eer = EerInfo(HostAddr(1), HostAddr(2))
        sigma = hop_authenticator(keys.hop_key(), res_info(), eer, 2, 5)
        ts = Timestamp(12345, 0)
        hvf = eer_hvf(sigma, ts, 1000)
        assert hvf == truncated_mac(sigma, eer_hvf_message(ts, 1000), L_HVF)

    def test_eer_hvf_binds_packet_size(self):
        # Authenticated size prevents padding/framing games (§4.8).
        keys = make_keys()
        sigma = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(2)), 2, 5
        )
        ts = Timestamp(12345, 0)
        hvf = eer_hvf(sigma, ts, 1000)
        assert eer_hvf(sigma, ts, 1001) != hvf

    def test_eer_hvf_binds_timestamp(self):
        keys = make_keys()
        sigma = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(2)), 2, 5
        )
        hvf = eer_hvf(sigma, Timestamp(12345, 0), 1000)
        assert eer_hvf(sigma, Timestamp(12345, 1), 1000) != hvf

    def test_components_of_same_as_agree(self):
        a = make_keys(seed=b"s" * 16)
        b = make_keys(seed=b"s" * 16)
        assert a.hop_key() == b.hop_key()

    def test_different_ases_differ(self):
        assert make_keys(seed=b"a" * 16).hop_key() != make_keys(seed=b"b" * 16).hop_key()

    def test_hop_key_cached_per_epoch(self):
        keys = make_keys()
        assert keys.hop_key(100.0) is keys.hop_key(200.0)


class TestTokenBucket:
    def test_initial_burst_allowed(self):
        bucket = TokenBucket(rate=8000.0, burst_seconds=1.0, now=0.0)
        assert bucket.conforms(1000, now=0.0)  # exactly the burst depth

    def test_over_rate_dropped(self):
        bucket = TokenBucket(rate=8000.0, burst_seconds=0.1, now=0.0)
        assert bucket.conforms(100, now=0.0)
        assert not bucket.conforms(1000, now=0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=8000.0, burst_seconds=0.1, now=0.0)
        bucket.conforms(100, now=0.0)
        assert not bucket.conforms(100, now=0.0)
        assert bucket.conforms(100, now=0.2)

    def test_sustained_rate_conformance(self):
        """A flow at exactly the reserved rate never drops."""
        rate = mbps(8)  # 1 MB/s
        bucket = TokenBucket(rate=rate, burst_seconds=0.1, now=0.0)
        for step in range(100):
            now = step * 0.001
            assert bucket.conforms(1000, now=now)  # 1000 B per ms = 1 MB/s

    def test_double_rate_drops_half(self):
        rate = mbps(8)
        bucket = TokenBucket(rate=rate, burst_seconds=0.05, now=0.0)
        passed = sum(
            bucket.conforms(1000, now=step * 0.0005) for step in range(2000)
        )
        # 2x offered -> about half passes (plus the initial burst)
        assert 900 <= passed <= 1150

    def test_nonconforming_consumes_nothing(self):
        bucket = TokenBucket(rate=8000.0, burst_seconds=1.0, now=0.0)
        before = bucket.available_bits
        assert not bucket.conforms(10_000, now=0.0)
        assert bucket.available_bits == before

    def test_set_rate_preserves_fill_fraction(self):
        bucket = TokenBucket(rate=8000.0, burst_seconds=1.0, now=0.0)
        bucket.conforms(500, now=0.0)  # half the depth gone
        bucket.set_rate(16_000.0, now=0.0, burst_seconds=1.0)
        assert bucket.available_bits == pytest.approx(8_000.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst_seconds=0)


class TestDuplicateSuppressor:
    def test_first_sighting_accepted(self):
        suppressor = DuplicateSuppressor(SimClock(0.0))
        assert suppressor.check_and_insert(mac_like("packet-1"), 0.0)

    def test_replay_caught(self):
        suppressor = DuplicateSuppressor(SimClock(0.0))
        suppressor.check_and_insert(mac_like("packet-1"), 0.0)
        assert not suppressor.check_and_insert(mac_like("packet-1"), 0.0)
        assert suppressor.duplicates_caught == 1

    def test_distinct_packets_pass(self):
        suppressor = DuplicateSuppressor(SimClock(0.0))
        for index in range(1000):
            assert suppressor.check_and_insert(mac_like(f"packet-{index}"), 0.0)

    def test_replay_caught_across_rotation(self):
        clock = SimClock(0.0)
        suppressor = DuplicateSuppressor(clock, window=1.0)
        suppressor.check_and_insert(mac_like("packet-1"), clock.now())
        clock.advance(1.5)  # one rotation: identifier now in previous filter
        assert not suppressor.check_and_insert(mac_like("packet-1"), clock.now())

    def test_memory_constant(self):
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=1 << 10)
        before = suppressor.memory_bytes
        for index in range(500):
            suppressor.check_and_insert(mac_like(f"p{index}"), 0.0)
        assert suppressor.memory_bytes == before

    def test_no_false_negatives_property(self):
        """Within two windows a duplicate is always caught."""
        clock = SimClock(0.0)
        suppressor = DuplicateSuppressor(clock, window=1.0)
        identifiers = [mac_like(f"id-{i}") for i in range(200)]
        for identifier in identifiers:
            suppressor.check_and_insert(identifier, clock.now())
            clock.advance(0.001)
        for identifier in identifiers[100:]:  # still within window coverage
            assert not suppressor.check_and_insert(identifier, clock.now())

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DuplicateSuppressor(SimClock(), window=0)

    def test_idle_gap_clears_both_filters(self):
        """After two silent windows both filters hold only identifiers
        the freshness check already rejects; keeping the newer one as
        ``previous`` would only cost false positives."""
        clock = SimClock(0.0)
        suppressor = DuplicateSuppressor(clock, window=1.0, bits=1 << 10, hashes=4)
        for index in range(400):
            suppressor.check_and_insert(mac_like(f"old-{index}"), clock.now())
        assert suppressor.false_positive_rate() > 0.1
        clock.advance(3.0)
        assert suppressor.check_and_insert(mac_like("after-the-gap"), clock.now())
        # One identifier in a 1,024-bit filter, nothing in the other.
        assert suppressor.false_positive_rate() == (4 / 1024) ** 4
        clock.advance(1.0)  # a single window: the usual swap, nothing lost
        assert not suppressor.check_and_insert(mac_like("after-the-gap"), clock.now())

    def test_bit_positions_are_the_digest_words(self):
        """Filter contents are a function of the identifiers alone: bit
        ``i`` of a packet is ``(h1 + i*h2) mod bits`` over the two 64-bit
        halves of its MAC — no second hash — for any k and any filter
        size, powers of two or not."""
        for bits, hashes in [(1 << 12, 4), (1 << 12, 3), (4999, 7), (1000, 1)]:
            suppressor = DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes)
            expected = bytearray((bits + 7) // 8)
            for index in range(300):
                identifier = mac_like(f"id-{index}")
                positions = bloom_bits(identifier, bits, hashes)
                assert len(positions) == hashes and all(0 <= p < bits for p in positions)
                seen = all(expected[p >> 3] & (1 << (p & 7)) for p in positions)
                assert suppressor.check_and_insert(identifier, 0.0) is not seen
                if not seen:
                    for position in positions:
                        expected[position >> 3] |= 1 << (position & 7)
            assert suppressor._current._array == expected

    def test_identifier_must_be_a_whole_mac(self):
        suppressor = DuplicateSuppressor(SimClock(0.0))
        with pytest.raises(struct.error):
            suppressor.check_and_insert(b"short", 0.0)


class TestOveruseFlowDetector:
    def test_conforming_flow_not_flagged(self):
        ofd = OveruseFlowDetector(window=1.0)
        # 1 Mbps reservation, sending exactly 1 Mbps: 125 B packets x 1000.
        for step in range(1000):
            flagged = ofd.observe(b"flow-1", 125, mbps(1), now=step * 0.001)
            assert not flagged

    def test_overusing_flow_flagged(self):
        ofd = OveruseFlowDetector(window=1.0)
        flagged = False
        # 3x the reserved rate.
        for step in range(1000):
            flagged = flagged or ofd.observe(b"flow-1", 375, mbps(1), now=step * 0.001)
        assert flagged
        assert ofd.is_suspect(b"flow-1")

    def test_no_false_negatives(self):
        """Count-min never undercounts: every true overuser is reported."""
        ofd = OveruseFlowDetector(window=1.0, width=64, depth=2)  # tiny sketch
        overusers = [f"bad-{i}".encode() for i in range(10)]
        for step in range(1000):
            now = step * 0.001
            for flow in overusers:
                ofd.observe(flow, 500, mbps(1), now=now)  # 4x reserved
        for flow in overusers:
            assert ofd.is_suspect(flow)

    def test_false_positives_possible_with_tiny_sketch(self):
        """Collisions in a tiny sketch can flag innocents — why §4.8
        confirms deterministically before punishing."""
        ofd = OveruseFlowDetector(window=1.0, width=4, depth=1)
        for step in range(1000):
            now = step * 0.001
            for index in range(40):
                ofd.observe(f"flow-{index}".encode(), 100, mbps(1), now=now)
        # With 40 flows in 4 cells, aggregates cross the threshold.
        assert len(ofd.suspects()) > 0

    def test_window_reset_clears_suspects(self):
        ofd = OveruseFlowDetector(window=1.0)
        for step in range(1000):
            ofd.observe(b"flow-1", 500, mbps(1), now=step * 0.001)
        assert ofd.is_suspect(b"flow-1")
        ofd.observe(b"flow-2", 100, mbps(1), now=2.5)  # new window
        assert not ofd.is_suspect(b"flow-1")

    def test_zero_bandwidth_is_overuse(self):
        ofd = OveruseFlowDetector()
        assert ofd.observe(b"flow-1", 100, 0.0, now=0.0)

    def test_memory_independent_of_flow_count(self):
        ofd = OveruseFlowDetector(width=128, depth=2)
        cells = ofd.memory_cells
        for index in range(10_000):
            ofd.observe(f"flow-{index}".encode(), 100, gbps(1), now=0.0)
        assert ofd.memory_cells == cells

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            OveruseFlowDetector(width=0)
        with pytest.raises(ValueError):
            OveruseFlowDetector(window=0)


class TestBlocklist:
    def test_block_and_check(self):
        blocklist = Blocklist()
        blocklist.block(SRC)
        assert blocklist.is_blocked(SRC, now=0.0)

    def test_unblocked_by_default(self):
        assert not Blocklist().is_blocked(SRC, now=0.0)

    def test_timed_block_expires(self):
        blocklist = Blocklist()
        blocklist.block(SRC, until=10.0)
        assert blocklist.is_blocked(SRC, now=5.0)
        assert not blocklist.is_blocked(SRC, now=10.0)
        assert len(blocklist) == 0  # lazy cleanup happened

    def test_unblock(self):
        blocklist = Blocklist()
        blocklist.block(SRC)
        blocklist.unblock(SRC)
        assert not blocklist.is_blocked(SRC, now=0.0)

    def test_permanent_block_never_expires(self):
        blocklist = Blocklist()
        blocklist.block(SRC, until=None)
        assert blocklist.is_blocked(SRC, now=1e12)


class TestDeterministicMonitor:
    def test_unwatched_flows_pass(self):
        monitor = DeterministicMonitor()
        assert monitor.check(b"flow", 10_000_000, now=0.0)

    def test_watched_flow_limited(self):
        monitor = DeterministicMonitor(burst_seconds=0.01)
        monitor.watch(b"flow", mbps(8), now=0.0)
        assert monitor.check(b"flow", 1000, now=0.0)
        assert not monitor.check(b"flow", 100_000, now=0.0)

    def test_confirmation_after_repeated_drops(self):
        confirmed = []
        monitor = DeterministicMonitor(
            burst_seconds=0.01, confirmation_drops=3, on_confirmed=confirmed.append
        )
        monitor.watch(b"flow", 8000.0, now=0.0)
        for _ in range(5):
            monitor.check(b"flow", 100_000, now=0.0)
        assert confirmed == [b"flow"]
        assert monitor.is_confirmed_overuser(b"flow")

    def test_spaced_drops_never_confirm(self):
        """§4.8: confirmation means *sustained* overuse — one stray
        non-conforming packet per lifetime, collected over hours, must
        not add up to a blocklisting."""
        confirmed = []
        monitor = DeterministicMonitor(
            burst_seconds=0.01,
            confirmation_drops=3,
            confirmation_window=10.0,
            on_confirmed=confirmed.append,
        )
        monitor.watch(b"flow", 8000.0, now=0.0)
        for tick in range(6):
            assert not monitor.check(b"flow", 100_000, now=tick * 11.0)
        assert confirmed == []
        assert not monitor.is_confirmed_overuser(b"flow")

    def test_stale_streak_restarts_from_scratch(self):
        confirmed = []
        monitor = DeterministicMonitor(
            burst_seconds=0.01,
            confirmation_drops=3,
            confirmation_window=10.0,
            on_confirmed=confirmed.append,
        )
        monitor.watch(b"flow", 8000.0, now=0.0)
        monitor.check(b"flow", 100_000, now=0.0)  # stray drop, long ago
        monitor.check(b"flow", 100_000, now=20.0)  # streak restarts here
        monitor.check(b"flow", 100_000, now=24.0)
        assert confirmed == []  # 2 fresh drops, the stale one didn't count
        monitor.check(b"flow", 100_000, now=28.0)
        assert confirmed == [b"flow"]

    def test_single_burst_not_confirmed(self):
        monitor = DeterministicMonitor(confirmation_drops=3)
        monitor.watch(b"flow", 8000.0, now=0.0)
        monitor.check(b"flow", 100_000, now=0.0)
        assert not monitor.is_confirmed_overuser(b"flow")

    def test_unwatch_forgets(self):
        monitor = DeterministicMonitor()
        monitor.watch(b"flow", 8000.0, now=0.0)
        monitor.unwatch(b"flow")
        assert not monitor.is_watched(b"flow")
        assert monitor.check(b"flow", 10_000_000, now=0.0)

    def test_watch_updates_rate_on_renewal(self):
        monitor = DeterministicMonitor(burst_seconds=1.0)
        monitor.watch(b"flow", 8000.0, now=0.0)
        monitor.watch(b"flow", 16_000.0, now=0.0)
        assert monitor._buckets[b"flow"].rate == 16_000.0


class TestPriorityScheduler:
    def test_colibri_served_before_best_effort(self):
        scheduler = PriorityScheduler(capacity=8000.0)  # 1000 B per second
        scheduler.enqueue(600, TrafficClass.BEST_EFFORT)
        scheduler.enqueue(600, TrafficClass.EER_DATA)
        sent = scheduler.drain(1.0)
        assert sent[TrafficClass.EER_DATA] == 600
        assert sent[TrafficClass.BEST_EFFORT] == 0  # didn't fit this slice

    def test_control_has_top_priority(self):
        scheduler = PriorityScheduler(capacity=8000.0)
        scheduler.enqueue(600, TrafficClass.EER_DATA)
        scheduler.enqueue(600, TrafficClass.CONTROL)
        sent = scheduler.drain(1.0)
        assert sent[TrafficClass.CONTROL] == 600

    def test_best_effort_scavenges_unused(self):
        scheduler = PriorityScheduler(capacity=8000.0)
        scheduler.enqueue(300, TrafficClass.EER_DATA)
        scheduler.enqueue(500, TrafficClass.BEST_EFFORT)
        sent = scheduler.drain(1.0)
        assert sent[TrafficClass.BEST_EFFORT] == 500

    def test_tail_drop_when_queue_full(self):
        scheduler = PriorityScheduler(capacity=8000.0, queue_bytes=1000)
        assert scheduler.enqueue(800, TrafficClass.BEST_EFFORT)
        assert not scheduler.enqueue(800, TrafficClass.BEST_EFFORT)
        assert scheduler.tail_dropped[TrafficClass.BEST_EFFORT] == 1

    def test_queues_isolated_per_class(self):
        scheduler = PriorityScheduler(capacity=8000.0, queue_bytes=1000)
        scheduler.enqueue(900, TrafficClass.BEST_EFFORT)
        assert scheduler.enqueue(900, TrafficClass.EER_DATA)  # own queue

    def test_output_rate(self):
        scheduler = PriorityScheduler(capacity=80_000.0)
        for _ in range(10):
            scheduler.enqueue(1000, TrafficClass.EER_DATA)
        scheduler.drain(1.0)
        assert scheduler.output_rate(TrafficClass.EER_DATA, 1.0) == pytest.approx(80_000.0)

    def test_backlog_accounting(self):
        scheduler = PriorityScheduler(capacity=8.0)
        scheduler.enqueue(100, TrafficClass.BEST_EFFORT)
        assert scheduler.backlog_bytes(TrafficClass.BEST_EFFORT) == 100
        assert scheduler.total_backlog() == 100

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PriorityScheduler(capacity=0)
        scheduler = PriorityScheduler(capacity=1.0)
        with pytest.raises(ValueError):
            scheduler.enqueue(0, TrafficClass.EER_DATA)
        with pytest.raises(ValueError):
            scheduler.drain(0)


class TestBloomSizing:
    def test_empty_filter_has_zero_rate(self):
        suppressor = DuplicateSuppressor(SimClock(0.0))
        assert suppressor.false_positive_rate() == 0.0

    def test_popcount_matches_per_byte_formula(self):
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=1 << 14, hashes=4)
        for index in range(1500):
            suppressor.check_and_insert(mac_like(f"p{index}"), 0.0)
        bloom = suppressor._current
        set_bits = sum(bin(byte).count("1") for byte in bloom._array)
        p_current = (set_bits / bloom.bits) ** bloom.hashes
        # The previous filter is empty; equal to the last bit.
        assert suppressor.false_positive_rate() == 1.0 - (1.0 - p_current)

    def test_rate_grows_with_load(self):
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=1 << 12)
        for index in range(200):
            suppressor.check_and_insert(mac_like(f"p{index}"), 0.0)
        light = suppressor.false_positive_rate()
        for index in range(200, 2000):
            suppressor.check_and_insert(mac_like(f"p{index}"), 0.0)
        heavy = suppressor.false_positive_rate()
        assert 0.0 < light < heavy < 1.0

    def test_estimate_matches_observation(self):
        """The analytic estimate predicts the empirical FP rate within
        a small factor on an overloaded filter."""
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=1 << 12, hashes=4)
        for index in range(2000):
            suppressor.check_and_insert(mac_like(f"seen-{index}"), 0.0)
        predicted = suppressor.false_positive_rate()
        trials = 4000
        # Probe membership without inserting, so the measurement does not
        # fill the filter it is measuring.
        array = suppressor._current._array
        false_hits = sum(
            all(array[p >> 3] & (1 << (p & 7)) for p in bloom_bits(mac_like(f"fresh-{index}"), 1 << 12, 4))
            for index in range(trials)
        )
        observed = false_hits / trials
        assert observed == pytest.approx(predicted, abs=0.05)

    def test_size_for_meets_target(self):
        bits = DuplicateSuppressor.size_for(
            packets_per_window=10_000, target_fp_rate=1e-3
        )
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=bits)
        for index in range(10_000):
            suppressor.check_and_insert(mac_like(f"p{index}"), 0.0)
        assert suppressor.false_positive_rate() <= 1e-3 * 1.1

    def test_size_for_validates_arguments(self):
        with pytest.raises(ValueError):
            DuplicateSuppressor.size_for(1000, 0.0)
        with pytest.raises(ValueError):
            DuplicateSuppressor.size_for(0, 0.01)
