"""Unit tests for the border router and gateway fast paths (§4.6)."""

import pytest

from repro.constants import EER_LIFETIME, FRESHNESS_WINDOW, L_HVF
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane import ColibriKeys, hop_authenticator, segment_token
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.router import BorderRouter, Verdict
from repro.errors import (
    BandwidthExceeded,
    ReservationExpired,
    ReservationNotFound,
)
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

SRC = IsdAs.parse("1-ff00:0:110")
MID = IsdAs.parse("1-ff00:0:111")

PATH = PathField(((0, 1), (2, 3), (4, 0)))
EER = EerInfo(HostAddr(1), HostAddr(2))


def make_stack(now=1000.0):
    """One source gateway plus a router at the middle AS (index 1)."""
    clock = SimClock(now)
    src_keys = ColibriKeys(DrkeyDeriver(SRC, clock, seed=b"src" * 6))
    mid_keys = ColibriKeys(DrkeyDeriver(MID, clock, seed=b"mid" * 6))
    gateway = ColibriGateway(SRC, clock)
    router = BorderRouter(MID, mid_keys, clock)
    return clock, gateway, router, src_keys, mid_keys


def install(gateway, mid_keys, clock, bandwidth=gbps(1), local_id=5, version=1):
    """Install an EER whose middle-hop HopAuth is honestly computed."""
    now = clock.now()
    res_id = ReservationId(SRC, local_id)
    res_info = ResInfo(
        reservation=res_id,
        bandwidth=bandwidth,
        expiry=now + EER_LIFETIME,
        version=version,
    )
    # For the test we only need a correct sigma at the router's hop; the
    # other two hops get dummy authenticators.
    sigma_mid = hop_authenticator(mid_keys.hop_key(now), res_info, EER, 2, 3)
    gateway.install(res_id, PATH, EER, res_info, (b"x" * 16, sigma_mid, b"y" * 16))
    return res_id, res_info


class TestGateway:
    def test_send_stamps_all_hvfs(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        packet = gateway.send(res_id, b"data")
        assert packet.is_eer_data
        assert all(hvf != ColibriPacket.EMPTY_HVF for hvf in packet.hvfs)
        assert len(packet.hvfs[0]) == L_HVF

    def test_unknown_reservation(self):
        clock, gateway, *_ = make_stack()
        with pytest.raises(ReservationNotFound):
            gateway.send(ReservationId(SRC, 99), b"data")

    def test_expired_reservation(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        clock.advance(EER_LIFETIME + 1)
        with pytest.raises(ReservationExpired):
            gateway.send(res_id, b"data")

    def test_monitor_drops_over_rate(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock, bandwidth=mbps(1))
        # Burst depth is 0.1 s of 1 Mbps = 12 500 B; blow through it.
        sent = dropped = 0
        for _ in range(40):
            try:
                gateway.send(res_id, b"z" * 1000)
                sent += 1
            except BandwidthExceeded:
                dropped += 1
        assert dropped > 0
        assert sent > 0
        assert gateway.packets_dropped == dropped

    def test_timestamps_unique_within_microsecond(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        a = gateway.send(res_id, b"")
        b = gateway.send(res_id, b"")
        assert a.timestamp != b.timestamp  # sequence disambiguates

    def test_latest_version_used(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock, version=1)
        install(gateway, router.keys, clock, local_id=5, version=2)
        packet = gateway.send(res_id, b"")
        assert packet.res_info.version == 2

    def test_monitor_keys_on_reservation_not_version(self):
        """Two versions share the same monitored budget (§4.8)."""
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock, bandwidth=mbps(1), version=1)
        install(gateway, router.keys, clock, bandwidth=mbps(1), version=2)
        drops = 0
        for _ in range(40):
            try:
                gateway.send(res_id, b"z" * 1000)
            except BandwidthExceeded:
                drops += 1
        assert drops > 0  # versions did not double the budget

    def test_uninstall(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        gateway.uninstall(res_id)
        assert len(gateway._reservations) == 0
        with pytest.raises(ReservationNotFound):
            gateway.send(res_id, b"")

    def test_send_is_a_burst_of_one(self):
        """``send`` runs the burst pipeline once per call, over a burst of
        its one request, for a drop as for a stamped packet."""
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        bursts = []
        batch = gateway.send_batch

        def counting(requests):
            bursts.append(list(requests))
            return batch(requests)

        gateway.send_batch = counting
        gateway.send(res_id, b"a")
        gateway.send(res_id, b"b")
        with pytest.raises(ReservationNotFound):
            gateway.send(ReservationId(SRC, 99), b"c")
        assert bursts == [[(res_id, b"a")], [(res_id, b"b")], [(ReservationId(SRC, 99), b"c")]]

    @pytest.mark.parametrize("api", ["send", "send_batch"])
    def test_unwatched_flow_is_not_policed(self, api):
        """The monitor decides what is policed, live: a flow it stops
        watching passes on both APIs, and policing resumes the moment it
        watches the flow again."""
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock, bandwidth=mbps(1))

        def passed(count):
            requests = [(res_id, b"z" * 1000)] * count
            if api == "send":
                sent = 0
                for request in requests:
                    try:
                        gateway.send(*request)
                        sent += 1
                    except BandwidthExceeded:
                        pass
                return sent
            outcomes = gateway.send_batch(requests)
            return sum(not isinstance(outcome, Exception) for outcome in outcomes)

        gateway.monitor.unwatch(res_id.packed)
        assert passed(200) == 200
        assert gateway.monitor.confirmed_count() == 0
        assert gateway.packets_dropped == 0
        gateway.monitor.watch(res_id.packed, mbps(1), clock.now())
        # A fresh 1 Mbps bucket holds 0.1 s worth: 100,000 bits.
        size = ColibriPacket.header_size_for(len(PATH)) + 1000
        assert passed(40) == 100_000 // (size * 8)
        assert gateway.monitor.confirmed_count() == 1

    def test_install_checks_hopauth_count(self):
        clock, gateway, router, *_ = make_stack()
        res_info = ResInfo(
            reservation=ReservationId(SRC, 5),
            bandwidth=1e9,
            expiry=clock.now() + 16,
            version=1,
        )
        with pytest.raises(ValueError):
            gateway.install(ReservationId(SRC, 5), PATH, EER, res_info, (b"x" * 16,))


class TestRouterEerPath:
    def stamped_packet(self, clock, gateway, router, **kwargs):
        res_id, _ = install(gateway, router.keys, clock, **kwargs)
        packet = gateway.send(res_id, b"payload")
        packet.hop_index = 1  # arriving at the middle AS
        return packet

    def test_valid_packet_forwarded(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        result = router.process(packet)
        assert result.verdict is Verdict.FORWARD
        assert result.egress == 3
        assert packet.hop_index == 2  # pointer advanced

    def test_last_hop_delivers_to_host(self):
        clock, gateway, router, *_ = make_stack()
        # Build a router for the *last* AS instead.
        last_keys = router.keys
        res_id = ReservationId(SRC, 6)
        res_info = ResInfo(
            reservation=res_id, bandwidth=gbps(1), expiry=clock.now() + 16, version=1
        )
        sigma_last = hop_authenticator(last_keys.hop_key(), res_info, EER, 4, 0)
        gateway.install(res_id, PATH, EER, res_info, (b"x" * 16, b"y" * 16, sigma_last))
        packet = gateway.send(res_id, b"")
        packet.hop_index = 2
        result = router.process(packet)
        assert result.verdict is Verdict.DELIVER_HOST

    def test_bad_hvf_dropped(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        packet.hvfs[1] = b"\xde\xad\xbe\xef"
        assert router.process(packet).verdict is Verdict.DROP_BAD_HVF

    def test_tampered_payload_size_detected(self):
        """Changing the payload changes PktSize, which Eq. (6) covers."""
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        packet.payload = packet.payload + b"junk"
        assert router.process(packet).verdict is Verdict.DROP_BAD_HVF

    def test_spoofed_source_as_dropped(self):
        """Off-path spoofing (§5.1): forged SrcAS breaks the MAC because
        the router derives sigma from ResInfo, which includes SrcAS."""
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        forged = ResInfo(
            reservation=ReservationId(MID, packet.res_info.reservation.local_id),
            bandwidth=packet.res_info.bandwidth,
            expiry=packet.res_info.expiry,
            version=packet.res_info.version,
        )
        packet.res_info = forged
        assert router.process(packet).verdict is Verdict.DROP_BAD_HVF

    def test_expired_reservation_dropped(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        clock.advance(EER_LIFETIME + 1)
        assert router.process(packet).verdict is Verdict.DROP_EXPIRED

    def test_stale_packet_dropped(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        clock.advance(FRESHNESS_WINDOW + 0.5)
        assert router.process(packet).verdict is Verdict.DROP_STALE

    def test_replay_dropped(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        assert router.process(packet).verdict is Verdict.FORWARD
        packet.hop_index = 1  # adversary re-injects the captured packet
        assert router.process(packet).verdict is Verdict.DROP_DUPLICATE
        assert router.duplicates.duplicates_caught == 1

    def test_blocked_source_dropped_cheaply(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        router.blocklist.block(SRC)
        assert router.process(packet).verdict is Verdict.DROP_BLOCKED

    def test_policing_chain_blocks_overuser(self):
        """OFD flags -> deterministic monitor confirms -> source blocked
        and offense reported (§4.8)."""
        offenses = []
        clock, gateway, router, *_ = make_stack()
        router.on_offense = lambda src, rid: offenses.append((src, rid))
        res_id, _ = install(gateway, router.keys, clock, bandwidth=mbps(1))
        blocked = False
        for step in range(3000):
            entry_now = clock.now()
            try:
                packet = gateway.send(res_id, b"z" * 1000)
            except BandwidthExceeded:
                # model the rogue gateway: bypass local monitoring by
                # refilling the monitor's bucket artificially
                gateway.monitor.unwatch(res_id.packed)
                packet = gateway.send(res_id, b"z" * 1000)
            packet.hop_index = 1
            result = router.process(packet)
            if result.verdict is Verdict.DROP_BLOCKED:
                blocked = True
                break
            clock.advance(0.0001)  # 10x the reserved rate
        assert blocked
        assert offenses and offenses[0][0] == SRC
        assert router.blocklist.is_blocked(SRC)

    def test_stats_accounting(self):
        clock, gateway, router, *_ = make_stack()
        packet = self.stamped_packet(clock, gateway, router)
        router.process(packet)
        assert router.stats[Verdict.FORWARD] == 1


class TestRouterSegmentPath:
    def test_valid_segment_token_delivered_to_cserv(self):
        clock, gateway, router, src_keys, mid_keys = make_stack()
        res_info = ResInfo(
            reservation=ReservationId(SRC, 9),
            bandwidth=gbps(1),
            expiry=clock.now() + 300,
            version=1,
        )
        token = segment_token(mid_keys.hop_key(), res_info, 2, 3)
        packet = ColibriPacket(
            packet_type=PacketType.SEGMENT,
            path=PATH,
            res_info=res_info,
            timestamp=Timestamp.create(clock.now(), res_info.expiry),
            hvfs=[b"\x00" * 4, token, b"\x00" * 4],
            payload=b"renewal request",
            hop_index=1,
        )
        assert router.process(packet).verdict is Verdict.DELIVER_CSERV

    def test_bad_segment_token_dropped(self):
        clock, gateway, router, *_ = make_stack()
        res_info = ResInfo(
            reservation=ReservationId(SRC, 9),
            bandwidth=gbps(1),
            expiry=clock.now() + 300,
            version=1,
        )
        packet = ColibriPacket(
            packet_type=PacketType.SEGMENT,
            path=PATH,
            res_info=res_info,
            timestamp=Timestamp.create(clock.now(), res_info.expiry),
            hvfs=[b"\x00" * 4] * 3,
            payload=b"bogus",
            hop_index=1,
        )
        assert router.process(packet).verdict is Verdict.DROP_BAD_HVF

    def test_validate_only_fast_path(self):
        clock, gateway, router, *_ = make_stack()
        res_id, _ = install(gateway, router.keys, clock)
        packet = gateway.send(res_id, b"")
        packet.hop_index = 1
        assert router.validate_only(packet)
        packet.hvfs[1] = b"\x00\x00\x00\x00"
        assert not router.validate_only(packet)
