"""Tests for packet-level protected control traffic (§4.5/§5.3) and
DRKey epoch-boundary behaviour at routers."""

import pytest

from repro.constants import DRKEY_VALIDITY, SEGR_LIFETIME
from repro.control.protected import build_control_packet, walk_control_packet
from repro.dataplane.router import Verdict
from repro.errors import ReservationExpired
from repro.packets.control import SegRenewalRequest
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


def make_renewal_message(cserv, segment_id):
    reservation = cserv.store.get_segment(segment_id)
    return SegRenewalRequest(
        reservation=segment_id,
        new_bandwidth=reservation.bandwidth,
        min_bandwidth=0.0,
        new_expiry=cserv.clock.now() + SEGR_LIFETIME,
        new_version=reservation.next_version_number(),
    )


class TestProtectedControlPackets:
    def test_control_packet_accepted_at_every_hop(self, net):
        (up, core, down) = net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        message = make_renewal_message(cserv, up.reservation_id)
        packet = build_control_packet(cserv, up.reservation_id, message)
        outcome = walk_control_packet(net, packet)
        assert outcome.delivered
        assert all(v is Verdict.DELIVER_CSERV for _, v in outcome.verdicts)
        assert len(outcome.verdicts) == len(up.segment)

    def test_tampered_res_info_dropped(self, net):
        (up, *_rest) = net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        message = make_renewal_message(cserv, up.reservation_id)
        packet = build_control_packet(cserv, up.reservation_id, message)
        # Inflate the claimed bandwidth: the Eq. (3) token covers ResInfo.
        packet.res_info = packet.res_info._replace(bandwidth=1e15)
        outcome = walk_control_packet(net, packet)
        assert not outcome.delivered
        assert outcome.verdicts[0][1] is Verdict.DROP_BAD_HVF

    def test_forged_tokens_dropped(self, net):
        (up, *_rest) = net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        message = make_renewal_message(cserv, up.reservation_id)
        packet = build_control_packet(cserv, up.reservation_id, message)
        packet.hvfs = [b"\xde\xad\xbe\xef"] * len(packet.hvfs)
        outcome = walk_control_packet(net, packet)
        assert not outcome.delivered

    def test_expired_segr_cannot_carry_control(self, net):
        (up, *_rest) = net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        message = make_renewal_message(cserv, up.reservation_id)
        net.advance(SEGR_LIFETIME + 1)
        with pytest.raises(ReservationExpired):
            build_control_packet(cserv, up.reservation_id, message)

    def test_only_initiator_holds_tokens(self, net):
        """A transit AS never receives the token set, so it cannot mint
        control packets for someone else's SegR (§5.3)."""
        (up, *_rest) = net.reserve_segments(SRC, DST, gbps(1))
        transit = net.cserv(asid(1, 11))
        with pytest.raises(KeyError):
            transit.segment_tokens(up.reservation_id)


class TestEpochBoundary:
    def test_eer_survives_drkey_epoch_rollover(self):
        """A reservation set up just before the daily DRKey rotation
        keeps forwarding right after it (previous-epoch grace, standard
        key-rotation practice)."""
        # Start 5 seconds before an epoch boundary.
        from repro.util.clock import SimClock

        boundary = 3 * DRKEY_VALIDITY
        net = ColibriNetwork(
            build_two_isd_topology(), clock=SimClock(boundary - 5.0)
        )
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert net.send(SRC, handle, b"before rollover").delivered
        net.advance(6.0)  # cross the boundary; EER (16 s) still live
        report = net.send(SRC, handle, b"after rollover")
        assert report.delivered, report.verdicts

    def test_segr_token_survives_epoch_rollover(self):
        from repro.util.clock import SimClock

        boundary = 3 * DRKEY_VALIDITY
        net = ColibriNetwork(
            build_two_isd_topology(), clock=SimClock(boundary - 5.0)
        )
        (up, *_rest) = net.reserve_segments(SRC, DST, gbps(1))
        cserv = net.cserv(SRC)
        net.advance(6.0)
        message = make_renewal_message(cserv, up.reservation_id)
        packet = build_control_packet(cserv, up.reservation_id, message)
        assert walk_control_packet(net, packet).delivered

    def test_two_epochs_old_is_rejected(self):
        """The grace window is exactly one epoch: anything older fails
        (it would also be long expired, but the crypto must not accept
        it either)."""
        from repro.dataplane.hvf import ColibriKeys, eer_hvf, hop_authenticator
        from repro.crypto.drkey import DrkeyDeriver
        from repro.dataplane.router import BorderRouter
        from repro.packets.colibri import ColibriPacket, PacketType
        from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
        from repro.reservation.ids import ReservationId
        from repro.topology.addresses import HostAddr
        from repro.util.clock import SimClock

        clock = SimClock(5 * DRKEY_VALIDITY + 10)
        keys = ColibriKeys(DrkeyDeriver(SRC, clock, seed=b"epoch-test-seed!"))
        router = BorderRouter(SRC, keys, clock)
        now = clock.now()
        res_info = ResInfo(
            reservation=ReservationId(SRC, 1),
            bandwidth=1e9,
            expiry=now + 10,
            version=1,
        )
        eer_info = EerInfo(HostAddr(1), HostAddr(2))
        ancient_key = keys.hop_key(now - 2 * DRKEY_VALIDITY)
        sigma = hop_authenticator(ancient_key, res_info, eer_info, 2, 3)
        ts = Timestamp.create(now, res_info.expiry)
        packet = ColibriPacket(
            packet_type=PacketType.EER_DATA,
            path=PathField(((0, 1), (2, 3), (4, 0))),
            res_info=res_info,
            timestamp=ts,
            hvfs=[b"\x00" * 4] * 3,
            eer_info=eer_info,
            hop_index=1,
        )
        packet.hvfs[1] = eer_hvf(sigma, ts, packet.total_size)
        assert router.process(packet).verdict is Verdict.DROP_BAD_HVF
