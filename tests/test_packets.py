"""Unit and property tests for repro.packets: fields, packet, control msgs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import L_HVF
from repro.errors import PacketDecodeError, PacketFieldError
from repro.packets import ColibriPacket, EerInfo, PacketType, PathField, ResInfo, Timestamp
from repro.packets.control import (
    AsGrant,
    EerRenewalRequest,
    EerSetupRequest,
    EerSetupResponse,
    SegActivationRequest,
    SegRenewalRequest,
    SegSetupRequest,
    SegSetupResponse,
    SegTeardownNotice,
    decode_message,
)
from repro.packets.wire import Reader, Writer
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.segments import HopField

SRC = IsdAs.parse("1-ff00:0:110")
DST = IsdAs.parse("2-ff00:0:220")


def res_info(local_id=7, bw=1e9, expiry=100.0, version=1):
    return ResInfo(
        reservation=ReservationId(SRC, local_id),
        bandwidth=bw,
        expiry=expiry,
        version=version,
    )


def sample_packet(payload=b"hello", packet_type=PacketType.EER_DATA):
    path = PathField(((0, 1), (2, 3), (4, 0)))
    eer = EerInfo(HostAddr(1), HostAddr(2)) if packet_type == PacketType.EER_DATA else None
    return ColibriPacket(
        packet_type=packet_type,
        path=path,
        res_info=res_info(),
        timestamp=Timestamp(123456, 7),
        hvfs=[b"\x01\x02\x03\x04"] * 3,
        eer_info=eer,
        payload=payload,
    )


class TestWire:
    def test_roundtrip_all_types(self):
        data = (
            Writer()
            .u8(7)
            .u16(300)
            .f64(3.25)
            .raw(b"abc")
            .blob(b"variable")
            .finish()
        )
        reader = Reader(data)
        assert reader.u8() == 7
        assert reader.u16() == 300
        assert reader.f64() == 3.25
        assert reader.raw(3) == b"abc"
        assert reader.blob() == b"variable"
        reader.expect_end()

    def test_truncation_detected(self):
        reader = Reader(b"\x00")
        with pytest.raises(PacketDecodeError):
            reader.u16()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x00\x01")
        reader.u8()
        with pytest.raises(PacketDecodeError):
            reader.expect_end()


class TestPathField:
    def test_pack_unpack(self):
        path = PathField(((0, 1), (5, 9), (3, 0)))
        assert PathField.unpack(path.packed, 3) == path

    def test_empty_rejected(self):
        with pytest.raises(PacketFieldError):
            PathField(())

    def test_out_of_range_ifid(self):
        with pytest.raises(PacketFieldError):
            PathField(((0, 1 << 16),))

    def test_from_hops(self):
        hops = [HopField(SRC, 0, 4), HopField(DST, 2, 0)]
        assert PathField.from_hops(hops).interface_pairs == ((0, 4), (2, 0))


class TestResInfo:
    def test_pack_unpack(self):
        info = res_info(bw=0.4e9, expiry=123.5, version=3)
        assert ResInfo.unpack(info.packed) == info

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(PacketFieldError):
            res_info(bw=-1)

    def test_version_range(self):
        with pytest.raises(PacketFieldError):
            res_info(version=1 << 16)

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            ResInfo.unpack(b"\x00" * 10)


class TestTimestamp:
    def test_create_and_recover(self):
        ts = Timestamp.create(now=84.0, expiry=100.0)
        assert 100.0 - ts.micros_before_expiry / 1e6 == pytest.approx(84.0, abs=1e-5)

    def test_after_expiry_rejected(self):
        with pytest.raises(PacketFieldError):
            Timestamp.create(now=101.0, expiry=100.0)

    def test_pack_unpack(self):
        ts = Timestamp(987654321, sequence=99)
        assert Timestamp.unpack(ts.packed) == ts

    def test_uniqueness_via_sequence(self):
        a = Timestamp(1000, sequence=0)
        b = Timestamp(1000, sequence=1)
        assert a != b and a.packed != b.packed

    @given(st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 16) - 1))
    def test_roundtrip_property(self, micros, seq):
        ts = Timestamp(micros, seq)
        assert Timestamp.unpack(ts.packed) == ts


class TestColibriPacket:
    def test_roundtrip_eer_data(self):
        packet = sample_packet()
        parsed = ColibriPacket.from_bytes(packet.to_bytes())
        assert parsed.res_info == packet.res_info
        assert parsed.path == packet.path
        assert parsed.eer_info == packet.eer_info
        assert parsed.hvfs == packet.hvfs
        assert parsed.payload == b"hello"
        assert parsed.timestamp == packet.timestamp

    def test_roundtrip_segment_packet(self):
        packet = sample_packet(packet_type=PacketType.SEGMENT)
        parsed = ColibriPacket.from_bytes(packet.to_bytes())
        assert parsed.eer_info is None
        assert not parsed.is_eer_data

    def test_total_size_matches_serialization(self):
        for hops in (1, 2, 16, 64):
            for packet_type in (PacketType.EER_DATA, PacketType.SEGMENT):
                eer_data = packet_type == PacketType.EER_DATA
                packet = ColibriPacket(
                    packet_type=packet_type,
                    path=PathField(tuple((hop, hop + 1) for hop in range(hops))),
                    res_info=res_info(),
                    timestamp=Timestamp(123456, 7),
                    hvfs=[bytes(L_HVF)] * hops,
                    eer_info=EerInfo(HostAddr(1), HostAddr(2)) if eer_data else None,
                    payload=b"x" * 137,
                )
                size = len(packet.to_bytes())
                assert packet.total_size == size, (hops, packet_type)
                assert ColibriPacket.header_size_for(hops, eer_data) == size - 137

    def test_eer_requires_eer_info(self):
        with pytest.raises(PacketFieldError):
            ColibriPacket(
                packet_type=PacketType.EER_DATA,
                path=PathField(((0, 1),)),
                res_info=res_info(),
                timestamp=Timestamp(0),
                hvfs=[b"\x00" * L_HVF],
            )

    def test_hvf_count_must_match_hops(self):
        with pytest.raises(PacketFieldError):
            ColibriPacket(
                packet_type=PacketType.SEGMENT,
                path=PathField(((0, 1), (1, 0))),
                res_info=res_info(),
                timestamp=Timestamp(0),
                hvfs=[b"\x00" * L_HVF],
            )

    def test_advance_hop(self):
        packet = sample_packet()
        assert packet.path.pair(packet.hop_index) == (0, 1)
        packet.advance_hop()
        assert packet.path.pair(packet.hop_index) == (2, 3)
        packet.advance_hop()
        with pytest.raises(PacketFieldError):
            packet.advance_hop()

    def test_bad_magic(self):
        data = bytearray(sample_packet().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(PacketDecodeError):
            ColibriPacket.from_bytes(bytes(data))

    def test_truncated_payload(self):
        data = sample_packet(payload=b"x" * 100).to_bytes()
        with pytest.raises(PacketDecodeError):
            ColibriPacket.from_bytes(data[:-10])

    @given(st.binary(max_size=512))
    def test_payload_roundtrip_property(self, payload):
        packet = sample_packet(payload=payload)
        assert ColibriPacket.from_bytes(packet.to_bytes()).payload == payload


class TestControlMessages:
    HOPS = (
        HopField(SRC, 0, 1),
        HopField(IsdAs.parse("1-ff00:0:111"), 2, 3),
        HopField(DST, 4, 0),
    )

    def roundtrip(self, message):
        decoded = decode_message(message.to_bytes())
        assert decoded == message
        return decoded

    def test_seg_setup_request(self):
        self.roundtrip(
            SegSetupRequest(
                res_info=res_info(),
                hops=self.HOPS,
                min_bandwidth=1e8,
                grants=(AsGrant(SRC, 2e9),),
            )
        )

    def test_seg_setup_response(self):
        self.roundtrip(
            SegSetupResponse(
                res_info=res_info(),
                success=True,
                granted=5e8,
                tokens=(b"\x01\x02\x03\x04", b"\x05\x06\x07\x08"),
            )
        )

    def test_failed_response_carries_grants(self):
        message = self.roundtrip(
            SegSetupResponse(
                res_info=res_info(),
                success=False,
                granted=0.0,
                grants=(AsGrant(SRC, 1e9), AsGrant(DST, 1e7)),
            )
        )
        # Bottleneck diagnosis: the smallest grant locates the bottleneck.
        bottleneck = min(message.grants, key=lambda g: g.granted)
        assert bottleneck.isd_as == DST

    def test_seg_renewal(self):
        self.roundtrip(
            SegRenewalRequest(
                reservation=ReservationId(SRC, 7),
                new_bandwidth=2e9,
                min_bandwidth=1e8,
                new_expiry=400.0,
                new_version=2,
            )
        )

    def test_seg_activation(self):
        self.roundtrip(SegActivationRequest(reservation=ReservationId(SRC, 7), version=2))

    def test_seg_teardown(self):
        self.roundtrip(SegTeardownNotice(reservation=ReservationId(SRC, 7)))

    def test_eer_setup_request(self):
        self.roundtrip(
            EerSetupRequest(
                res_info=res_info(),
                eer_info=EerInfo(HostAddr(10), HostAddr(20)),
                hops=self.HOPS,
                segment_ids=(ReservationId(SRC, 1), ReservationId(DST, 2)),
            )
        )

    def test_eer_setup_response(self):
        self.roundtrip(
            EerSetupResponse(
                res_info=res_info(),
                success=True,
                granted=1e8,
                sealed_hopauths=(b"sealed-1", b"sealed-22"),
            )
        )

    def test_eer_renewal(self):
        self.roundtrip(
            EerRenewalRequest(
                reservation=ReservationId(SRC, 9),
                new_bandwidth=5e7,
                new_expiry=116.0,
                new_version=4,
            )
        )

    def test_with_grant_accumulates(self):
        request = SegSetupRequest(
            res_info=res_info(), hops=self.HOPS, min_bandwidth=0.0
        )
        request = request.with_grant(AsGrant(SRC, 1e9)).with_grant(AsGrant(DST, 2e9))
        assert [g.isd_as for g in request.grants] == [SRC, DST]

    def test_unknown_type_tag(self):
        with pytest.raises(PacketDecodeError):
            decode_message(b"\xff")

    def test_trailing_garbage_rejected(self):
        data = SegTeardownNotice(reservation=ReservationId(SRC, 7)).to_bytes()
        with pytest.raises(PacketDecodeError):
            decode_message(data + b"\x00")

    def test_authenticated_bytes_stable(self):
        message = SegActivationRequest(reservation=ReservationId(SRC, 7), version=2)
        assert message.authenticated_bytes == message.to_bytes()
