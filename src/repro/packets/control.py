"""Control-plane message payloads (§4.4).

Setup and renewal requests/responses for SegRs and EERs.  These travel as
the ``Payload`` of Colibri packets (setup requests for SegRs go as
best-effort traffic; everything else rides an existing reservation).

All messages share a tagged wire format — a type byte followed by the
body — so :func:`decode_message` can parse any payload.  The bytes
returned by :meth:`ControlMessage.to_bytes` are exactly what the DRKey
MACs of §4.5 authenticate.

Grant accumulation: as a setup request travels, each on-path AS appends
an :class:`AsGrant` recording the bandwidth it can offer.  On the way
back, the response carries the final (minimum) grant plus one opaque
token/HopAuth per AS.  A failed setup still returns the grant vector so
the initiator "can determine the location of potential bottlenecks on
the segment" (§3.3).
"""

from __future__ import annotations

from collections import namedtuple

from repro.errors import PacketDecodeError
from repro.packets.fields import EerInfo, ResInfo
from repro.packets.wire import Reader, Writer
from repro.reservation.ids import ReservationId
from repro.topology.addresses import IsdAs
from repro.topology.segments import HopField

_MESSAGE_TYPES = {}


def _message(type_tag: int, fields: str, defaults: tuple = ()):
    """Class decorator: the decorated body becomes a ``namedtuple`` of
    ``fields`` that is also a :class:`ControlMessage`, registered under
    ``type_tag``.  One ``tuple.__new__`` builds a message; it is
    immutable, carries no ``__dict__``, and its repr, hash and field-wise
    equality are a frozen dataclass's (it also equals the plain tuple of
    its fields)."""

    def decorate(body: type) -> type:
        namespace = {
            name: value
            for name, value in vars(body).items()
            if name not in ("__dict__", "__weakref__")
        }
        namespace.update(__slots__=(), TYPE_TAG=type_tag)
        base = namedtuple(body.__name__, fields, defaults=defaults)
        cls = _MESSAGE_TYPES[type_tag] = type(
            body.__name__, (base, ControlMessage), namespace
        )
        return cls

    return decorate


class ControlMessage:
    """Base class: tagged serialization plus the MAC input bytes."""

    __slots__ = ()
    TYPE_TAG = None

    def to_bytes(self) -> bytes:
        writer = Writer().u8(self.TYPE_TAG)
        self._write_body(writer)
        return writer.finish()

    def _write_body(self, writer: Writer) -> None:
        raise NotImplementedError

    @property
    def authenticated_bytes(self) -> bytes:
        """Bytes covered by the control-plane DRKey MAC (§4.5)."""
        return self.to_bytes()


def decode_message(data: bytes) -> ControlMessage:
    """Parse any control message from its tagged wire form."""
    reader = Reader(data)
    tag = reader.u8()
    cls = _MESSAGE_TYPES.get(tag)
    if cls is None:
        raise PacketDecodeError(f"unknown control message type {tag}")
    message = cls._read_body(reader)
    reader.expect_end()
    return message


# -- shared sub-structures ----------------------------------------------------


def _write_hops(writer: Writer, hops: tuple) -> None:
    writer.u8(len(hops))
    for hop in hops:
        writer.raw(hop.isd_as.packed).u16(hop.ingress).u16(hop.egress)


def _read_hops(reader: Reader) -> tuple:
    count = reader.u8()
    return tuple(
        HopField(
            isd_as=IsdAs.unpack(reader.raw(8)),
            ingress=reader.u16(),
            egress=reader.u16(),
        )
        for _ in range(count)
    )


class AsGrant(namedtuple("AsGrant", "isd_as granted")):
    """One AS's bandwidth offer (bits per second), accumulated along a
    setup request."""

    __slots__ = ()

    def write(self, writer: Writer) -> None:
        writer.raw(self.isd_as.packed).f64(self.granted)

    @classmethod
    def read(cls, reader: Reader) -> "AsGrant":
        return cls(IsdAs.unpack(reader.raw(8)), reader.f64())


def _write_grants(writer: Writer, grants: tuple) -> None:
    writer.u8(len(grants))
    for grant in grants:
        grant.write(writer)


def _read_grants(reader: Reader) -> tuple:
    return tuple(AsGrant.read(reader) for _ in range(reader.u8()))


def _write_blobs(writer: Writer, blobs: tuple) -> None:
    writer.u8(len(blobs))
    for blob in blobs:
        writer.blob(blob)


def _read_blobs(reader: Reader) -> tuple:
    return tuple(reader.blob() for _ in range(reader.u8()))


# -- segment reservations ------------------------------------------------------


#: Wire values for segment types in SegReq messages.
SEGMENT_TYPE_CODES = {"up": 0, "down": 1, "core": 2}
SEGMENT_TYPE_NAMES = {code: name for name, code in SEGMENT_TYPE_CODES.items()}


@_message(1, "res_info hops min_bandwidth segment_type grants", (0, ()))
class SegSetupRequest:
    """Segment-reservation setup request (SegReq, §3.3).

    Travels as best-effort traffic along ``hops``; ``res_info.bandwidth``
    is the *requested* amount, ``min_bandwidth`` the floor below which the
    setup fails.  ``grants`` accumulates one entry per traversed AS.
    ``segment_type`` (one of :data:`SEGMENT_TYPE_CODES`) tells on-path
    ASes which kind of SegR they are granting — transfer-AS EER admission
    later depends on the up/core distinction (§4.7).
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.res_info.packed)
        _write_hops(writer, self.hops)
        writer.f64(self.min_bandwidth)
        writer.u8(self.segment_type)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegSetupRequest":
        return cls(
            res_info=ResInfo.unpack(reader.raw(ResInfo.SIZE)),
            hops=_read_hops(reader),
            min_bandwidth=reader.f64(),
            segment_type=reader.u8(),
            grants=_read_grants(reader),
        )

    def with_grant(self, grant: AsGrant) -> "SegSetupRequest":
        res_info, hops, minimum, segment_type, grants = self
        return SegSetupRequest(res_info, hops, minimum, segment_type, grants + (grant,))


@_message(2, "res_info success granted tokens grants", ((), ()))
class SegSetupResponse:
    """Reply to a SegReq, sent back along the segment (§3.3).

    On success, ``granted`` is the final agreed bandwidth and ``tokens``
    holds one Eq. (3) token per on-path AS (in path order).  On failure,
    ``grants`` exposes each AS's offer for bottleneck diagnosis.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.res_info.packed).u8(1 if self.success else 0).f64(self.granted)
        _write_blobs(writer, self.tokens)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegSetupResponse":
        return cls(
            res_info=ResInfo.unpack(reader.raw(ResInfo.SIZE)),
            success=bool(reader.u8()),
            granted=reader.f64(),
            tokens=_read_blobs(reader),
            grants=_read_grants(reader),
        )


@_message(
    3, "reservation new_bandwidth min_bandwidth new_expiry new_version grants", ((),)
)
class SegRenewalRequest:
    """Renewal of an existing SegR, sent over the SegR itself (§4.4).

    The packet already carries Path/SrcAS/ResId, so the payload only
    names the new bandwidth, minimum, expiry, and version.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed)
        writer.f64(self.new_bandwidth).f64(self.min_bandwidth)
        writer.f64(self.new_expiry).u16(self.new_version)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegRenewalRequest":
        return cls(
            reservation=ReservationId.unpack(reader.raw(12)),
            new_bandwidth=reader.f64(),
            min_bandwidth=reader.f64(),
            new_expiry=reader.f64(),
            new_version=reader.u16(),
            grants=_read_grants(reader),
        )

    def with_grant(self, grant: AsGrant) -> "SegRenewalRequest":
        *fields, grants = self
        return SegRenewalRequest(*fields, grants + (grant,))


@_message(4, "reservation version")
class SegActivationRequest:
    """Explicit switch of a SegR to a pending version (§4.2).

    Only one SegR version may be active at a time; activation is a
    separate request so every on-path AS switches at a controlled instant
    and EER admission never sees two versions at once.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed).u16(self.version)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegActivationRequest":
        return cls(
            reservation=ReservationId.unpack(reader.raw(12)), version=reader.u16()
        )


@_message(5, "reservation")
class SegTeardownNotice:
    """Advisory removal of a SegR before expiry (extension beyond the
    paper, which lets SegRs expire naturally; an explicit teardown frees
    bandwidth faster when an AS retires a segment)."""

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegTeardownNotice":
        return cls(reservation=ReservationId.unpack(reader.raw(12)))


# -- end-to-end reservations ----------------------------------------------------


@_message(6, "res_info eer_info hops segment_ids grants", ((),))
class EerSetupRequest:
    """End-to-end-reservation setup request (EEReq, §3.3, §4.4).

    Carries the EER path, the EER ResInfo, the EERInfo, "plus the ResIds
    of all segments" it rides on (one to three SegRs).  Transfer ASes use
    ``segment_ids`` to copy the payload onto the next SegR's packet.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.res_info.packed).raw(self.eer_info.packed)
        _write_hops(writer, self.hops)
        writer.u8(len(self.segment_ids))
        for seg_id in self.segment_ids:
            writer.raw(seg_id.packed)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "EerSetupRequest":
        res_info = ResInfo.unpack(reader.raw(ResInfo.SIZE))
        eer_info = EerInfo.unpack(reader.raw(EerInfo.SIZE))
        hops = _read_hops(reader)
        segment_ids = tuple(
            ReservationId.unpack(reader.raw(12)) for _ in range(reader.u8())
        )
        return cls(
            res_info=res_info,
            eer_info=eer_info,
            hops=hops,
            segment_ids=segment_ids,
            grants=_read_grants(reader),
        )

    def with_grant(self, grant: AsGrant) -> "EerSetupRequest":
        res_info, eer_info, hops, segment_ids, grants = self
        return EerSetupRequest(res_info, eer_info, hops, segment_ids, grants + (grant,))


@_message(7, "res_info success granted sealed_hopauths grants", ((), ()))
class EerSetupResponse:
    """Reply to an EEReq (§3.3).

    On success, ``sealed_hopauths`` holds one AEAD-encrypted HopAuth per
    on-path AS (Eq. 5), decryptable only by the source AS's CServ; the
    grant vector is returned on failure for bottleneck diagnosis.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.res_info.packed).u8(1 if self.success else 0).f64(self.granted)
        _write_blobs(writer, self.sealed_hopauths)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "EerSetupResponse":
        return cls(
            res_info=ResInfo.unpack(reader.raw(ResInfo.SIZE)),
            success=bool(reader.u8()),
            granted=reader.f64(),
            sealed_hopauths=_read_blobs(reader),
            grants=_read_grants(reader),
        )


@_message(8, "reservation new_bandwidth new_expiry new_version grants", ((),))
class EerRenewalRequest:
    """Renewal of an existing EER over the EER itself (§4.4).

    Only the new bandwidth, expiry and version are specified; multiple
    versions of an EER may coexist (§4.2) so no activation step exists.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed)
        writer.f64(self.new_bandwidth).f64(self.new_expiry).u16(self.new_version)
        _write_grants(writer, self.grants)

    @classmethod
    def _read_body(cls, reader: Reader) -> "EerRenewalRequest":
        return cls(
            reservation=ReservationId.unpack(reader.raw(12)),
            new_bandwidth=reader.f64(),
            new_expiry=reader.f64(),
            new_version=reader.u16(),
            grants=_read_grants(reader),
        )

    def with_grant(self, grant: AsGrant) -> "EerRenewalRequest":
        reservation, bandwidth, expiry, version, grants = self
        return EerRenewalRequest(reservation, bandwidth, expiry, version, grants + (grant,))


# -- failure cleanup ------------------------------------------------------------


@_message(9, "reservation version")
class EerAbortNotice:
    """Initiator-issued cleanup of a failed EER setup or renewal (§3.3).

    "In case of an unsuccessful request, the ASes clean up their
    temporary reservations."  When a response is lost mid-path, some
    on-path ASes have already committed the allocation; once the
    initiator gives up retrying it aborts those hops explicitly.
    ``version <= 1`` removes the whole EER; a higher version drops only
    that renewal's state (older versions stay live, §4.2).
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed).u16(self.version)

    @classmethod
    def _read_body(cls, reader: Reader) -> "EerAbortNotice":
        return cls(
            reservation=ReservationId.unpack(reader.raw(12)), version=reader.u16()
        )


@_message(10, "reservation version")
class SegAbortNotice:
    """Initiator-issued cleanup of a failed SegR setup or renewal (§3.3).

    Same semantics as :class:`EerAbortNotice`, for segment reservations:
    ``version <= 1`` removes the SegR entirely, a higher version drops
    only the pending renewal version.
    """

    def _write_body(self, writer: Writer) -> None:
        writer.raw(self.reservation.packed).u16(self.version)

    @classmethod
    def _read_body(cls, reader: Reader) -> "SegAbortNotice":
        return cls(
            reservation=ReservationId.unpack(reader.raw(12)), version=reader.u16()
        )
