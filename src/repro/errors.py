"""Exception hierarchy for the Colibri reproduction library.

Every error raised by :mod:`repro` derives from :class:`ColibriError`, so
applications can catch the whole family with a single ``except`` clause.
The hierarchy mirrors the paper's subsystems: topology and path errors,
cryptographic failures, reservation/admission failures, data-plane
validation failures, and simulation errors.
"""

from __future__ import annotations


class ColibriError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Topology and path errors
# ---------------------------------------------------------------------------


class TopologyError(ColibriError):
    """Invalid topology construction or lookup (unknown AS, interface, link)."""


class UnknownASError(TopologyError):
    """An ISD-AS address does not exist in the topology."""


class UnknownInterfaceError(TopologyError):
    """An interface ID does not exist at the given AS."""


class PathError(ColibriError):
    """A path or segment could not be constructed or is malformed."""


class NoSegmentError(PathError):
    """Beaconing found no segment satisfying the query."""


class NoPathError(PathError):
    """No combination of segments yields an end-to-end path."""


class SegmentCombinationError(PathError):
    """Segments cannot be joined (no shared core AS / wrong directions)."""


# ---------------------------------------------------------------------------
# Cryptography errors
# ---------------------------------------------------------------------------


class CryptoError(ColibriError):
    """Base class for cryptographic failures."""


class MacVerificationError(CryptoError):
    """A message-authentication code did not verify."""


class AeadError(CryptoError):
    """AEAD decryption failed (bad tag, truncated ciphertext)."""


class KeyFetchError(CryptoError):
    """A DRKey second-level fetch was rejected or the key server is unknown."""


# ---------------------------------------------------------------------------
# Packet errors
# ---------------------------------------------------------------------------


class PacketError(ColibriError):
    """A packet is malformed or fails structural validation."""


class PacketDecodeError(PacketError):
    """Byte-level deserialization failed."""


class PacketFieldError(PacketError):
    """A header field holds an out-of-range or inconsistent value."""


# ---------------------------------------------------------------------------
# Control-plane transport errors
# ---------------------------------------------------------------------------


class TransportError(ColibriError):
    """A control-plane call failed at the transport layer (§3.3, §6.1).

    Transport failures are *transient by definition*: the request or its
    response was lost, delayed past its budget, or the peer is currently
    unreachable.  They say nothing about admission — retrying is safe and
    is exactly what :class:`repro.control.retry.RetryingCaller` does.
    """


class Unreachable(TransportError):
    """The destination AS is partitioned away, flapping, not registered,
    or the injected link dropped the request or response."""


class CallTimeout(TransportError):
    """The call's latency budget elapsed before the response arrived.

    The handler may well have run (the response was merely late), so the
    caller must treat the remote state as unknown — idempotent retries
    and, on give-up, explicit cleanup restore the §3.3 invariant.
    """


class CircuitOpen(Unreachable):
    """The circuit breaker for the destination AS is open: recent calls
    failed persistently, so new calls fail fast instead of burning the
    retry budget against a dead peer.

    Subclasses :class:`Unreachable` (the peer is *presumed* unreachable)
    and, like :class:`RetriesExhausted`, is terminal: upstream retriers
    propagate it instead of retrying, so a dead AS deep in a path does
    not trigger a multiplicative retry storm across every hop before it.
    """


class RetriesExhausted(Unreachable):
    """A retrying caller used its whole attempt budget against one link.

    Terminal for upstream retriers: the loss already got its retries at
    the hop adjacent to it, where retrying is cheapest.  Re-retrying at
    every upstream hop would multiply the attempt count exponentially
    with path length — and charge each upstream breaker for a failure on
    a link that is not theirs."""


# ---------------------------------------------------------------------------
# Reservation and admission errors
# ---------------------------------------------------------------------------


class ReservationError(ColibriError):
    """Base class for reservation-lifecycle failures."""


class ReservationNotFound(ReservationError):
    """No reservation with the given (SrcAS, ResId) is known."""


class ReservationExpired(ReservationError):
    """The reservation (or the version used) has expired."""


class VersionError(ReservationError):
    """Illegal version transition (stale version, duplicate, activation
    of a non-pending version)."""


class AdmissionDenied(ReservationError):
    """The admission algorithm denied the request.

    ``granted`` carries the bandwidth the AS would have granted (possibly
    zero), letting initiators locate bottlenecks as described in §3.3.
    """

    def __init__(self, message: str, granted: float = 0.0, at_as: object = None):
        super().__init__(message)
        self.granted = granted
        self.at_as = at_as


class PolicyDenied(AdmissionDenied):
    """An intra-AS policy (source or destination AS) refused the request."""


class InsufficientBandwidth(AdmissionDenied):
    """Less bandwidth than the requested minimum is available."""


class RateLimited(ReservationError):
    """The CServ rate limiter rejected the request (§5.3)."""


class StoreConflict(ReservationError):
    """A transactional store operation conflicted or was rolled back."""


# ---------------------------------------------------------------------------
# Data-plane errors
# ---------------------------------------------------------------------------


class DataPlaneError(ColibriError):
    """Base class for forwarding-time failures."""


class HvfMismatch(DataPlaneError):
    """The hop validation field in the packet does not match Eq. (3)/(6)."""


class BandwidthExceeded(DataPlaneError):
    """The deterministic monitor dropped the packet for overuse."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ColibriError):
    """Discrete-event simulation misuse (time going backwards, etc.)."""
