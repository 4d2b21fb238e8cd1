"""End-to-end-reservation state (§3.3, §4.2).

EERs are short-term host-to-host reservations with a fixed validity
period (16 s).  Unlike SegRs, "multiple versions of the same EER [can]
exist simultaneously" so renewals are seamless; versions expire on their
own and "there is no mechanism to remove them earlier".

Using several versions at once gains nothing: the traffic monitor maps
all versions to the same reservation ID, so a sender "can obtain at most
the maximum bandwidth of all valid versions but not more" (§4.8).  That
maximum is :meth:`E2EReservation.effective_bandwidth`, the number both
EER admission accounting and monitoring use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import VersionError
from repro.reservation.ids import ReservationId

if TYPE_CHECKING:  # avoid a packets <-> reservation import cycle
    from repro.packets.fields import EerInfo


@dataclass(init=False)
class E2EVersion:
    """One version of an EER; expires on its own, never removed early.

    Slotted: a million-EER store (ROADMAP) holds at least one of these
    per EER, and the instance ``__dict__`` would roughly double the
    per-version footprint.  ``replay`` is what the CServ answered when it
    committed this version, packed (``ColibriService._hop``), so that a
    retry after a lost response is replayed (§3.3): only an EER's newest
    version keeps one, and it goes wherever the version goes.
    """

    __slots__ = ("version", "bandwidth", "expiry", "replay")

    version: int
    bandwidth: float  # bits per second
    expiry: float  # absolute seconds
    replay: Optional[bytes]

    def __init__(self, version, bandwidth, expiry, replay=None):
        self.version = version
        self.bandwidth = bandwidth
        self.expiry = expiry
        self.replay = replay

    def is_live(self, now: float) -> bool:
        return now < self.expiry


class E2EReservation:
    """An EER as stored by an on-path AS or the source gateway.

    Slotted for the same reason as :class:`E2EVersion`: EERs dominate a
    large store's population (16 s lifetime, §4.2, renewed continuously),
    so per-instance overhead is the store's memory floor.  The record
    and its versions are all the cyclic collector tracks per EER: the
    versions sit in one tuple in version order (at most three at the
    16 s lifetime and usual renewal cadence; a tuple is sized exactly,
    an appended-to list holds room for eight), and the store's expiry
    wheel keeps its schedule here, in ``scheduled_expiry``.
    """

    __slots__ = (
        "reservation_id", "eer_info", "hops", "segment_ids", "_versions",
        "scheduled_expiry",
    )

    def __init__(
        self,
        reservation_id: ReservationId,
        eer_info: EerInfo,
        hops: tuple,
        segment_ids: tuple,
        first_version: E2EVersion,
    ):
        self.reservation_id = reservation_id
        self.eer_info = eer_info
        self.hops = hops  # tuple[HopField], the full end-to-end path
        self.segment_ids = segment_ids  # the 1-3 SegRs the EER rides on
        self._versions = (first_version,)  # ascending version numbers
        self.scheduled_expiry: Optional[float] = None  # by the store's wheel

    # -- views ----------------------------------------------------------------

    @property
    def versions(self) -> dict:
        return {version.version: version for version in self._versions}

    def live_versions(self, now: float) -> list:
        return [v for v in self._versions if now < v.expiry]

    def latest_version(self) -> E2EVersion:
        """The highest-numbered version — what the gateway stamps packets
        with ("the gateway generally uses a single version (the latest
        one) to send traffic", §4.2)."""
        return self._versions[-1]

    def latest_live_version(self, now: float):
        """The highest-numbered unexpired version, or ``None``."""
        for version in reversed(self._versions):
            if now < version.expiry:
                return version
        return None

    def effective_bandwidth(self, now: float) -> float:
        """Max bandwidth over all live versions — the monitored budget (§4.8)."""
        return max((v.bandwidth for v in self._versions if now < v.expiry), default=0.0)

    def is_expired(self, now: float) -> bool:
        for version in self._versions:
            if now < version.expiry:
                return False
        return True

    @property
    def expiry(self) -> float:
        """Latest expiry across versions (when the EER record can be GC'd)."""
        return max([v.expiry for v in self._versions])

    # -- lifecycle --------------------------------------------------------------

    def add_version(self, version: E2EVersion) -> None:
        """Record a renewal's version; coexists with older ones (§4.2).
        The version it supersedes gives up its replay record: a retry of
        that older request can no longer be the initiator's."""
        newest = self._versions[-1]
        if version.version <= newest.version:
            if version.version in self.versions:
                raise VersionError(
                    f"EER {self.reservation_id} already has version {version.version}"
                )
            raise VersionError(
                f"new version {version.version} must exceed existing versions "
                f"(max {newest.version})"
            )
        newest.replay = None
        self._versions += (version,)

    def drop_version(self, version_number: int) -> E2EVersion:
        """Remove one version early — the abort path of a failed renewal
        whose response was lost (§3.3 cleanup).  The base version (the
        only one left) can never be dropped this way."""
        dropped = self.versions.get(version_number)
        if dropped is None:
            raise VersionError(
                f"EER {self.reservation_id} has no version {version_number}"
            )
        if len(self._versions) == 1:
            raise VersionError(
                f"cannot drop the only version of EER {self.reservation_id}; "
                "abort the whole reservation instead"
            )
        self._versions = tuple(v for v in self._versions if v is not dropped)
        return dropped

    def prune(self, now: float) -> int:
        """Drop expired versions (keep at least the newest for bookkeeping)."""
        versions = self._versions
        if len(versions) > 1:
            newest = versions[-1]
            self._versions = tuple(
                v for v in versions if now < v.expiry or v is newest
            )
        return len(versions) - len(self._versions)

    def next_version_number(self) -> int:
        return self._versions[-1].version + 1

    def __repr__(self) -> str:
        return (
            f"E2EReservation({self.reservation_id}, "
            f"versions={[v.version for v in self._versions]}, "
            f"segments={len(self.segment_ids)})"
        )
