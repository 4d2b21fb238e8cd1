"""Segment-reservation state (§3.3, §4.2).

A SegR is an intermediate-term AS-to-AS reservation along one path
segment.  Version discipline is the part the paper is explicit about:

* only **one version is active** at any time;
* a renewal creates a **pending** version, which takes effect only when
  an explicit :class:`~repro.packets.control.SegActivationRequest`
  switches it in — "making this switch explicit allows ASes to precisely
  control the time to change to a new version and ensure that no
  over-allocation with EERs can occur" (§4.2).

Every on-path AS keeps its own :class:`SegmentReservation` record; the
object is the unit stored in each CServ's
:class:`~repro.reservation.store.ReservationStore`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReservationExpired, VersionError
from repro.reservation.ids import ReservationId
from repro.topology.segments import Segment


class VersionState(enum.Enum):
    PENDING = "pending"
    ACTIVE = "active"
    RETIRED = "retired"


@dataclass
class SegmentVersion:
    """One version of a SegR: bandwidth, expiry, and lifecycle state."""

    version: int
    bandwidth: float  # bits per second granted
    expiry: float  # absolute seconds
    state: VersionState = VersionState.PENDING
    replay: Optional[bytes] = None  # as on E2EVersion: newest version only

    def is_expired(self, now: float) -> bool:
        return now >= self.expiry


class SegmentReservation:
    """A SegR as stored by one AS, with version lifecycle management."""

    def __init__(
        self,
        reservation_id: ReservationId,
        segment: Segment,
        first_version: SegmentVersion,
    ):
        self.reservation_id = reservation_id
        self.segment = segment
        first_version.state = VersionState.ACTIVE
        self._versions: dict[int, SegmentVersion] = {first_version.version: first_version}
        self._active_version: int = first_version.version
        self.scheduled_expiry: Optional[float] = None  # by the store's wheel

    # -- views ----------------------------------------------------------------

    @property
    def active(self) -> SegmentVersion:
        return self._versions[self._active_version]

    @property
    def versions(self) -> dict:
        return dict(self._versions)

    def latest_version(self) -> SegmentVersion:
        """The highest-numbered version (they are added in that order)."""
        return self._versions[max(self._versions)]

    def pending_versions(self) -> list:
        return [v for v in self._versions.values() if v.state is VersionState.PENDING]

    def is_expired(self, now: float) -> bool:
        """A SegR is dead when its active version has expired.

        Pending versions do not keep it alive: they cannot carry traffic
        until activated, and activation of an expired version is refused.
        """
        return self.active.is_expired(now)

    @property
    def hops(self) -> tuple:
        return self.segment.hops

    @property
    def bandwidth(self) -> float:
        """The currently active version's bandwidth."""
        return self.active.bandwidth

    @property
    def expiry(self) -> float:
        return self.active.expiry

    # -- lifecycle --------------------------------------------------------------

    def add_pending(self, version: SegmentVersion) -> None:
        """Record a renewal's new version as pending (§4.2); the
        version it supersedes gives up its replay record."""
        if version.version in self._versions:
            raise VersionError(
                f"SegR {self.reservation_id} already has version {version.version}"
            )
        newest = self.latest_version()
        if version.version <= newest.version:
            raise VersionError(
                f"new version {version.version} must exceed all existing versions "
                f"(max {newest.version})"
            )
        newest.replay = None
        version.state = VersionState.PENDING
        self._versions[version.version] = version

    def activate(self, version_number: int, now: float) -> SegmentVersion:
        """Switch the active version (explicit request, §4.2).

        The previously active version is retired immediately — at most one
        version can ever be active, so EER admission never double-counts.
        """
        version = self._versions.get(version_number)
        if version is None:
            raise VersionError(
                f"SegR {self.reservation_id} has no version {version_number}"
            )
        if version.state is not VersionState.PENDING:
            raise VersionError(
                f"version {version_number} is {version.state.value}, not pending"
            )
        if version.is_expired(now):
            raise ReservationExpired(
                f"version {version_number} of SegR {self.reservation_id} "
                f"expired at {version.expiry}"
            )
        self.active.state = VersionState.RETIRED
        version.state = VersionState.ACTIVE
        self._active_version = version_number
        return version

    def drop_pending(self, version_number: int) -> SegmentVersion:
        """Remove a pending version early — the abort path of a failed
        renewal whose response was lost (§3.3 cleanup).  Only pending
        versions can be dropped; the active one stays untouched."""
        version = self._versions.get(version_number)
        if version is None:
            raise VersionError(
                f"SegR {self.reservation_id} has no version {version_number}"
            )
        if version.state is not VersionState.PENDING:
            raise VersionError(
                f"version {version_number} is {version.state.value}, not pending"
            )
        return self._versions.pop(version_number)

    def prune(self, now: float) -> int:
        """Drop retired and expired-pending versions; returns count removed."""
        stale = [
            number
            for number, version in self._versions.items()
            if number != self._active_version
            and (version.state is VersionState.RETIRED or version.is_expired(now))
        ]
        for number in stale:
            del self._versions[number]
        return len(stale)

    def next_version_number(self) -> int:
        return max(self._versions) + 1

    def __repr__(self) -> str:
        return (
            f"SegmentReservation({self.reservation_id}, active=v{self._active_version}, "
            f"bw={self.bandwidth:.0f} bps, versions={sorted(self._versions)})"
        )
