"""IntServ/RSVP-style baseline (§1, §8).

"IntServ provides very strict guarantees on the communication parameters
through end-to-end reservations, but is known to scale poorly in all
three areas because of the complex decisions that must be made for
processing the RSVP requests and the amount of per-flow state that
on-path routers have to keep."

This baseline reproduces that architecture faithfully enough to measure
the two scalability failures Colibri fixes:

* **per-flow state**: every router on a flow's path stores an entry for
  it, consulted on every packet — :meth:`IntServRouter.state_size` grows
  linearly with flows (the Colibri border router stores nothing);
* **soft state refresh**: RSVP state expires unless refreshed, so the
  control plane does O(flows) work *per refresh period* at every router.

It also exposes IntServ's security failure: PATH/RESV messages are
unauthenticated, so any host can tear down or inflate another's
reservation (:meth:`RsvpSession.teardown` accepts forged requests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import AdmissionDenied
from repro.topology.addresses import IsdAs

#: RSVP soft-state lifetime without refresh (RFC 2205 default order).
RSVP_STATE_LIFETIME = 30.0


@dataclass
class RsvpSession:
    """One reserved flow: the classic 5-tuple-ish key plus a rate."""

    session_id: int
    source: IsdAs
    destination: IsdAs
    rate: float  # bits per second
    path: tuple  # IsdAs sequence
    refreshed_at: float = 0.0

    def is_expired(self, now: float) -> bool:
        return now - self.refreshed_at > RSVP_STATE_LIFETIME


class IntServRouter:
    """A router keeping per-flow RSVP state — the anti-pattern."""

    def __init__(self, isd_as: IsdAs, capacity: float):
        self.isd_as = isd_as
        self.capacity = capacity
        self._flows: dict[int, RsvpSession] = {}
        self._reserved = 0.0
        self.refresh_work = 0  # control-plane operations performed

    def admit(self, session: RsvpSession) -> None:
        if self._reserved + session.rate > self.capacity:
            raise AdmissionDenied(
                f"link at {self.isd_as} full: {self._reserved:.0f} + "
                f"{session.rate:.0f} > {self.capacity:.0f}",
                granted=max(0.0, self.capacity - self._reserved),
                at_as=self.isd_as,
            )
        self._flows[session.session_id] = session
        self._reserved += session.rate

    def remove(self, session_id: int) -> None:
        session = self._flows.pop(session_id, None)
        if session is not None:
            self._reserved -= session.rate

    def refresh_sweep(self, now: float) -> int:
        """Soft-state maintenance: touch every flow, expire the stale.

        O(state_size) work per period at *every* router — the control-
        plane scalability failure."""
        expired = []
        for session in self._flows.values():
            self.refresh_work += 1
            if session.is_expired(now):
                expired.append(session.session_id)
        for session_id in expired:
            self.remove(session_id)
        return len(expired)

    @property
    def state_size(self) -> int:
        return len(self._flows)

    @property
    def reserved(self) -> float:
        return self._reserved


class IntServNetwork:
    """A path of IntServ routers with RSVP-like signaling."""

    def __init__(self, path: list, capacity: float):
        self.routers = {isd_as: IntServRouter(isd_as, capacity) for isd_as in path}
        self.path = tuple(path)
        self._ids = itertools.count(1)
        self.signaling_messages = 0

    def reserve(
        self, source: IsdAs, destination: IsdAs, rate: float, now: float = 0.0
    ) -> RsvpSession:
        """PATH downstream + RESV upstream: 2 messages per hop, state at
        every hop (admission rolls back on failure, like RSVP)."""
        session = RsvpSession(
            session_id=next(self._ids),
            source=source,
            destination=destination,
            rate=rate,
            path=self.path,
            refreshed_at=now,
        )
        admitted = []
        self.signaling_messages += len(self.path)  # PATH messages
        try:
            for isd_as in self.path:
                self.routers[isd_as].admit(session)
                admitted.append(isd_as)
                self.signaling_messages += 1  # RESV message
        except AdmissionDenied:
            for isd_as in admitted:
                self.routers[isd_as].remove(session.session_id)
            raise
        return session

    def teardown(self, session_id: int, claimed_source: Optional[IsdAs] = None) -> None:
        """RSVP teardown — unauthenticated: any party naming the session
        can kill it.  ``claimed_source`` is deliberately not verified,
        reproducing the spoofing weakness (§1: 'an adversary can spoof
        protocol messages')."""
        for router in self.routers.values():
            router.remove(session_id)
        self.signaling_messages += len(self.path)
