"""DiffServ-style baseline (§1, §8).

"DiffServ […] provides hosts with a way to divide their traffic into a
number of classes according to the application's requirements, indicated
in the IP packet's ToS header field.  […] Unfortunately, the guarantees
provided by DiffServ are weak, as they lack signaling between the
entities on the path" — and, crucially, nothing authenticates the
marking: any sender can claim the highest class.

:class:`DiffServRouter` honours DSCP markings with weighted queues and
no admission control.  Tests and the baseline figure show the predictable
failure: an adversary marking its flood as EF takes the premium class
down with it, which Colibri's authenticated, admission-controlled
reservations prevent.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque


class DscpClass(enum.IntEnum):
    """A minimal DSCP ladder: expedited > assured > best effort."""

    EF = 0  # expedited forwarding
    AF = 1  # assured forwarding
    BE = 2  # best effort


class DiffServRouter:
    """Strict-priority DSCP queues; markings are taken at face value."""

    def __init__(self, capacity: float, queue_bytes: int = 8 * 1024 * 1024):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.queue_bytes = queue_bytes
        self._queues = {cls: deque() for cls in DscpClass}
        self._queued = {cls: 0 for cls in DscpClass}
        self.sent_bytes: dict = defaultdict(int)  # (class, flow) -> bytes
        self.dropped: dict = defaultdict(int)

    def enqueue(self, flow: str, size_bytes: int, marking: DscpClass) -> bool:
        """No authentication, no admission: the marking is whatever the
        sender wrote in the header."""
        if self._queued[marking] + size_bytes > self.queue_bytes:
            self.dropped[(marking, flow)] += 1
            return False
        self._queues[marking].append((flow, size_bytes))
        self._queued[marking] += size_bytes
        return True

    def drain(self, duration: float) -> dict:
        """Serve one slice strictly by class priority; FIFO within class."""
        budget_bits = self.capacity * duration
        sent: dict = defaultdict(int)
        for marking in DscpClass:
            queue = self._queues[marking]
            while queue and queue[0][1] * 8 <= budget_bits:
                flow, size = queue.popleft()
                self._queued[marking] -= size
                budget_bits -= size * 8
                sent[(marking, flow)] += size
                self.sent_bytes[(marking, flow)] += size
        return dict(sent)

    def flow_rate(self, marking: DscpClass, flow: str, elapsed: float) -> float:
        """Average delivered bits per second for one (class, flow)."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        return self.sent_bytes[(marking, flow)] * 8 / elapsed
