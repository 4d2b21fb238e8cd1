"""Traffic-class isolation on a shared link (§3.4, Appendix B).

Colibri defines three traffic classes — best-effort, Colibri control, and
Colibri data — separated by "queuing techniques such as priority queuing
or class-based weighted fair queuing".  Appendix B notes that *strict*
priority queuing is safe here: the CServ's admission guarantees that
active reservations never exceed the Colibri share of the link, so giving
Colibri queues absolute priority cannot starve best-effort below its
20 % floor.  Unused Colibri bandwidth is scavenged by best-effort, so "no
bandwidth is wasted".

:class:`PriorityScheduler` models one output port: per-class drop-tail
FIFO queues and a drain operation that serves one time slice in strict
priority order (control > Colibri data > best-effort).  The Table 2
figure drives three input mixes through it and reads the per-class output
rates.
"""

from __future__ import annotations

import enum
from collections import deque


class TrafficClass(enum.IntEnum):
    """Priority order: lower value = served first."""

    CONTROL = 0  # Colibri control traffic over SegRs (5 % share)
    EER_DATA = 1  # Colibri data traffic over EERs (75 % share)
    BEST_EFFORT = 2  # everything else (>= 20 % share by construction)


class PriorityScheduler:
    """Strict-priority link scheduler with per-class accounting."""

    #: Default queue depth per class, in bytes (a few ms at 40 Gbps).
    DEFAULT_QUEUE_BYTES = 32 * 1024 * 1024

    def __init__(self, capacity: float, queue_bytes: int = DEFAULT_QUEUE_BYTES):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.capacity = capacity  # bits per second
        self.queue_bytes = queue_bytes
        self._queues = {cls: deque() for cls in TrafficClass}
        self._queued_bytes = {cls: 0 for cls in TrafficClass}
        self.enqueued = {cls: 0 for cls in TrafficClass}
        self.tail_dropped = {cls: 0 for cls in TrafficClass}
        self.sent_bytes = {cls: 0 for cls in TrafficClass}

    def enqueue(self, size_bytes: int, traffic_class: TrafficClass) -> bool:
        """Queue one packet; ``False`` means tail-dropped (queue full)."""
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        if self._queued_bytes[traffic_class] + size_bytes > self.queue_bytes:
            self.tail_dropped[traffic_class] += 1
            return False
        self._queues[traffic_class].append(size_bytes)
        self._queued_bytes[traffic_class] += size_bytes
        self.enqueued[traffic_class] += 1
        return True

    def drain(self, duration: float) -> dict:
        """Serve one time slice; returns bytes sent per class.

        The budget is ``capacity * duration`` bits, spent on queues in
        strict priority order.  A packet is sent only if it fits the
        remaining budget entirely (no preemption mid-packet), which gives
        the same long-run rates as a fluid model while staying
        packet-accurate.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        budget_bits = self.capacity * duration
        sent = {cls: 0 for cls in TrafficClass}
        for traffic_class in TrafficClass:
            queue = self._queues[traffic_class]
            while queue and queue[0] * 8 <= budget_bits:
                size = queue.popleft()
                self._queued_bytes[traffic_class] -= size
                budget_bits -= size * 8
                sent[traffic_class] += size
                self.sent_bytes[traffic_class] += size
        return sent

    def backlog_bytes(self, traffic_class: TrafficClass) -> int:
        return self._queued_bytes[traffic_class]

    def total_backlog(self) -> int:
        return sum(self._queued_bytes.values())

    def output_rate(self, traffic_class: TrafficClass, elapsed: float) -> float:
        """Average output in bits per second over ``elapsed`` seconds."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        return self.sent_bytes[traffic_class] * 8 / elapsed
