"""Traffic-class isolation on a shared link (§3.4, Appendix B).

Colibri defines three traffic classes — best-effort, Colibri control, and
Colibri data — separated by "queuing techniques such as priority queuing
or class-based weighted fair queuing".  Appendix B notes that *strict*
priority queuing is safe here: the CServ's admission guarantees that
active reservations never exceed the Colibri share of the link, so giving
Colibri queues absolute priority cannot starve best-effort below its
20 % floor.  Unused Colibri bandwidth is scavenged by best-effort, so "no
bandwidth is wasted".

:class:`PriorityScheduler` is the one output-port model: per-class
drop-tail FIFO queues served in strict priority order (control > Colibri
data > best-effort).  Table 2 drives it slice by slice with
:meth:`~PriorityScheduler.drain` and reads each label's output; the §9
latency figure asks it :meth:`~PriorityScheduler.transit_delay`.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict, deque


class TrafficClass(enum.IntEnum):
    """Priority order: lower value = served first."""

    CONTROL = 0  # Colibri control traffic over SegRs (5 % share)
    EER_DATA = 1  # Colibri data traffic over EERs (75 % share)
    BEST_EFFORT = 2  # everything else (>= 20 % share by construction)


class PriorityScheduler:
    """Strict-priority link scheduler with per-class and per-label accounting."""

    #: Default queue depth per class, in bytes (a few ms at 40 Gbps).
    DEFAULT_QUEUE_BYTES = 32 * 1024 * 1024

    def __init__(self, capacity: float, queue_bytes: int = DEFAULT_QUEUE_BYTES):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.capacity = capacity  # bits per second
        # A packet fits a budget that covers it to within a nanosecond of
        # link time: budgets are differences of float times, and their
        # rounding must not hold a packet back for a whole slice.
        self._slack_bits = capacity * 1e-9
        self.queue_bytes = queue_bytes
        self._queues = {cls: deque() for cls in TrafficClass}  # (size, label)
        self._queued_bytes = {cls: 0 for cls in TrafficClass}
        self._credit_bits = 0.0  # budget the head packet is still waiting on
        self._now = 0.0  # the port's time as of its last transit_delay
        self.enqueued = {cls: 0 for cls in TrafficClass}
        self.tail_dropped = {cls: 0 for cls in TrafficClass}
        self.sent_by_label = defaultdict(int)

    def enqueue(self, size_bytes: int, traffic_class: TrafficClass, label=None) -> bool:
        """Queue one packet; ``False`` means tail-dropped (queue full).

        ``label`` (a reservation name, say) is credited with the packet's
        bytes in :attr:`sent_by_label` when the port sends it; unlabelled
        bytes go to ``None``.
        """
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        if self._queued_bytes[traffic_class] + size_bytes > self.queue_bytes:
            self.tail_dropped[traffic_class] += 1
            return False
        self._queues[traffic_class].append((size_bytes, label))
        self._queued_bytes[traffic_class] += size_bytes
        self.enqueued[traffic_class] += 1
        return True

    def drain(self, duration: float) -> dict:
        """Serve one time slice; returns bytes sent per class.

        The slice adds ``capacity * duration`` bits to the budget, spent on
        queues in strict priority order.  A packet is sent only once the
        budget covers it entirely (no preemption mid-packet).  Budget left
        over carries into the next slice while anything is queued, so a
        packet longer than one slice still leaves; an empty port banks
        nothing, since an idle link cannot send later what it did not send.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        budget_bits = self._credit_bits + self.capacity * duration
        sent = {cls: 0 for cls in TrafficClass}
        for traffic_class in TrafficClass:
            queue = self._queues[traffic_class]
            while queue and queue[0][0] * 8 <= budget_bits + self._slack_bits:
                size, label = queue.popleft()
                self._queued_bytes[traffic_class] -= size
                budget_bits -= size * 8
                sent[traffic_class] += size
                self.sent_by_label[label] += size
        self._credit_bits = budget_bits if any(self._queues.values()) else 0.0
        return sent

    def transit_delay(self, size_bytes: int, traffic_class: TrafficClass, now: float) -> float:
        """Queueing plus serialization time of a packet arriving at ``now``.

        Drains the port up to ``now``, then the packet waits for every
        byte queued at equal or higher priority and joins its class's
        queue, so later packets wait behind it.  A tail-dropped packet
        never leaves: its delay is infinite.
        """
        if now > self._now:
            self.drain(now - self._now)
            self._now = now
        ahead = sum(self._queued_bytes[cls] for cls in TrafficClass if cls <= traffic_class)
        if not self.enqueue(size_bytes, traffic_class):
            return math.inf
        return (ahead + size_bytes) * 8 / self.capacity
