"""A minimal discrete-event engine.

Used by longer-running simulations (renewal cycles, attack scenarios) to
interleave timed actions over the shared :class:`~repro.util.clock.SimClock`.
Deliberately tiny: a heap of (time, sequence, callback) with FIFO
tie-breaking, driving the clock forward as events fire.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.util.clock import SimClock


@dataclass(order=True)
class Event:
    time: float
    sequence: int
    callback: Callable = field(compare=False)


class EventLoop:
    """Heap-based event scheduler over a :class:`SimClock`."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._heap: list = []
        self._sequence = itertools.count()
        self.fired = 0

    def at(self, when: float, callback: Callable) -> Event:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self.clock.now():
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock.now()}"
            )
        event = Event(time=when, sequence=next(self._sequence), callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, callback: Callable) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.clock.now() + delay, callback)

    def every(self, interval: float, callback: Callable, until: float = None) -> None:
        """Schedule a repeating callback (rescheduled after each firing)."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")

        def fire():
            callback()
            next_time = self.clock.now() + interval
            if until is None or next_time <= until:
                self.at(next_time, fire)

        self.after(interval, fire)

    def run_until(self, when: float) -> int:
        """Fire all events up to and including time ``when``; the clock
        ends at ``when`` (or later, see below).  Returns the number fired.

        A callback may itself consume simulated time — the retry layer
        advances the shared clock during backoff, for example.  Events
        whose scheduled time has already passed by then fire *late*, at
        the current clock, rather than rewinding time: the clock stays
        monotone and every consumer's "time never goes backwards"
        invariant holds even under fault-heavy schedules.
        """
        fired_before = self.fired
        while self._heap and self._heap[0].time <= when:
            event = heapq.heappop(self._heap)
            if event.time > self.clock.now():
                self.clock.set(event.time)
            event.callback()
            self.fired += 1
        if when > self.clock.now():
            self.clock.set(when)
        return self.fired - fired_before
