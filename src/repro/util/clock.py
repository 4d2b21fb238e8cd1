"""Clock abstractions.

The paper assumes all ASes are synchronized within ±0.1 s (§2.3).  To test
behaviour under that assumption — reservation start/end scheduling,
duplicate detection, traffic monitoring — the library never calls
``time.time()`` directly.  Components take a :class:`Clock`: a
:class:`SimClock` (manually advanced), optionally wrapped in a
:class:`SkewedClock` to model per-AS synchronization error.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro.errors import SimulationError


class Clock(ABC):
    """Source of the current time in seconds (float, epoch-like)."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""


class PerfClock(Clock):
    """High-resolution monotonic time, for measuring wall durations only.

    :class:`repro.obs.ObsContext` times calls into its latency histograms
    with one of these; it is *not* an epoch clock and must never feed
    protocol logic (expiry, freshness, monitoring), which always takes a
    :class:`SimClock`.
    """

    def now(self) -> float:
        return time.perf_counter()


class SimClock(Clock):
    """A manually driven clock for deterministic tests and simulations.

    Time only moves when :meth:`advance` or :meth:`set` is called; it can
    never go backwards, matching the monotonicity every consumer relies on.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def set(self, when: float) -> float:
        """Jump to an absolute time ``when`` (must not move backwards)."""
        if when < self._now:
            raise SimulationError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = float(when)
        return self._now


class SkewedClock(Clock):
    """A view of another clock offset by a fixed skew.

    Models imperfect time synchronization between ASes: each AS holds a
    ``SkewedClock`` over the shared simulation clock with its own offset
    in ``[-MAX_CLOCK_SKEW, +MAX_CLOCK_SKEW]``.
    """

    def __init__(self, base: Clock, offset: float):
        self.base = base
        self.offset = float(offset)

    def now(self) -> float:
        return self.base.now() + self.offset
