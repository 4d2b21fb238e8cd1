"""Typed event journal — the flight recorder (docs/observability.md §5).

Spans answer "how long did this take"; the journal answers "what
happened".  Each entry is a typed, structured event with a seeded-clock
timestamp and a monotonic sequence number, held in a bounded ring
buffer.  The journal is the substrate both for forensic evidence
(:mod:`repro.obs.forensics` joins journal events into §5 complaint
records) and for offline SLO evaluation (:mod:`repro.obs.slo` replays a
journal export exactly as it would watch a live registry).

Determinism: timestamps come from the injected clock and attributes are
restricted to JSON scalars, so a seeded scenario exports byte-identical
JSONL on every run — the journal of a run *is* reproducible evidence.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, List, Optional

from repro.errors import ColibriError
from repro.util.clock import Clock

# -- event types --------------------------------------------------------------
#
# The closed vocabulary of things worth remembering.  Closed on purpose:
# a typo'd event type is an instrumentation bug, not a new category, so
# ``record`` rejects unknown types instead of silently forking the
# namespace.

ADMISSION_DECIDED = "AdmissionDecided"
RESERVATION_RENEWED = "ReservationRenewed"
RESERVATION_TORN_DOWN = "ReservationTornDown"
VERDICT_DROPPED = "VerdictDropped"
MONITOR_CONFIRMED_OVERUSE = "MonitorConfirmedOveruse"
OFD_FLAGGED = "OfdFlagged"
DUPLICATE_SUPPRESSED = "DuplicateSuppressed"
BREAKER_TRANSITION = "BreakerTransition"
STORE_SWEPT = "StoreSwept"
SHARD_COMPLETED = "ShardCompleted"

EVENT_TYPES = frozenset(
    {
        ADMISSION_DECIDED,
        RESERVATION_RENEWED,
        RESERVATION_TORN_DOWN,
        VERDICT_DROPPED,
        MONITOR_CONFIRMED_OVERUSE,
        OFD_FLAGGED,
        DUPLICATE_SUPPRESSED,
        BREAKER_TRANSITION,
        STORE_SWEPT,
        SHARD_COMPLETED,
    }
)

#: Attribute values must be JSON scalars so exports are deterministic
#: and an imported journal compares equal to the live one.
_SCALARS = (str, int, float, bool, type(None))


class JournalFormatError(ColibriError):
    """An imported journal export is not what :func:`events_jsonl`
    writes: bad JSON, a missing field, an unknown event type, or a
    non-scalar attribute."""


class Event:
    """One journal entry: ``(seq, time, type, attrs)``."""

    __slots__ = ("seq", "time", "type", "attrs")

    def __init__(self, seq: int, time: float, type: str, attrs: dict):
        self.seq = seq
        self.time = time
        self.type = type
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "type": self.type,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output.  An export is a
        file carried between machines, so the input is checked like any
        outside input: :class:`JournalFormatError` unless it has the four
        fields, a known type and scalar attributes."""
        if not isinstance(data, dict):
            raise JournalFormatError(f"event is not an object: {data!r}")
        missing = [key for key in ("seq", "time", "type", "attrs") if key not in data]
        if missing:
            raise JournalFormatError(f"event lacks {', '.join(missing)}")
        if data["type"] not in EVENT_TYPES:
            raise JournalFormatError(f"unknown event type {data['type']!r}")
        attrs = data["attrs"]
        if not isinstance(attrs, dict) or not all(
            isinstance(value, _SCALARS) for value in attrs.values()
        ):
            raise JournalFormatError(f"event attrs are not scalars: {attrs!r}")
        return cls(data["seq"], data["time"], data["type"], attrs)

    def identity(self) -> tuple:
        """Order- and shard-independent identity: what happened and when,
        regardless of which journal's sequence counter stamped it.  Used
        to compare a serial journal against merged per-shard journals."""
        return (self.time, self.type, json.dumps(self.attrs, sort_keys=True))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.time == other.time
            and self.type == other.type
            and self.attrs == other.attrs
        )

    def __repr__(self) -> str:
        return f"Event(#{self.seq} t={self.time} {self.type} {self.attrs})"


class EventJournal:
    """Bounded, clock-injected flight recorder with a query API.

    Retention is a ring buffer: once ``capacity`` events are held, each
    new event evicts the oldest and bumps ``dropped_events`` —
    ``total_events`` keeps counting, so an operator can tell a quiet
    system from one that wrapped its buffer.
    """

    def __init__(self, clock: Clock, capacity: int = 65_536):
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self.total_events = 0
        self.dropped_events = 0
        # Cumulative per-type counts, never decremented by ring eviction:
        # the monotone series the SLO engine's journal gauges export.
        self._type_totals = {event_type: 0 for event_type in EVENT_TYPES}

    # -- recording ------------------------------------------------------------

    def record(self, event_type: str, **attrs) -> Event:
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event_type!r}")
        for key, value in attrs.items():
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"event attribute {key}={value!r} is not a JSON scalar"
                )
        event = Event(self._seq, self.clock.now(), event_type, attrs)
        self._append(event)
        return event

    def _append(self, event: Event) -> None:
        """Enter ``event`` into the ring — recorded or imported alike."""
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(event)
        self.total_events += 1
        self._type_totals[event.type] += 1
        self._seq = max(self._seq, event.seq + 1)

    # -- queries --------------------------------------------------------------

    def events(self) -> List[Event]:
        """All retained events, oldest first."""
        return list(self._events)

    def query(
        self,
        event_type: Optional[str] = None,
        reservation: Optional[str] = None,
        isd_as: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Event]:
        """Retained events matching every given filter.  ``start``/``end``
        bound the timestamp as a half-open window ``[start, end)``."""
        result = []
        for event in self._events:
            if event_type is not None and event.type != event_type:
                continue
            if reservation is not None and (
                event.attrs.get("reservation") != reservation
            ):
                continue
            if isd_as is not None and event.attrs.get("isd_as") != isd_as:
                continue
            if start is not None and event.time < start:
                continue
            if end is not None and event.time >= end:
                continue
            result.append(event)
        return result

    def count_by_type(self) -> dict:
        """Retained-event histogram, keyed by type, sorted by key."""
        counts: dict = {}
        for event in self._events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return dict(sorted(counts.items()))

    def total_count(self, event_type: str) -> int:
        """Cumulative count of ``event_type`` ever recorded — monotone
        even after ring-buffer eviction (unlike :meth:`count_by_type`,
        which counts what is still retained)."""
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event_type!r}")
        return self._type_totals[event_type]

    def stats(self) -> dict:
        """Journal bookkeeping for the health report."""
        return {
            "capacity": self.capacity,
            "retained": len(self._events),
            "total": self.total_events,
            "dropped": self.dropped_events,
        }

    def __len__(self) -> int:
        return len(self._events)

    # -- export / import ------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per retained event, oldest first — byte
        identical across same-seed runs (``sort_keys``, injected clock)."""
        return events_jsonl(self._events)

    @classmethod
    def import_jsonl(
        cls, text: str, clock: Clock, capacity: int = 65_536
    ) -> "EventJournal":
        """Rebuild a journal from :meth:`export_jsonl` output.  The
        imported journal re-exports byte-identically; ``clock`` is only
        consulted for events recorded *after* the import."""
        journal = cls(clock, capacity=capacity)
        for event in parse_jsonl(text):
            journal._append(event)
        return journal


def events_jsonl(events: Iterable[Event]) -> str:
    """The journal interchange form: one sorted-key JSON object per
    event, in the order given."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in events
    )


def parse_jsonl(text: str) -> List[Event]:
    """Parse an :func:`events_jsonl` export into events; a line that is
    not one raises :class:`JournalFormatError` naming its 1-based
    number."""
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(Event.from_dict(json.loads(line)))
        except (json.JSONDecodeError, JournalFormatError) as error:
            raise JournalFormatError(f"journal line {number}: {error}") from error
    return events


def merge_events(*streams: Iterable[Event]) -> List[Event]:
    """Merge event streams from independent journals (e.g. one per
    shard) into one chronological stream, ordered by
    :meth:`Event.identity` — deterministic regardless of how work was
    partitioned, so a merged sharded run compares equal to a serial
    one."""
    merged = [event for stream in streams for event in stream]
    merged.sort(key=Event.identity)
    return merged


def emit(obs, event_type: str, **attrs) -> None:
    """Record an event when the component's ``obs`` context carries a
    journal; a cheap no-op otherwise.  Call sites on hot paths should
    guard on ``obs is not None`` *before* building the attrs dict so the
    disabled run pays one attribute read only."""
    if obs is None:
        return
    journal = obs.journal
    if journal is None:
        return
    journal.record(event_type, **attrs)
