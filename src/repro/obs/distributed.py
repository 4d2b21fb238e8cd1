"""Cross-process observability: context propagation and telemetry merge.

The obs stack of docs/observability.md is per-process: one
:class:`~repro.obs.trace.TraceCollector`, one
:class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.events.EventJournal`.  The shard executor
(:mod:`repro.dataplane.shards`) and the ROADMAP's deployable service
mode both cross a real process boundary, where none of that survives:
a worker's spans, events and histograms die with the worker.

This module supplies the two halves of the Dapper-style answer:

* **Propagation** — :class:`TraceContext` is the compact, picklable
  (trace_id, parent span_id) pair carried in
  :class:`~repro.dataplane.shards.ShardSpec`, the one real process
  boundary.  A receiver hands it to :meth:`TraceCollector.adopt`, so its
  root spans graft onto the caller's trace with correct parentage.
  (Inside one process the collector's span stack is the only
  propagation: a span opened under another is its child.)
* **Collection** — workers package their private collectors into
  bounded, sequence-numbered :class:`TelemetryFrame` chunks
  (:func:`frames_from`) and ship them over the existing result queues.
  The parent reassembles per-worker streams (:func:`assemble_frames`)
  — detecting gaps, truncation and conflicting replays as a typed
  :class:`TelemetryGapError` — and merges them deterministically
  (:func:`merge_frames`, :func:`merge_traces`): parent spans first in
  start order, then workers by ascending worker id, frames by sequence
  number.  Same seed in, byte-identical merged artifacts out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ColibriError
from repro.obs.events import Event, events_jsonl, merge_events
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.obs.trace import Span

#: Spans + events per frame.  Small enough that a frame is one cheap
#: queue message, large enough that a typical shard pass fits in one.
FRAME_ITEM_LIMIT = 256


class TelemetryGapError(ColibriError):
    """A worker telemetry stream is missing, gapped, truncated, or
    carries conflicting replays — the merged artifacts would lie."""


# -- trace context ------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """The propagated part of a span: enough for a remote party to
    continue the trace, nothing more.  Frozen and scalar-only, so it is
    picklable (shard specs) and hashable (spec cache keys)."""

    trace_id: str
    span_id: str

    @classmethod
    def from_span(cls, span: Span) -> "TraceContext":
        """Context a callee should adopt to become ``span``'s child."""
        return cls(trace_id=span.trace_id, span_id=span.span_id)


# -- telemetry frames ---------------------------------------------------------


@dataclass(frozen=True)
class TelemetryFrame:
    """One bounded chunk of a worker's telemetry stream.

    ``seq`` numbers are contiguous from 0 per worker; the final frame
    carries ``last=True`` plus the worker's metrics-registry state, so
    the parent can prove it received the whole stream (a missing tail
    is otherwise indistinguishable from a quiet worker).  Payloads are
    plain dicts (:meth:`Span.to_dict` / :meth:`Event.to_dict` /
    :meth:`MetricsRegistry.state`) — cheap to pickle, stable to compare.
    """

    worker_id: int
    seq: int
    spans: Tuple[dict, ...] = ()
    events: Tuple[dict, ...] = ()
    metrics: Optional[dict] = None
    last: bool = False


def frames_from(
    worker_id: int,
    tracer=None,
    registry: Optional[MetricsRegistry] = None,
    journal=None,
    limit: int = FRAME_ITEM_LIMIT,
) -> List[TelemetryFrame]:
    """Package a worker's collectors into a sequence-numbered stream.

    Always emits at least one frame (the ``last`` marker doubles as the
    liveness proof a gap checker needs); spans and events are chunked
    ``limit`` items per frame, metrics state rides on the final frame.
    """
    if limit <= 0:
        raise ValueError(f"frame item limit must be positive, got {limit}")
    items: List[Tuple[str, dict]] = []
    if tracer is not None:
        items.extend(("span", span.to_dict()) for span in tracer.spans())
    if journal is not None:
        items.extend(("event", event.to_dict()) for event in journal.events())
    chunks = [items[i : i + limit] for i in range(0, len(items), limit)] or [[]]
    frames = []
    for seq, chunk in enumerate(chunks):
        final = seq == len(chunks) - 1
        frames.append(
            TelemetryFrame(
                worker_id=worker_id,
                seq=seq,
                spans=tuple(d for kind, d in chunk if kind == "span"),
                events=tuple(d for kind, d in chunk if kind == "event"),
                metrics=registry.state() if final and registry is not None else None,
                last=final,
            )
        )
    return frames


def assemble_frames(
    frames: Iterable[TelemetryFrame],
    expected_workers: Optional[Iterable[int]] = None,
) -> Dict[int, List[TelemetryFrame]]:
    """Reassemble per-worker streams from frames in *any* arrival order.

    Byte-identical replays (a result queue may redeliver) are deduped;
    everything else that breaks the contract raises
    :class:`TelemetryGapError`: a sequence gap, two different frames
    claiming one ``seq``, a stream with no ``last`` marker (truncated),
    frames beyond the marker, or an expected worker with no stream.
    """
    streams: Dict[int, Dict[int, TelemetryFrame]] = {}
    for frame in frames:
        slot = streams.setdefault(frame.worker_id, {})
        existing = slot.get(frame.seq)
        if existing is None:
            slot[frame.seq] = frame
        elif existing != frame:
            raise TelemetryGapError(
                f"worker {frame.worker_id}: conflicting frames for seq "
                f"{frame.seq}"
            )
    if expected_workers is not None:
        missing = sorted(set(expected_workers) - set(streams))
        if missing:
            raise TelemetryGapError(
                f"missing telemetry stream from workers {missing}"
            )
    assembled: Dict[int, List[TelemetryFrame]] = {}
    for worker_id in sorted(streams):
        slot = streams[worker_id]
        seqs = sorted(slot)
        if seqs != list(range(len(seqs))):
            expected = next(i for i in range(len(seqs) + 1) if i not in slot)
            raise TelemetryGapError(
                f"worker {worker_id}: stream gapped at seq {expected} "
                f"(got {seqs})"
            )
        ordered = [slot[seq] for seq in seqs]
        if not ordered[-1].last:
            raise TelemetryGapError(
                f"worker {worker_id}: stream truncated after seq "
                f"{seqs[-1]} (no final frame)"
            )
        if any(frame.last for frame in ordered[:-1]):
            raise TelemetryGapError(
                f"worker {worker_id}: frames received beyond the final "
                f"marker"
            )
        assembled[worker_id] = ordered
    return assembled


# -- deterministic merge ------------------------------------------------------


def _span_from_dict(data: dict) -> Span:
    span = Span(
        trace_id=data["trace_id"],
        span_id=data["span_id"],
        parent_id=data["parent_id"],
        name=data["name"],
        start=data["start"],
        attributes=dict(data["attributes"]),
    )
    span.end = data["end"]
    span.status = data["status"]
    return span


@dataclass
class MergedTelemetry:
    """A reassembled sharded run: everything the workers saw, in the
    parent's hands, deterministically ordered."""

    #: Per-worker span lists, frame/record order — feed
    #: :func:`merge_traces` together with the parent collector's spans.
    spans: Dict[int, List[Span]]
    #: All workers' registries folded via
    #: :func:`~repro.obs.metrics.merge_registries`.
    registry: MetricsRegistry
    #: All workers' journal events via
    #: :func:`~repro.obs.events.merge_events` (identity order).
    events: List[Event]
    #: Stream bookkeeping: ``{worker_id: frame count}``.
    frame_counts: Dict[int, int] = field(default_factory=dict)

    def events_jsonl(self) -> str:
        """Worker events in the journal interchange form, identity
        order — byte-identical across same-seed runs."""
        return events_jsonl(self.events)


def merge_frames(
    frames: Iterable[TelemetryFrame],
    expected_workers: Optional[Iterable[int]] = None,
) -> MergedTelemetry:
    """Validate and merge a pile of frames into one
    :class:`MergedTelemetry`.  Raises :class:`TelemetryGapError` on any
    stream defect (see :func:`assemble_frames`)."""
    assembled = assemble_frames(frames, expected_workers=expected_workers)
    spans: Dict[int, List[Span]] = {}
    registries = []
    event_streams = []
    frame_counts = {}
    for worker_id, stream in assembled.items():
        frame_counts[worker_id] = len(stream)
        worker_spans: List[Span] = []
        worker_events: List[Event] = []
        for frame in stream:
            worker_spans.extend(_span_from_dict(d) for d in frame.spans)
            worker_events.extend(Event.from_dict(d) for d in frame.events)
            if frame.metrics is not None:
                registries.append(MetricsRegistry.from_state(frame.metrics))
        spans[worker_id] = worker_spans
        event_streams.append(worker_events)
    return MergedTelemetry(
        spans=spans,
        registry=merge_registries(registries),
        events=merge_events(*event_streams),
        frame_counts=frame_counts,
    )


def merge_traces(
    parent_spans: Sequence[Span],
    worker_spans: Dict[int, List[Span]],
) -> List[Span]:
    """One deterministic span list for a cross-process trace: parent
    spans first (start order, as the collector recorded them), then
    each worker's spans by ascending worker id, frame/seq order within
    a worker.  With seeded collectors on both sides the result is
    byte-identical across same-seed runs."""
    merged = list(parent_spans)
    for worker_id in sorted(worker_spans):
        merged.extend(worker_spans[worker_id])
    return merged
