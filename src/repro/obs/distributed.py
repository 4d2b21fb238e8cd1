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
* **Collection** — what a worker's private collectors recorded comes
  home as one *capture* inside its
  :class:`~repro.dataplane.shards.ShardOutcome`, the worker's return
  value: the parent holds the whole capture or no outcome at all.  The
  parent merges the k captures deterministically
  (:func:`merge_captures`, :func:`merge_traces`): parent spans first in
  start order, then workers by ascending worker id, record order within
  a worker.  Same seed in, byte-identical merged artifacts out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.obs.events import Event, events_jsonl, merge_events
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.obs.trace import Span

# -- trace context ------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """The propagated part of a span: enough for a remote party to
    continue the trace, nothing more.  Frozen and scalar-only, so it is
    picklable (shard specs)."""

    trace_id: str
    span_id: str

    @classmethod
    def from_span(cls, span: Span) -> "TraceContext":
        """Context a callee should adopt to become ``span``'s child."""
        return cls(trace_id=span.trace_id, span_id=span.span_id)


# -- deterministic merge ------------------------------------------------------


@dataclass
class MergedTelemetry:
    """A reassembled sharded run: everything the workers saw, in the
    parent's hands, deterministically ordered."""

    #: Per-worker span lists, record order — feed
    #: :func:`merge_traces` together with the parent collector's spans.
    spans: Dict[int, List[Span]]
    #: All workers' registries folded via
    #: :func:`~repro.obs.metrics.merge_registries`.
    registry: MetricsRegistry
    #: All workers' journal events via
    #: :func:`~repro.obs.events.merge_events` (identity order).
    events: List[Event]

    def events_jsonl(self) -> str:
        """Worker events in the journal interchange form, identity
        order — byte-identical across same-seed runs."""
        return events_jsonl(self.events)


def merge_captures(captures: Dict[int, dict]) -> MergedTelemetry:
    """Merge ``{worker_id: capture}`` — each capture a worker's
    ``"spans"`` and ``"events"`` as recorded and its registry's
    :meth:`~MetricsRegistry.state` under ``"metrics"`` — into one
    :class:`MergedTelemetry`, workers in ascending id order."""
    ordered = sorted(captures.items())
    return MergedTelemetry(
        spans={worker_id: capture["spans"] for worker_id, capture in ordered},
        registry=merge_registries(
            [MetricsRegistry.from_state(c["metrics"]) for _, c in ordered]
        ),
        events=merge_events(*(c["events"] for _, c in ordered)),
    )


def merge_traces(
    parent_spans: Sequence[Span],
    worker_spans: Dict[int, List[Span]],
) -> List[Span]:
    """One deterministic span list for a cross-process trace: parent
    spans first (start order, as the collector recorded them), then
    each worker's spans by ascending worker id, record order within
    a worker.  With seeded collectors on both sides the result is
    byte-identical across same-seed runs."""
    merged = list(parent_spans)
    for worker_id in sorted(worker_spans):
        merged.extend(worker_spans[worker_id])
    return merged
