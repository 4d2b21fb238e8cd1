"""Trace spans with propagated trace/span IDs (docs/observability.md).

A *span* is one timed operation; spans nest into a tree per *trace*
(e.g. one EER setup: the initiator's ``eer.setup`` span, under it one
``admission.eer`` span per on-path AS, connected by ``retry.call`` and
``bus.call`` spans).  Because the reproduction's control plane is a
synchronous in-process call graph, context propagation is the
collector's span stack: a span started while another is open becomes its
child and inherits the trace ID — exactly the property the tests assert
survives retries and failover (a retried attempt is a new ``bus.call``
span under the same ``retry.call`` parent, same trace ID).

Determinism: span and trace IDs come from one ``random.Random(seed)``
and timestamps from the injected clock, so a seeded scenario produces a
byte-identical span tree on every run.  The collector is bounded;
overflow drops new spans and counts them rather than growing without
bound.

Spans record *how long*; what happened — verdicts, decisions, state
transitions such as a circuit-breaker flip — is a journal event
(:mod:`repro.obs.events`), never a zero-duration span.
"""

from __future__ import annotations

import functools
import json
import random
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

from repro.util.clock import Clock

#: Status values a span can end with.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One timed operation within a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attributes",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        attributes: Optional[dict] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = STATUS_OK
        self.attributes = attributes if attributes is not None else {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return f"Span({self.name!r}, {state}, trace={self.trace_id})"


class TraceCollector:
    """Seeded, clock-injected span recorder with a query API."""

    def __init__(self, clock: Clock, seed: int = 0, capacity: int = 100_000):
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._spans: list = []  # completion-agnostic, in start order
        self._stack: list = []  # open spans, innermost last
        self._remote_parent: Optional[tuple] = None  # adopted (trace, span)
        self.dropped_spans = 0  # collector overflow, not packet drops

    # -- recording ------------------------------------------------------------

    def _new_id(self, nibbles: int) -> str:
        return f"{self._rng.getrandbits(nibbles * 4):0{nibbles}x}"

    def adopt(self, trace_id: str, span_id: str) -> None:
        """Graft this collector onto a remote trace: spans started with
        no local parent become children of ``span_id`` under
        ``trace_id`` instead of opening a fresh trace.  This is how a
        shard worker (or any process handed a serialized
        :class:`~repro.obs.distributed.TraceContext`) continues its
        caller's trace across the process boundary."""
        self._remote_parent = (trace_id, span_id)

    def start(self, name: str, attributes: Optional[dict] = None) -> Optional[Span]:
        """Open a span as a child of the innermost open span (or of the
        adopted remote parent, or a new trace root).  Returns ``None``
        when the collector is full."""
        if len(self._spans) >= self.capacity:
            self.dropped_spans += 1
            return None
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif self._remote_parent is not None:
            trace_id, parent_id = self._remote_parent
        else:
            trace_id, parent_id = self._new_id(16), None
        span = Span(
            trace_id=trace_id,
            span_id=self._new_id(8),
            parent_id=parent_id,
            name=name,
            start=self.clock.now(),
            attributes=attributes,
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def finish(
        self, span: Optional[Span], status: str = STATUS_OK, **attributes
    ) -> None:
        """Close ``span`` (a no-op for the ``None`` of an overflowing
        :meth:`start`), popping it — and anything left open under it —
        off the context stack."""
        if span is None:
            return
        if span in self._stack:
            while self._stack:
                leaked = self._stack.pop()
                if leaked is span:
                    break
        span.end = self.clock.now()
        span.status = status
        if attributes:
            span.attributes.update(attributes)

    @contextmanager
    def span(self, name: str, **attributes):
        """``with tracer.span("bus.call", method=m):`` — closes on exit,
        marking the span as errored when the body raises."""
        span = self.start(name, attributes or None)
        try:
            yield span
        except BaseException as error:
            self.finish(span, status=STATUS_ERROR, error=type(error).__name__)
            raise
        self.finish(span)

    # -- queries --------------------------------------------------------------

    def spans(
        self, name: Optional[str] = None, trace_id: Optional[str] = None
    ) -> list:
        """All recorded spans, optionally filtered, in start order."""
        result = self._spans
        if name is not None:
            result = [s for s in result if s.name == name]
        if trace_id is not None:
            result = [s for s in result if s.trace_id == trace_id]
        return list(result)

    def children(self, span: Span) -> list:
        return [
            s
            for s in self._spans
            if s.parent_id == span.span_id and s.trace_id == span.trace_id
        ]

    def roots(self) -> list:
        return [s for s in self._spans if s.parent_id is None]

    def trace_ids(self) -> list:
        seen: dict = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def open_spans(self) -> list:
        """Spans started but never finished — must be empty after any
        completed workflow (asserted by tests/test_obs_tracing.py)."""
        return [s for s in self._spans if not s.closed]

    def critical_path(self, trace_id: str) -> list:
        """Root-to-leaf chain that determines the trace's wall duration:
        from each span, descend into the child that finishes last."""
        roots = [s for s in self.roots() if s.trace_id == trace_id]
        if not roots:
            raise ValueError(f"no trace {trace_id!r} recorded")
        current = max(roots, key=lambda s: s.end if s.closed else float("inf"))
        path = [current]
        while True:
            closed_children = [c for c in self.children(current) if c.closed]
            if not closed_children:
                return path
            current = max(closed_children, key=lambda s: s.end)
            path.append(current)

    # -- export ---------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per span, start order — the interchange form
        (``colibri-repro trace --format jsonl``)."""
        return spans_jsonl(self._spans)

    def render_tree(self, trace_id: Optional[str] = None) -> str:
        """Human-readable span forest (one trace, or all of them)."""
        return render_span_forest(
            [s for s in self._spans if trace_id is None or s.trace_id == trace_id]
        )

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.dropped_spans = 0

    def __len__(self) -> int:
        return len(self._spans)


def spans_jsonl(spans: Sequence[Span]) -> str:
    """The span interchange form: one sorted-key JSON object per span,
    in the order given (a collector's spans, or a merged cross-process
    list from :func:`~repro.obs.distributed.merge_traces`)."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )


def render_span_forest(spans: Sequence[Span]) -> str:
    """Render a span list as an indented forest.

    A span whose parent id names a span in the list is indented under it
    even if another process recorded it (an adopted remote parent); one
    whose parent is absent from the list renders as a root.
    """
    known = {span.span_id for span in spans}
    by_parent: dict = {}
    roots: list = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in known:
            roots.append(span)
        else:
            by_parent.setdefault(span.parent_id, []).append(span)
    lines: list = []

    def walk(span: Span, depth: int) -> None:
        mark = "!" if span.status == STATUS_ERROR else "."
        attrs = " ".join(
            f"{key}={span.attributes[key]}" for key in sorted(span.attributes)
        )
        duration = f"{span.duration * 1e3:9.3f}ms" if span.closed else "     open"
        lines.append(
            f"{duration} {mark} {'  ' * depth}{span.name}"
            + (f" [{attrs}]" if attrs else "")
        )
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def traced(
    name: str, attrs: Optional[Callable] = None, latency: Optional[str] = None
) -> Callable:
    """Method decorator: span ``name`` around the call when the owning
    object carries an enabled ``obs`` context; a plain call otherwise.

    ``attrs`` receives the same arguments as the method and returns the
    span's attribute dict.  Responses exposing ``success``/``granted``
    (the admission response shape) annotate the span automatically, so
    admission outcomes are queryable without per-site code.

    ``latency`` names a registry histogram that additionally observes the
    call's wall duration on :attr:`ObsContext.perf`, raised or returned
    (§6.1 measures setup latency end to end, so around an initiator-side
    workflow the timer covers the whole path walk, retries and backoff
    included).
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            obs = getattr(self, "obs", None)
            if obs is None:
                return fn(self, *args, **kwargs)
            begin = obs.perf.now() if latency is not None else None
            attributes = attrs(self, *args, **kwargs) if attrs is not None else {}
            try:
                with obs.tracer.span(name, **attributes) as span:
                    result = fn(self, *args, **kwargs)
                    if span is not None:
                        for key in ("success", "granted"):
                            value = getattr(result, key, None)
                            if value is not None:
                                span.attributes[key] = value
                    return result
            finally:
                if latency is not None:
                    obs.metrics.histogram(latency).observe(obs.perf.now() - begin)

        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
