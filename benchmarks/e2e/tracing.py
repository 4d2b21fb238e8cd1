"""Outside-in tracing for the end-to-end benchmark.

The benchmark may not edit the program, so spans are recorded from here:
:meth:`Tracer.wrap` replaces a *public* method on a live instance (or a
class) with a timing shim and :meth:`Tracer.unwrap_all` puts the
originals back.  Every boundary keeps a call count, its inclusive time
and its **self time** (inclusive minus the part covered by wrapped
callees), so the self times of all layers plus the root's own remainder
sum to the traced wall time exactly — that sum is the budget table.

Calls made while no :meth:`Tracer.root` span is open (input generation
and renewals between timed blocks) pass through unrecorded.  Boundaries
crossed once per request or burst additionally keep their spans in
memory (name, operation id, parent span, start, end) up to
:data:`SPAN_LIMIT`; per-packet boundaries keep counts and sums only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Spans kept in memory per run; later ones are counted, not stored.
SPAN_LIMIT = 50_000

_clock = time.perf_counter_ns


class Tracer:
    """Call counts, inclusive and self time per named layer boundary."""

    def __init__(self):
        #: name -> [calls, inclusive_ns, self_ns]
        self.totals: dict = {}
        #: Stored spans: (name, op_id, parent_index, start_ns, end_ns).
        self.spans: list = []
        self.spans_dropped = 0
        #: Identifier shared by every span of the operation in flight;
        #: the driver sets it before each request or burst.
        self.op_id = 0
        self._children = []  # ns covered by wrapped callees, per open frame
        self._open_spans = []  # indices into self.spans of open stored spans
        self._undo = []

    # -- instrumentation -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, keep_span: bool = False) -> None:
        """Time every call of ``owner.attr`` under the layer ``name``.

        ``owner`` is an instance (its bound method is shadowed by an
        instance attribute) or a class (the function is replaced, so all
        instances are covered).  Several owners may share one ``name``:
        the sixteen routers of a path are one layer.
        """
        original = getattr(owner, attr)
        record = self.totals.setdefault(name, [0, 0, 0])
        had_own = attr in vars(owner)
        shim = _count_shim(original, record, self._children)
        if keep_span:
            shim = self._span_shim(shim, name)
        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original if had_own else None))

    def _span_shim(self, counted, name: str):
        """Additionally store a span per call of the counting shim."""
        children, spans, open_spans = self._children, self.spans, self._open_spans

        def shim(*args, **kwargs):
            if not children:
                return counted(*args, **kwargs)
            if len(spans) >= SPAN_LIMIT:
                self.spans_dropped += 1
                return counted(*args, **kwargs)
            parent = open_spans[-1] if open_spans else -1
            span = [name, self.op_id, parent, _clock(), 0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return counted(*args, **kwargs)
            finally:
                open_spans.pop()
                span[4] = _clock()

        return shim

    def unwrap_all(self) -> None:
        """Restore every wrapped method (instance shadows are deleted)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """The driver's own span around one timed block.

        Its self time is what no wrapped layer covers: the driver loop
        plus program code reached without crossing a wrapped boundary.
        """
        record = self.totals.setdefault(name, [0, 0, 0])
        self._children.append(0)
        start = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - start
            own = elapsed - self._children.pop()
            record[0] += 1
            record[1] += elapsed
            record[2] += own

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def inclusive_us(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e3

    def self_us(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e3

    def budget(self, root: str) -> list:
        """Rows ``(layer, calls, self_ms, share)`` sorted by self time,
        the root's remainder last as ``(unattributed)``; shares are of
        the root's inclusive time and sum to 1."""
        wall = self.totals[root][1] or 1
        rows = [
            (name, calls, own / 1e6, own / wall)
            for name, (calls, _, own) in self.totals.items()
            if name != root and calls
        ]
        rows.sort(key=lambda row: -row[2])
        calls, _, own = self.totals[root]
        rows.append(("(unattributed)", calls, own / 1e6, own / wall))
        return rows


def _count_shim(original, record: list, children: list):
    def shim(*args, **kwargs):
        if not children:
            return original(*args, **kwargs)
        children.append(0)
        start = _clock()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            own = elapsed - children.pop()
            if children:
                children[-1] += elapsed
            record[0] += 1
            record[1] += elapsed
            record[2] += own

    return shim
