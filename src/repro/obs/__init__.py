"""The telemetry spine: one registry, one event stream, one span stack.

The paper evaluates Colibri by *measuring* it — admission latency
percentiles (§6.1), per-hop processing cost (Fig. 5), monitor/OFD
behaviour under attack (§7.1) — so the reproduction carries first-class
instrumentation an operator (and the test suite) can assert on.  There
is one of each kind, behind :class:`ObsContext`:

* ``metrics`` — *how much*: the :class:`~repro.obs.metrics.MetricsRegistry`,
  the only store an exporter reads and the only Prometheus renderer.
  The flat per-AS telemetry counters are exported through it as one
  labelled family source, not mirrored into it;
* ``journal`` — *what happened and why*: the bounded, typed
  :class:`~repro.obs.events.EventJournal`.  Router verdicts, admission
  decisions and state transitions (breaker flips, sweeps) are events and
  nothing else;
* ``tracer`` — *how long*: the seeded, injected-clock
  :class:`~repro.obs.trace.TraceCollector`.  Spans only; a span finds
  its parent through the collector's span stack.

Beside them, :mod:`repro.obs.profile` is the one hot-path timer (a
``@profiled`` wrapper that costs one global read when idle);
:mod:`repro.obs.slo` evaluates burn-rate alerts over registry snapshots,
:mod:`repro.obs.forensics` joins journal events into §5 complaint
evidence, and :mod:`repro.obs.distributed` carries all three sinks
across the shard executor's process boundary.

Everything is deterministic (seeded span IDs, injected clocks) and
disabled by default: an un-instrumented run takes the exact same fast
paths as before this module existed (docs/observability.md states the
measured bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.events import EventJournal
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RETRY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import TraceCollector
from repro.util.clock import Clock, PerfClock

__all__ = ["EventJournal", "MetricsRegistry", "ObsContext", "TraceCollector"]


@dataclass
class ObsContext:
    """One deployment's observability plumbing, shared across components.

    Components hold an optional ``obs`` attribute (``None`` by default);
    every instrumentation site guards on it, so the disabled state costs
    one attribute read at most.  :meth:`create` wires the standard
    instruments; :meth:`~repro.sim.scenario.ColibriNetwork.enable_observability`
    attaches the context to every stack of a running network.
    """

    tracer: TraceCollector
    metrics: MetricsRegistry
    #: Wall-duration source for latency instruments.  Distinct from the
    #: protocol clock: admission latency is real compute time (§6.1),
    #: not simulated time.
    perf: Clock
    #: Optional flight recorder; ``None`` keeps every ``emit`` site a
    #: no-op even when tracing/metrics are armed.
    journal: Optional[EventJournal] = None
    #: Optional burn-rate alert engine watching :attr:`metrics`.
    alerts: Optional["object"] = None

    @classmethod
    def create(
        cls,
        clock: Clock,
        seed: int = 0,
        perf: Optional[Clock] = None,
        journal: bool = False,
        journal_capacity: int = 65_536,
    ) -> "ObsContext":
        metrics = MetricsRegistry()
        metrics.histogram(
            "admission_latency_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help_text="Wall-clock latency of initiator-side admission workflows",
        )
        metrics.histogram(
            "retry_attempts",
            buckets=DEFAULT_RETRY_BUCKETS,
            help_text="Bus attempts consumed per logical control-plane call",
        )
        return cls(
            tracer=TraceCollector(clock, seed=seed),
            metrics=metrics,
            perf=perf if perf is not None else PerfClock(),
            journal=(
                EventJournal(clock, capacity=journal_capacity) if journal else None
            ),
        )
