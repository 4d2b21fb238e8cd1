"""Cross-layer observability: trace spans, metrics, profiling hooks.

The paper evaluates Colibri by *measuring* it — admission latency
percentiles (§6.1), per-hop processing cost (Fig. 5), monitor/OFD
behaviour under attack (§7.1) — so the reproduction needs first-class
instrumentation an operator (and the test suite) can assert on:

* :mod:`repro.obs.trace` — propagated trace spans over the control plane
  (bus calls, retries, breaker transitions, admission decisions,
  renewals, dissemination) and the data plane (gateway stamp, per-hop
  router verdicts), recorded by a seeded, injected-clock
  :class:`~repro.obs.trace.TraceCollector` with JSON-lines export and a
  query API;
* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  with counters, gauges, and fixed-bucket histograms, rendered in the
  Prometheus exposition format next to the flat telemetry counters;
* :mod:`repro.obs.profile` — a zero-cost-when-disabled ``@profiled``
  timer over the hot paths, feeding the ``BENCH_*.json`` writers;
* :mod:`repro.obs.events` — a bounded, typed
  :class:`~repro.obs.events.EventJournal` (flight recorder) both planes
  emit structured events into;
* :mod:`repro.obs.slo` — SLO specs and a multi-window burn-rate
  :class:`~repro.obs.slo.AlertEngine` over registry snapshots;
* :mod:`repro.obs.forensics` — journal-backed
  :class:`~repro.obs.forensics.OveruseEvidence` records for §5
  complaints, with a verifier.

Everything is deterministic (seeded span IDs, injected clocks) and
disabled by default: an un-instrumented run takes the exact same fast
paths as before this module existed (docs/observability.md states the
measured bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.distributed import (
    MergedTelemetry,
    TelemetryFrame,
    TelemetryGapError,
    TraceContext,
    assemble_frames,
    frames_from,
    merge_frames,
    merge_traces,
    render_span_forest,
)
from repro.obs.events import EventJournal, emit
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RETRY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    Profiler,
    active_profiler,
    install_profiler,
    profiled,
    profiling,
    uninstall_profiler,
)
from repro.obs.trace import Span, TraceCollector, traced
from repro.util.clock import Clock, PerfClock

__all__ = [
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MergedTelemetry",
    "MetricsRegistry",
    "ObsContext",
    "Profiler",
    "Span",
    "TelemetryFrame",
    "TelemetryGapError",
    "TraceCollector",
    "TraceContext",
    "active_profiler",
    "assemble_frames",
    "emit",
    "frames_from",
    "install_profiler",
    "merge_frames",
    "merge_traces",
    "profiled",
    "profiling",
    "render_span_forest",
    "traced",
    "uninstall_profiler",
]


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
        trace_capacity: int = 100_000,
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
            tracer=TraceCollector(clock, seed=seed, capacity=trace_capacity),
            metrics=metrics,
            perf=perf if perf is not None else PerfClock(),
            journal=(
                EventJournal(clock, capacity=journal_capacity) if journal else None
            ),
        )
