"""SLO specifications and multi-window burn-rate alerting.

An :class:`SLOSpec` states an objective over instruments in a
:class:`~repro.obs.metrics.MetricsRegistry` — "99% of packets traverse a
hop without being dropped", "95% of admissions complete within 25 ms" —
and the :class:`AlertEngine` evaluates it the way an SRE playbook does:
the *burn rate* (observed bad fraction over the allowed error budget) is
computed over a fast and a slow window, and an alert fires only when
**both** windows burn too hot — the fast window gives detection latency,
the slow window immunity against short blips.  Alerts move through a
``ok → pending → firing → resolved`` state machine driven entirely by an
injected clock, so a seeded scenario alerts identically on every run.

The engine consumes *registry snapshots* (:meth:`MetricsRegistry.state`)
rather than live instruments, which makes it work identically in two
modes:

* **live** — ``engine.watch(registry, clock)`` then ``engine.tick()``
  inside the scenario loop;
* **offline** — :func:`replay_journal` rebuilds per-event-type counters
  from an exported :class:`~repro.obs.events.EventJournal` stream and
  feeds the same engine, so an operator can re-run alerting over a
  flight recording from a different machine.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs.events import EVENT_TYPES, Event
from repro.obs.metrics import MetricsRegistry

# Alert states.
OK = "ok"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

#: Google-SRE-style defaults, scaled to simulation time: the fast window
#: catches a burn within seconds, the slow window requires it to persist.
DEFAULT_FAST_WINDOW = 5.0
DEFAULT_SLOW_WINDOW = 60.0
DEFAULT_PENDING_FOR = 1.0
DEFAULT_BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SLOSpec:
    """One objective over registry instruments.

    ``objective`` is the target *good* fraction (e.g. ``0.99`` = at most
    1% of the total may be bad); the error budget is ``1 - objective``
    and burn rate is ``bad_fraction / budget``.  Three kinds:

    * ``ratio`` — ``numerator`` (bad count) over ``denominator`` (total
      count), both monotone counters or monotone callback gauges; the
      window delta of each is used.
    * ``latency`` — fraction of ``histogram`` observations above
      ``threshold`` seconds in the window.  ``threshold`` should sit on
      a bucket bound; it is aligned *up* to the next bound otherwise
      (fixed-bucket histograms cannot resolve between bounds).
    * ``gauge`` — instantaneous level check: bad iff the gauge reading
      violates ``bound`` (above it, or below it when
      ``violate_below=True``).  Windows still gate how long a violation
      must persist before the alert fires.
    """

    name: str
    objective: float
    kind: str
    numerator: Optional[str] = None
    denominator: Optional[str] = None
    histogram: Optional[str] = None
    threshold: Optional[float] = None
    gauge: Optional[str] = None
    bound: Optional[float] = None
    violate_below: bool = False

    def __post_init__(self):
        if not 0.0 <= self.objective < 1.0:
            raise ValueError(
                f"objective must be in [0, 1), got {self.objective} "
                f"(1.0 leaves a zero error budget)"
            )
        if self.kind not in ("ratio", "latency", "gauge"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def ratio(
        cls, name: str, numerator: str, denominator: str, objective: float
    ) -> "SLOSpec":
        return cls(
            name=name,
            objective=objective,
            kind="ratio",
            numerator=numerator,
            denominator=denominator,
        )

    @classmethod
    def latency(
        cls, name: str, histogram: str, threshold: float, objective: float
    ) -> "SLOSpec":
        return cls(
            name=name,
            objective=objective,
            kind="latency",
            histogram=histogram,
            threshold=threshold,
        )

    @classmethod
    def gauge_bound(
        cls,
        name: str,
        gauge: str,
        bound: float,
        objective: float = 0.0,
        violate_below: bool = False,
    ) -> "SLOSpec":
        """Level check: with the default ``objective=0.0`` the budget is
        1.0 and burn rate equals the violated fraction (0 or 1)."""
        return cls(
            name=name,
            objective=objective,
            kind="gauge",
            gauge=gauge,
            bound=bound,
            violate_below=violate_below,
        )

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    # -- evaluation ------------------------------------------------------------

    def bad_total(self, older: dict, newer: dict) -> tuple:
        """``(bad, total)`` over the window between two registry
        snapshots (:meth:`MetricsRegistry.state` dicts)."""
        if self.kind == "ratio":
            bad = _value(newer, self.numerator) - _value(older, self.numerator)
            total = _value(newer, self.denominator) - _value(
                older, self.denominator
            )
            return max(0.0, bad), max(0.0, total)
        if self.kind == "latency":
            return _latency_bad_total(older, newer, self.histogram, self.threshold)
        value = _value(newer, self.gauge)
        violated = value < self.bound if self.violate_below else value > self.bound
        return (1.0 if violated else 0.0), 1.0

    def burn_rate(self, older: dict, newer: dict) -> float:
        bad, total = self.bad_total(older, newer)
        if total <= 0:
            return 0.0
        return (bad / total) / self.budget


def _value(state: dict, name: str) -> float:
    entry = state.get(name)
    if entry is None or "value" not in entry:
        return 0.0
    return float(entry["value"])


def _latency_bad_total(older: dict, newer: dict, name: str, threshold: float):
    entry = newer.get(name)
    if entry is None or entry.get("kind") != "histogram":
        return 0.0, 0.0
    buckets = tuple(entry["buckets"])
    counts = list(entry["counts"])
    total = entry["count"]
    base = older.get(name)
    if base is not None and base.get("kind") == "histogram":
        for index, count in enumerate(base["counts"]):
            counts[index] -= count
        total -= base["count"]
    # Observations land in the first bucket whose bound >= value, so
    # everything in buckets[0..cut] is known to be <= threshold (with
    # threshold aligned up to a bound); the rest is "bad".
    cut = bisect_left(buckets, threshold)
    if cut < len(buckets) and buckets[cut] == threshold:
        cut += 1
    good = sum(counts[:cut])
    return max(0.0, float(total - good)), max(0.0, float(total))


@dataclass
class Alert:
    """Point-in-time view of one SLO's alert state."""

    slo: str
    state: str
    since: float
    fast_burn: float
    slow_burn: float


@dataclass
class _SloState:
    state: str = OK
    since: float = 0.0
    pending_since: Optional[float] = None
    fast_burn: float = 0.0
    slow_burn: float = 0.0


class AlertEngine:
    """Deterministic multi-window burn-rate alerting over snapshots.

    Feed it with :meth:`ingest` (explicit time + snapshot — the offline
    path) or attach it to a live registry with :meth:`watch` and call
    :meth:`tick` from the scenario loop.  Snapshots older than the slow
    window are pruned, so memory is bounded by the evaluation cadence.
    """

    def __init__(
        self,
        slos: Sequence[SLOSpec],
        fast_window: float = DEFAULT_FAST_WINDOW,
        slow_window: float = DEFAULT_SLOW_WINDOW,
        pending_for: float = DEFAULT_PENDING_FOR,
        burn_threshold: float = DEFAULT_BURN_THRESHOLD,
    ):
        if fast_window <= 0 or slow_window < fast_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got "
                f"{fast_window}/{slow_window}"
            )
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.slos = tuple(slos)
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.pending_for = pending_for
        self.burn_threshold = burn_threshold
        self._snapshots: List[tuple] = []  # (time, state), time-ordered
        self._states = {slo.name: _SloState() for slo in slos}
        #: Every state change as ``(time, slo, old, new)`` — what the
        #: tests assert on and the health report lists.
        self.transitions: List[tuple] = []
        self._registry: Optional[MetricsRegistry] = None
        self._clock = None

    # -- wiring ---------------------------------------------------------------

    def watch(self, registry: MetricsRegistry, clock) -> "AlertEngine":
        """Attach a live registry + clock so :meth:`tick` can sample."""
        self._registry = registry
        self._clock = clock
        return self

    def tick(self) -> List[Alert]:
        if self._registry is None or self._clock is None:
            raise ValueError("engine not attached; call watch() or use ingest()")
        return self.ingest(self._clock.now(), self._registry.state())

    # -- evaluation -----------------------------------------------------------

    def ingest(self, now: float, state: dict) -> List[Alert]:
        """Evaluate every SLO against the new snapshot; returns the
        alerts that changed state during this evaluation."""
        if self._snapshots and now < self._snapshots[-1][0]:
            raise ValueError(
                f"time went backwards: {now} < {self._snapshots[-1][0]}"
            )
        self._snapshots.append((now, state))
        horizon = now - self.slow_window
        while len(self._snapshots) > 2 and self._snapshots[1][0] <= horizon:
            self._snapshots.pop(0)

        changed = []
        for slo in self.slos:
            fast = slo.burn_rate(self._baseline(now, self.fast_window), state)
            slow = slo.burn_rate(self._baseline(now, self.slow_window), state)
            tracker = self._states[slo.name]
            tracker.fast_burn = fast
            tracker.slow_burn = slow
            breach = (
                fast >= self.burn_threshold and slow >= self.burn_threshold
            )
            if self._advance(slo.name, tracker, breach, now):
                changed.append(self._alert(slo.name, tracker))
        return changed

    def _baseline(self, now: float, window: float) -> dict:
        """The snapshot the window delta is computed against: the newest
        one at or before ``now - window``, else the oldest we kept (a
        partial window while history is still shorter than the window)."""
        target = now - window
        chosen = self._snapshots[0][1]
        for time, state in self._snapshots:
            if time > target:
                break
            chosen = state
        return chosen

    def _advance(
        self, name: str, tracker: _SloState, breach: bool, now: float
    ) -> bool:
        old = tracker.state
        if old in (OK, RESOLVED):
            if breach:
                tracker.state = PENDING
                tracker.pending_since = now
            elif old == RESOLVED:
                tracker.state = OK  # one evaluation of closure, then quiet
        elif old == PENDING:
            if not breach:
                tracker.state = OK
                tracker.pending_since = None
            elif now - tracker.pending_since >= self.pending_for:
                tracker.state = FIRING
        elif old == FIRING and not breach:
            tracker.state = RESOLVED
        if tracker.state != old:
            tracker.since = now
            self.transitions.append((now, name, old, tracker.state))
            return True
        return False

    def _alert(self, name: str, tracker: _SloState) -> Alert:
        return Alert(
            slo=name,
            state=tracker.state,
            since=tracker.since,
            fast_burn=tracker.fast_burn,
            slow_burn=tracker.slow_burn,
        )

    # -- views ----------------------------------------------------------------

    def alerts(self) -> List[Alert]:
        return [self._alert(slo.name, self._states[slo.name]) for slo in self.slos]

    def firing(self) -> List[Alert]:
        return [alert for alert in self.alerts() if alert.state == FIRING]


# -- offline evaluation over an exported journal ------------------------------


def snake_case(name: str) -> str:
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index > 0:
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def event_counter_name(event_type: str) -> str:
    """Registry name of the per-event-type counter — identical live
    (callback gauges over the journal) and offline (rebuilt counters),
    so one SLOSpec evaluates both."""
    return f"events_{snake_case(event_type)}_total"


def register_journal_gauges(
    registry: MetricsRegistry,
    total_count: Callable[[str], int],
    total_events: Callable[[], int],
) -> None:
    """Expose cumulative per-type event counts (and the overall total)
    as monotone callback gauges, one per event type.  Live, the readers
    are a journal's :meth:`~repro.obs.events.EventJournal.total_count`
    and ``total_events``; offline, :func:`registry_from_events` passes a
    recount of an exported stream — one gauge set either way."""
    for event_type in sorted(EVENT_TYPES):
        registry.gauge(
            event_counter_name(event_type),
            help_text=f"Journal events of type {event_type} recorded",
        ).set_function(functools.partial(total_count, event_type))
    registry.gauge(
        "events_total", help_text="Journal events recorded (all types)"
    ).set_function(total_events)


def registry_from_events(
    events: Iterable[Event], upto: Optional[float] = None
) -> MetricsRegistry:
    """Rebuild the journal-derived counters from an exported event
    stream, as of time ``upto``.  Exact equivalence with the live gauges
    holds as long as the journal did not wrap its ring buffer (evicted
    events cannot be recounted — the export is the retention boundary)."""
    counts = {event_type: 0 for event_type in EVENT_TYPES}
    for event in events:
        if upto is None or event.time <= upto:
            counts[event.type] += 1
    registry = MetricsRegistry()
    register_journal_gauges(
        registry, counts.__getitem__, lambda: sum(counts.values())
    )
    return registry


def replay_journal(
    events: Sequence[Event],
    engine: AlertEngine,
    times: Iterable[float],
) -> AlertEngine:
    """Drive ``engine`` over an exported event stream at the given
    evaluation instants — the offline twin of calling :meth:`tick` live
    at those same instants."""
    for now in times:
        engine.ingest(now, registry_from_events(events, upto=now).state())
    return engine


def default_slos() -> tuple:
    """The operator starter set wired by ``enable_observability``:

    * ``admission_latency_p95`` — 95% of admission workflows within 25 ms;
    * ``hop_drop_ratio`` — at most 1% of border-router packets dropped;
    * ``token_bucket_saturation`` — mean monitor bucket occupancy must
      not sit below 5% (flows pressing their reserved rates);
    * ``circuit_breakers`` — no breaker may stay open.
    """
    return (
        SLOSpec.latency(
            "admission_latency_p95",
            histogram="admission_latency_seconds",
            threshold=0.025,
            objective=0.95,
        ),
        SLOSpec.ratio(
            "hop_drop_ratio",
            # numerator comes from the mirrored flat telemetry counter;
            # the denominator is the derived processed total (drops +
            # forwarded) registered by ``enable_observability``.
            numerator="router_drops",
            denominator="router_processed_total",
            objective=0.99,
        ),
        SLOSpec.gauge_bound(
            "token_bucket_saturation",
            gauge="token_bucket_occupancy",
            bound=0.05,
            violate_below=True,
        ),
        SLOSpec.gauge_bound(
            "circuit_breakers", gauge="circuit_breakers_open", bound=0.0
        ),
    )
