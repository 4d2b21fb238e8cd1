"""The metrics registry: the one store an exporter reads, and the one
exposition renderer.

Instruments cover what the paper's evaluation measures — latency
*distributions* (admission percentiles, §6.1), point-in-time *levels*
(token-bucket occupancy, σ-cache fill) and event counts.  Components
that already keep plain per-entity counters (the per-AS
:meth:`~repro.sim.scenario.ColibriNetwork.telemetry` snapshot, the shard
executor's per-shard counters) are not copied in: the registry exports
such a snapshot as labelled gauge families through
:meth:`MetricsRegistry.family_source`, reading it once per
:meth:`~MetricsRegistry.state` or :meth:`~MetricsRegistry.render`.
Everything renders in the Prometheus exposition format; histograms
follow the standard ``_bucket{le=…}/_sum/_count`` encoding with
cumulative, monotone bucket counts.

Registries from the shard executor's per-process stacks merge
associatively (:meth:`MetricsRegistry.merge`): counters and histogram
buckets add, gauges take the last written value — the same semantics
Prometheus federation applies.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Optional, Sequence

#: Admission workflows are Python-scale: sub-millisecond local admission
#: up to tens of milliseconds for long paths under retries.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)

#: Attempts per logical call; the retry policies cap max_attempts well
#: below 8, so the top finite bucket catches policy changes.
DEFAULT_RETRY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"metric name must be [a-zA-Z0-9_]+, got {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


class Counter:
    """Monotone event count."""

    kind = "counter"
    __slots__ = ("name", "help_text", "value")

    def __init__(self, name: str, help_text: str = ""):
        self.name = _validate_name(name)
        self.help_text = help_text
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def samples(self, prefix: str) -> list:
        return [(f"{prefix}_{self.name}", "", self.value)]


class Gauge:
    """Point-in-time level; optionally backed by a callback so the
    exporter reads the live value (cache fill, bucket occupancy) without
    the instrumented component pushing on every change."""

    kind = "gauge"
    __slots__ = ("name", "help_text", "_value", "_fn")

    def __init__(self, name: str, help_text: str = ""):
        self.name = _validate_name(name)
        self.help_text = help_text
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def merge_from(self, other: "Gauge") -> None:
        # Last-writer-wins, matching Prometheus federation for gauges;
        # callback gauges are process-local and never arrive via merge.
        self._fn = None
        self._value = other.value

    def samples(self, prefix: str) -> list:
        return [(f"{prefix}_{self.name}", "", self.value)]


class Histogram:
    """Fixed-bucket histogram with cumulative exposition.

    ``buckets`` are the finite upper bounds (strictly increasing); the
    implicit ``+Inf`` bucket always exists.  Internally counts are
    per-bucket (non-cumulative) so :meth:`merge_from` is plain
    elementwise addition; :meth:`samples` emits the cumulative counts
    the exposition format requires.
    """

    kind = "histogram"
    __slots__ = ("name", "help_text", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float], help_text: str = ""):
        self.name = _validate_name(name)
        self.help_text = help_text
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError(f"finite bounds only (+Inf is implicit): {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list:
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile
        observation (the usual histogram-quantile estimate)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        rank = math.ceil(self.count * p / 100) or 1
        for bound, cum in zip(
            self.buckets + (math.inf,), self.cumulative_counts()
        ):
            if cum >= rank:
                return bound
        raise RuntimeError(f"rank {rank} unreachable in {self.name}")  # pragma: no cover

    def merge_from(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge {self.name}: bounds {other.buckets} != {self.buckets}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def samples(self, prefix: str) -> list:
        base = f"{prefix}_{self.name}"
        out = []
        bounds = [_format_bound(b) for b in self.buckets] + ["+Inf"]
        for bound, cum in zip(bounds, self.cumulative_counts()):
            out.append((f"{base}_bucket", f'{{le="{bound}"}}', cum))
        out.append((f"{base}_sum", "", self.sum))
        out.append((f"{base}_count", "", self.count))
        return out


def _format_bound(bound: float) -> str:
    """Exposition bound formatting: integral bounds render bare
    (``le="2"``), fractional ones in shortest repr (``le="0.005"``)."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class MetricsRegistry:
    """Get-or-create instrument registry with merge and exposition.

    One registry per process (attached via ``ObsContext``); the shard
    executor returns per-process registries to the parent, which merges
    them into its own before rendering.
    """

    def __init__(self, prefix: str = "colibri"):
        self.prefix = prefix
        self._instruments: dict = {}
        self._sources: list = []  # (snapshot_fn, help_texts)

    def _get_or_create(self, cls, name: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name!r} already registered as {existing.kind}, "
                    f"wanted {cls.kind}"
                )
            return existing
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text=help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text=help_text)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help_text: str = "",
    ) -> Histogram:
        """Get or create; omitting ``buckets`` accepts whatever bounds an
        existing registration chose (instrumentation sites observe into
        histograms the context pre-registered with tuned bounds)."""
        existing = self._instruments.get(name)
        if isinstance(existing, Histogram):
            if buckets is not None and existing.buckets != tuple(
                float(b) for b in buckets
            ):
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.buckets}"
                )
            return existing
        return self._get_or_create(
            Histogram,
            name,
            buckets=buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS,
            help_text=help_text,
        )

    def family_source(
        self, snapshot_fn: Callable[[], dict], help_texts: Optional[dict] = None
    ) -> None:
        """Export a flat ``{entity: {name: value}}`` snapshot — the
        :meth:`~repro.sim.scenario.ColibriNetwork.telemetry` shape — as
        gauge families: one family per name, one ``isd_as``-labelled
        sample per entity, the ``"total"`` entity unlabelled.

        ``snapshot_fn`` is called once per :meth:`state` and once per
        :meth:`render`, however many names and entities it reports; the
        ``"total"`` values are what :meth:`state` (and so the SLO engine)
        sees.  Names without an entry in ``help_texts`` get a generic
        HELP line, so new counters flow through unannounced."""
        self._sources.append((snapshot_fn, help_texts or {}))

    def _source_families(self):
        """``(name, help, snapshot)`` per exported name of every source,
        from one snapshot per source."""
        for snapshot_fn, help_texts in self._sources:
            snapshot = snapshot_fn()
            names = {name for entry in snapshot.values() for name in entry}
            for name in sorted(names):
                yield name, help_texts.get(name, f"Colibri counter {name}"), snapshot

    def instruments(self) -> list:
        return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str):
        return self._instruments.get(name)

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``others`` into this registry (associative, in place;
        returns self for chaining).  Unknown instruments are adopted
        with the same type and bounds."""
        for other in others:
            for name, instrument in other._instruments.items():
                mine = self._instruments.get(name)
                if mine is None:
                    if isinstance(instrument, Histogram):
                        mine = self.histogram(
                            name,
                            buckets=instrument.buckets,
                            help_text=instrument.help_text,
                        )
                    elif isinstance(instrument, Gauge):
                        mine = self.gauge(name, help_text=instrument.help_text)
                    else:
                        mine = self.counter(name, help_text=instrument.help_text)
                mine.merge_from(instrument)
        return self

    # -- multiprocessing transport --------------------------------------------

    def state(self) -> dict:
        """Picklable snapshot for crossing process boundaries (callback
        gauges and family-source totals are frozen to their current
        reading)."""
        out = {}
        for name, help_text, snapshot in self._source_families():
            if name in snapshot["total"]:
                out[name] = {
                    "kind": "gauge",
                    "help": help_text,
                    "value": float(snapshot["total"][name]),
                }
        for name, inst in self._instruments.items():
            if isinstance(inst, Histogram):
                out[name] = {
                    "kind": "histogram",
                    "help": inst.help_text,
                    "buckets": inst.buckets,
                    "counts": list(inst.counts),
                    "sum": inst.sum,
                    "count": inst.count,
                }
            else:
                out[name] = {
                    "kind": inst.kind,
                    "help": inst.help_text,
                    "value": inst.value,
                }
        return out

    @classmethod
    def from_state(cls, state: dict, prefix: str = "colibri") -> "MetricsRegistry":
        registry = cls(prefix=prefix)
        for name, payload in state.items():
            if payload["kind"] == "histogram":
                hist = registry.histogram(
                    name, buckets=payload["buckets"], help_text=payload["help"]
                )
                hist.counts = list(payload["counts"])
                hist.sum = payload["sum"]
                hist.count = payload["count"]
            elif payload["kind"] == "gauge":
                registry.gauge(name, help_text=payload["help"]).set(payload["value"])
            else:
                registry.counter(name, help_text=payload["help"]).inc(
                    payload["value"]
                )
        return registry

    # -- exposition -----------------------------------------------------------

    def render(self) -> str:
        """Exposition-format text for every family — instruments and
        family sources alike — name-sorted, each family exactly once."""
        families = {
            inst.name: (inst.kind, inst.help_text, inst.samples(self.prefix))
            for inst in self._instruments.values()
        }
        for name, help_text, snapshot in self._source_families():
            if name in families:
                raise ValueError(f"metric family {name!r} exported twice")
            samples = [
                (
                    f"{self.prefix}_{name}",
                    "" if entity == "total" else f'{{isd_as="{entity}"}}',
                    snapshot[entity][name],
                )
                for entity in sorted(snapshot)
                if name in snapshot[entity]
            ]
            families[name] = ("gauge", help_text, samples)
        lines: list = []
        for name in sorted(families):
            kind, help_text, samples = families[name]
            full = f"{self.prefix}_{name}"
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            for sample_name, labels, value in samples:
                lines.append(f"{sample_name}{labels} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if isinstance(value, int) or (
        not math.isinf(value) and float(value) == int(value)
    ):
        return str(int(value))
    return repr(float(value))


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fresh registry holding the fold of ``registries`` (left intact)."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(MetricsRegistry.from_state(registry.state()))
    return merged
