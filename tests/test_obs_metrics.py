"""Property-style tests for the metrics layer (seeded random inputs).

Three invariant families, per the ISSUE checklist:

* **bucket monotonicity** — a histogram's cumulative bucket counts are
  non-decreasing, end at the total observation count, and agree with a
  brute-force recount of the raw observations;
* **merge associativity** — folding per-process registries is
  independent of grouping (and, for counters/histograms, of order), the
  property the shard executor's telemetry aggregation relies on;
* **exposition round-trip** — the rendered text parses under a strict
  line grammar back into exactly the instrument states that produced
  it, including the family sources (the flat per-AS telemetry) and a
  live network's whole scrape — every family exactly once, from one
  telemetry snapshot.
"""

import math
import random
import re

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RETRY_BUCKETS,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.profile import Profiler, active_profiler, profiled, profiling
from repro.sim import ColibriNetwork
from repro.topology import build_line_topology, build_two_isd_topology
from repro.util.clock import SimClock
from repro.util.metrics import merge_counters
from repro.util.units import gbps, mbps

# ------------------------------------------------------------ line grammar --

#: Exactly the three line forms the exposition format allows.  Anything
#: else — trailing blanks, malformed floats, bad metric names — fails
#: the parse, so the tests cannot pass on sloppy output.
_HELP_RE = re.compile(r"^# HELP (?P<name>[a-zA-Z_][a-zA-Z0-9_]*) (?P<text>.+)$")
_TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_][a-zA-Z0-9_]*) (?P<kind>counter|gauge|histogram)$"
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*)\})?"
    r" (?P<value>[+-]?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?|\+?Inf|inf))$"
)


def parse_exposition(text: str):
    """Strict parser: returns ``(types, samples)`` where ``samples`` maps
    ``(sample_name, labels_text)`` to float.  Raises on any line that
    does not match the grammar, on duplicate samples, and on a family
    declared twice."""
    if not text.endswith("\n"):
        raise ValueError("exposition text must end with a newline")
    types = {}
    samples = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            if not _HELP_RE.match(line):
                raise ValueError(f"malformed HELP line: {line!r}")
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_RE.match(line)
            if not match:
                raise ValueError(f"malformed TYPE line: {line!r}")
            if match.group("name") in types:
                raise ValueError(f"family declared twice: {line!r}")
            types[match.group("name")] = match.group("kind")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"malformed sample line: {line!r}")
        key = (match.group("name"), match.group("labels") or "")
        if key in samples:
            raise ValueError(f"duplicate sample {key}")
        samples[key] = float(match.group("value"))
    return types, samples


def random_histogram(rng, name="latency_seconds", buckets=DEFAULT_LATENCY_BUCKETS):
    """A histogram filled with seeded observations spanning every bucket
    (log-uniform below, around, and beyond the finite bounds)."""
    histogram = Histogram(name, buckets)
    observations = []
    for _ in range(rng.randrange(50, 200)):
        value = 10 ** rng.uniform(-5, 1)  # 10us .. 10s, +Inf tail included
        histogram.observe(value)
        observations.append(value)
    return histogram, observations


# ------------------------------------------------------- bucket invariants --


class TestHistogramInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_cumulative_counts_monotone_and_complete(self, seed):
        rng = random.Random(seed)
        histogram, observations = random_histogram(rng)
        cumulative = histogram.cumulative_counts()
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == histogram.count == len(observations)
        assert histogram.sum == pytest.approx(sum(observations))
        # Brute-force recount: bucket b holds observations <= bound(b)
        # (le semantics), exclusively above the previous bound.
        bounds = histogram.buckets + (math.inf,)
        for index, bound in enumerate(bounds):
            expected = sum(1 for v in observations if v <= bound)
            assert cumulative[index] == expected, f"le={bound}"

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, math.inf))
        with pytest.raises(ValueError):
            Histogram("bad name", (1.0,))

    def test_percentile_is_bucket_upper_bound(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.7, 3.0):
            histogram.observe(value)
        assert histogram.percentile(25) == 1.0
        assert histogram.percentile(75) == 2.0
        assert histogram.percentile(100) == 4.0
        histogram.observe(100.0)  # lands in +Inf
        assert histogram.percentile(100) == math.inf
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            Histogram("empty", (1.0,)).percentile(50)

    def test_merge_requires_equal_bounds(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_from(b)


# ---------------------------------------------------------- merge algebra --


def random_registry(rng, gauge_value=None):
    registry = MetricsRegistry()
    histogram = registry.histogram("admission_latency_seconds")
    for _ in range(rng.randrange(10, 50)):
        histogram.observe(10 ** rng.uniform(-5, 0))
    retries = registry.histogram("retry_attempts", buckets=DEFAULT_RETRY_BUCKETS)
    for _ in range(rng.randrange(5, 20)):
        retries.observe(rng.randrange(1, 5))
    registry.counter("setups_total").inc(rng.randrange(1, 100))
    if gauge_value is not None:
        registry.gauge("occupancy").set(gauge_value)
    return registry


def additive_state(registry):
    """The registry's state minus gauges (whose merge is last-writer-wins
    by design, hence order-sensitive and excluded from the associativity
    and commutativity claims)."""
    return {
        name: payload
        for name, payload in registry.state().items()
        if payload["kind"] != "gauge"
    }


def assert_states_equal(a, b):
    """State equality with float-sum tolerance: histogram ``sum`` (and
    counter values) are float folds, and float addition regroups with
    rounding in the last ulp — the *integer* bucket counts are the part
    that must match bit-for-bit."""
    assert a.keys() == b.keys()
    for name in a:
        mine, theirs = dict(a[name]), dict(b[name])
        if mine["kind"] == "histogram":
            assert mine.pop("sum") == pytest.approx(theirs.pop("sum"))
        else:
            assert mine.pop("value") == pytest.approx(theirs.pop("value"))
        assert mine == theirs, name


class TestMergeAlgebra:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_merge_is_associative(self, seed):
        rng = random.Random(seed)
        parts = [random_registry(rng, gauge_value=i) for i in range(3)]

        left = merge_registries([parts[0], parts[1]]).merge(parts[2])
        right = MetricsRegistry.from_state(parts[0].state()).merge(
            merge_registries([parts[1], parts[2]])
        )
        flat = merge_registries(parts)
        assert_states_equal(left.state(), right.state())
        assert_states_equal(left.state(), flat.state())

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_additive_instruments_commute(self, seed):
        rng = random.Random(seed)
        parts = [random_registry(rng) for _ in range(3)]
        forward = merge_registries(parts)
        backward = merge_registries(list(reversed(parts)))
        assert_states_equal(
            additive_state(forward), additive_state(backward)
        )

    def test_merge_leaves_sources_intact_and_adopts_unknown(self):
        a = MetricsRegistry()
        a.counter("only_in_a").inc(5)
        b = MetricsRegistry()
        b.counter("only_in_b").inc(7)
        merged = merge_registries([a, b])
        assert merged.get("only_in_a").value == 5
        assert merged.get("only_in_b").value == 7
        assert a.get("only_in_b") is None  # sources untouched
        assert b.get("only_in_a") is None

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))
        # Omitting buckets accepts the existing registration.
        assert registry.histogram("h").buckets == (1.0, 2.0)

    def test_merge_counters_is_plain_keywise_addition(self):
        snapshots = [{"a": 1, "b": 2}, {"b": 3, "c": 4}, {}]
        merged = merge_counters(snapshots)
        assert merged == {"a": 1, "b": 5, "c": 4}
        backward = merge_counters(list(reversed(snapshots)))
        assert merged == backward

    def test_state_round_trip_freezes_callback_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("live").set_function(lambda: 0.75)
        copy = MetricsRegistry.from_state(registry.state())
        assert copy.get("live").value == 0.75
        # The copy is a frozen reading, not a live callback.
        assert copy.state()["live"]["value"] == 0.75


# ------------------------------------------------------ exposition parsing --


class TestExpositionRoundTrip:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_registry_render_round_trips(self, seed):
        rng = random.Random(seed)
        registry = random_registry(rng, gauge_value=rng.random())
        types, samples = parse_exposition(registry.render())

        for inst in registry.instruments():
            full = f"colibri_{inst.name}"
            assert types[full] == inst.kind
        histogram = registry.get("admission_latency_seconds")
        base = "colibri_admission_latency_seconds"
        cumulative = histogram.cumulative_counts()
        for bound, expected in zip(
            list(histogram.buckets) + [math.inf], cumulative
        ):
            label = (
                f'le="{int(bound)}"'
                if bound != math.inf and bound == int(bound)
                else ('le="+Inf"' if bound == math.inf else f'le="{bound!r}"')
            )
            assert samples[(f"{base}_bucket", label)] == expected
        assert samples[(f"{base}_count", "")] == histogram.count
        assert samples[(f"{base}_sum", "")] == pytest.approx(histogram.sum)
        assert samples[("colibri_setups_total", "")] == registry.get(
            "setups_total"
        ).value
        assert samples[("colibri_occupancy", "")] == pytest.approx(
            registry.get("occupancy").value
        )

    def test_combined_telemetry_and_registry_exposition(self):
        registry = MetricsRegistry()
        registry.histogram("retry_attempts", buckets=DEFAULT_RETRY_BUCKETS).observe(2)
        registry.gauge("occupancy").set(0.5)
        telemetry = {
            "1-ff00:0:1": {"segments": 2, "eers": 1},
            "total": {"segments": 2, "eers": 1},
        }
        registry.family_source(lambda: telemetry, {"eers": "EERs stored"})
        text = registry.render()
        types, samples = parse_exposition(text)
        assert samples[("colibri_segments", 'isd_as="1-ff00:0:1"')] == 2
        assert samples[("colibri_segments", "")] == 2
        assert samples[("colibri_retry_attempts_bucket", 'le="2"')] == 1
        assert samples[("colibri_retry_attempts_bucket", 'le="+Inf"')] == 1
        assert samples[("colibri_occupancy", "")] == 0.5
        assert types["colibri_retry_attempts"] == "histogram"
        assert types["colibri_segments"] == "gauge"
        assert "# HELP colibri_eers EERs stored\n" in text
        # The snapshot's totals are what state() — and the SLO engine — sees.
        assert registry.state()["segments"] == {
            "kind": "gauge",
            "help": "Colibri counter segments",
            "value": 2.0,
        }
        # An instrument and a source may not both claim one family.
        registry.gauge("eers")
        with pytest.raises(ValueError, match="exported twice"):
            registry.render()

    @pytest.mark.parametrize(
        "build", [build_two_isd_topology, lambda: build_line_topology(4)]
    )
    def test_live_scrape_is_one_walk_and_parses_whole(self, build, monkeypatch):
        """One ``state()`` (what every ``AlertEngine.tick()`` takes) and
        one scrape each walk the network's telemetry exactly once,
        whatever the AS count; the whole scrape is grammar-clean with
        every family declared once."""
        walks = []
        telemetry = ColibriNetwork.telemetry
        monkeypatch.setattr(
            ColibriNetwork,
            "telemetry",
            lambda self: walks.append(1) or telemetry(self),
        )
        net = ColibriNetwork(build())
        obs = net.enable_observability(journal=True)
        ases = sorted(net.ases(), key=str)
        net.reserve_segments(ases[0], ases[-1], gbps(1))
        net.send(ases[0], net.establish_eer(ases[0], ases[-1], mbps(10)), b"x")
        del walks[:]
        state = obs.metrics.state()
        assert len(walks) == 1
        text = obs.metrics.render()
        assert len(walks) == 2
        types, samples = parse_exposition(text)
        total = net.telemetry()["total"]
        for name, value in total.items():
            assert types[f"colibri_{name}"] == "gauge"
            assert samples[(f"colibri_{name}", "")] == value == state[name]["value"]
        assert samples[("colibri_eers", f'isd_as="{ases[0]}"')] == 1
        assert types["colibri_admission_latency_seconds"] == "histogram"
        assert ("colibri_events_total", "") in samples

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("colibri_x 1")  # missing trailing newline
        with pytest.raises(ValueError):
            parse_exposition("# TYPE colibri_x summary\n")
        with pytest.raises(ValueError):
            parse_exposition("colibri x 1\n")
        with pytest.raises(ValueError):
            parse_exposition("colibri_x 1\ncolibri_x 2\n")


# ------------------------------------------------------------- profiling --


class TestProfiler:
    def test_disabled_decorator_is_a_plain_call(self):
        calls = []

        @profiled("site")
        def work(x):
            calls.append(x)
            return x + 1

        assert active_profiler() is None
        assert work(1) == 2
        assert calls == [1]
        assert work.__profiled_name__ == "site"

    def test_enabled_decorator_accumulates_deterministic_timings(self):
        clock = SimClock(start=0.0)

        @profiled("site")
        def work(seconds):
            clock.advance(seconds)
            return seconds

        with profiling(Profiler(clock=clock)) as profiler:
            work(0.25)
            work(0.75)
        entry = profiler.entry("site")
        assert entry.calls == 2
        assert entry.total == pytest.approx(1.0)
        assert entry.min == pytest.approx(0.25)
        assert entry.max == pytest.approx(0.75)
        snapshot = profiler.snapshot()
        assert snapshot["site"]["mean_seconds"] == pytest.approx(0.5)
        # The context manager uninstalled the profiler on exit.
        assert active_profiler() is None
        assert work(0.5) == 0.5  # disabled again, still callable

    def test_double_install_rejected(self):
        from repro.obs.profile import install_profiler, uninstall_profiler

        profiler = install_profiler()
        try:
            with pytest.raises(RuntimeError):
                install_profiler()
        finally:
            assert uninstall_profiler() is profiler
        assert uninstall_profiler() is None

    def test_errors_are_still_timed(self):
        clock = SimClock(start=0.0)

        @profiled("site")
        def explode():
            clock.advance(1.0)
            raise RuntimeError("boom")

        with profiling(Profiler(clock=clock)) as profiler:
            with pytest.raises(RuntimeError):
                explode()
        assert profiler.entry("site").calls == 1
        assert profiler.entry("site").total == pytest.approx(1.0)
