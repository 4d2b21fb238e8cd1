"""Cross-process observability tests (ISSUE 10).

Covers the two halves of :mod:`repro.obs.distributed` plus the code
that threads them through both planes:

* the merge is invariant under the order its inputs arrive in;
* span parentage across retried bus calls (the collector's span stack)
  and trace-context propagation into shard worker processes,
  asserting the exact stitched span tree and byte-identical merged
  artifacts across same-seed runs;
* the wire path under ``profiling()``: verdict/byte equivalence with
  the unprofiled run, and the plan / stamp / emit sites it records.
"""

import json
import random

from repro.control.retry import RetryingCaller
from repro.control.rpc import MessageBus
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane import ColibriKeys, hop_authenticator
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.router import BorderRouter
from repro.dataplane.shards import ShardExecutor
from repro.errors import TransportError
from repro.obs import ObsContext
from repro.obs.distributed import TraceContext, merge_traces
from repro.obs.events import SHARD_COMPLETED, EventJournal, merge_events
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.obs.profile import profiling
from repro.obs.trace import TraceCollector, render_span_forest, spans_jsonl
from repro.packets.colibri import ColibriPacket
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.packets.wire import PacketArena
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps
from repro.constants import EER_LIFETIME, L_HVF

SRC = IsdAs.parse("1-ff00:0:110")
MID = IsdAs.parse("1-ff00:0:111")
DST = IsdAs.parse("1-ff00:0:112")

PATH = PathField(((0, 1), (2, 3), (4, 0)))
EER = EerInfo(HostAddr(1), HostAddr(2))


# -- trace context -------------------------------------------------------------


class TestTraceContext:
    def test_from_span_names_the_span_as_parent(self):
        tracer = TraceCollector(SimClock(0.0), seed=5)
        span = tracer.start("root")
        ctx = TraceContext.from_span(span)
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id


# -- deterministic merge -------------------------------------------------------


class TestMergeDeterminism:
    def test_merge_events_is_stream_order_invariant(self):
        streams = []
        for worker_id in range(4):
            clock = SimClock(1000.0 + worker_id)
            journal = EventJournal(clock)
            for index in range(5):
                journal.record(
                    SHARD_COMPLETED,
                    component="router",
                    shard_index=worker_id,
                    packets=index,
                )
                clock.advance(0.5)
            streams.append(journal.events())
        baseline = merge_events(*streams)
        for seed in range(20):
            order = list(range(len(streams)))
            random.Random(seed).shuffle(order)
            permuted = merge_events(*(streams[i] for i in order))
            assert [e.identity() for e in permuted] == [
                e.identity() for e in baseline
            ]

    def test_merge_registries_is_order_invariant(self):
        registries = []
        for worker_id in range(4):
            registry = MetricsRegistry()
            registry.counter("shard_packets_total").inc(worker_id * 10)
            registry.histogram(
                "shard_loop_packets", buckets=(10.0, 100.0)
            ).observe(worker_id * 7.0)
            registries.append(registry)
        baseline = json.dumps(
            merge_registries(registries).state(), sort_keys=True
        )
        for seed in range(20):
            order = list(registries)
            random.Random(seed).shuffle(order)
            assert (
                json.dumps(merge_registries(order).state(), sort_keys=True)
                == baseline
            )


# -- span parentage across retried bus calls -----------------------------------


class Flaky:
    """Fails with a retriable transport error on the first attempt."""

    def __init__(self):
        self.calls = 0

    def ping(self):
        self.calls += 1
        if self.calls == 1:
            raise TransportError("first attempt drops")
        return "pong"


class Nested:
    """A service whose handler opens a span of its own."""

    def __init__(self, tracer):
        self.tracer = tracer

    def ping(self):
        with self.tracer.span("handler.work"):
            return "pong"


class TestRpcPropagation:
    def test_bus_call_frames_a_context_from_its_span(self):
        bus = MessageBus()
        bus.tracer = TraceCollector(SimClock(0.0), seed=1)
        bus.register(SRC, Nested(bus.tracer))
        assert bus.call(SRC, "ping", caller=DST) == "pong"
        (call,) = bus.tracer.spans(name="bus.call")
        (work,) = bus.tracer.spans(name="handler.work")
        # The open bus.call span is the handler's context: nothing is
        # passed, the collector's span stack parents the handler's span.
        assert (work.trace_id, work.parent_id) == (call.trace_id, call.span_id)
        assert call.attributes == {
            "method": "ping", "dest": str(SRC), "caller": str(DST),
        }
        # Outside the call the stack is empty again.
        assert bus.tracer.open_spans() == []
        assert bus.tracer.start("next").parent_id is None

    def test_untraced_call_frames_nothing(self):
        tracer = TraceCollector(SimClock(0.0), seed=1)
        bus = MessageBus()  # no tracer armed
        bus.register(SRC, Nested(tracer))
        assert bus.call(SRC, "ping") == "pong"
        # The bus recorded nothing and gave the handler no parent.
        (work,) = tracer.spans()
        assert work.name == "handler.work" and work.parent_id is None

    def test_retry_attempts_share_one_logical_context(self):
        clock = SimClock(0.0)
        bus = MessageBus()
        service = Flaky()
        bus.register(SRC, service)
        caller = RetryingCaller(bus, clock, DST)
        caller.obs = ObsContext.create(clock, seed=2)
        bus.tracer = caller.obs.tracer
        assert caller.call(SRC, "ping") == "pong"
        assert service.calls == 2
        (retry_span,) = caller.obs.tracer.spans(name="retry.call")
        # Both bus.call attempt spans are children of the one retry span,
        # in its trace: the span stack is the only propagation there is.
        attempts = caller.obs.tracer.spans(name="bus.call")
        assert len(attempts) == 2
        assert {span.parent_id for span in attempts} == {retry_span.span_id}
        assert {span.trace_id for span in attempts} == {retry_span.trace_id}
        assert [span.status for span in attempts] == ["error", "ok"]


# -- the stitched shard tree ---------------------------------------------------


def sharded_run(seed: int):
    """A fig6-style sharded run under a parent trace."""
    tracer = TraceCollector(SimClock(0.0), seed=seed)
    root = tracer.start("fig6.sharded_run")
    ctx = TraceContext.from_span(root)
    executor = ShardExecutor(
        "router", reservations=64, packets=256, batch=64,
        obs_seed=seed, trace=ctx,
    )
    result = executor.run(2)
    tracer.finish(root)
    return tracer, result


class TestStitchedShardTree:
    def test_exact_cross_process_tree(self):
        tracer, result = sharded_run(seed=2026)
        merged = result.merged_telemetry()
        assert merged is not None
        (root,) = tracer.spans(name="fig6.sharded_run")
        assert sorted(merged.spans) == [0, 1]
        for worker_id in (0, 1):
            spans = {span.name: span for span in merged.spans[worker_id]}
            run, loop = spans["shard.run"], spans["shard.loop"]
            # One trace spanning the parent and both worker processes,
            # with exact parentage.
            assert run.trace_id == root.trace_id
            assert run.parent_id == root.span_id
            assert run.attributes == {"component": "router", "shard": worker_id}
            assert loop.trace_id == root.trace_id
            assert loop.parent_id == run.span_id
            assert loop.attributes == {"packets": 256}
        forest = render_span_forest(
            merge_traces(tracer.spans(), merged.spans)
        )
        assert forest == "\n".join(
            [
                "    0.000ms . fig6.sharded_run",
                "    0.000ms .   shard.run [component=router shard=0]",
                "    0.000ms .     shard.loop [packets=256]",
                "    0.000ms .   shard.run [component=router shard=1]",
                "    0.000ms .     shard.loop [packets=256]",
            ]
        )

    def test_same_seed_runs_are_byte_identical(self):
        tracer_a, result_a = sharded_run(seed=7)
        tracer_b, result_b = sharded_run(seed=7)
        merged_a = result_a.merged_telemetry()
        merged_b = result_b.merged_telemetry()
        assert spans_jsonl(
            merge_traces(tracer_a.spans(), merged_a.spans)
        ) == spans_jsonl(merge_traces(tracer_b.spans(), merged_b.spans))
        assert merged_a.events_jsonl() == merged_b.events_jsonl()
        assert json.dumps(
            merged_a.registry.state(), sort_keys=True
        ) == json.dumps(merged_b.registry.state(), sort_keys=True)

    def test_obs_free_run_ships_no_frames(self):
        executor = ShardExecutor(
            "router", reservations=64, packets=256, batch=64
        )
        result = executor.run(2)
        assert all(outcome.capture is None for outcome in result.shards)
        assert result.merged_telemetry() is None


# -- profiled wire-path equivalence --------------------------------------------


def wire_stack():
    """A source gateway + middle router pair."""
    clock = SimClock(1000.0)
    mid_keys = ColibriKeys(DrkeyDeriver(MID, clock, seed=b"mid" * 6))
    gateway = ColibriGateway(SRC, clock)
    router = BorderRouter(MID, mid_keys, clock)
    now = clock.now()
    res_id = ReservationId(SRC, 5)
    res_info = ResInfo(
        reservation=res_id, bandwidth=gbps(1), expiry=now + EER_LIFETIME,
        version=1,
    )
    sigma_mid = hop_authenticator(mid_keys.hop_key(now), res_info, EER, 2, 3)
    gateway.install(
        res_id, PATH, EER, res_info, (b"x" * 16, sigma_mid, b"y" * 16)
    )
    return clock, gateway, router, res_id


def wire_run(bursts=8, batch=8):
    """Bytes + verdicts of a wire workload."""
    clock, gateway, router, res_id = wire_stack()
    arena = PacketArena(slots=batch, slot_size=2048)
    rng = random.Random(11)
    all_bytes = []
    all_verdicts = []
    for burst in range(bursts):
        requests = [
            (res_id, b"z" * rng.randrange(16, 64)) for _ in range(batch)
        ]
        views = gateway.send_batch_wire(requests, arena)
        for view in views:
            all_bytes.append(view.materialize())
            view.advance_hop()
        if burst == bursts - 1:
            # Corrupt one HVF so the verdict set includes a False.
            view = views[0]
            offsets = ColibriPacket.wire_offsets(view.hop_count, True)
            at = view.offset + offsets.hvf + view.hop_index * L_HVF
            arena.buffer[at] ^= 0xFF
        all_verdicts.extend(router.validate_wire_batch(views))
        clock.advance(1e-6)
    return all_bytes, all_verdicts


class TestProfiledWireEquivalence:
    def test_profiled_bytes_and_verdicts_identical(self):
        plain_bytes, plain_verdicts = wire_run()
        with profiling():
            profiled_bytes, profiled_verdicts = wire_run()
        assert profiled_bytes == plain_bytes
        assert profiled_verdicts == plain_verdicts
        assert False in plain_verdicts and True in plain_verdicts

    def test_profiler_records_plan_stamp_emit(self):
        with profiling() as profiler:
            wire_run(bursts=8)
        snapshot = profiler.snapshot()
        # One call per burst at each stage of the one burst pipeline,
        # and one per burst at the router's wire validation.
        for site in (
            "gateway.plan",
            "gateway.stamp",
            "gateway.emit_wire",
            "router.validate_wire_batch",
        ):
            assert snapshot[site]["calls"] == 8, site
        assert "gateway.emit_packets" not in snapshot
