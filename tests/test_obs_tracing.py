"""The trace harness: span trees, propagation, and forensic identity.

Everything here is deterministic — spans are timed by the simulation
clock and span/trace IDs come from the collector's seeded RNG — so the
tests can assert *exact* span trees and byte-for-byte export equality,
the property that makes traces diffable artifacts rather than logs.

Covers the ISSUE checklist:

* the exact span tree of one EER setup on a known topology;
* every started span is closed, including under injected faults;
* trace IDs survive retries (failed attempts are sibling spans of the
  successful one, under the same logical-call parent), and a
  ``bus.call`` span parents the handler's spans through the span stack;
* circuit-breaker transitions are ``BreakerTransition`` journal events
  (state changes live in the journal only, never as pseudo-spans);
* the forensic identity rule over ``VerdictDropped`` events:
  pre-authentication drops carry claimed (not proven) identity and never
  pollute the victim's authenticated record.
"""

import copy
import json

import pytest

from repro.control.retry import RetryingCaller
from repro.control.rpc import FaultInjector, LinkFaults, MessageBus, Unreachable
from repro.errors import CircuitOpen, RetriesExhausted, TransportError
from repro.obs import ObsContext
from repro.obs.events import BREAKER_TRANSITION, VERDICT_DROPPED
from repro.obs.trace import (
    STATUS_ERROR,
    STATUS_OK,
    TraceCollector,
    traced,
)
from repro.packets.fields import Timestamp
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_line_topology, build_two_isd_topology
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)


# ------------------------------------------------------------- collector --


class TestTraceCollector:
    def make(self, seed=0):
        clock = SimClock(start=100.0)
        return clock, TraceCollector(clock, seed=seed)

    def test_nesting_assigns_parent_and_trace(self):
        clock, tracer = self.make()
        root = tracer.start("outer")
        clock.advance(1.0)
        child = tracer.start("inner")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        tracer.finish(child)
        tracer.finish(root)
        assert root.duration == pytest.approx(1.0)
        assert tracer.open_spans() == []

    def test_siblings_share_trace_separate_roots_do_not(self):
        _, tracer = self.make()
        root = tracer.start("outer")
        a = tracer.start("a")
        tracer.finish(a)
        b = tracer.start("b")
        tracer.finish(b)
        tracer.finish(root)
        other = tracer.start("outer")
        tracer.finish(other)
        assert a.trace_id == b.trace_id == root.trace_id
        assert a.parent_id == b.parent_id == root.span_id
        assert other.trace_id != root.trace_id
        assert len({span.trace_id for span in tracer.spans()}) == 2

    def test_context_manager_records_errors_and_reraises(self):
        _, tracer = self.make()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans(name="doomed")
        assert span.status == STATUS_ERROR
        assert span.attributes["error"] == "ValueError"
        assert span.closed
        assert tracer.open_spans() == []

    def test_capacity_overflow_counts_drops(self):
        clock = SimClock(start=0.0)
        tracer = TraceCollector(clock, capacity=2)
        a = tracer.start("a")
        b = tracer.start("b")
        c = tracer.start("c")  # over capacity
        assert c is None
        assert tracer.dropped_spans == 1
        tracer.finish(c)  # no-op, must not raise
        tracer.finish(b)
        tracer.finish(a)
        assert len(tracer) == 2

    def test_export_jsonl_is_seed_deterministic(self):
        def run(seed):
            clock, tracer = self.make(seed=seed)
            with tracer.span("outer", key="v"):
                clock.advance(2.0)
                with tracer.span("inner"):
                    clock.advance(1.0)
            return tracer.export_jsonl()

        assert run(5) == run(5)
        assert run(5) != run(6)
        for line in run(5).splitlines():
            record = json.loads(line)
            assert set(record) >= {"trace_id", "span_id", "name", "start"}


class TestTracedDecorator:
    class Admitter:
        def __init__(self, obs):
            self.obs = obs

        @traced("admit", attrs=lambda self, value: {"value": value})
        def admit(self, value):
            if value < 0:
                raise ValueError("negative")
            return value * 2

    def test_plain_call_without_obs(self):
        target = self.Admitter(obs=None)
        assert target.admit(3) == 6

    def test_span_with_attributes_and_error_status(self):
        clock = SimClock(start=0.0)
        obs = ObsContext.create(clock)
        target = self.Admitter(obs)
        assert target.admit(3) == 6
        with pytest.raises(ValueError):
            target.admit(-1)
        ok, failed = obs.tracer.spans(name="admit")
        assert ok.status == STATUS_OK and ok.attributes["value"] == 3
        assert failed.status == STATUS_ERROR
        assert failed.attributes["error"] == "ValueError"


# ------------------------------------- span parentage across bus calls --


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


# ------------------------------------------------- the exact EER span tree --


def shape(tracer, span):
    """``(name, [child shapes...])`` — the tree with IDs erased."""
    return (span.name, [shape(tracer, child) for child in tracer.children(span)])


def line_net(seed=11):
    net = ColibriNetwork(build_line_topology(4))
    obs = net.enable_observability(seed=seed)
    ases = sorted(net.ases(), key=str)
    return net, obs, ases


class TestEerSetupSpanTree:
    def expected_tree(self, hops):
        """One EER setup: each hop's admission runs inside the previous
        hop's bus call — strictly nested, one retry/bus pair per hop."""
        inner = ("admission.eer_setup", [])
        for _ in range(hops - 1):
            inner = (
                "admission.eer_setup",
                [("retry.call", [("bus.call", [inner])])],
            )
        return ("eer.setup", [("dissemination.fetch", []), inner])

    def test_exact_span_tree(self):
        net, obs, ases = line_net()
        net.reserve_segments(ases[0], ases[-1], gbps(1))
        obs.tracer.clear()
        net.establish_eer(ases[0], ases[-1], mbps(10))
        (root,) = obs.tracer.roots()
        assert shape(obs.tracer, root) == self.expected_tree(hops=4)
        # Admissions run in path order, hop indices 0..3.
        admissions = obs.tracer.spans(name="admission.eer_setup")
        assert [s.attributes["hop"] for s in admissions] == [0, 1, 2, 3]
        assert [s.attributes["isd_as"] for s in admissions] == [
            str(isd_as) for isd_as in ases
        ]
        assert all(s.status == STATUS_OK for s in admissions)
        # One trace, fully closed.
        assert {s.trace_id for s in obs.tracer.spans()} == {root.trace_id}
        assert obs.tracer.open_spans() == []

    def test_exact_packet_tree(self):
        net, obs, ases = line_net()
        net.reserve_segments(ases[0], ases[-1], gbps(1))
        handle = net.establish_eer(ases[0], ases[-1], mbps(10))
        obs.tracer.clear()
        report = net.send(ases[0], handle, b"payload")
        assert report.delivered
        (root,) = obs.tracer.roots()
        assert shape(obs.tracer, root) == (
            "packet.send",
            [("gateway.stamp", [])] + [("router.hop", [])] * 4,
        )
        assert root.attributes["delivered"] is True
        hops = obs.tracer.spans(name="router.hop")
        assert [s.attributes["verdict"] for s in hops] == [
            "forward", "forward", "forward", "deliver_host",
        ]

    def test_repeated_seeded_runs_export_identical_bytes(self):
        def run():
            net, obs, ases = line_net(seed=11)
            net.reserve_segments(ases[0], ases[-1], gbps(1))
            handle = net.establish_eer(ases[0], ases[-1], mbps(10))
            net.send(ases[0], handle, b"payload")
            return obs.tracer.export_jsonl()

        first, second = run(), run()
        assert first == second
        assert first.endswith("\n")


# --------------------------------------------- propagation under injected loss --


def lossy_network(faults=None):
    net = ColibriNetwork(build_two_isd_topology(), faults=faults)
    for isd_as in net.ases():
        net.cserv(isd_as).request_limiter.rate = 1e9
        net.cserv(isd_as).request_limiter.burst = 1e9
    return net


class TestTracePropagationUnderFaults:
    LOSS = LinkFaults(request_loss=0.12, response_loss=0.08)

    def run_lossy(self, seed=2024, setups=25):
        injector = FaultInjector(seed=seed)
        injector.set_default(self.LOSS)
        net = lossy_network()
        obs = net.enable_observability(seed=seed)
        net.reserve_segments(SRC, DST, gbps(1))
        net.bus.faults = injector
        for _ in range(setups):
            try:
                net.establish_eer(SRC, DST, mbps(1))
            except Unreachable:
                pass  # an aborted setup must still close its spans
        assert injector.injected["request_loss"] > 0
        return net, obs

    def test_every_started_span_is_closed(self):
        _, obs = self.run_lossy()
        assert obs.tracer.open_spans() == []
        assert all(span.closed for span in obs.tracer.spans())

    def test_trace_ids_survive_retries(self):
        _, obs = self.run_lossy()
        retried = [
            s for s in obs.tracer.spans(name="retry.call")
            if s.attributes.get("attempts", 0) > 1
        ]
        assert retried, "the loss plan produced no retries"
        saw_failed_attempt = False
        for logical_call in retried:
            attempts = obs.tracer.children(logical_call)
            assert len(attempts) == logical_call.attributes["attempts"]
            # Every attempt — failed or successful — is a sibling span
            # inside the same trace as the logical call.
            assert {a.trace_id for a in attempts} == {logical_call.trace_id}
            assert {a.parent_id for a in attempts} == {logical_call.span_id}
            saw_failed_attempt |= any(
                a.status == STATUS_ERROR for a in attempts
            )
        assert saw_failed_attempt
        # Spans never leak across traces: each root's subtree is closed
        # under its own trace id.
        for root in obs.tracer.roots():
            subtree = obs.tracer.spans(trace_id=root.trace_id)
            assert all(s.trace_id == root.trace_id for s in subtree)

    def test_retry_histogram_matches_spans(self):
        _, obs = self.run_lossy()
        histogram = obs.metrics.get("retry_attempts")
        spans = obs.tracer.spans(name="retry.call")
        assert histogram.count == len(spans)
        assert histogram.sum == sum(s.attributes["attempts"] for s in spans)


class TestBreakerTransitionEvents:
    class _FlakyBus:
        def __init__(self, script):
            self.script = list(script)

        def call(self, isd_as, method, *args, caller=None, timeout=None, **kwargs):
            outcome = self.script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

    def test_transitions_traced_through_breaker_cycle(self):
        clock = SimClock(start=0.0)
        obs = ObsContext.create(clock, journal=True)
        # All four attempts of the first logical call fail; the fourth
        # failure trips the breaker exactly as the retry budget runs out,
        # so the caller reports RetriesExhausted and leaves the circuit
        # open for the next call.
        bus = self._FlakyBus([Unreachable("x")] * 4 + ["ok", "ok"])
        caller = RetryingCaller(
            bus, clock, SRC, sleeper=clock.advance,
            failure_threshold=4, reset_timeout=30.0,
        )
        caller.obs = obs
        with pytest.raises(RetriesExhausted):
            caller.call(DST, "handle_seg_setup")
        with pytest.raises(CircuitOpen):
            caller.call(DST, "handle_seg_setup")
        clock.advance(31.0)  # past reset_timeout: next call probes
        assert caller.call(DST, "handle_seg_setup") == "ok"
        events = obs.journal.query(BREAKER_TRANSITION)
        assert [(e.attrs["old"], e.attrs["new"]) for e in events] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert {(e.attrs["isd_as"], e.attrs["dest"]) for e in events} == {
            (str(SRC), str(DST))
        }
        # One fact, one record: the flips are not spans as well.
        assert {s.name for s in obs.tracer.spans()} == {"retry.call"}
        assert obs.tracer.open_spans() == []


# ---------------------------------- forensic identity (journal regression) --


class TestPacketTracerIdentity:
    """Drops are journal queries: every ``VerdictDropped`` event names
    the reservation the header *claimed*; ``identity_verified`` says
    whether the router had authenticated it before the verdict."""

    def make_traced_net(self):
        net = ColibriNetwork(build_two_isd_topology())
        obs = net.enable_observability(journal=True)
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        return net, obs.journal, handle

    @staticmethod
    def drops(journal, handle, include_claimed=False):
        return [
            event
            for event in journal.query(
                VERDICT_DROPPED, reservation=str(handle.reservation_id)
            )
            if include_claimed or event.attrs["identity_verified"]
        ]

    def forge_naming_victim(self, net, report):
        """A forged copy of a delivered packet: fresh timestamp, stale
        HVFs — an attacker replaying header bytes that name the victim's
        reservation but cannot be authenticated."""
        net.clock.advance(0.001)  # a fresh instant -> a fresh, unseen Ts
        forged = copy.deepcopy(report.packet)
        forged.hop_index = 0
        forged.timestamp = Timestamp.create(
            net.clock.now(), forged.res_info.expiry
        )
        return forged

    def test_forged_drop_not_attributed_to_victim(self):
        net, journal, handle = self.make_traced_net()
        report = net.send(SRC, handle, b"legit")
        assert report.delivered
        forged_report = net.forward(self.forge_naming_victim(net, report))
        assert not forged_report.delivered
        assert forged_report.verdicts[-1][1].value == "drop_bad_hvf"
        # The victim's authenticated record is unchanged: the forgery's
        # claimed identity does not appear in it...
        assert self.drops(journal, handle) == []
        # ...but remains reachable as an explicit claimed-identity view.
        (drop,) = self.drops(journal, handle, include_claimed=True)
        assert drop.attrs["verdict"] == "drop_bad_hvf"
        assert drop.attrs["identity_verified"] is False
        assert drop.attrs["isd_as"] == str(forged_report.dropped_at)

    def test_authenticated_drops_still_attributed(self):
        net, journal, handle = self.make_traced_net()
        victim_hop = handle.hops[3].isd_as
        net.router(victim_hop).blocklist.block(SRC)
        # Blocklist drops are pre-authentication too: the claimed view
        # shows them, the authenticated view does not.
        net.send(SRC, handle, b"will die")
        (blocked,) = self.drops(journal, handle, include_claimed=True)
        assert blocked.attrs["verdict"] == "drop_blocked"
        assert self.drops(journal, handle) == []
        # Post-authentication drops (duplicate) keep proven identity.
        report = net.send(SRC, handle, b"fresh")
        net.router(victim_hop).blocklist._blocked.discard(SRC)
        replay = copy.deepcopy(report.packet)
        replay.hop_index = 0
        net.forward(replay)
        assert [e.attrs["verdict"] for e in self.drops(journal, handle)] == [
            "drop_duplicate"
        ]
