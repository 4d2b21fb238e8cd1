"""Fault-injection suite: the §3.3 cleanup invariant under injected loss.

Everything here is deterministic: loss patterns come from a seeded
:class:`FaultInjector`, backoff jitter from per-AS seeded RNGs, and time
from the simulation clock — re-running any test replays the exact same
failure trace.

The headline property (§3.3): under per-link call loss, every setup
either *converges* through retries or *aborts* leaving exact-zero
residual EER allocations in every on-path reservation store.
"""

import random

import pytest

from repro.constants import EER_LIFETIME
from repro.control.auth import AuthenticatedRequest
from repro.control.distributed import DistributedCServ
from repro.control.renewal import RenewalScheduler
from repro.control.retry import (
    CLEANUP_POLICY,
    CircuitBreaker,
    PolicyTable,
    RetryingCaller,
    RetryPolicy,
)
from repro.control.rpc import FaultInjector, LinkFaults, MessageBus, Unreachable
from repro.crypto.aead import aead_open
from repro.errors import (
    AdmissionDenied,
    CallTimeout,
    CircuitOpen,
    RetriesExhausted,
)
from repro.packets.control import EerSetupRequest
from repro.packets.fields import ResInfo
from repro.reservation.ids import ReservationId
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.topology.addresses import HostAddr
from repro.util.clock import SimClock
from repro.util.units import gbps, kbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)
#: The SRC -> DST path in the two-ISD topology (up + core + down).
PATH = [SRC, asid(1, 11), asid(1, 1), asid(2, 1), asid(2, 11), DST]


def lossy_network(faults=None):
    net = ColibriNetwork(build_two_isd_topology(), faults=faults)
    # Generous front door: these tests measure transport convergence,
    # not the §5.3 rate limiter.
    for isd_as in net.ases():
        net.cserv(isd_as).request_limiter.rate = 1e9
        net.cserv(isd_as).request_limiter.burst = 1e9
    return net


def allocation_snapshot(net):
    """allocated_on_segment for every (AS, SegR) pair in the network."""
    snapshot = {}
    for isd_as in net.ases():
        store = net.cserv(isd_as).store
        for segr in store.segments():
            snapshot[(isd_as, segr.reservation_id)] = store.allocated_on_segment(
                segr.reservation_id
            )
    return snapshot


# ---------------------------------------------------------------- injector --


class TestLinkFaults:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            LinkFaults(request_loss=1.5)
        with pytest.raises(ValueError):
            LinkFaults(response_loss=-0.1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkFaults(latency=-1.0)


class TestFaultInjector:
    def test_lookup_most_specific_first(self):
        injector = FaultInjector(seed=7)
        exact = LinkFaults(request_loss=0.1)
        to_dest = LinkFaults(request_loss=0.2)
        from_caller = LinkFaults(request_loss=0.3)
        fallback = LinkFaults(request_loss=0.4)
        injector.set_link(SRC, DST, exact)
        injector.set_link(None, DST, to_dest)
        injector.set_link(SRC, None, from_caller)
        injector.set_default(fallback)
        assert injector.faults_for(SRC, DST) is exact
        assert injector.faults_for(asid(1, 1), DST) is to_dest
        assert injector.faults_for(SRC, asid(1, 1)) is from_caller
        assert injector.faults_for(asid(1, 1), asid(2, 1)) is fallback

    def test_flap_window(self):
        injector = FaultInjector()
        injector.flap(DST, start_call=5, duration_calls=3)
        assert not injector.is_flapping(DST, 4)
        assert injector.is_flapping(DST, 5)
        assert injector.is_flapping(DST, 7)
        assert not injector.is_flapping(DST, 8)
        assert not injector.is_flapping(SRC, 6)

    def test_draw_deterministic_per_seed(self):
        a = FaultInjector(seed=42)
        b = FaultInjector(seed=42)
        draws_a = [a.draw(0.5) for _ in range(64)]
        draws_b = [b.draw(0.5) for _ in range(64)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_zero_probability_consumes_no_randomness(self):
        injector = FaultInjector(seed=3)
        for _ in range(10):
            assert not injector.draw(0.0)
        # The RNG stream is untouched: the next underlying sample is
        # still the seed's very first one.
        assert injector._rng.random() == random.Random(3).random()


class _Echo:
    """Minimal bus service for transport-level tests."""

    def __init__(self):
        self.handled = 0

    def ping(self):
        self.handled += 1
        return "pong"


class TestBusInjection:
    def setup_method(self):
        self.injector = FaultInjector(seed=0)
        self.bus = MessageBus(faults=self.injector)
        self.service = _Echo()
        self.bus.register(DST, self.service)

    def test_request_loss_skips_handler(self):
        self.injector.set_link(SRC, DST, LinkFaults(request_loss=1.0))
        with pytest.raises(Unreachable):
            self.bus.call(DST, "ping", caller=SRC)
        assert self.service.handled == 0
        assert self.injector.injected["request_loss"] == 1

    def test_response_loss_runs_handler(self):
        self.injector.set_link(SRC, DST, LinkFaults(response_loss=1.0))
        with pytest.raises(Unreachable):
            self.bus.call(DST, "ping", caller=SRC)
        assert self.service.handled == 1  # the destination committed
        assert self.injector.injected["response_loss"] == 1

    def test_latency_budget_raises_after_handler(self):
        self.injector.set_link(SRC, DST, LinkFaults(latency=3.0))
        with pytest.raises(CallTimeout):
            self.bus.call(DST, "ping", caller=SRC, timeout=4.0)
        assert self.service.handled == 1
        assert self.bus.virtual_elapsed == pytest.approx(6.0)  # both legs

    def test_latency_within_budget_passes(self):
        self.injector.set_link(SRC, DST, LinkFaults(latency=1.0))
        assert self.bus.call(DST, "ping", caller=SRC, timeout=4.0) == "pong"

    def test_flap_then_recovery(self):
        self.injector.flap(DST, start_call=1, duration_calls=2)
        for _ in range(2):
            with pytest.raises(Unreachable):
                self.bus.call(DST, "ping", caller=SRC)
        assert self.bus.call(DST, "ping", caller=SRC) == "pong"
        assert self.injector.injected["flap"] == 2


# ------------------------------------------------------------------- retry --


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=1.0, multiplier=2.0)
        delays = [policy.delay(a, random.Random(9)) for a in range(12)]
        again = [policy.delay(a, random.Random(9)) for a in range(12)]
        assert delays == again
        for attempt, delay in enumerate(delays):
            ceiling = min(1.0, 0.05 * 2.0**attempt)
            assert ceiling / 2 <= delay <= ceiling

    def test_cleanup_policy_bypasses_breaker(self):
        assert CLEANUP_POLICY.use_breaker is False
        assert CLEANUP_POLICY.max_attempts > RetryPolicy().max_attempts


class TestCircuitBreaker:
    def test_full_lifecycle(self):
        clock = SimClock(start=0.0)
        breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout=5.0)
        breaker.allow()
        breaker.record_failure()
        breaker.allow()  # one failure: still closed
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpen):
            breaker.allow()
        clock.advance(5.0)
        breaker.allow()  # half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # probe failed: re-open immediately
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_circuit_open_is_unreachable(self):
        # Initiators catching Unreachable must also see fast-fails.
        assert issubclass(CircuitOpen, Unreachable)
        assert issubclass(RetriesExhausted, Unreachable)


class _FlakyBus:
    """Scripted bus: raises the queued errors, then returns payloads."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def call(self, isd_as, method, *args, caller=None, timeout=None, **kwargs):
        self.calls += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def caller_over(script, **kwargs):
    clock = SimClock(start=0.0)
    bus = _FlakyBus(script)
    return bus, RetryingCaller(bus, clock, SRC, sleeper=clock.advance, **kwargs)


class TestRetryingCaller:
    def test_retries_transient_then_succeeds(self):
        bus, caller = caller_over([Unreachable("x"), Unreachable("x"), "ok"])
        assert caller.call(DST, "handle_seg_setup") == "ok"
        assert bus.calls == 3
        assert caller.stats.retries == 2

    def test_authoritative_errors_propagate_immediately(self):
        bus, caller = caller_over([AdmissionDenied("no")])
        with pytest.raises(AdmissionDenied):
            caller.call(DST, "handle_seg_setup")
        assert bus.calls == 1
        assert caller.stats.retries == 0

    def test_exhaustion_raises_retries_exhausted(self):
        bus, caller = caller_over([Unreachable("x")] * 4)
        with pytest.raises(RetriesExhausted):
            caller.call(DST, "handle_seg_setup")
        assert bus.calls == 4
        assert caller.stats.gave_up == 1

    def test_downstream_exhaustion_is_terminal(self):
        """A RetriesExhausted from a hop further down the path must not
        be retried here — that would multiply the attempt count by the
        budget at every upstream hop — nor charged to this breaker."""
        bus, caller = caller_over([RetriesExhausted("downstream")])
        with pytest.raises(RetriesExhausted):
            caller.call(DST, "handle_seg_setup")
        assert bus.calls == 1
        assert caller.breaker(DST).state == CircuitBreaker.CLOSED

    def test_breaker_opens_and_fast_fails(self):
        script = [Unreachable("x")] * 4 + ["never reached"]
        bus, caller = caller_over(script, failure_threshold=4)
        with pytest.raises(RetriesExhausted):
            caller.call(DST, "handle_seg_setup")
        with pytest.raises(CircuitOpen):
            caller.call(DST, "handle_seg_setup")
        assert bus.calls == 4  # the second call never touched the bus
        assert caller.stats.fast_failed == 1

    def test_cleanup_runs_through_open_breaker(self):
        script = [Unreachable("x")] * 4 + ["cleaned"]
        bus, caller = caller_over(script, failure_threshold=4)
        with pytest.raises(RetriesExhausted):
            caller.call(DST, "handle_seg_setup")
        # handle_seg_abort maps to CLEANUP_POLICY (use_breaker=False):
        # the abort must go out even though the breaker is open.
        assert caller.call(DST, "handle_seg_abort") == "cleaned"

    def test_backoff_deterministic_across_callers(self):
        _, first = caller_over([Unreachable("x")] * 4)
        _, second = caller_over([Unreachable("x")] * 4)
        for caller in (first, second):
            with pytest.raises(RetriesExhausted):
                caller.call(DST, "handle_seg_setup")
        assert first.stats.backoff_total == second.stats.backoff_total
        assert first.stats.backoff_total > 0


# ------------------------------------------------- end-to-end under faults --


class TestResponseLossIdempotency:
    def test_lost_response_does_not_double_admit(self):
        """The adversarial case: the destination commits, the response
        is lost, the retry must replay the cached answer — one
        allocation, not two (§3.3)."""
        # Random(1).random() = 0.134..., 0.847...: with response_loss=0.6
        # the first response is lost and the second delivered.
        injector = FaultInjector(seed=1)
        net = lossy_network()
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        injector.set_link(asid(2, 11), DST, LinkFaults(response_loss=0.6))
        net.bus.install_faults(injector)

        handle = net.establish_eer(SRC, DST, mbps(10))

        assert handle.granted == pytest.approx(mbps(10))
        assert injector.injected["response_loss"] == 1
        dest = net.cserv(DST)
        assert dest.replays == 1  # the retry was served a replay
        down_segr = [s for s in segrs if DST in s.segment.ases]
        assert len(down_segr) == 1
        allocated = dest.store.allocated_on_segment(down_segr[0].reservation_id)
        assert allocated == pytest.approx(mbps(10))  # exactly once


class TestAbortAfterExhaustion:
    def test_committed_suffix_is_released(self):
        """With every response on the last link lost, the destination
        commits on attempt one; after the retry budget the initiator
        must abort the whole path back to exact zero."""
        injector = FaultInjector(seed=5)
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        injector.set_link(asid(2, 11), DST, LinkFaults(response_loss=1.0))
        net.bus.install_faults(injector)
        before = allocation_snapshot(net)

        with pytest.raises(Unreachable):
            net.establish_eer(SRC, DST, mbps(10))

        assert net.cserv(SRC).aborts["eers"] == 1
        assert net.cserv(SRC).aborts["undeliverable"] == 0
        for isd_as in net.ases():
            assert net.cserv(isd_as).store.eer_count() == 0
        assert allocation_snapshot(net) == before
        # The destination committed exactly once; replays served the rest.
        assert net.cserv(DST).replays >= 1

    def test_service_recovers_after_faults_cleared(self):
        injector = FaultInjector(seed=5)
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        injector.set_link(asid(2, 11), DST, LinkFaults(response_loss=1.0))
        net.bus.install_faults(injector)
        with pytest.raises(Unreachable):
            net.establish_eer(SRC, DST, mbps(10))
        net.bus.install_faults(None)
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert handle.granted == pytest.approx(mbps(10))
        assert net.send(SRC, handle, b"recovered").delivered


class TestRollbackOnPartition:
    def test_allocations_return_to_pre_request_values(self):
        """Satellite of §3.3: a partition mid-setup rolls every on-path
        store back to its *pre-request* allocation — which is non-zero
        here, so this catches over-release as well as leaks."""
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        baseline_handle = net.establish_eer(SRC, DST, mbps(7))
        assert baseline_handle.granted == pytest.approx(mbps(7))
        before = allocation_snapshot(net)
        assert any(value > 0 for value in before.values())

        net.bus.partition(asid(2, 11))
        with pytest.raises(Unreachable):
            net.establish_eer(SRC, DST, mbps(10))
        net.bus.heal(asid(2, 11))

        assert allocation_snapshot(net) == before
        for isd_as in net.ases():
            assert net.cserv(isd_as).store.eer_count() == (
                1 if isd_as in PATH else 0
            )


class TestLossyConvergence:
    LOSS = LinkFaults(request_loss=0.12, response_loss=0.08)  # ~20 % per call

    def run_batch(self, seed, setups):
        injector = FaultInjector(seed=seed)
        injector.set_default(self.LOSS)
        net = lossy_network()
        net.reserve_segments(SRC, DST, gbps(1))
        net.bus.install_faults(injector)
        outcomes = []
        for _ in range(setups):
            before = allocation_snapshot(net)
            try:
                handle = net.establish_eer(SRC, DST, mbps(1))
            except Unreachable:
                # A failed setup must leave *exact-zero* residue at
                # every hop — not approximately, not "until expiry".
                assert allocation_snapshot(net) == before
                outcomes.append(False)
            else:
                assert handle.granted == pytest.approx(mbps(1))
                outcomes.append(True)
        return net, injector, outcomes

    def test_99_percent_converge_at_20_percent_loss(self):
        net, injector, outcomes = self.run_batch(seed=2024, setups=150)
        successes = sum(outcomes)
        assert successes / len(outcomes) >= 0.99
        # The loss plan really fired (this is not a trivially clean run).
        assert injector.injected["request_loss"] > 0
        assert injector.injected["response_loss"] > 0
        retries = sum(
            net.cserv(isd_as).caller.stats.retries for isd_as in net.ases()
        )
        assert retries > 0

    def test_reproducible_from_fixed_seed(self):
        _, injector_a, outcomes_a = self.run_batch(seed=99, setups=40)
        _, injector_b, outcomes_b = self.run_batch(seed=99, setups=40)
        assert outcomes_a == outcomes_b
        assert dict(injector_a.injected) == dict(injector_b.injected)

    def test_different_seed_different_trace(self):
        _, injector_a, _ = self.run_batch(seed=1, setups=20)
        _, injector_b, _ = self.run_batch(seed=2, setups=20)
        assert dict(injector_a.injected) != dict(injector_b.injected)


class TestFlapConvergence:
    def test_setup_rides_out_a_brief_flap(self):
        injector = FaultInjector(seed=11)
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        # Warm the remote descriptor cache so the next setup's first bus
        # call is the forward to the first hop — the flap window below is
        # keyed to bus call numbers and must land on that chain.
        net.establish_eer(SRC, DST, mbps(10))
        net.bus.install_faults(injector)
        # Two consecutive calls to the first-hop AS fail; the retry
        # budget (4) covers the outage.
        injector.flap(asid(1, 11), net.bus.calls + 1, 2)
        handle = net.establish_eer(SRC, DST, mbps(10))
        assert handle.granted == pytest.approx(mbps(10))
        assert injector.injected["flap"] >= 1


# ----------------------------------------------------- renewal under churn --


class TestRenewalSchedulerRobustness:
    def test_vanished_eer_is_untracked(self):
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(10))
        scheduler = RenewalScheduler(net.cserv(SRC))
        scheduler.track_eer(handle)
        # The reservation disappears underneath the scheduler (abort).
        net.cserv(SRC)._abort_eer(handle.reservation_id, 1, handle.hops)
        net.clock.advance(14.0)  # well inside the renewal lead window
        ticks = scheduler.tick()
        assert ticks == {"segments": 0, "eers": 0, "failures": 0, "transient": 0}
        with pytest.raises(KeyError):
            scheduler.eer_handle(handle.reservation_id)

    def test_transient_failure_keeps_tracking(self):
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(10))
        scheduler = RenewalScheduler(net.cserv(SRC), eer_lead=6.0)
        scheduler.track_eer(handle)
        net.clock.advance(10.5)  # inside the lead window, before expiry
        net.bus.partition(DST)
        ticks = scheduler.tick()
        assert ticks["transient"] == 1
        assert ticks["failures"] == 0
        assert scheduler.eer_handle(handle.reservation_id) is handle
        net.bus.heal(DST)
        net.clock.advance(1.5)  # respect the per-EER renewal rate limit
        ticks = scheduler.tick()
        assert ticks["eers"] == 1
        renewed = scheduler.eer_handle(handle.reservation_id)
        assert renewed.res_info.version > handle.res_info.version


# ------------------------------------------------------- distributed CServ --


class TestDistributedPassthroughs:
    def test_teardown_traverses_distributed_as(self):
        net = lossy_network()
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        DistributedCServ(net.cserv(asid(2, 11)), eer_workers=2)
        down = [s for s in segrs if asid(2, 11) in s.segment.ases and DST in s.segment.ases]
        assert len(down) == 1
        res_id = down[0].reservation_id
        net.cserv(asid(2, 1)).teardown_segment(res_id)
        for isd_as in (asid(2, 1), asid(2, 11), DST):
            assert not net.cserv(isd_as).store.has_segment(res_id)

    def test_abort_routes_through_distributed_as(self):
        injector = FaultInjector(seed=5)
        net = lossy_network()
        net.reserve_segments(SRC, DST, mbps(100))
        distributed = DistributedCServ(net.cserv(asid(2, 11)), eer_workers=2)
        injector.set_link(asid(2, 11), DST, LinkFaults(response_loss=1.0))
        net.bus.install_faults(injector)
        with pytest.raises(Unreachable):
            net.establish_eer(SRC, DST, mbps(10))
        for isd_as in net.ases():
            assert net.cserv(isd_as).store.eer_count() == 0
        # The abort really went through a sharded worker, not the parent.
        assert sum(worker.handled for worker in distributed.eer_workers) > 0


# ------------------------------------ the workflow x loss-position matrix --
#
# Six hop-by-hop workflows x every link each crosses on the 6-AS path x
# three loss modes.  One lost message must be invisible in the outcome;
# a response lost until the retries run out must leave either the
# pre-request state (setups and renewals: the initiator aborts
# path-wide) or a state that re-issuing the request completes (the two
# downstream-first walks, idempotent by state).

LINKS = list(zip(PATH, PATH[1:]))
MODES = ("request_lost_once", "response_lost_once", "responses_lost")


def control_state(net):
    """Per AS, everything the control plane holds about reservations:
    SegR versions with their states, EER versions, per-SegR allocation,
    the N-Tube index entry and the transfer distributor's demand."""
    state = {}
    for isd_as in net.ases():
        cserv = net.cserv(isd_as)
        store, index = cserv.store, cserv.seg_admission.index
        segments = {}
        for segr in store.segments():
            sid = segr.reservation_id
            segments[sid] = (
                segr.active.version,
                sorted(
                    (v.version, v.bandwidth, v.expiry, v.state.value)
                    for v in segr.versions.values()
                ),
                store.allocated_on_segment(sid),
                index.entry(sid).granted if sid in index else None,
                cserv.eer_admission.distributor.total_demand(sid),
            )
        eers = {
            eer.reservation_id: sorted(
                (v.version, v.bandwidth, v.expiry) for v in eer.versions.values()
            )
            for eer in store.eers()
        }
        state[isd_as] = (segments, eers, len(index))
    return state


def inject(net, link, mode):
    """Lose messages on ``link``: one request, one response (healed from
    the caller's backoff hook, so exactly one is lost), or every
    response until the caller gives up."""
    upstream, downstream = link
    injector = FaultInjector(seed=0)
    loss = "request_loss" if mode == "request_lost_once" else "response_loss"
    injector.set_link(upstream, downstream, LinkFaults(**{loss: 1.0}))
    net.bus.install_faults(injector)
    if mode != "responses_lost":
        caller = net.cserv(upstream).caller
        backoff = caller.sleeper

        def heal_then_back_off(delay):
            net.bus.install_faults(None)
            backoff(delay)

        caller.sleeper = heal_then_back_off
    return injector


class Workflow:
    """One matrix row: ``prepare`` builds the precondition on a fresh
    network and returns what ``run`` needs; ``walk`` marks the two
    workflows a failed attempt of which is completed by re-issuing."""

    walk = False

    def __init__(self, segment_index=None):
        self.segment_index = segment_index  # which of the three SegRs

    def fresh(self):
        net = lossy_network()
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        net.establish_eer(SRC, DST, mbps(7))  # non-zero baseline everywhere
        return net, segrs

    def links(self, segrs):
        if self.segment_index is None:
            return LINKS
        ases = segrs[self.segment_index].segment.ases
        return list(zip(ases, ases[1:]))

    def prepare(self, net, segrs):
        return segrs[self.segment_index] if self.segment_index is not None else None


class SegSetup(Workflow):
    def run(self, net, segr):
        net.cserv(segr.segment.first_as).setup_segment(segr.segment, mbps(50))


class SegRenewal(Workflow):
    def run(self, net, segr):
        net.cserv(segr.segment.first_as).renew_segment(
            segr.reservation_id, mbps(150)
        )


class SegActivation(Workflow):
    walk = True

    def prepare(self, net, segrs):
        segr = segrs[self.segment_index]
        owner = net.cserv(segr.segment.first_as)
        return segr, owner.renew_segment(segr.reservation_id, mbps(150))

    def run(self, net, prepared):
        segr, version = prepared
        net.cserv(segr.segment.first_as).activate_segment(
            segr.reservation_id, version
        )


class SegTeardown(Workflow):
    walk = True

    def fresh(self):
        net = lossy_network()  # no EER: a ridden SegR refuses teardown
        return net, net.reserve_segments(SRC, DST, mbps(100))

    def run(self, net, segr):
        net.cserv(segr.segment.first_as).teardown_segment(segr.reservation_id)


class EerSetup(Workflow):
    def run(self, net, _):
        net.establish_eer(SRC, DST, mbps(10), src_host=HostAddr(3))


class EerRenewal(Workflow):
    def prepare(self, net, segrs):
        handle = net.establish_eer(SRC, DST, mbps(10), src_host=HostAddr(3))
        net.advance(2.0)
        return handle

    def run(self, net, handle):
        net.cserv(SRC).renew_eer(handle, mbps(12))


WORKFLOWS = {
    f"{cls.__name__}-{name}": cls(index)
    for cls in (SegSetup, SegRenewal, SegActivation, SegTeardown)
    for index, name in enumerate(("up", "core", "down"))
}
WORKFLOWS.update({"EerSetup": EerSetup(), "EerRenewal": EerRenewal()})


class TestWorkflowLossMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    def test_every_link(self, name, mode):
        workflow = WORKFLOWS[name]
        reference, segrs = workflow.fresh()
        workflow.run(reference, workflow.prepare(reference, segrs))
        fault_free = control_state(reference)
        assert reference.audit() == []

        for link in workflow.links(segrs):
            net, segrs = workflow.fresh()
            prepared = workflow.prepare(net, segrs)
            before = control_state(net)
            injector = inject(net, link, mode)
            if mode == "responses_lost":
                with pytest.raises(RetriesExhausted):
                    workflow.run(net, prepared)
                net.bus.install_faults(None)
                if workflow.walk:
                    net.advance(4 * EER_LIFETIME)  # no replay record helps
                    workflow.run(net, prepared)
                    assert control_state(net) == fault_free, link
                else:
                    assert control_state(net) == before, link
            else:
                workflow.run(net, prepared)
                assert control_state(net) == fault_free, link
            assert sum(injector.injected.values()) >= 1, link
            assert net.audit() == [], link


class TestActivationIdempotentByState:
    """Activation is retry-safe because an AS already on the requested
    version answers success — not because of a remembered response."""

    def renewed_core_segr(self):
        net = lossy_network()
        (segr,) = net.reserve_segments(asid(1, 1), asid(2, 1), gbps(1))
        owner = net.cserv(asid(1, 1))
        return net, owner, segr, owner.renew_segment(segr.reservation_id, gbps(2))

    def versions(self, net, segr):
        return [
            net.cserv(isd_as).store.get_segment(segr.reservation_id).active.version
            for isd_as in segr.segment.ases
        ]

    def test_one_lost_response_converges(self):
        net, owner, segr, version = self.renewed_core_segr()
        injector = inject(net, (asid(1, 1), asid(2, 1)), "response_lost_once")
        owner.activate_segment(segr.reservation_id, version)
        assert injector.injected["response_loss"] == 1
        assert self.versions(net, segr) == [version, version]
        assert net.audit() == []

    @pytest.mark.parametrize("wait", [0.0, 4.0 * EER_LIFETIME])
    def test_reissue_after_exhaustion_converges(self, wait):
        net, owner, segr, version = self.renewed_core_segr()
        inject(net, (asid(1, 1), asid(2, 1)), "responses_lost")
        with pytest.raises(RetriesExhausted):
            owner.activate_segment(segr.reservation_id, version)
        assert self.versions(net, segr) == [1, version]  # downstream first
        net.bus.install_faults(None)
        net.advance(wait)
        owner.activate_segment(segr.reservation_id, version)
        assert self.versions(net, segr) == [version, version]
        assert net.audit() == []


# ------------------------------------ the replay record (§3.3, step 4 / 9) --
#
# An AS that commits a setup or renewal packs its answer onto the version
# it stored; a retry after a lost response is answered from there.  The
# record has no lifetime of its own: it is the newest version's, and goes
# where the version goes.

HANDLERS = {
    SegSetup: "handle_seg_setup",
    SegRenewal: "handle_seg_renewal",
    EerSetup: "handle_eer_setup",
    EerRenewal: "handle_eer_renewal",
}


def record_responses(net, isd_as, method):
    """Shadow one AS's handler; returns the list its responses land in."""
    cserv = net.cserv(isd_as)
    original, seen = getattr(cserv, method), []

    def handler(request, auth, hop_index):
        seen.append((request, hop_index, original(request, auth, hop_index)))
        return seen[-1][2]

    setattr(cserv, method, handler)
    return seen


def replay_records(net, reservation_id):
    """(AS, version) of each version of one reservation holding a record."""
    return sorted(
        (isd_as, version.version)
        for isd_as in net.ases()
        for store in [net.cserv(isd_as).store]
        for reservation in store.segments() + store.eers()
        if reservation.reservation_id == reservation_id
        for version in reservation.versions.values()
        if version.replay is not None
    )


def replays(net):
    return {
        isd_as: net.cserv(isd_as).replays
        for isd_as in net.ases()
        if net.cserv(isd_as).replays
    }


REPLAY_CASES = [
    (name, hop)
    for name, workflow in sorted(WORKFLOWS.items())
    if type(workflow) in HANDLERS
    for hop in range(1, 6 if workflow.segment_index is None else 3 - workflow.segment_index % 2)
]


class TestReplayDifferential:
    """Four flows x every hop a response can be lost towards: the
    replayed response is the original, and only that one AS replays."""

    @pytest.mark.parametrize("name,hop", REPLAY_CASES)
    def test_replay_equals_the_lost_response(self, name, hop):
        workflow = WORKFLOWS[name]
        method = HANDLERS[type(workflow)]

        reference, segrs = workflow.fresh()
        prepared = workflow.prepare(reference, segrs)
        calls = reference.bus.calls
        workflow.run(reference, prepared)
        loss_free_calls = reference.bus.calls - calls

        net, segrs = workflow.fresh()
        prepared = workflow.prepare(net, segrs)
        link = workflow.links(segrs)[hop - 1]
        seen = record_responses(net, link[1], method)
        injector = inject(net, link, "response_lost_once")
        calls = net.bus.calls
        workflow.run(net, prepared)

        assert injector.injected["response_loss"] == 1
        (request, index, lost), (retried, again, replayed) = seen
        assert retried is request and index == again == hop
        assert replayed.success and replayed.res_info == lost.res_info
        assert replayed.granted == lost.granted and replayed.grants == lost.grants
        if workflow.segment_index is None:
            source, now = request.grants[0].isd_as, net.clock.now()
            keys = [net.directory.fetch_key(g.isd_as, source, now) for g in lost.grants]
            opened = [
                [aead_open(key, blob) for key, blob in zip(keys[hop:], sealed)]
                for sealed in (lost.sealed_hopauths, replayed.sealed_hopauths)
            ]
            assert opened[0] == opened[1] and len(opened[1]) == len(keys) - hop
        else:
            assert replayed.tokens == lost.tokens
            assert len(replayed.tokens) == len(lost.grants) - hop
        # Exactly one more call than loss-free: nothing downstream of
        # the loss was walked again, and nobody else replayed.
        assert net.bus.calls - calls == loss_free_calls + 1
        assert replays(net) == {link[1]: 1}
        assert net.telemetry()["total"]["replays"] == 1
        assert allocation_snapshot(net) == allocation_snapshot(reference)
        assert control_state(net) == control_state(reference)
        assert net.audit() == []


class TestReplayIndependentOfLoad:
    def test_retry_after_4097_other_requests_is_replayed(self):
        """A renewal commits at the last hop, its response is lost, and
        4,097 other requests commit at that CServ before the retry: the
        bounded response cache this replaces had evicted the answer by
        then, the retry died with ``VersionError … already has version``
        and, no abort being sent, the destination kept a version its
        upstream had released."""
        net = lossy_network()
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        handle = net.establish_eer(SRC, DST, mbps(10))
        net.advance(2.0)
        dest, last = net.cserv(DST), len(handle.hops) - 1
        injector = FaultInjector(seed=1)  # first draw 0.134: lost
        injector.set_link(PATH[-2], DST, LinkFaults(response_loss=0.6))
        net.bus.install_faults(injector)
        upstream = net.cserv(PATH[-2]).caller
        backoff = upstream.sleeper

        def busy_then_back_off(delay):
            net.bus.install_faults(None)
            now = net.clock.now()
            for local_id in range(4097):
                other = EerSetupRequest(
                    res_info=ResInfo(
                        ReservationId(SRC, 1_000_000 + local_id),
                        kbps(1),
                        now + EER_LIFETIME,
                        1,
                    ),
                    eer_info=handle.eer_info,
                    hops=handle.hops,
                    segment_ids=handle.segment_ids,
                )
                auth = AuthenticatedRequest.create(net.directory, SRC, [DST], other, now)
                assert dest.handle_eer_setup(other, auth, last).success
            backoff(delay)

        upstream.sleeper = busy_then_back_off
        renewed = net.cserv(SRC).renew_eer(handle, mbps(12))

        assert injector.injected["response_loss"] == 1
        assert renewed.res_info.version == 2 and renewed.granted == mbps(12)
        assert replays(net) == {DST: 1}
        assert net.cserv(SRC).aborts["eers"] == 0
        assert dest.store.eer_count() == 4097 + 1
        down = [s for s in segrs if DST in s.segment.ases][0].reservation_id
        assert dest.store.eer_allocation(down, handle.reservation_id) == mbps(12)
        assert net.audit() == []


class TestReplayRecordLifetime:
    def network(self):
        net = lossy_network()
        segrs = net.reserve_segments(SRC, DST, mbps(100))
        return net, segrs, net.establish_eer(SRC, DST, mbps(10))

    def test_newest_version_only_and_never_at_the_initiator(self):
        net, segrs, handle = self.network()
        eer, downstream = handle.reservation_id, sorted(PATH[1:])
        assert replay_records(net, eer) == [(isd_as, 1) for isd_as in downstream]
        net.advance(2.0)
        net.cserv(SRC).renew_eer(handle)  # commit of v2 clears v1's
        assert replay_records(net, eer) == [(isd_as, 2) for isd_as in downstream]
        up = segrs[0]
        net.cserv(SRC).renew_segment(up.reservation_id, mbps(150))
        assert replay_records(net, up.reservation_id) == [
            (isd_as, 2) for isd_as in sorted(up.segment.ases[1:])
        ]
        assert net.audit() == []

    def test_abort_of_a_renewal_version_takes_its_record(self):
        net, _, handle = self.network()
        net.advance(2.0)
        source = net.cserv(SRC)
        source.renew_eer(handle)
        source._abort_eer(handle.reservation_id, 2, handle.hops)
        assert replay_records(net, handle.reservation_id) == []
        decisions = net.telemetry()["total"]["eer_decisions"]
        net.advance(2.0)
        again = source.renew_eer(handle)  # version 2 once more: admitted fresh
        assert again.res_info.version == 2
        assert net.telemetry()["total"]["eer_decisions"] == decisions + len(PATH)
        assert replays(net) == {}
        assert net.audit() == []

    def test_abort_of_a_setup_takes_the_record_with_the_reservation(self):
        net, _, handle = self.network()
        source = net.cserv(SRC)
        seen = record_responses(net, PATH[1], "handle_eer_setup")
        second = net.establish_eer(SRC, DST, mbps(5))
        request = seen[0][0]
        source._abort_eer(second.reservation_id, 1, second.hops)
        assert replay_records(net, second.reservation_id) == []
        # The identical request again: admitted fresh at every AS.
        response, _ = source._initiate(
            source._EER_SETUP, request, request.hops, net.clock.now()
        )
        assert response.success and replays(net) == {}
        assert all(net.cserv(a).store.has_eer(second.reservation_id) for a in PATH)
        assert net.audit() == []

    def test_abort_of_a_pending_segr_version_takes_its_record(self):
        net, segrs, _ = self.network()
        core = segrs[1]
        owner = net.cserv(core.segment.first_as)
        version = owner.renew_segment(core.reservation_id, mbps(150))
        owner._abort_segment(core.reservation_id, version, core.segment.hops)
        assert replay_records(net, core.reservation_id) == []
        assert owner.renew_segment(core.reservation_id, mbps(150)) == version
        assert replays(net) == {} and net.audit() == []

    def test_prune_and_sweep_leave_none_behind(self):
        net, _, handle = self.network()
        eer = handle.reservation_id
        for _ in range(3):  # v1 expires under the renewals: pruned
            net.advance(6.0)
            handle = net.cserv(SRC).renew_eer(handle)
        stored = net.cserv(DST).store.get_eer(eer)
        assert sorted(stored.versions) == [2, 3, 4]
        assert replay_records(net, eer) == [(isd_as, 4) for isd_as in sorted(PATH[1:])]
        net.advance(EER_LIFETIME + 1.0)
        net.housekeeping()
        assert replay_records(net, eer) == []
        assert net.audit() == []

    def test_audit_reports_a_record_on_a_superseded_version(self):
        net, _, handle = self.network()
        net.advance(2.0)
        net.cserv(SRC).renew_eer(handle)
        stored = net.cserv(DST).store.get_eer(handle.reservation_id)
        stored.versions[1].replay = stored.versions[2].replay
        (violation,) = net.audit()
        assert "replay record on superseded version 1" in violation
