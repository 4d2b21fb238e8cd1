"""Retry, backoff, and circuit-breaking for control-plane calls (§3.3, §4.2).

The paper's control plane must survive churn: "in case of an
unsuccessful request, the ASes clean up their temporary reservations"
(§3.3), and renewals have to land inside their lead window even when
individual calls fail (§4.2).  This module supplies the client-side half
of that robustness:

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  (seeded) jitter and a per-call virtual-latency budget;
* ``_DEFAULT_CLASSES`` — maps control-plane methods to timeout classes
  (setup, renewal, cleanup, query);
* :class:`CircuitBreaker` — per-destination fail-fast once an AS looks
  persistently dead, with clock-injected half-open probing;
* :class:`RetryingCaller` — ties the three together around a
  :class:`~repro.control.rpc.MessageBus`.

The server-side complement — a retry after a *lost response* must be
replayed, not admitted twice — needs nothing here: the answer lives on
the reservation version the handler committed
(``ColibriService._hop``, docs/robustness.md).

Everything is deterministic: jitter comes from one ``random.Random``
seeded from the owning AS, delays are virtual (reported via an optional
``sleeper`` hook, never ``time.sleep``), and the breaker reads an
injected :class:`~repro.util.clock.Clock`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.constants import (
    CALL_TIMEOUT_QUERY,
    CALL_TIMEOUT_SETUP,
    CIRCUIT_FAILURE_THRESHOLD,
    CIRCUIT_RESET_TIMEOUT,
    CLEANUP_MAX_ATTEMPTS,
    RETRY_BASE_DELAY,
    RETRY_MAX_ATTEMPTS,
    RETRY_MAX_DELAY,
    RETRY_MULTIPLIER,
)
from repro.errors import CircuitOpen, RetriesExhausted, TransportError
from repro.obs.events import BREAKER_TRANSITION, emit
from repro.topology.addresses import IsdAs
from repro.util.clock import Clock


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, backoff shape, and latency budget for one class
    of control-plane call."""

    max_attempts: int = RETRY_MAX_ATTEMPTS
    base_delay: float = RETRY_BASE_DELAY
    max_delay: float = RETRY_MAX_DELAY
    multiplier: float = RETRY_MULTIPLIER
    timeout: Optional[float] = CALL_TIMEOUT_SETUP
    #: Cleanup calls set this False: an abort towards a flaky AS is
    #: exactly the call a tripped breaker must not refuse (§3.3).
    use_breaker: bool = True

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based): capped
        exponential with half-width deterministic jitter, so concurrent
        retriers decorrelate without losing replayability."""
        ceiling = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return ceiling / 2 + rng.uniform(0.0, ceiling / 2)


#: The four timeout classes of the control plane.  Setups and renewals
#: traverse whole paths; cleanup gets double the attempts because a
#: failed cleanup leaves residual allocations (§3.3); queries are
#: single-hop and cheap to re-issue (Appendix C).
SETUP_POLICY = RetryPolicy()
RENEWAL_POLICY = RetryPolicy()
CLEANUP_POLICY = RetryPolicy(max_attempts=CLEANUP_MAX_ATTEMPTS, use_breaker=False)
QUERY_POLICY = RetryPolicy(max_attempts=2, timeout=CALL_TIMEOUT_QUERY)

_DEFAULT_CLASSES = {
    "handle_seg_setup": SETUP_POLICY,
    "handle_eer_setup": SETUP_POLICY,
    "handle_seg_renewal": RENEWAL_POLICY,
    "handle_eer_renewal": RENEWAL_POLICY,
    "handle_seg_activation": RENEWAL_POLICY,
    "handle_seg_teardown": CLEANUP_POLICY,
    "handle_seg_abort": CLEANUP_POLICY,
    "handle_eer_abort": CLEANUP_POLICY,
    "query_registry": QUERY_POLICY,
}


class CircuitBreaker:
    """Fail-fast gate for one destination AS.

    Closed -> open after ``failure_threshold`` consecutive transport
    failures; open -> half-open once ``reset_timeout`` (injected clock)
    has passed, letting exactly one probe through; the probe's outcome
    closes or re-opens the circuit.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = CIRCUIT_FAILURE_THRESHOLD,
        reset_timeout: float = CIRCUIT_RESET_TIMEOUT,
    ):
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.fast_failures = 0
        #: Called as ``observer(old_state, new_state)`` on every state
        #: change; the retry layer points it at the event journal.
        self.observer: Optional[Callable[[str, str], None]] = None

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        if self.observer is not None:
            self.observer(old_state, new_state)

    def allow(self) -> None:
        """Raise :class:`CircuitOpen` unless a call may proceed."""
        if self.state == self.CLOSED:
            return
        if self.state == self.OPEN:
            if self.clock.now() - self._opened_at >= self.reset_timeout:
                self._transition(self.HALF_OPEN)  # one probe allowed
                return
            self.fast_failures += 1
            raise CircuitOpen(
                f"circuit open since t={self._opened_at:.3f}; "
                f"probing again after {self.reset_timeout}s"
            )
        # HALF_OPEN: the single probe is already in flight conceptually,
        # but the synchronous bus serializes calls, so let it through.

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._transition(self.CLOSED)
        self._opened_at = None

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self.clock.now()
            self._transition(self.OPEN)


@dataclass
class CallStats:
    """Counters a :class:`RetryingCaller` keeps for observability."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    gave_up: int = 0
    fast_failed: int = 0
    backoff_total: float = 0.0
    by_method: dict = field(default_factory=dict)


class RetryingCaller:
    """Executes bus calls under a retry policy with circuit breaking.

    Only :class:`~repro.errors.TransportError` is retried — admission
    denials, MAC failures, and protocol errors are authoritative answers
    and propagate immediately.  Backoff delays are *virtual*: they are
    accumulated in :attr:`stats` and reported to the optional ``sleeper``
    hook (a simulation can advance its clock there); the caller never
    sleeps the wall clock.
    """

    def __init__(
        self,
        bus,
        clock: Clock,
        source: IsdAs,
        seed: Optional[int] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        failure_threshold: int = CIRCUIT_FAILURE_THRESHOLD,
        reset_timeout: float = CIRCUIT_RESET_TIMEOUT,
    ):
        self.bus = bus
        self.clock = clock
        self.source = source
        if seed is None:
            # Deterministic per-AS seed: replays never depend on hash
            # randomization or interpreter state.
            seed = int.from_bytes(source.packed, "big")
        self._rng = random.Random(seed)
        self.sleeper = sleeper
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._breakers: dict[IsdAs, CircuitBreaker] = {}
        self.stats = CallStats()
        #: Optional :class:`repro.obs.ObsContext`; when set, each logical
        #: call records a ``retry.call`` span (attempt count attached),
        #: observes the ``retry_attempts`` histogram, and breaker state
        #: changes become ``BreakerTransition`` journal events.
        self.obs = None

    def breaker(self, isd_as: IsdAs) -> CircuitBreaker:
        breaker = self._breakers.get(isd_as)
        if breaker is None:
            breaker = CircuitBreaker(
                self.clock, self._failure_threshold, self._reset_timeout
            )
            breaker.observer = functools.partial(self._breaker_transition, isd_as)
            self._breakers[isd_as] = breaker
        return breaker

    def _breaker_transition(self, isd_as: IsdAs, old: str, new: str) -> None:
        if self.obs is not None:
            emit(
                self.obs,
                BREAKER_TRANSITION,
                isd_as=str(self.source),
                dest=str(isd_as),
                old=old,
                new=new,
            )

    def open_breakers(self) -> int:
        """Breakers currently not CLOSED — feeds the
        ``circuit_breakers_open`` registry gauge."""
        return sum(
            1
            for breaker in self._breakers.values()
            if breaker.state != CircuitBreaker.CLOSED
        )

    def call(self, isd_as: IsdAs, method: str, *args, **kwargs):
        obs, stats = self.obs, self.stats
        if obs is not None:
            # One span per *logical* call: every attempt's ``bus.call``
            # span opens under it, so a retried fan-out is one tree, not
            # one per attempt.
            tracer = obs.tracer
            span = tracer.start("retry.call", {"method": method, "dest": str(isd_as)})
            attempts_before = stats.attempts
        try:
            policy = _DEFAULT_CLASSES.get(method, SETUP_POLICY)
            breaker = self._breakers.get(isd_as) or self.breaker(isd_as)
            stats.calls += 1
            stats.by_method[method] = stats.by_method.get(method, 0) + 1
            last_error: Optional[TransportError] = None
            for attempt in range(policy.max_attempts):
                if policy.use_breaker and breaker.state != CircuitBreaker.CLOSED:
                    try:
                        breaker.allow()  # raises CircuitOpen: the AS looks dead
                    except CircuitOpen:
                        stats.fast_failed += 1
                        raise
                stats.attempts += 1
                try:
                    result = self.bus.call(
                        isd_as,
                        method,
                        *args,
                        caller=self.source,
                        timeout=policy.timeout,
                        **kwargs,
                    )
                except (RetriesExhausted, CircuitOpen):
                    # A hop further down the path already gave up (or fast-
                    # failed).  This link is not at fault: retrying here would
                    # replay the downstream storm 4x per upstream hop, and
                    # recording a failure would charge this breaker for a
                    # loss on someone else's link.  Propagate as-is.
                    raise
                except TransportError as error:
                    if policy.use_breaker:
                        breaker.record_failure()
                    last_error = error
                    if attempt + 1 < policy.max_attempts:
                        delay = policy.delay(attempt, self._rng)
                        stats.retries += 1
                        stats.backoff_total += delay
                        if self.sleeper is not None:
                            self.sleeper(delay)
                    continue
                # A no-op on a closed breaker with no failure counted.
                if breaker.state != CircuitBreaker.CLOSED or breaker._consecutive_failures:
                    breaker.record_success()
                break
            else:
                stats.gave_up += 1
                raise RetriesExhausted(
                    f"{policy.max_attempts} attempts of {method!r} to AS {isd_as} "
                    f"all failed; last error: {last_error}"
                ) from last_error
        except BaseException as error:
            if obs is not None:
                attempts = stats.attempts - attempts_before
                obs.metrics.histogram("retry_attempts").observe(attempts)
                tracer.finish(
                    span, status="error", error=type(error).__name__, attempts=attempts
                )
            raise
        if obs is not None:
            attempts = stats.attempts - attempts_before
            obs.metrics.histogram("retry_attempts").observe(attempts)
            tracer.finish(span, attempts=attempts)
        return result
