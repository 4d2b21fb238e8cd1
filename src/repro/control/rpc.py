"""Inter-AS control-plane transport.

The paper's CServs talk "via gRPC calls on top of QUIC" (§6.1).  The
reproduction replaces the network with an in-process :class:`MessageBus`:
each AS registers its service, and a call names the destination AS and a
method.  The bus preserves what the evaluation depends on — the exact
request/response state machine and per-AS processing — while §6's
measurements explicitly "disregard propagation delays".

The bus doubles as the failure-injection point for tests: individual
ASes can be partitioned (calls to them raise), links can be made lossy
(per-link request/response loss from a seeded RNG), calls can be delayed
against virtual latency budgets, and ASes can flap (deterministic
call-window outages).  All injection is deterministic: loss draws come
from one ``random.Random(seed)`` owned by the :class:`FaultInjector`,
latency is virtual (never the wall clock), and flaps are keyed to the
bus's call counter — the same seed always produces the same failure
trace (see docs/robustness.md).

A *request* loss raises :class:`Unreachable` before the handler runs; a
*response* loss (or a blown latency budget, :class:`CallTimeout`) raises
*after* the handler ran — the destination committed state the caller
never learned about.  The distinction is what makes the CServ's replay
record (``ColibriService._hop``) necessary and testable.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.errors import CallTimeout, ColibriError, TransportError, Unreachable
from repro.topology.addresses import IsdAs

__all__ = ["FaultInjector", "LinkFaults", "MessageBus", "Unreachable"]


@dataclass(frozen=True)
class LinkFaults:
    """Failure characteristics of one (caller, destination) link.

    ``request_loss`` drops the call before the handler runs; the callee
    never sees it.  ``response_loss`` drops the answer after the handler
    ran and committed — the adversarial case for idempotency.
    ``latency`` is virtual seconds charged per direction against the
    caller's latency budget (the bus never sleeps).
    """

    request_loss: float = 0.0
    response_loss: float = 0.0
    latency: float = 0.0

    def __post_init__(self):
        for name in ("request_loss", "response_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")


@dataclass(frozen=True)
class _Flap:
    """A scheduled transient outage of one AS, in bus-call counts."""

    isd_as: IsdAs
    start_call: int
    end_call: int


class FaultInjector:
    """Deterministic failure plan for a :class:`MessageBus`.

    Faults are looked up most-specific first: exact ``(caller, dest)``
    link, then ``(None, dest)``, then ``(caller, None)``, then the
    default.  All probabilistic draws come from one seeded RNG so a
    fixed seed replays the exact same loss pattern.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._links: dict = {}  # (caller|None, dest|None) -> LinkFaults
        self._default = LinkFaults()
        self._flaps: list[_Flap] = []
        self.injected = defaultdict(int)  # kind -> count

    # -- plan construction ---------------------------------------------------------

    def set_default(self, faults: LinkFaults) -> None:
        """Faults applied to every link without a more specific entry."""
        self._default = faults

    def set_link(
        self,
        caller: Optional[IsdAs],
        dest: Optional[IsdAs],
        faults: LinkFaults,
    ) -> None:
        """Faults for one link; ``None`` on either side is a wildcard."""
        self._links[(caller, dest)] = faults

    def flap(self, isd_as: IsdAs, start_call: int, duration_calls: int) -> None:
        """Schedule a transient outage: ``isd_as`` is unreachable for
        calls numbered ``[start_call, start_call + duration_calls)`` of
        the bus's global call counter — deterministic without a clock."""
        self._flaps.append(
            _Flap(isd_as, start_call, start_call + duration_calls)
        )

    # -- queries the bus makes -----------------------------------------------------

    def faults_for(self, caller: Optional[IsdAs], dest: IsdAs) -> LinkFaults:
        for key in ((caller, dest), (None, dest), (caller, None)):
            faults = self._links.get(key)
            if faults is not None:
                return faults
        return self._default

    def is_flapping(self, isd_as: IsdAs, call_number: int) -> bool:
        return any(
            flap.isd_as == isd_as and flap.start_call <= call_number < flap.end_call
            for flap in self._flaps
        )

    def draw(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        return self._rng.random() < probability


class MessageBus:
    """Synchronous in-process RPC between per-AS services."""

    def __init__(self, faults: Optional[FaultInjector] = None):
        self._services: dict[IsdAs, object] = {}
        self._partitioned: set = set()
        self.calls = 0
        self.calls_by_method: dict[str, int] = defaultdict(int)
        self.faults = faults
        #: Optional :class:`repro.obs.trace.TraceCollector`; when set,
        #: every call records a ``bus.call`` span (errored on raise).
        self.tracer = None
        #: Virtual time spent inside calls (injected latency only); the
        #: bus never touches the wall clock (§6.1 disregards propagation
        #: delay — injected latency exists purely to exercise budgets).
        self.virtual_elapsed = 0.0

    def register(self, isd_as: IsdAs, service: object) -> None:
        self._services[isd_as] = service

    def service_of(self, isd_as: IsdAs) -> object:
        service = self._services.get(isd_as)
        if service is None:
            raise Unreachable(f"no service registered for AS {isd_as}")
        return service

    def install_faults(self, faults: Optional[FaultInjector]) -> None:
        """Attach (or clear) the failure plan driving this bus."""
        self.faults = faults

    def call(
        self,
        isd_as: IsdAs,
        method: str,
        *args,
        caller: Optional[IsdAs] = None,
        timeout: Optional[float] = None,
        **kwargs,
    ):
        """Invoke ``method`` on the service of ``isd_as``.

        ``caller`` selects the per-link fault entry; ``timeout`` is a
        virtual-latency budget in seconds — when the injected latency of
        the call (including nested downstream calls) exceeds it, the
        call raises :class:`CallTimeout` *after* the handler ran, i.e.
        the response was too late, not the request.

        With a tracer armed the call is one ``bus.call`` span; whatever
        the handler opens nests under it through the collector's span
        stack, so downstream work parents correctly with nothing
        threaded through the call.
        """
        tracer = self.tracer
        if tracer is None:
            return self._call(isd_as, method, args, caller, timeout, kwargs)
        attributes = {"method": method, "dest": str(isd_as)}
        if caller is not None:
            attributes["caller"] = str(caller)
        with tracer.span("bus.call", **attributes):
            return self._call(isd_as, method, args, caller, timeout, kwargs)

    def _call(
        self,
        isd_as: IsdAs,
        method: str,
        args: tuple,
        caller: Optional[IsdAs],
        timeout: Optional[float],
        kwargs: dict,
    ):
        self.calls += 1
        call_number = self.calls
        self.calls_by_method[method] += 1
        faults = self.faults
        link = faults.faults_for(caller, isd_as) if faults is not None else None

        if faults is not None and faults.is_flapping(isd_as, call_number):
            faults.injected["flap"] += 1
            raise Unreachable(f"AS {isd_as} is flapping (call {call_number})")
        if isd_as in self._partitioned:
            raise Unreachable(f"AS {isd_as} is partitioned")
        if link is not None and faults.draw(link.request_loss):
            faults.injected["request_loss"] += 1
            raise Unreachable(f"request to AS {isd_as} lost in transit")

        service = self.service_of(isd_as)
        handler = getattr(service, method, None)
        if handler is None:
            raise ColibriError(
                f"service of AS {isd_as} has no control-plane method {method!r}"
            )

        started = self.virtual_elapsed
        if link is not None:
            self.virtual_elapsed += link.latency  # request leg
        result = handler(*args, **kwargs)
        if link is not None:
            self.virtual_elapsed += link.latency  # response leg
        elapsed = self.virtual_elapsed - started

        # From here on the handler HAS run: any failure is a lost/late
        # response and the destination holds state the caller never saw.
        if link is not None and faults.draw(link.response_loss):
            faults.injected["response_loss"] += 1
            raise Unreachable(f"response from AS {isd_as} lost in transit")
        if timeout is not None and elapsed > timeout:
            if faults is not None:
                faults.injected["timeout"] += 1
            raise CallTimeout(
                f"call {method!r} to AS {isd_as} took {elapsed:.3f}s of "
                f"injected latency against a {timeout:.3f}s budget"
            )
        return result

    # -- failure injection ---------------------------------------------------------

    def partition(self, isd_as: IsdAs) -> None:
        """Make an AS unreachable (network partition / service crash)."""
        self._partitioned.add(isd_as)

    def heal(self, isd_as: IsdAs) -> None:
        self._partitioned.discard(isd_as)
