"""Stochastic control-plane workloads.

The paper's evaluation pre-generates reservations and measures one
admission (§6.1); a deployed CServ instead sees a continuous arrival
process.  :class:`EerWorkload` models it: Poisson EER arrivals with
exponential holding times and a configurable bandwidth distribution,
driven over a :class:`~repro.sim.events.EventLoop`.  Used by the soak
test and the campaigns to exercise setup / renewal / expiry /
housekeeping concurrently over long simulated horizons.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.constants import EER_LIFETIME
from repro.errors import ColibriError
from repro.sim.events import EventLoop
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs


@dataclass
class WorkloadStats:
    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0  # sessions that ended by themselves
    renewals: int = 0
    renewal_failures: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0


@dataclass(eq=False)
class _Session:
    # Identity-hashed (eq=False): the session table must add/remove in
    # O(1) even with 10^5 concurrent sessions, and value-equality over a
    # mutable handle would be meaningless anyway.
    handle: object
    src: IsdAs
    ends_at: float


class EerWorkload:
    """Poisson EER churn between one (src, dst) AS pair.

    * arrivals: Poisson with rate ``arrival_rate`` per second;
    * holding time: exponential with mean ``mean_holding`` (sessions
      outliving ``EER_LIFETIME`` renew just before expiry);
    * bandwidth: log-uniform between ``min_bandwidth`` and
      ``max_bandwidth`` — heavy-tailed like real flows;
    * each session sends one probe packet per renewal period so the data
      plane stays exercised.
    """

    def __init__(
        self,
        network: ColibriNetwork,
        loop: EventLoop,
        source: IsdAs,
        destination: IsdAs,
        arrival_rate: float = 2.0,
        mean_holding: float = 30.0,
        min_bandwidth: float = 1e5,
        max_bandwidth: float = 1e7,
        seed: int = 11,
    ):
        if arrival_rate <= 0 or mean_holding <= 0:
            raise ValueError("arrival rate and holding time must be positive")
        if not 0 < min_bandwidth <= max_bandwidth:
            raise ValueError("bandwidth bounds must satisfy 0 < min <= max")
        self.network = network
        self.loop = loop
        self.source = source
        self.destination = destination
        self.arrival_rate = arrival_rate
        self.mean_holding = mean_holding
        self.min_bandwidth = min_bandwidth
        self.max_bandwidth = max_bandwidth
        self.rng = random.Random(seed)
        self.stats = WorkloadStats()
        # Insertion-ordered identity set: O(1) add/discard, deterministic
        # iteration for retire_all().
        self._sessions: dict = {}
        self._next_host = 1
        self._stopped = False

    # -- distributions -------------------------------------------------------------

    def _interarrival(self) -> float:
        return self.rng.expovariate(self.arrival_rate)

    def _holding(self) -> float:
        return self.rng.expovariate(1.0 / self.mean_holding)

    def _bandwidth(self) -> float:
        low, high = math.log(self.min_bandwidth), math.log(self.max_bandwidth)
        return math.exp(self.rng.uniform(low, high))

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """Arm the first arrival; the process self-perpetuates."""
        self._stopped = False
        self.loop.after(self._interarrival(), self._arrive)

    def stop(self) -> None:
        """Stop the arrival process; already-scheduled arrivals no-op.

        Live sessions keep renewing until their holding time ends — call
        :meth:`retire_all` as well for a hard phase cutoff.
        """
        self._stopped = True

    def retire_all(self) -> None:
        """End every live session at its next maintenance tick.

        Sessions stop renewing, so their EERs expire within one
        ``EER_LIFETIME`` and housekeeping reclaims the state — the
        teardown half of a flash-crowd phase.
        """
        now = self.network.clock.now()
        for session in self._sessions:
            session.ends_at = min(session.ends_at, now)

    def _arrive(self) -> None:
        if self._stopped:
            return
        self.stats.arrivals += 1
        host = HostAddr(self._next_host % (1 << 32))
        self._next_host += 1
        try:
            handle = self.network.cserv(self.source).setup_eer(
                self.destination, host, HostAddr(2), self._bandwidth()
            )
            self.stats.admitted += 1
            session = _Session(
                handle=handle,
                src=self.source,
                ends_at=self.network.clock.now() + self._holding(),
            )
            self._sessions[session] = None
            self.loop.after(EER_LIFETIME * 0.75, lambda: self._maintain(session))
        except ColibriError:
            self.stats.rejected += 1
        self.loop.after(self._interarrival(), self._arrive)

    def _maintain(self, session: _Session) -> None:
        """Renew or retire a session at 3/4 of its EER lifetime."""
        now = self.network.clock.now()
        if now >= session.ends_at:
            self.stats.completed += 1
            self._sessions.pop(session, None)
            return
        # Send a probe over the live reservation.
        try:
            self.stats.packets_sent += 1
            if self.network.send(session.src, session.handle, b"probe").delivered:
                self.stats.packets_delivered += 1
        except ColibriError:
            pass
        try:
            session.handle = self.network.cserv(session.src).renew_eer(
                session.handle
            )
            self.stats.renewals += 1
            self.loop.after(EER_LIFETIME * 0.75, lambda: self._maintain(session))
        except ColibriError:
            self.stats.renewal_failures += 1
            self.stats.completed += 1
            self._sessions.pop(session, None)
