"""Full-system assembly: one call from topology to a running Colibri AS
fabric (§3.2's infrastructure, instantiated per AS).

:class:`ColibriNetwork` builds, for every AS in a topology:

* a per-AS clock (optionally skewed within the paper's ±0.1 s budget);
* DRKey material (:class:`~repro.dataplane.hvf.ColibriKeys`), a key
  server, and registration in the global directory;
* the CServ, the Colibri gateway, and the border router, cross-wired so
  the router reports offenses to the CServ (§4.8) and the CServ installs
  EERs into the gateway (Fig. 1b ➎).

It also offers the two workflows every example and test needs:
:meth:`reserve_segments` (build the SegR "tubes" along a path) and
:meth:`establish_eer` (host-to-host reservation over them), plus
:meth:`send` which walks a data packet hop by hop through the border
routers, returning the per-hop verdicts (Fig. 1c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.control.cserv import ColibriService, EerHandle
from repro.control.rpc import FaultInjector, MessageBus
from repro.crypto.drkey import DrkeyDeriver
from repro.crypto.keyserver import KeyServer, KeyServerDirectory
from repro.crypto.prf import prf
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import ColibriKeys
from repro.dataplane.ofd import OveruseFlowDetector
from repro.dataplane.router import BorderRouter, Verdict
from repro.errors import ColibriError
from repro.obs import ObsContext
from repro.obs.slo import AlertEngine, default_slos, register_journal_gauges
from repro.packets.colibri import ColibriPacket
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.beaconing import Beaconing
from repro.topology.graph import Topology
from repro.topology.paths import PathLookup
from repro.util.clock import Clock, SimClock, SkewedClock

DEFAULT_MASTER_SEED = b"colibri-repro-master-seed"

#: HELP text of the :meth:`ColibriNetwork.telemetry` counters as the
#: registry exports them (keys not listed get a generic line).
TELEMETRY_HELP = {
    "segments": "Segment reservations stored at the AS",
    "eers": "End-to-end reservations stored at the AS",
    "seg_decisions": "SegR admission decisions taken",
    "eer_decisions": "EER admission decisions taken",
    "gateway_sent": "Packets stamped and sent by the gateway",
    "gateway_dropped": "Packets dropped at the gateway (monitoring/expiry)",
    "router_drops": "Packets dropped by the border router",
    "router_forwarded": "Packets forwarded or delivered by the border router",
    "blocked_sources": "Source ASes currently on the policing blocklist",
    "offenses": "Confirmed overuse offenses reported to the CServ",
    "sigma_cache_entries": "Flows in the border-router kernel's flow table",
}


@dataclass
class AsStack:
    """All Colibri components of one AS."""

    isd_as: IsdAs
    clock: Clock
    keys: ColibriKeys
    cserv: ColibriService
    gateway: ColibriGateway
    router: BorderRouter


@dataclass
class DeliveryReport:
    """Outcome of walking one packet across the network."""

    delivered: bool
    verdicts: list  # [(IsdAs, Verdict)]
    packet: ColibriPacket

    @property
    def dropped_at(self) -> Optional[IsdAs]:
        for isd_as, verdict in self.verdicts:
            if verdict.is_drop:
                return isd_as
        return None


class ColibriNetwork:
    """A complete in-process Colibri deployment over a topology."""

    def __init__(
        self,
        topology: Topology,
        clock: Optional[SimClock] = None,
        skew: Optional[Callable[[IsdAs], float]] = None,
        master_seed: bytes = DEFAULT_MASTER_SEED,
        host_acceptor: Optional[Callable] = None,
        faults: Optional[FaultInjector] = None,
        compact_dataplane: bool = False,
    ):
        """``compact_dataplane=True`` shrinks each border router's
        fixed-size policing structures (OFD sketch, duplicate-suppression
        Bloom filter) from the per-router §4.8 production geometry
        (~400 KB) to a few KB.  Detection probabilities degrade
        gracefully — sketches just saturate earlier — which is the right
        trade for thousand-AS campaign fabrics where the default would
        cost ~1 GB of heap before the first packet moves.
        """
        self.topology = topology
        self.clock = clock or SimClock(start=1000.0)
        self.bus = MessageBus(faults=faults)
        self.directory = KeyServerDirectory(self.clock)
        self.beaconing = Beaconing(topology)
        self.path_lookup = PathLookup(self.beaconing)
        #: Optional :class:`repro.obs.ObsContext` shared by every stack;
        #: attach with :meth:`enable_observability`.
        self.obs = None
        self._stacks: dict[IsdAs, AsStack] = {}

        for node in topology.ases():
            isd_as = node.isd_as
            as_clock: Clock = self.clock
            if skew is not None:
                as_clock = SkewedClock(self.clock, skew(isd_as))
            seed = prf(master_seed, isd_as.packed)
            deriver = DrkeyDeriver(isd_as, as_clock, seed=seed)
            keys = ColibriKeys(deriver)
            self.directory.register(KeyServer(deriver))
            gateway = ColibriGateway(isd_as, as_clock)
            cserv = ColibriService(
                node=node,
                clock=as_clock,
                keys=keys,
                directory=self.directory,
                bus=self.bus,
                topology=topology,
                gateway=gateway,
                host_acceptor=host_acceptor,
                # Retry backoff advances simulated time, so breaker
                # reset windows and timeouts stay meaningful under test.
                retry_sleeper=self.clock.advance,
            )
            router = BorderRouter(
                isd_as,
                keys,
                as_clock,
                duplicates=(
                    DuplicateSuppressor(as_clock, bits=1 << 14, hashes=4)
                    if compact_dataplane
                    else None
                ),
                ofd=(
                    OveruseFlowDetector(width=256, depth=2)
                    if compact_dataplane
                    else None
                ),
                on_offense=cserv.report_offense,
            )
            self._stacks[isd_as] = AsStack(
                isd_as=isd_as,
                clock=as_clock,
                keys=keys,
                cserv=cserv,
                gateway=gateway,
                router=router,
            )

    # -- observability wiring ------------------------------------------------------

    def enable_observability(
        self,
        seed: int = 0,
        journal: bool = False,
        journal_capacity: int = 65_536,
        slos: bool = False,
        perf: Optional[Clock] = None,
    ) -> ObsContext:
        """Attach one :class:`~repro.obs.ObsContext` across every layer.

        Wires the trace collector into the bus (``bus.call`` spans),
        every CServ (admission workflows and handlers, retries,
        dissemination), and this network's data-plane walk
        (``packet.send`` → ``gateway.stamp`` → per-hop ``router.hop``
        spans).  Also registers the callback gauges over live data-plane
        state (token-bucket occupancy, open breakers, OFD suspects) and
        exports the :meth:`telemetry` counters through the registry.  Span IDs come
        from ``seed`` and timestamps from the shared simulation clock, so
        a seeded scenario produces a byte-identical trace every run.

        ``journal=True`` additionally arms the
        :class:`~repro.obs.events.EventJournal` flight recorder on every
        emission site of both planes (admission decisions, renewals,
        teardowns, drops, OFD flags, monitor confirmations, duplicate
        suppression, breaker flips) and exposes its cumulative per-type
        counts as registry gauges.  ``slos=True`` attaches a burn-rate
        :class:`~repro.obs.slo.AlertEngine` over
        :func:`~repro.obs.slo.default_slos`, sampled by calling
        ``obs.alerts.tick()`` from the scenario loop.  ``perf`` overrides
        the wall-duration clock for latency instruments — pass the
        network's own :class:`~repro.util.clock.SimClock` to make latency
        histograms (and everything derived from them) byte-deterministic
        per seed.
        """
        obs = ObsContext.create(
            self.clock,
            seed=seed,
            perf=perf,
            journal=journal,
            journal_capacity=journal_capacity,
        )
        self.obs = obs
        self.bus.tracer = obs.tracer
        for stack in self._stacks.values():
            stack.cserv.obs = obs
            stack.cserv.caller.obs = obs
            stack.cserv.remote_client.obs = obs
            label = str(stack.isd_as)
            router = stack.router
            router.obs = obs
            for policer in (router.monitor, router.ofd, router.duplicates,
                            stack.gateway.monitor):
                policer.obs = obs
                policer.isd_as = label
        obs.metrics.gauge(
            "token_bucket_occupancy",
            help_text="Mean fill ratio of watched token buckets, all monitors",
        ).set_function(self._token_bucket_occupancy)
        # The flat telemetry counters (router_drops, gateway_sent,
        # sigma_cache_*, …) reach the SLO engine and the scrape through
        # the registry too: one snapshot per state()/render().
        self.export_telemetry(obs.metrics)
        obs.metrics.gauge(
            "router_processed_total",
            help_text="Packets processed across all border routers (drops + forwarded)",
        ).set_function(self._router_processed)
        obs.metrics.gauge(
            "circuit_breakers_open",
            help_text="Retry-layer circuit breakers currently not closed",
        ).set_function(self._open_breakers)
        obs.metrics.gauge(
            "monitor_confirmed_flows",
            help_text="Flows confirmed as overusers by deterministic monitors",
        ).set_function(self._confirmed_flows)
        obs.metrics.gauge(
            "ofd_suspects",
            help_text="Flows flagged by overuse-flow detectors this window",
        ).set_function(self._ofd_suspects)
        obs.metrics.gauge(
            "ofd_hits_total",
            help_text="Cumulative flagged-flow observations across all OFDs",
        ).set_function(self._ofd_hits)
        journal = obs.journal
        if journal is not None:
            register_journal_gauges(
                obs.metrics, journal.total_count, lambda: journal.total_events
            )
        if slos:
            obs.alerts = AlertEngine(default_slos()).watch(obs.metrics, self.clock)
        return obs

    def export_telemetry(self, registry) -> None:
        """Export :meth:`telemetry` through ``registry`` as per-AS
        labelled gauge families (the Prometheus view of the snapshot)."""
        registry.family_source(self.telemetry, TELEMETRY_HELP)

    def _token_bucket_occupancy(self) -> float:
        monitors = [stack.gateway.monitor for stack in self._stacks.values()]
        monitors += [stack.router.monitor for stack in self._stacks.values()]
        watched = [m for m in monitors if m.watched_count() > 0]
        if not watched:
            return 1.0
        return sum(m.occupancy() for m in watched) / len(watched)

    def _router_processed(self) -> float:
        return float(
            sum(
                count
                for stack in self._stacks.values()
                for count in stack.router.stats.values()
            )
        )

    def _open_breakers(self) -> float:
        return float(
            sum(stack.cserv.caller.open_breakers() for stack in self._stacks.values())
        )

    def _confirmed_flows(self) -> float:
        total = 0
        for stack in self._stacks.values():
            total += stack.router.monitor.confirmed_count()
            total += stack.gateway.monitor.confirmed_count()
        return float(total)

    def _ofd_suspects(self) -> float:
        return float(
            sum(stack.router.ofd.suspect_count() for stack in self._stacks.values())
        )

    def _ofd_hits(self) -> float:
        return float(
            sum(stack.router.ofd.total_hits() for stack in self._stacks.values())
        )

    # -- accessors -----------------------------------------------------------------

    def stack(self, isd_as: IsdAs) -> AsStack:
        stack = self._stacks.get(isd_as)
        if stack is None:
            raise ColibriError(f"no Colibri stack for AS {isd_as}")
        return stack

    def cserv(self, isd_as: IsdAs) -> ColibriService:
        return self.stack(isd_as).cserv

    def gateway(self, isd_as: IsdAs) -> ColibriGateway:
        return self.stack(isd_as).gateway

    def router(self, isd_as: IsdAs) -> BorderRouter:
        return self.stack(isd_as).router

    def ases(self) -> list:
        return list(self._stacks)

    # -- control-plane workflows ------------------------------------------------------

    def reserve_segments(
        self,
        source: IsdAs,
        destination: IsdAs,
        bandwidth: float,
        minimum: float = 0.0,
    ) -> list:
        """Create the SegR "tubes" an EER from ``source`` to
        ``destination`` will ride (§3.1).

        Picks the shortest segment combination the underlying path-aware
        routing offers, then has each segment's first AS set up a SegR
        over it (down-SegRs are initiated by the core AS "upon an explicit
        request by the last AS" — here the request is this call).
        Returns the created :class:`SegmentReservation` records.
        """
        path = self.path_lookup.paths(source, destination, limit=1)[0]
        created = []
        for segment in path.segments:
            initiator = self.cserv(segment.first_as)
            created.append(
                initiator.setup_segment(segment, bandwidth, minimum=minimum)
            )
        return created

    def establish_eer(
        self,
        source: IsdAs,
        destination: IsdAs,
        bandwidth: float,
        src_host: HostAddr = HostAddr(1),
        dst_host: HostAddr = HostAddr(2),
    ) -> EerHandle:
        """Host-to-host EER over previously reserved segments (Fig. 1b)."""
        return self.cserv(source).setup_eer(
            destination, src_host, dst_host, bandwidth
        )

    # -- data-plane workflow ------------------------------------------------------------

    def send(self, source: IsdAs, handle: EerHandle, payload: bytes = b"") -> DeliveryReport:
        """Send one data packet over an EER and walk it across routers.

        Mirrors Fig. 1c: host -> gateway (monitor + stamp) -> border
        routers of every on-path AS -> destination host.  Raises
        :class:`DataPlaneError` subclasses when the *gateway* drops
        (unknown/expired reservation, rate exceeded); router drops are
        reported in the returned :class:`DeliveryReport`.
        """
        gateway = self.stack(source).gateway
        obs = self.obs
        if obs is None:
            packet = gateway.send(handle.reservation_id, payload)
            return self.forward(packet)
        tracer = obs.tracer
        span = tracer.start(
            "packet.send",
            {
                "source": str(source),
                "reservation": str(handle.reservation_id),
            },
        )
        try:
            with tracer.span("gateway.stamp", isd_as=str(source)):
                packet = gateway.send(handle.reservation_id, payload)
            report = self.forward(packet)
        except BaseException as error:
            tracer.finish(span, status="error", error=type(error).__name__)
            raise
        tracer.finish(span, delivered=report.delivered)
        return report

    def forward(self, packet: ColibriPacket) -> DeliveryReport:
        """Walk an already-stamped packet along its path.

        The packet header stores interface pairs, not AS IDs; the walk
        tracks position via the hop pointer against the EER path recorded
        at setup.  The path is read once, from the reservation stored at
        the source CServ — every on-path stack was built from the same
        topology, so positions agree and each hop's router is one lookup.
        """
        stacks, obs, verdicts, forward = self._stacks, self.obs, [], Verdict.FORWARD
        res_info = packet.res_info
        hops = self.stack(res_info.src_as).cserv.store.get_eer(res_info.reservation).hops
        while True:
            isd_as = hops[packet.hop_index].isd_as
            if obs is None:
                verdict = stacks[isd_as].router.process(packet).verdict
            else:
                span = obs.tracer.start("router.hop", {"isd_as": str(isd_as)})
                verdict = stacks[isd_as].router.process(packet).verdict
                obs.tracer.finish(span, verdict=verdict.value)
            verdicts.append((isd_as, verdict))
            if verdict is not forward:  # delivered to the host or the CServ, or dropped
                return DeliveryReport(delivered=not verdict.is_drop, verdicts=verdicts, packet=packet)

    # -- time -----------------------------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Advance the shared simulation clock."""
        return self.clock.advance(seconds)

    def housekeeping(self) -> dict:
        """Run every CServ's sweep; returns aggregate counts."""
        totals = {"eers": 0, "segments": 0, "registry": 0}
        for stack in self._stacks.values():
            removed = stack.cserv.housekeeping()
            for key in totals:
                totals[key] += removed.get(key, 0)
        return totals

    # -- observability ------------------------------------------------------------

    def audit(self) -> list:
        """Cross-AS consistency check; returns a list of violation strings.

        Verifies the distributed invariants no single component can see:

        * every stored EER's SegRs exist at the ASes that store the EER;
        * per-SegR admitted-EER bandwidth never exceeds the SegR's active
          bandwidth;
        * a SegR's active version agrees at every on-path AS (the §4.2
          activation discipline);
        * the incremental allocation sums match exact recomputation;
        * no transfer-quota row outlives its SegR;
        * no version other than a reservation's newest holds a replay
          record (a stale one could answer a request never made).

        An empty list means the deployment is coherent; soak and
        integration tests call this after churn.
        """
        violations = []
        now = self.clock.now()
        # Collect every stored SegR by id across ASes.
        by_id: dict = {}
        for isd_as, stack in self._stacks.items():
            for reservation in stack.cserv.store.segments():
                by_id.setdefault(reservation.reservation_id, []).append(
                    (isd_as, reservation)
                )
        for reservation_id, holders in by_id.items():
            versions = {r.active.version for _, r in holders}
            if len(versions) != 1:
                violations.append(
                    f"SegR {reservation_id}: active version disagrees "
                    f"across ASes: { {str(a): r.active.version for a, r in holders} }"
                )
            bandwidths = {r.bandwidth for _, r in holders}
            if len(bandwidths) != 1:
                violations.append(
                    f"SegR {reservation_id}: active bandwidth disagrees across ASes"
                )
        for isd_as, stack in self._stacks.items():
            store = stack.cserv.store
            for reservation in store.segments():
                total = store.allocated_on_segment(reservation.reservation_id)
                exact = sum(
                    store._eer_alloc[reservation.reservation_id].values()
                )
                if abs(total - exact) > max(1e-6, abs(exact) * 1e-9):
                    violations.append(
                        f"{isd_as}: allocation sum drift on "
                        f"{reservation.reservation_id}: {total} vs {exact}"
                    )
                if total > reservation.bandwidth * (1 + 1e-9):
                    violations.append(
                        f"{isd_as}: SegR {reservation.reservation_id} "
                        f"over-allocated: {total} > {reservation.bandwidth}"
                    )
            for segment_id in stack.cserv.eer_admission.distributor.segments():
                if not store.has_segment(segment_id):
                    violations.append(
                        f"{isd_as}: transfer-quota row outlives SegR {segment_id}"
                    )
            for reservation in store.segments() + store.eers():
                newest = reservation.latest_version()
                for version in reservation.versions.values():
                    if version.replay is not None and version is not newest:
                        violations.append(
                            f"{isd_as}: {reservation.reservation_id} keeps a "
                            f"replay record on superseded version {version.version}"
                        )
            for eer in store.eers():
                if eer.is_expired(now):
                    continue
                for segment_id in eer.segment_ids:
                    if store.has_segment(segment_id):
                        continue
                    # The AS must hold at least one of the EER's SegRs
                    # (its own role's segment); a completely unknown set
                    # is inconsistent.
                if not any(
                    store.has_segment(segment_id)
                    for segment_id in eer.segment_ids
                ):
                    violations.append(
                        f"{isd_as}: EER {eer.reservation_id} references only "
                        "unknown SegRs"
                    )
        return violations

    def telemetry(self) -> dict:
        """One snapshot of every component's counters, keyed by AS.

        The management-plane view an operator would scrape: reservation
        counts, admission decisions, router verdicts, gateway traffic,
        policing state.  Aggregates are under the ``"total"`` key.
        """
        per_as = {}
        total = {
            "segments": 0,
            "eers": 0,
            "seg_decisions": 0,
            "eer_decisions": 0,
            "gateway_sent": 0,
            "gateway_dropped": 0,
            "router_drops": 0,
            "router_forwarded": 0,
            "blocked_sources": 0,
            "offenses": 0,
            "bus_calls": self.bus.calls,
        }
        for isd_as, stack in self._stacks.items():
            router_drops = sum(
                count for verdict, count in stack.router.stats.items()
                if verdict.is_drop
            )
            router_forwarded = sum(
                count for verdict, count in stack.router.stats.items()
                if not verdict.is_drop
            )
            snapshot = {
                "segments": stack.cserv.store.segment_count(),
                "eers": stack.cserv.store.eer_count(),
                "seg_decisions": stack.cserv.seg_admission.decisions,
                "eer_decisions": stack.cserv.eer_admission.decisions,
                "gateway_sent": stack.gateway.packets_sent,
                "gateway_dropped": stack.gateway.packets_dropped,
                "router_drops": router_drops,
                "router_forwarded": router_forwarded,
                "blocked_sources": len(stack.router.blocklist),
                "offenses": stack.cserv.offenses_reported,
                "replays": stack.cserv.replays,
            }
            # The flow table of this AS's border router (absent without
            # the kernel): hits/misses/evictions plus rejected entries,
            # prefixed ``sigma_cache_``.
            if stack.router.kernel is not None:
                snapshot.update(stack.router.kernel.snapshot())
            per_as[str(isd_as)] = snapshot
            for key, value in snapshot.items():
                total[key] = total.get(key, 0) + value
        per_as["total"] = total
        return per_as
