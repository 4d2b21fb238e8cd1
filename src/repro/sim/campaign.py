"""Internet-scale scenario campaigns (ROADMAP: "Internet-scale
scenario campaigns"; paper §7's adversarial mixes at AS-graph scale).

A *campaign* is a declarative, seeded, injected-clock schedule of
phases — a time-compressed "day" of an inter-domain deployment, where a
few hundred simulated seconds stand in for hours of wall time by
scaling arrival rates instead of the clock.  Each :class:`Phase` mixes

* honest churn (:class:`WorkloadSpec` → :class:`~repro.sim.workload.EerWorkload`),
* renewal storms (:class:`RenewalStormSpec` — synchronized EER cohorts
  all hitting their renewal window together),
* §4.8 adversaries (:class:`OveruseSpec` — a rogue gateway stamping
  valid HVFs above the reserved rate; :class:`BogusSpec` — forged-HVF
  DDoS floods fired straight at a victim border router),
* control-plane partitions (``Phase.partitioned`` — links whose every
  request is lost, a partial partition the retry/breaker layer must
  ride out),

over a shared :class:`~repro.sim.events.EventLoop`.  A spec names only
what differs between campaigns; the attack rates, packet sizes, pump
and housekeeping cadences, SegR tube size and journal capacity are the
module constants below.  Between phases the runner evaluates soak-style
**invariant checkers**:

* *accounting conservation* — :meth:`ColibriNetwork.audit` finds no
  allocation drift, over-allocation, or orphaned EERs;
* *identity-verified policing* — no source is blocklisted or denied
  without at least one journal event whose verdict carried a
  cryptographically verified identity (``drop_overuse`` with
  ``identity_verified=True``) or a monitor confirmation;
* *journal boundedness* — the flight recorder never wrapped, so the
  export is complete evidence;

and at the end of the run, *SLO replay equivalence*: the live
:class:`~repro.obs.slo.AlertEngine`'s transition sequence must be
byte-for-byte reproducible by :func:`~repro.obs.slo.replay_journal`
over the exported journal at the recorded tick times.  Everything is
driven by one seed, so a campaign is a reproducible experiment: same
seed ⇒ byte-identical journal JSONL and identical SLO transitions.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.constants import EER_LIFETIME
from repro.control.renewal import RenewalScheduler
from repro.control.rpc import FaultInjector, LinkFaults
from repro.errors import ColibriError
from repro.obs.events import (
    MONITOR_CONFIRMED_OVERUSE,
    VERDICT_DROPPED,
    parse_jsonl,
)
from repro.obs.slo import AlertEngine, SLOSpec, event_counter_name, replay_journal
from repro.sim.events import EventLoop
from repro.sim.scenario import ColibriNetwork
from repro.sim.traffic import BogusColibriSource, OverusingSource
from repro.sim.workload import EerWorkload
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import Topology
from repro.util.memsize import deep_size

#: Extra simulated time appended to a draining phase so retired sessions'
#: EERs expire (one lifetime) and housekeeping provably reclaims them.
DRAIN_MARGIN = EER_LIFETIME * 1.25 + 1.0

#: Cadence of the campaign-wide renewal keep-alive (SegR tubes and
#: attack/storm EERs tracked in per-AS RenewalSchedulers).
RENEWAL_TICK = 1.0

#: Cadences of store housekeeping and of the SLO engine's ticks.
HOUSEKEEPING_EVERY = 5.0
SLO_EVERY = 1.0

#: Flight-recorder capacity: large enough that no campaign wraps it
#: (``check_journal_bounded``).
JOURNAL_CAPACITY = 1 << 20

#: Bandwidth of the pre-reserved SegR "tubes" under every used pair.
#: Sized for tier-decayed CAIDA-like access links: several tubes must
#: fit the reservable share of a ~2.5 Gbps deep leaf uplink.
SEGR_BANDWIDTH = 2e8

#: A rogue overuser's reserved rate (bits/s) and the multiple of it
#: that it sends; a forged-HVF flood's rate; both attacks' packet size
#: and pump cadence.
OVERUSE_BANDWIDTH = 4e5
OVERUSE_FACTOR = 6.0
BOGUS_RATE = 4e6
ATTACK_PACKET_BYTES = 500
ATTACK_TICK = 0.1

#: Hop-field interface pairs in a forged packet's header.
BOGUS_PATH = ((0, 1), (2, 0))

#: Bandwidth of each EER in a renewal-storm cohort.
STORM_BANDWIDTH = 1e5


# -- declarative specs ---------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """Honest Poisson EER churn between one AS pair (one
    :class:`~repro.sim.workload.EerWorkload` per phase instance)."""

    source: IsdAs
    destination: IsdAs
    arrival_rate: float = 2.0
    mean_holding: float = 30.0


@dataclass(frozen=True)
class OveruseSpec:
    """A rogue source AS overusing its own valid EER (§4.8, threat 3).

    The attacker holds a legitimate reservation of
    :data:`OVERUSE_BANDWIDTH` but stamps :data:`OVERUSE_FACTOR`× that
    rate through its own (non-monitoring) gateway; downstream routers
    must OFD-flag, confirm, blocklist, and report it.
    """

    source: IsdAs
    destination: IsdAs


@dataclass(frozen=True)
class BogusSpec:
    """Forged-HVF Colibri flood at one victim border router (threat 2).

    These packets reference no stored reservation, so they are fired at
    the victim's router directly — exactly what an adversary outside the
    reservation system can do — at :data:`BOGUS_RATE`.
    """

    attacker: IsdAs
    victim: IsdAs


@dataclass(frozen=True)
class RenewalStormSpec:
    """A cohort of EERs established at phase start in one instant.

    Because they share a birth time they share expiry, so every
    ``EER_LIFETIME - eer_lead`` seconds the whole cohort renews in the
    same scheduler tick — the storm the PR 7 control plane must absorb.
    """

    source: IsdAs
    destination: IsdAs
    count: int = 100


@dataclass(frozen=True)
class Phase:
    """One segment of the campaign timeline."""

    name: str
    duration: float
    workloads: Tuple[WorkloadSpec, ...] = ()
    overuse: Tuple[OveruseSpec, ...] = ()
    bogus: Tuple[BogusSpec, ...] = ()
    storms: Tuple[RenewalStormSpec, ...] = ()
    #: ``(caller, dest)`` control-plane links, ``None`` a wildcard as
    #: :meth:`FaultInjector.set_link` takes them, that lose every
    #: request from phase start until the active window ends — so the
    #: drain window observes the healing (breakers closing again).
    partitioned: Tuple[Tuple[Optional[IsdAs], Optional[IsdAs]], ...] = ()
    #: Append a drain window (``DRAIN_MARGIN``) where arrivals stop,
    #: sessions retire, and housekeeping reclaims the expired state —
    #: the teardown half of a flash crowd.  Phases that hand their churn
    #: to an immediately following phase set this False.
    drain: bool = True


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded campaign: topology factory + phase timeline."""

    name: str
    topology: Callable[[], Topology]
    phases: Tuple[Phase, ...]
    seed: int = 0


def campaign_slos() -> Tuple[SLOSpec, ...]:
    """The campaign SLO catalog — deliberately journal-only.

    Every spec references only ``events_*_total`` counters (present both
    in the live registry via journal gauges and in the registry
    :func:`~repro.obs.slo.registry_from_events` rebuilds), which is what
    makes the live-vs-replay equivalence invariant checkable at all.
    ``default_slos`` by contrast reads wall-latency histograms and live
    telemetry gauges that no journal export can reconstruct.
    """
    return (
        # Router drops should stay a small fraction of all recorded
        # events; a DDoS phase drives this into pending/firing and the
        # drain should resolve it.
        SLOSpec.ratio(
            "campaign_drop_burn",
            numerator=event_counter_name(VERDICT_DROPPED),
            denominator="events_total",
            objective=0.60,
        ),
        # Confirmed overuse is rare by design; any sustained confirmation
        # stream means the policing pipeline is hot.
        SLOSpec.ratio(
            "campaign_overuse_burn",
            numerator=event_counter_name(MONITOR_CONFIRMED_OVERUSE),
            denominator="events_total",
            objective=0.98,
        ),
        # Breaker flips trace control-plane instability (partitions).
        SLOSpec.ratio(
            "campaign_breaker_churn",
            numerator=event_counter_name("BreakerTransition"),
            denominator="events_total",
            objective=0.95,
        ),
    )


# -- results -------------------------------------------------------------------


@dataclass
class PhaseReport:
    """What one phase did and what state it left behind."""

    name: str
    started: float
    ended: float
    stats: Dict[str, int] = field(default_factory=dict)
    attack_verdicts: Dict[str, int] = field(default_factory=dict)
    renewals: Dict[str, int] = field(default_factory=dict)
    telemetry: Dict[str, float] = field(default_factory=dict)
    memory: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)


@dataclass
class CampaignResult:
    """Everything a campaign run produced, artifact-ready."""

    name: str
    seed: int
    phase_reports: List[PhaseReport]
    journal_jsonl: str
    slo_times: List[float]
    transitions: List[tuple]
    replay_transitions: List[tuple]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def replay_equivalent(self) -> bool:
        return self.transitions == self.replay_transitions

    def summary(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "violations": self.violations,
            "replay_equivalent": self.replay_equivalent,
            "slo_transitions": [list(t) for t in self.transitions],
            "phases": [asdict(report) for report in self.phase_reports],
        }

    def write_artifacts(self, directory) -> Path:
        """Write the per-campaign artifact set under ``directory/name``.

        * ``journal.jsonl`` — the full exported flight recording;
        * ``slo_replay.json`` — tick times, live + replayed transitions,
          and the equivalence verdict;
        * ``summary.json`` — phase reports and violations;

        and append one row to ``directory/memory_footprint.txt`` so CI
        can track that reservation state stays sublinear in flows.
        """
        root = Path(directory)
        target = root / self.name
        target.mkdir(parents=True, exist_ok=True)
        (target / "journal.jsonl").write_text(self.journal_jsonl)
        (target / "slo_replay.json").write_text(
            json.dumps(
                {
                    "times": self.slo_times,
                    "live_transitions": [list(t) for t in self.transitions],
                    "replay_transitions": [
                        list(t) for t in self.replay_transitions
                    ],
                    "equivalent": self.replay_equivalent,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        (target / "summary.json").write_text(
            json.dumps(self.summary(), sort_keys=True, indent=2) + "\n"
        )
        footprint = root / "memory_footprint.txt"
        arrivals = sum(r.stats.get("arrivals", 0) for r in self.phase_reports)
        peak = max(
            (r.memory.get("store_bytes", 0.0) for r in self.phase_reports),
            default=0.0,
        )
        live = self.phase_reports[-1].memory.get("live_eers", 0.0) if (
            self.phase_reports
        ) else 0.0
        with footprint.open("a") as handle:
            handle.write(
                f"{self.name:>24} | arrivals {arrivals:>9} | "
                f"peak store {peak / 1024:>9.0f}KB | final live EERs {live:>7.0f}\n"
            )
        return target


# -- invariant checkers --------------------------------------------------------


def check_accounting(runner: "CampaignRunner") -> List[str]:
    """PR 7 ledger conservation: the cross-AS audit must be clean."""
    return runner.network.audit()


def check_journal_bounded(runner: "CampaignRunner") -> List[str]:
    """The flight recorder must not have wrapped: an evicted event would
    silently break both forensics and replay equivalence."""
    journal = runner.network.obs.journal if runner.network.obs else None
    if journal is None:
        return ["journal not enabled"]
    stats = journal.stats()
    if stats["dropped"]:
        return [
            f"journal wrapped: dropped {stats['dropped']} of "
            f"{stats['total']} events (capacity {stats['capacity']})"
        ]
    return []


def check_identity_verified_policing(runner: "CampaignRunner") -> List[str]:
    """No punitive verdict without identity-verified evidence (§4.6/§4.8).

    Every blocklisted source and every CServ-denied source must be
    backed by at least one journal event that established the offender's
    identity cryptographically: a ``drop_overuse`` verdict with
    ``identity_verified=True``, or a monitor confirmation joined back to
    an identity-verified drop of the same flow.
    """
    obs = runner.network.obs
    journal = obs.journal if obs is not None else None
    if journal is None:
        return ["journal not enabled"]
    verified_sources = set()
    verified_flows = set()
    confirmed_flows = set()
    for event in journal.events():
        if event.type == VERDICT_DROPPED and event.attrs.get("identity_verified"):
            verified_sources.add(event.attrs.get("src_as"))
            verified_flows.add(event.attrs.get("flow"))
        elif event.type == MONITOR_CONFIRMED_OVERUSE:
            confirmed_flows.add(event.attrs.get("flow"))
    violations = []
    if not confirmed_flows <= verified_flows:
        # A monitor only confirms flows whose packets authenticated; a
        # confirmation with no verified drop means evidence is missing.
        for flow in sorted(confirmed_flows - verified_flows):
            violations.append(
                f"monitor confirmed flow {flow} without an identity-verified drop"
            )
    for isd_as, stack in runner.network._stacks.items():
        for source in stack.router.blocklist.blocked_ases():
            if str(source) not in verified_sources:
                violations.append(
                    f"{isd_as}: blocklisted {source} without identity-verified evidence"
                )
        for source in stack.cserv.denied_sources:
            if str(source) not in verified_sources:
                violations.append(
                    f"{isd_as}: denied {source} without identity-verified evidence"
                )
    return violations


def check_no_residual_eers(runner: "CampaignRunner") -> List[str]:
    """After a fully drained campaign, every EER must be gone: sessions
    retired, reservations expired, stores swept.  Residue here is the
    accounting leak the flash-crowd teardown exists to catch."""
    violations = []
    for isd_as, stack in runner.network._stacks.items():
        count = stack.cserv.store.eer_count()
        if count:
            violations.append(f"{isd_as}: {count} residual EERs after drain")
    return violations


#: Evaluated after every phase.
PHASE_CHECKERS: Tuple[Tuple[str, Callable], ...] = (
    ("accounting", check_accounting),
    ("journal_bounded", check_journal_bounded),
    ("identity_verified_policing", check_identity_verified_policing),
)

#: Evaluated once after the final phase.
FINAL_CHECKERS: Tuple[Tuple[str, Callable], ...] = (
    ("no_residual_eers", check_no_residual_eers),
)

#: Final checkers that are only meaningful after a fully drained
#: campaign (a non-draining final phase legitimately leaves live EERs).
DRAIN_ONLY_FINAL = (check_no_residual_eers,)


# -- the runner ----------------------------------------------------------------


class CampaignRunner:
    """Executes one :class:`CampaignSpec` deterministically."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        self.network: Optional[ColibriNetwork] = None
        self.loop: Optional[EventLoop] = None
        self.faults = FaultInjector(seed=spec.seed + 1)
        self._rng = random.Random(spec.seed)
        self._schedulers: Dict[IsdAs, RenewalScheduler] = {}
        self._slo_times: List[float] = []
        self._engine: Optional[AlertEngine] = None
        # Workloads and attack/storm EER handles live until the next
        # draining phase, not just to the end of the phase that started
        # them — a flash crowd's baseline churn keeps running under the
        # surge.  Stats are reported per phase as deltas.
        self._live_workloads: List[EerWorkload] = []
        self._reported: Dict[int, Dict[str, int]] = {}
        self._tracked_handles: List[Tuple[IsdAs, object]] = []

    # -- wiring ----------------------------------------------------------------

    def _scheduler(self, isd_as: IsdAs) -> RenewalScheduler:
        scheduler = self._schedulers.get(isd_as)
        if scheduler is None:
            scheduler = RenewalScheduler(self.network.cserv(isd_as))
            self._schedulers[isd_as] = scheduler
        return scheduler

    def _pairs(self) -> List[Tuple[IsdAs, IsdAs]]:
        """Every (src, dst) AS pair any phase touches, in spec order."""
        pairs: List[Tuple[IsdAs, IsdAs]] = []
        seen = set()
        for phase in self.spec.phases:
            for group in (phase.workloads, phase.storms, phase.overuse):
                for item in group:
                    pair = (item.source, item.destination)
                    if pair not in seen:
                        seen.add(pair)
                        pairs.append(pair)
        return pairs

    def _setup(self) -> None:
        net = ColibriNetwork(
            self.spec.topology(), faults=self.faults, compact_dataplane=True
        )
        self.network = net
        self.loop = EventLoop(net.clock)
        obs = net.enable_observability(
            seed=self.spec.seed,
            journal=True,
            journal_capacity=JOURNAL_CAPACITY,
            perf=net.clock,
        )
        self._engine = AlertEngine(campaign_slos()).watch(obs.metrics, net.clock)
        # Pre-reserve the SegR tubes every used pair rides, and keep
        # them alive for the whole campaign horizon.
        for source, destination in self._pairs():
            for segment_reservation in net.reserve_segments(
                source, destination, SEGR_BANDWIDTH
            ):
                initiator = segment_reservation.reservation_id.src_as
                self._scheduler(initiator).track_segment(
                    segment_reservation.reservation_id, bandwidth=SEGR_BANDWIDTH
                )

    def _tick_slo(self) -> None:
        self._slo_times.append(self.network.clock.now())
        self._engine.tick()

    def _tick_renewals(self) -> None:
        for scheduler in self._schedulers.values():
            scheduler.tick()

    # -- attack pumps ----------------------------------------------------------

    def _pump_overuse(self, source: OverusingSource, verdicts: Dict[str, int]) -> None:
        now = self.network.clock.now()
        for packet in source.packets(now, ATTACK_TICK):
            report = self.network.forward(packet)
            for _, verdict in report.verdicts:
                verdicts[verdict.value] = verdicts.get(verdict.value, 0) + 1

    def _pump_bogus(
        self, source: BogusColibriSource, victim: IsdAs, verdicts: Dict[str, int]
    ) -> None:
        now = self.network.clock.now()
        router = self.network.router(victim)
        for packet in router.process_batch(list(source.packets(now, ATTACK_TICK))):
            verdicts[packet.verdict.value] = (
                verdicts.get(packet.verdict.value, 0) + 1
            )

    # -- the run ---------------------------------------------------------------

    def run(self) -> CampaignResult:
        self._setup()
        net, loop = self.network, self.loop
        phase_reports: List[PhaseReport] = []
        all_violations: List[str] = []

        for phase_index, phase in enumerate(self.spec.phases):
            start = net.clock.now()
            active_end = start + phase.duration
            phase_end = active_end + (DRAIN_MARGIN if phase.drain else 0.0)

            for caller, dest in phase.partitioned:
                self.faults.set_link(caller, dest, LinkFaults(request_loss=1.0))

            for workload_spec in phase.workloads:
                workload = EerWorkload(
                    net,
                    loop,
                    workload_spec.source,
                    workload_spec.destination,
                    arrival_rate=workload_spec.arrival_rate,
                    mean_holding=workload_spec.mean_holding,
                    seed=self._rng.randrange(1 << 31),
                )
                workload.start()
                self._live_workloads.append(workload)

            storm_failures = 0
            for storm in phase.storms:
                cserv = net.cserv(storm.source)
                scheduler = self._scheduler(storm.source)
                for index in range(storm.count):
                    try:
                        handle = cserv.setup_eer(
                            storm.destination,
                            # Distinct src hosts so each EER is its own flow.
                            _host(index + 1),
                            _host(1),
                            STORM_BANDWIDTH,
                        )
                    except ColibriError:
                        storm_failures += 1
                        continue
                    scheduler.track_eer(handle)
                    self._tracked_handles.append((storm.source, handle))

            attack_verdicts: Dict[str, int] = {}
            for overuse_spec in phase.overuse:
                cserv = net.cserv(overuse_spec.source)
                handle = cserv.setup_eer(
                    overuse_spec.destination,
                    _host(9000 + phase_index),
                    _host(1),
                    OVERUSE_BANDWIDTH,
                )
                self._scheduler(overuse_spec.source).track_eer(handle)
                self._tracked_handles.append((overuse_spec.source, handle))
                source = OverusingSource(
                    net.gateway(overuse_spec.source),
                    handle,
                    OVERUSE_BANDWIDTH * OVERUSE_FACTOR,
                    ATTACK_PACKET_BYTES,
                )
                loop.every(
                    ATTACK_TICK,
                    lambda s=source: self._pump_overuse(s, attack_verdicts),
                    until=active_end,
                )

            for bogus_spec in phase.bogus:
                source = BogusColibriSource(
                    bogus_spec.attacker,
                    BOGUS_PATH,
                    BOGUS_RATE,
                    ATTACK_PACKET_BYTES,
                    # A plausible (encodable) expiry: the forgeries must
                    # fail HVF verification, not timestamp validation.
                    expiry=active_end + EER_LIFETIME,
                    seed=self._rng.randrange(1 << 31),
                )
                loop.every(
                    ATTACK_TICK,
                    lambda s=source, v=bogus_spec.victim: self._pump_bogus(
                        s, v, attack_verdicts
                    ),
                    until=active_end,
                )

            loop.every(HOUSEKEEPING_EVERY, lambda: net.housekeeping(), until=phase_end)
            loop.every(SLO_EVERY, self._tick_slo, until=phase_end)
            loop.every(RENEWAL_TICK, self._tick_renewals, until=active_end)

            loop.run_until(max(active_end, net.clock.now()))

            # Heal this phase's partition before draining, so the drain
            # window observes the recovery (breakers closing, renewals
            # succeeding again).
            for caller, dest in phase.partitioned:
                self.faults.set_link(caller, dest, LinkFaults())

            if phase.drain:
                for workload in self._live_workloads:
                    workload.stop()
                    workload.retire_all()
                for source, handle in self._tracked_handles:
                    self._scheduler(source).untrack(handle.reservation_id)
                self._tracked_handles.clear()
                loop.run_until(max(phase_end, net.clock.now()))

            stats = self._phase_stats()
            stats["storm_setup_failures"] = storm_failures
            if phase.drain:
                self._live_workloads.clear()

            renewals: Dict[str, int] = {}
            for scheduler in self._schedulers.values():
                for key, value in scheduler.renewals.items():
                    renewals[key] = renewals.get(key, 0) + value

            report = PhaseReport(
                name=phase.name,
                started=start,
                ended=net.clock.now(),
                stats=stats,
                attack_verdicts=attack_verdicts,
                renewals=renewals,
                telemetry=dict(net.telemetry()["total"]),
                memory=self._memory_row(stats.get("arrivals", 0)),
            )
            for checker_name, checker in PHASE_CHECKERS:
                for violation in checker(self):
                    report.violations.append(f"{checker_name}: {violation}")
            phase_reports.append(report)
            all_violations.extend(
                f"phase {phase.name}: {violation}"
                for violation in report.violations
            )

        drained = bool(self.spec.phases) and self.spec.phases[-1].drain
        for checker_name, checker in FINAL_CHECKERS:
            if checker in DRAIN_ONLY_FINAL and not drained:
                continue
            for violation in checker(self):
                all_violations.append(f"final {checker_name}: {violation}")

        journal_jsonl = ""
        if net.obs is not None and net.obs.journal is not None:
            journal_jsonl = net.obs.journal.export_jsonl()
        replayed = self._replay(journal_jsonl)
        if replayed != self._engine.transitions:
            all_violations.append(
                "slo_replay: live transitions != journal replay "
                f"({len(self._engine.transitions)} live vs {len(replayed)} replayed)"
            )
        return CampaignResult(
            name=self.spec.name,
            seed=self.spec.seed,
            phase_reports=phase_reports,
            journal_jsonl=journal_jsonl,
            slo_times=list(self._slo_times),
            transitions=list(self._engine.transitions),
            replay_transitions=replayed,
            violations=all_violations,
        )

    def _replay(self, journal_jsonl: str) -> List[tuple]:
        """Re-run the campaign SLOs offline over the exported journal at
        the recorded live tick times."""
        engine = AlertEngine(campaign_slos())
        replay_journal(parse_jsonl(journal_jsonl), engine, self._slo_times)
        return engine.transitions

    def _phase_stats(self) -> Dict[str, int]:
        """Per-phase workload activity: deltas of every live workload's
        cumulative stats since the last phase report, so churn carried
        across undrained phase boundaries is attributed to the phase in
        which it actually happened."""
        stats: Dict[str, int] = {}
        for workload in self._live_workloads:
            current = vars(workload.stats)
            previous = self._reported.get(id(workload), {})
            for key, value in current.items():
                stats[key] = stats.get(key, 0) + value - previous.get(key, 0)
            self._reported[id(workload)] = dict(current)
        return stats

    def _memory_row(self, arrivals: int) -> Dict[str, float]:
        """Reservation-state heap across all CServ stores (shared ``seen``
        set, so cross-store shared payloads are counted once)."""
        seen: set = set()
        store_bytes = 0
        live = 0
        for stack in self.network._stacks.values():
            store = stack.cserv.store
            live += store.eer_count()
            if store.eer_count() or store.segment_count():
                store_bytes += deep_size(store, seen)
        obs = self.network.obs
        journal = obs.journal if obs is not None else None
        return {
            "arrivals": float(arrivals),
            "live_eers": float(live),
            "store_bytes": float(store_bytes),
            "journal_events": float(
                journal.total_events if journal is not None else 0
            ),
        }


def _host(index: int) -> HostAddr:
    return HostAddr(index % (1 << 32))
