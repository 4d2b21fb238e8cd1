"""Shared-nothing shard executor for the data-plane fast paths (Fig. 6).

The paper's multi-core claim — "for both components, the performance is
almost perfectly linear in the number of cores dedicated to packet
processing" (§7.1) — rests on a structural property: the fast paths
share no mutable state.  The border router is fully stateless (§4.6),
and the gateway's state partitions cleanly by reservation ID, so k cores
can each run a complete, independent stack.

This module makes that structure executable rather than argued:

* :func:`shard_of` is the partition rule — a process-stable hash of the
  reservation ID's wire bytes (CPython's builtin ``hash`` is salted per
  process and would assign the same reservation to different shards in
  different workers);
* :func:`run_shard` is a picklable worker that builds its *own* gateway
  or router, its own monitor, its own clock — nothing is shared, not
  even read-only — installs only the reservations :func:`shard_of` maps
  to it, and times a batched packet loop with
  :class:`~repro.util.clock.PerfClock` (setup is control-plane work and
  excluded, as in the paper's measurements);
* :class:`ShardWorkerPool` keeps those workers *alive*: long-lived
  daemon processes, one inbox each, caching the built-and-warmed stack
  per spec so repeated measurements of a sweep point time steady-state
  forwarding rather than fork + install + warm-up;
* :class:`ShardExecutor` fans the workers out as OS processes when the
  host has the cores and aggregates *measured* throughput; on smaller
  hosts it falls back to the linear model and says so — every result
  carries an explicit ``mode`` label so a modeled number can never
  masquerade as a measured one.

Aggregate throughput of a measured run is ``total packets / slowest
shard's loop time``: under true parallelism the shards overlap and this
approaches the sum of per-shard rates, while on an oversubscribed host
the preempted shards stretch their own timing windows and the aggregate
honestly degrades to single-core throughput instead of fabricating a
k-times speedup.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.constants import EER_LIFETIME
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import ColibriKeys, eer_hvf, hop_authenticator
from repro.dataplane.router import BorderRouter
from repro.errors import SimulationError
from repro.obs.distributed import (
    MergedTelemetry,
    TraceContext,
    frames_from,
    merge_frames,
)
from repro.obs.events import SHARD_COMPLETED, EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceCollector
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import PerfClock, SimClock
from repro.util.metrics import merge_counters
from repro.util.units import gbps

#: Private-use AS number range, same convention as the benchmarks.
_BASE = 0xFF00_0000_0000
_SRC = IsdAs(1, _BASE + 1)
_ROUTER_AS = IsdAs(1, _BASE + 2)


def shard_of(reservation_id: ReservationId, num_shards: int) -> int:
    """The shard owning ``reservation_id``, stable across processes.

    Hashes the 12-byte wire form with (unkeyed) BLAKE2s so that every
    worker, in every process, on every run agrees on the assignment —
    the property the gateway's dispatcher and the per-shard installers
    both rely on.
    """
    if num_shards <= 0:
        raise ValueError(f"shard count must be positive, got {num_shards}")
    digest = hashlib.blake2s(reservation_id.packed, digest_size=4).digest()
    return int.from_bytes(digest, "big") % num_shards


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs, picklable for process dispatch."""

    component: str  # "gateway" or "router"
    shard_index: int
    num_shards: int
    path_length: int = 4
    #: Global reservation count; the worker installs only the subset
    #: :func:`shard_of` assigns to ``shard_index``.
    reservations: int = 1024
    #: Data packets this shard pushes through its timed loop.
    packets: int = 16384
    batch: int = 64
    seed: int = 2026
    #: Arms a per-worker obs shard (tracer/registry/journal, seeded
    #: ``obs_seed + shard_index``) whose capture streams back to the
    #: parent as telemetry frames; ``None`` keeps the worker obs-free
    #: and the result queue carrying nothing but the outcome tuple.
    obs_seed: Optional[int] = None
    #: Propagated caller context: the worker's root span grafts onto
    #: this trace.
    trace: Optional[TraceContext] = None


@dataclass
class ShardOutcome:
    """One worker's measurement."""

    shard_index: int
    packets: int
    elapsed: float  # seconds inside the timed loop only
    pps: float
    #: Telemetry counters of the shard's private stack (gateway/monitor
    #: packet counts, σ-cache hits/misses), snapshotted in the worker and
    #: shipped back across the process boundary.  Before this field
    #: existed the per-process counters died with the worker, so a
    #: sharded run reported throughput with a blank forensic record.
    counters: dict = field(default_factory=dict)
    #: Sequence-numbered telemetry frames from the shard's obs capture
    #: (spans, journal events, registry state), empty unless the spec
    #: carried an ``obs_seed``.  Frames travel the result queue as their
    #: own messages; the parent reattaches them here.
    frames: list = field(default_factory=list)


@dataclass
class ShardRunResult:
    """Aggregate of one :meth:`ShardExecutor.run` invocation."""

    component: str
    num_shards: int
    #: ``"measured"`` — every shard ran as its own OS process;
    #: ``"measured-oversubscribed"`` — processes ran, but the host has
    #: fewer CPUs than shards, so overlap is partial;
    #: ``"modeled"`` — one shard measured, aggregate extrapolated
    #: linearly (the fallback for hosts without the cores).
    mode: str
    shards: List[ShardOutcome]
    aggregate_pps: float

    @property
    def measured(self) -> bool:
        return self.mode.startswith("measured")

    def telemetry(self) -> dict:
        """Per-shard counters plus their merged ``total``, in the same
        ``{entity: {counter: value}}`` shape as
        :meth:`~repro.sim.scenario.ColibriNetwork.telemetry`, so
        :meth:`repro.obs.metrics.MetricsRegistry.family_source` exports
        it directly."""
        snapshot = {
            f"shard-{outcome.shard_index}": dict(outcome.counters)
            for outcome in self.shards
        }
        snapshot["total"] = merge_counters(
            [outcome.counters for outcome in self.shards]
        )
        return snapshot

    def merged_telemetry(
        self, expected_workers: Optional[List[int]] = None
    ) -> Optional[MergedTelemetry]:
        """Reassemble the workers' streamed obs shards into one
        :class:`~repro.obs.distributed.MergedTelemetry` (spans per
        worker, merged registry, identity-ordered events).

        Returns ``None`` when no shard carried frames (obs was off).
        Pass ``expected_workers`` to turn a silently absent stream into
        a :class:`~repro.obs.distributed.TelemetryGapError` — the check
        the campaign harness's worker-stream checker runs.
        """
        frames = [
            frame for outcome in self.shards for frame in outcome.frames
        ]
        if not frames and expected_workers is None:
            return None
        return merge_frames(frames, expected_workers=expected_workers)


def _owned_ids(spec: ShardSpec) -> list:
    """This shard's slice of the global reservation ID space."""
    owned = []
    for index in range(spec.reservations):
        res_id = ReservationId(_SRC, index + 1)
        if shard_of(res_id, spec.num_shards) == spec.shard_index:
            owned.append(res_id)
    return owned


def _gateway_workload(spec: ShardSpec):
    """A private gateway with this shard's reservations installed, plus
    the pregenerated request batches for the timed loop.

    Returns ``(loop, snapshot, clock)``: the timed packet loop, a
    zero-arg callable reading the stack's counters (taken *in the
    worker* so the numbers survive the process boundary), and the
    stack's deterministic clock — the timestamp source for the shard's
    optional obs capture."""
    clock = SimClock(1000.0)
    gateway = ColibriGateway(_SRC, clock)
    rng = random.Random(spec.seed + spec.shard_index)
    pairs = [(0, 1)] + [(2, 3)] * (spec.path_length - 2) + [(4, 0)]
    path = PathField(tuple(pairs))
    eer_info = EerInfo(HostAddr(1), HostAddr(2))
    expiry = clock.now() + EER_LIFETIME * 1000  # outlives the bench

    def snapshot() -> dict:
        return {
            "gateway_sent": gateway.packets_sent,
            "gateway_dropped": gateway.packets_dropped,
            "monitor_passed": gateway.monitor.packets_passed,
            "monitor_dropped": gateway.monitor.packets_dropped,
        }

    ids = _owned_ids(spec)
    if not ids:
        # A shard can own nothing (fewer reservations than shards, e.g.
        # Fig. 6's r=1 column): it simply idles.
        return (lambda: 0), snapshot, clock
    for res_id in ids:
        res_info = ResInfo(
            reservation=res_id, bandwidth=gbps(1000), expiry=expiry, version=1
        )
        hop_auths = tuple(
            rng.getrandbits(128).to_bytes(16, "big")
            for _ in range(spec.path_length)
        )
        gateway.install(res_id, path, eer_info, res_info, hop_auths)
    batches = [
        [(ids[rng.randrange(len(ids))], b"") for _ in range(spec.batch)]
        for _ in range(max(1, spec.packets // spec.batch))
    ]

    def loop() -> int:
        done = 0
        send_batch = gateway.send_batch
        # One microsecond of virtual time per burst: keeps Ts sequence
        # numbers (16 bits per microsecond per reservation) from being
        # exhausted when every packet hits one reservation (r=1).
        advance = clock.advance
        for requests in batches:
            send_batch(requests)
            advance(1e-6)
            done += len(requests)
        return done

    return loop, snapshot, clock


def _router_workload(spec: ShardSpec):
    """A private border router plus honestly stamped packets for this
    shard's reservations, batched for the timed validation loop.

    Returns ``(loop, snapshot, clock)`` like :func:`_gateway_workload`; the
    router's counters are its σ-cache statistics (the validation loop
    bypasses the verdict pipeline, so cache behaviour *is* its telemetry)."""
    clock = SimClock(1000.0)
    keys = ColibriKeys(DrkeyDeriver(_ROUTER_AS, clock, seed=b"shard-router-key"))
    router = BorderRouter(_ROUTER_AS, keys, clock)
    rng = random.Random(spec.seed + spec.shard_index)
    pairs = [(0, 1)] + [(2, 3)] * (spec.path_length - 2) + [(4, 0)]
    path = PathField(tuple(pairs))
    eer_info = EerInfo(HostAddr(1), HostAddr(2))
    expiry = clock.now() + EER_LIFETIME

    def snapshot() -> dict:
        cache = router.sigma_cache
        return dict(cache.snapshot()) if cache is not None else {}

    owned = _owned_ids(spec)
    if not owned:
        return (lambda: 0), snapshot, clock
    packets = []
    for res_id in owned:
        res_info = ResInfo(
            reservation=res_id, bandwidth=gbps(1), expiry=expiry, version=1
        )
        sigma = hop_authenticator(keys.hop_key(), res_info, eer_info, 2, 3)
        timestamp = Timestamp.create(clock.now(), expiry)
        packet = ColibriPacket(
            packet_type=PacketType.EER_DATA,
            path=path,
            res_info=res_info,
            timestamp=timestamp,
            hvfs=[ColibriPacket.EMPTY_HVF] * spec.path_length,
            eer_info=eer_info,
            payload=b"",
            hop_index=1,
        )
        packet.hvfs[1] = eer_hvf(sigma, timestamp, packet.total_size)
        packets.append(packet)
    batches = [
        [packets[rng.randrange(len(packets))] for _ in range(spec.batch)]
        for _ in range(max(1, spec.packets // spec.batch))
    ]

    def loop() -> int:
        done = 0
        validate_batch = router.validate_batch
        for burst in batches:
            verdicts = validate_batch(burst)
            if not all(verdicts):
                # Every packet carries an honestly computed HVF; a False
                # verdict means the shard's crypto stack is broken and
                # the throughput number would be meaningless.
                raise SimulationError(
                    f"shard {spec.shard_index}: router rejected "
                    f"{verdicts.count(False)}/{len(verdicts)} honest packets"
                )
            done += len(verdicts)
        return done

    return loop, snapshot, clock


def _workload(spec: ShardSpec):
    """``(loop, snapshot, clock)`` for one spec — the component dispatch
    shared by the one-shot :func:`run_shard` and the persistent pool
    workers."""
    if spec.component == "gateway":
        return _gateway_workload(spec)
    if spec.component == "router":
        return _router_workload(spec)
    raise ValueError(f"unknown shard component {spec.component!r}")


def _timed_pass(spec: ShardSpec, loop, snapshot) -> ShardOutcome:
    """One measured trip through a shard's packet loop."""
    clock = PerfClock()
    start = clock.now()
    done = loop()
    elapsed = clock.now() - start
    return ShardOutcome(
        shard_index=spec.shard_index,
        packets=done,
        elapsed=elapsed,
        pps=done / elapsed if elapsed > 0 else 0.0,
        counters=snapshot(),
    )


#: Packets per timed loop; Fig. 6 sweeps run 2**11..2**14 per shard.
_SHARD_LOOP_BUCKETS = (256.0, 1024.0, 4096.0, 16384.0, 65536.0)


def _observed_pass(spec: ShardSpec, loop, snapshot, clock):
    """One measured pass plus, when the spec arms it, the worker's obs
    shard: a fresh seeded tracer/registry/journal around the timed
    loop, packaged into telemetry frames.

    Returns ``(outcome, frames)``.  The capture is rebuilt per
    submission — the deterministic ``obs_seed + shard_index`` seeding
    and the workload's injected clock make a same-seed run's frames
    byte-identical.
    """
    if spec.obs_seed is None:
        return _timed_pass(spec, loop, snapshot), []
    tracer = TraceCollector(clock, seed=spec.obs_seed + spec.shard_index)
    if spec.trace is not None:
        tracer.adopt(spec.trace.trace_id, spec.trace.span_id)
    registry = MetricsRegistry()
    journal = EventJournal(clock)
    root = tracer.start(
        "shard.run",
        {"component": spec.component, "shard": spec.shard_index},
    )
    loop_span = tracer.start("shard.loop")
    outcome = _timed_pass(spec, loop, snapshot)
    tracer.finish(loop_span, packets=outcome.packets)
    tracer.finish(root)
    registry.counter(
        "shard_passes_total", help_text="Timed passes run by this worker"
    ).inc()
    registry.counter(
        "shard_packets_total", help_text="Packets through timed shard loops"
    ).inc(outcome.packets)
    registry.histogram(
        "shard_loop_packets",
        buckets=_SHARD_LOOP_BUCKETS,
        help_text="Packets completed per timed shard loop",
    ).observe(outcome.packets)
    journal.record(
        SHARD_COMPLETED,
        component=spec.component,
        shard_index=spec.shard_index,
        packets=outcome.packets,
    )
    frames = frames_from(
        spec.shard_index, tracer=tracer, registry=registry, journal=journal
    )
    return outcome, frames


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Build one shard's private stack and time its packet loop.

    Module-level (picklable) so :class:`ShardExecutor` can dispatch it
    through :mod:`multiprocessing`; also callable inline for the
    single-shard and modeled paths.
    """
    loop, snapshot, clock = _workload(spec)
    # One untimed warm-up pass brings soft state to steady state — the
    # router's σ-cache fills, lazily packed header fields materialize —
    # so the timed pass measures sustained throughput, the quantity the
    # paper's Fig. 6 reports.  Counters cover warm-up + timed pass — the
    # shard's whole life — and are read inside the worker, before the
    # process exits.
    loop()
    outcome, frames = _observed_pass(spec, loop, snapshot, clock)
    outcome.frames = frames
    return outcome


def _pool_worker(inbox, outbox) -> None:
    """Long-lived worker loop behind :class:`ShardWorkerPool`.

    Builds each spec's private stack on first sight (setup plus one
    untimed warm-up pass, exactly like :func:`run_shard`) and keeps it
    in a worker-local cache; every submission after that reuses the
    pre-warmed stack, so repeated measurements see steady-state
    forwarding instead of fork + install + warm-up.  A ``None`` spec is
    the shutdown sentinel.

    Messages to the parent are tagged tuples: zero or more
    ``("frame", shard_index, TelemetryFrame)`` when the spec arms an
    obs shard, then exactly one ``("result", shard_index, outcome,
    reason)``.  Failures ship a ``result`` with ``reason`` set and are
    then re-raised so a broken worker dies loudly instead of serving
    corrupt stacks.

    The workload cache is keyed on the spec *minus* its obs fields: a
    resubmission that only changes the propagated trace context (a new
    parent span every run) must still hit the warm stack.
    """
    workloads: dict = {}
    while True:
        spec = inbox.get()
        if spec is None:
            break
        try:
            key = replace(spec, obs_seed=None, trace=None)
            cached = workloads.get(key)
            if cached is None:
                cached = _workload(spec)
                cached[0]()  # untimed warm-up, as in run_shard
                workloads[key] = cached
            outcome, frames = _observed_pass(
                spec, cached[0], cached[1], cached[2]
            )
        except Exception as error:
            outbox.put(
                (
                    "result",
                    spec.shard_index,
                    None,
                    f"{type(error).__name__}: {error}",
                )
            )
            raise
        for frame in frames:
            outbox.put(("frame", spec.shard_index, frame))
        outbox.put(("result", spec.shard_index, outcome, None))


class ShardWorkerPool:
    """Persistent shard workers with pre-warmed private stacks.

    ``multiprocessing.Pool(num_shards)`` per measurement — the previous
    dispatch — charges every run the fork, reservation install and
    warm-up of a cold stack.  This pool starts its workers once; each
    worker owns a private inbox and a per-spec workload cache, so the
    *second* submission of a spec times nothing but the packet loop.
    Shard ``i`` is pinned to worker ``i % size`` — resubmitting the same
    sweep point always lands on the worker holding its warm stack.

    Workers are daemonic and also honor an explicit ``None`` sentinel
    via :meth:`close`; the pool is a context manager.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        context = multiprocessing.get_context()
        self.size = size
        self._outbox = context.Queue()
        self._inboxes = []
        self._workers = []
        self._closed = False
        for _ in range(size):
            inbox = context.Queue()
            worker = context.Process(
                target=_pool_worker, args=(inbox, self._outbox), daemon=True
            )
            worker.start()
            self._inboxes.append(inbox)
            self._workers.append(worker)

    def map(self, specs: List[ShardSpec]) -> List[ShardOutcome]:
        """Outcomes for ``specs``, in spec order.

        Specs must carry distinct shard indices (one result slot each).
        Raises :class:`~repro.errors.SimulationError` if a worker
        reports a failure.
        """
        if self._closed:
            raise SimulationError("shard worker pool is closed")
        specs = list(specs)
        indices = [spec.shard_index for spec in specs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate shard indices in batch: {indices}")
        for spec in specs:
            self._inboxes[spec.shard_index % self.size].put(spec)
        by_index = {}
        frames_by_index: dict = {}
        pending = set(indices)
        while pending:
            message = self._outbox.get()
            if message[0] == "frame":
                _, shard_index, frame = message
                frames_by_index.setdefault(shard_index, []).append(frame)
                continue
            _, shard_index, outcome, reason = message
            if reason is not None:
                raise SimulationError(
                    f"shard {shard_index} worker failed: {reason}"
                )
            # Workers emit a shard's frames before its result, and the
            # queue preserves per-worker order, so the stream is whole
            # by the time its result lands.
            outcome.frames = frames_by_index.pop(shard_index, [])
            by_index[shard_index] = outcome
            pending.discard(shard_index)
        return [by_index[spec.shard_index] for spec in specs]

    def close(self) -> None:
        """Send every worker the shutdown sentinel and reap it."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            inbox.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ShardExecutor:
    """Fan a workload out over shared-nothing shards and measure it."""

    def __init__(self, component: str, path_length: int = 4,
                 reservations: int = 1024, packets: int = 16384,
                 batch: int = 64, seed: int = 2026,
                 obs_seed: Optional[int] = None,
                 trace: Optional[TraceContext] = None):
        if component not in ("gateway", "router"):
            raise ValueError(f"unknown shard component {component!r}")
        self.component = component
        self.path_length = path_length
        self.reservations = reservations
        self.packets = packets
        self.batch = batch
        self.seed = seed
        self.obs_seed = obs_seed
        self.trace = trace

    def _specs(self, num_shards: int) -> List[ShardSpec]:
        return [
            ShardSpec(
                component=self.component,
                shard_index=index,
                num_shards=num_shards,
                path_length=self.path_length,
                reservations=self.reservations,
                packets=self.packets,
                batch=self.batch,
                seed=self.seed,
                obs_seed=self.obs_seed,
                trace=self.trace,
            )
            for index in range(num_shards)
        ]

    @staticmethod
    def available_cpus() -> int:
        """CPUs this process may actually run on.

        ``os.cpu_count()`` reports the host's cores even when the
        process is pinned to a subset (containers, ``taskset``, cgroup
        cpusets) — which made the executor dispatch k processes onto
        one permitted core and call the result "measured".  The
        affinity mask is the truth where the platform exposes it.
        """
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1

    def shard_loads(self, num_shards: int) -> List[int]:
        """Reservations owned per shard under :func:`shard_of`."""
        loads = [0] * num_shards
        for index in range(self.reservations):
            loads[shard_of(ReservationId(_SRC, index + 1), num_shards)] += 1
        return loads

    def run(
        self,
        num_shards: int,
        force_processes: bool = False,
        pool: Optional[ShardWorkerPool] = None,
    ) -> ShardRunResult:
        """Throughput over ``num_shards`` shards.

        Dispatches real processes when the host has at least
        ``num_shards`` CPUs (or ``force_processes`` demands it, e.g. to
        exercise the dispatch machinery in tests); otherwise measures
        one shard and extrapolates linearly, labeled ``"modeled"``.

        Pass a :class:`ShardWorkerPool` (with ``pool.size >=
        num_shards``) to dispatch through persistent pre-warmed workers:
        the second ``run`` of the same configuration then measures
        steady-state forwarding.  An undersized pool is ignored in
        favor of a transient one — shards must not queue behind each
        other inside one measurement, or the slowest-shard aggregation
        would count waiting as forwarding time.  A pool never overrides
        the modeled fallback: hosts without the cores still extrapolate.
        """
        specs = self._specs(num_shards)
        cpus = self.available_cpus()
        usable_pool = pool if pool is not None and pool.size >= num_shards else None
        if num_shards == 1 and usable_pool is None:
            outcome = run_shard(specs[0])
            return ShardRunResult(
                component=self.component,
                num_shards=1,
                mode="measured",
                shards=[outcome],
                aggregate_pps=outcome.pps,
            )
        if cpus >= num_shards or force_processes:
            if usable_pool is not None:
                outcomes = usable_pool.map(specs)
            else:
                with ShardWorkerPool(num_shards) as transient:
                    outcomes = transient.map(specs)
            mode = "measured" if cpus >= num_shards else "measured-oversubscribed"
            total = sum(outcome.packets for outcome in outcomes)
            # Idle shards (nothing owned) finish instantly; the slowest
            # *working* shard bounds the burst's completion time.
            working = [o.elapsed for o in outcomes if o.packets > 0]
            slowest = max(working) if working else 0.0
            return ShardRunResult(
                component=self.component,
                num_shards=num_shards,
                mode=mode,
                shards=outcomes,
                aggregate_pps=total / slowest if slowest > 0 else 0.0,
            )
        # Not enough CPUs for a meaningful parallel measurement: measure
        # the busiest shard's private stack and extrapolate the linear
        # shared-nothing model over the shards that actually own work,
        # clearly labeled as such.
        loads = self.shard_loads(num_shards)
        busiest = max(range(num_shards), key=loads.__getitem__)
        populated = sum(1 for load in loads if load)
        outcome = run_shard(specs[busiest])
        return ShardRunResult(
            component=self.component,
            num_shards=num_shards,
            mode="modeled",
            shards=[outcome],
            aggregate_pps=outcome.pps * populated,
        )
