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
* :class:`ShardExecutor` fans the workers out as OS processes — one
  stdlib pool ``map(run_shard, specs)`` — and aggregates *measured*
  throughput; every result carries an explicit ``mode`` label saying
  whether the host had a CPU per shard.

Aggregate throughput of a run is ``total packets / slowest
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
from typing import List

from repro.constants import EER_LIFETIME
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import ColibriKeys, eer_hvf, hop_authenticator
from repro.dataplane.router import BorderRouter
from repro.errors import SimulationError
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

#: Seconds :meth:`ShardExecutor.run` waits for its workers; a Fig. 6
#: sweep point builds, warms and times a shard in a few seconds.
_RUN_DEADLINE = 120.0


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

    def __post_init__(self):
        if self.component not in ("gateway", "router"):
            raise ValueError(f"unknown shard component {self.component!r}")
        if self.path_length < 2:
            raise ValueError(
                f"a shard path needs at least 2 hops, got {self.path_length}"
            )


@dataclass
class ShardOutcome:
    """One worker's measurement."""

    shard_index: int
    packets: int
    elapsed: float  # seconds inside the timed loop only
    pps: float
    #: Telemetry counters of the shard's private stack (gateway/monitor
    #: packet counts; none for a router), snapshotted in the worker and
    #: shipped back across the process boundary.  Before this field
    #: existed the per-process counters died with the worker, so a
    #: sharded run reported throughput with a blank forensic record.
    counters: dict = field(default_factory=dict)


@dataclass
class ShardRunResult:
    """Aggregate of one :meth:`ShardExecutor.run` invocation."""

    #: ``"measured"`` — every shard ran as its own OS process on a host
    #: with a CPU for each; ``"oversubscribed"`` — the processes ran, but
    #: the host has fewer CPUs than shards, so overlap is partial.
    mode: str
    shards: List[ShardOutcome]
    aggregate_pps: float

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

    Returns ``(loop, snapshot)``: the timed packet loop and a zero-arg
    callable reading the stack's counters (taken *in the worker* so the
    numbers survive the process boundary)."""
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
        return (lambda: 0), snapshot
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

    return loop, snapshot


def _router_stack(spec: ShardSpec):
    """``(router, packets)``: a private border router plus one
    honestly stamped packet per reservation this shard owns, arriving at
    hop 1 of the path — the BR validation workload of Fig. 6."""
    clock = SimClock(1000.0)
    keys = ColibriKeys(DrkeyDeriver(_ROUTER_AS, clock, seed=b"shard-router-key"))
    router = BorderRouter(_ROUTER_AS, keys, clock)
    pairs = [(0, 1)] + [(2, 3)] * (spec.path_length - 2) + [(4, 0)]
    path = PathField(tuple(pairs))
    eer_info = EerInfo(HostAddr(1), HostAddr(2))
    expiry = clock.now() + EER_LIFETIME
    packets = []
    for res_id in _owned_ids(spec):
        res_info = ResInfo(
            reservation=res_id, bandwidth=gbps(1), expiry=expiry, version=1
        )
        # σ for the hop the packet is stamped at: hop 1 is the last hop,
        # (4, 0), on a 2-hop path and (2, 3) on any longer one.
        sigma = hop_authenticator(keys.hop_key(), res_info, eer_info, *pairs[1])
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
    return router, packets


def _router_workload(spec: ShardSpec):
    """:func:`_router_stack`'s packets batched for the timed validation
    loop.

    Returns ``(loop, snapshot)`` like :func:`_gateway_workload`; the
    validation loop bypasses the verdict pipeline, so a router shard has
    no counters to report."""
    router, packets = _router_stack(spec)
    rng = random.Random(spec.seed + spec.shard_index)
    snapshot = dict
    if not packets:
        return (lambda: 0), snapshot
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

    return loop, snapshot


def _workload(spec: ShardSpec):
    """``(loop, snapshot)`` for one spec."""
    if spec.component == "gateway":
        return _gateway_workload(spec)
    return _router_workload(spec)


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Build one shard's private stack and time its packet loop.

    Module-level (picklable) so :class:`ShardExecutor` can dispatch it
    through :mod:`multiprocessing`; also callable inline.
    """
    loop, snapshot = _workload(spec)
    # One untimed warm-up pass brings soft state to steady state — the
    # router's flow table fills, lazily packed header fields materialize —
    # so the timed pass measures sustained throughput, the quantity the
    # paper's Fig. 6 reports.  Counters cover warm-up + timed pass — the
    # shard's whole life — and are read inside the worker, before the
    # process exits.
    loop()
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


class ShardExecutor:
    """Fan a workload out over shared-nothing shards and measure it."""

    def __init__(self, component: str, path_length: int = 4,
                 reservations: int = 1024, packets: int = 16384,
                 batch: int = 64, seed: int = 2026):
        #: Shard 0 of 1; :meth:`_specs` re-indexes it per shard.
        self._spec = ShardSpec(
            component, 0, 1, path_length, reservations, packets, batch, seed
        )

    def _specs(self, num_shards: int) -> List[ShardSpec]:
        return [
            replace(self._spec, shard_index=index, num_shards=num_shards)
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

    def run(self, num_shards: int) -> ShardRunResult:
        """Throughput over ``num_shards`` shards, one OS process each.

        The pool lives for this call only: :func:`run_shard` warms its
        own stack and times nothing but the packet loop, so a cold
        process measures the steady state a kept-alive one would.  A
        shard's own exception is re-raised as raised there; a worker
        that died or hung leaves the run without its outcomes at
        ``_RUN_DEADLINE``, a :class:`~repro.errors.SimulationError`.
        Either way leaving the ``with`` block terminates every worker.
        """
        specs = self._specs(num_shards)
        with multiprocessing.get_context().Pool(num_shards) as pool:
            try:
                outcomes = pool.map_async(run_shard, specs, chunksize=1).get(
                    _RUN_DEADLINE
                )
            except multiprocessing.TimeoutError:
                raise SimulationError(
                    f"{self._spec.component} run over {num_shards} shard(s): "
                    f"no result within {_RUN_DEADLINE:g} s — a worker process "
                    f"died or hung"
                ) from None
        total = sum(outcome.packets for outcome in outcomes)
        # Idle shards (nothing owned) finish instantly; the slowest
        # *working* shard bounds the burst's completion time.
        working = [o.elapsed for o in outcomes if o.packets > 0]
        slowest = max(working) if working else 0.0
        return ShardRunResult(
            mode=(
                "measured"
                if self.available_cpus() >= num_shards
                else "oversubscribed"
            ),
            shards=outcomes,
            aggregate_pps=total / slowest if slowest > 0 else 0.0,
        )
