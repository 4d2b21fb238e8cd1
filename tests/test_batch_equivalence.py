"""Equivalence and invalidation tests for the batched fast paths.

The performance work (docs/performance.md) is only admissible because it
is *behavior-preserving*: the σ-cache is soft state whose entries are
verified hints, the batch APIs are loop reorderings, and the prehashed
MAC states are byte-identical to per-call keying.  These tests pin that
contract:

* σ-cache invalidation — renewals mint fresh σs, DRKey epoch rollover
  falls back to the previous epoch's entry, and a poisoned or evicted
  entry can delay but never decide a verdict;
* the equivalence property — the same workload through ``send``/
  ``process``, ``send_batch``/``process_batch``, and a cache-disabled
  router produces byte-identical packets, identical verdict sequences,
  and identical counters;
* the shard executor — a deterministic partition rule, one process
  per shard, and a dead or hung worker surfacing as a typed error.
"""

import hashlib
import multiprocessing
import os
import random
import time

import pytest

from repro.constants import DRKEY_VALIDITY, EER_LIFETIME, L_HVF
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane import ColibriKeys, hop_authenticator
from repro.dataplane.gateway import ColibriGateway, split_batch
from repro.dataplane.router import BorderRouter, Verdict
from repro.dataplane import shards
from repro.dataplane.shards import ShardExecutor, ShardSpec, run_shard, shard_of
from repro.dataplane.sigma_cache import SigmaCache, SigmaEntry
from repro.errors import BandwidthExceeded, ReservationNotFound, SimulationError
from repro.packets.colibri import ColibriPacket
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import PerfClock, SimClock
from repro.util.units import gbps, mbps

SRC = IsdAs.parse("1-ff00:0:110")
MID = IsdAs.parse("1-ff00:0:111")

PATH = PathField(((0, 1), (2, 3), (4, 0)))
EER = EerInfo(HostAddr(1), HostAddr(2))


def make_stack(now=1000.0, cache=True, capacity=None):
    """A source gateway plus the middle AS's router (hop index 1)."""
    clock = SimClock(now)
    mid_keys = ColibriKeys(DrkeyDeriver(MID, clock, seed=b"mid" * 6))
    gateway = ColibriGateway(SRC, clock)
    if capacity is not None:
        router = BorderRouter(MID, mid_keys, clock, sigma_cache=SigmaCache(capacity=capacity))
    else:
        router = BorderRouter(MID, mid_keys, clock, enable_sigma_cache=cache)
    return clock, gateway, router, mid_keys


def install(gateway, mid_keys, clock, bandwidth=gbps(1), local_id=5, version=1):
    """Install an EER whose middle-hop HopAuth is honestly computed."""
    now = clock.now()
    res_id = ReservationId(SRC, local_id)
    res_info = ResInfo(
        reservation=res_id,
        bandwidth=bandwidth,
        expiry=now + EER_LIFETIME,
        version=version,
    )
    sigma_mid = hop_authenticator(mid_keys.hop_key(now), res_info, EER, 2, 3)
    gateway.install(res_id, PATH, EER, res_info, (b"x" * 16, sigma_mid, b"y" * 16))
    return res_id, res_info


def arriving(gateway, res_id, payload=b"data"):
    """A stamped packet as it arrives at the middle AS."""
    packet = gateway.send(res_id, payload)
    packet.hop_index = 1
    return packet


class TestSigmaCacheInvalidation:
    def test_renewal_misses_and_stores_fresh_sigma(self):
        clock, gateway, router, mid_keys = make_stack()
        cache = router.sigma_cache
        res_id, _ = install(gateway, mid_keys, clock, version=1)
        assert router.validate_only(arriving(gateway, res_id))
        assert router.validate_only(arriving(gateway, res_id))
        assert cache.hits == 1
        assert cache.misses == 1

        # Renewal: version 2 has a different ResInfo, hence different σs.
        install(gateway, mid_keys, clock, local_id=5, version=2)
        packet = arriving(gateway, res_id)
        assert packet.res_info.version == 2
        assert router.validate_only(packet)
        # The new version missed (fresh recompute), it did not reuse v1.
        assert cache.misses == 2
        assert len(cache) == 2
        epoch = int(clock.now() // DRKEY_VALIDITY)
        v1 = cache.lookup(res_id.packed, 1, epoch)
        v2 = cache.lookup(res_id.packed, 2, epoch)
        assert v1 is not None and v2 is not None
        assert v1.sigma != v2.sigma

    def test_epoch_rollover_hits_previous_epoch_entry(self):
        # Install and validate just before a DRKey epoch boundary...
        start = DRKEY_VALIDITY - 5.0
        clock, gateway, router, mid_keys = make_stack(now=start)
        cache = router.sigma_cache
        res_id, _ = install(gateway, mid_keys, clock)
        assert router.validate_only(arriving(gateway, res_id))
        assert len(cache) == 1

        # ...then cross it.  The reservation (and its σs, minted from the
        # old epoch's hop key) is still live; the lookup probes the new
        # epoch, falls back to the previous one, and hits.
        clock.advance(7.0)
        assert int(clock.now() // DRKEY_VALIDITY) == 1
        assert router.validate_only(arriving(gateway, res_id))
        assert cache.hits == 1
        assert len(cache) == 1  # no duplicate entry under the new epoch

    def test_epoch_rollover_cold_cache_recomputes_with_old_key(self):
        # Same straddle, but the router has no cached entry: the
        # stateless recompute must itself fall back to the previous
        # epoch's hop key (§4.5 key rotation) and then cache under it.
        start = DRKEY_VALIDITY - 5.0
        clock, gateway, router, mid_keys = make_stack(now=start)
        res_id, _ = install(gateway, mid_keys, clock)
        packet = gateway.send(res_id, b"late")
        packet.hop_index = 1
        clock.advance(7.0)
        assert router.validate_only(arriving(gateway, res_id))
        cache = router.sigma_cache
        assert cache.misses == 1
        # Stored under the minting epoch, addressable via the fallback.
        assert (res_id.packed, 1, 0) in cache._entries

    def test_poisoned_entry_never_changes_a_verdict(self):
        clock, gateway, router, mid_keys = make_stack()
        cache = router.sigma_cache
        res_id, res_info = install(gateway, mid_keys, clock)
        assert router.validate_only(arriving(gateway, res_id))
        epoch = int(clock.now() // DRKEY_VALIDITY)
        key = (res_id.packed, 1, epoch)
        assert cache.lookup(*key) is not None

        # Corrupt the entry behind the router's back: the right bound
        # input (so the hint is tried) under the wrong σ.
        cache._entries[key] = SigmaEntry(b"poisoned-sigma!!", res_info, EER, (2, 3))
        # A forged packet is still rejected...
        forged = arriving(gateway, res_id)
        forged.hvfs[1] = bytes(L_HVF)
        assert not router.validate_only(forged)
        # ...and an honest packet is still accepted (stateless fallback),
        # with the rejected hint counted and the entry healed.
        assert router.validate_only(arriving(gateway, res_id))
        assert cache.rejected_hints >= 2
        honest = hop_authenticator(
            mid_keys.hop_key(clock.now()), res_info, EER, 2, 3
        )
        assert cache.lookup(*key).sigma == honest

    def test_eviction_never_changes_a_verdict(self):
        clock, gateway, router, mid_keys = make_stack(capacity=1)
        cache = router.sigma_cache
        a, _ = install(gateway, mid_keys, clock, local_id=5)
        b, _ = install(gateway, mid_keys, clock, local_id=6)
        # Alternating reservations through a one-entry cache: every
        # lookup after the first evicts the other entry, and every
        # packet still validates.
        for _ in range(4):
            assert router.validate_only(arriving(gateway, a))
            assert router.validate_only(arriving(gateway, b))
        assert cache.evictions >= 6
        assert len(cache) == 1

    def test_renewed_flow_holds_at_most_two_versions(self):
        """Storing version v pops v-2 (under the minting epoch or the one
        before): a renewed flow never sits in the cache more than twice,
        the pops are not evictions, and what stays is in LRU order."""
        start = DRKEY_VALIDITY - 30.0  # renewals straddle the epoch boundary
        clock, gateway, router, mid_keys = make_stack(now=start)
        cache = router.sigma_cache
        other, _ = install(gateway, mid_keys, clock, local_id=6)
        assert router.validate_only(arriving(gateway, other))
        for version in range(1, 9):
            res_id, _ = install(gateway, mid_keys, clock, version=version)
            assert router.validate_only(arriving(gateway, res_id))
            assert router.validate_only(arriving(gateway, res_id))
            held = [key for key in cache._entries if key[0] == res_id.packed]
            epoch = int(clock.now() // DRKEY_VALIDITY)
            assert [v for _, v, _ in held] == [max(1, version - 1), version][-len(held):]
            assert all(minted in (epoch, epoch - 1) for _, _, minted in held)
            assert len(held) <= 2
            clock.advance(10.0)
        assert {minted for _, _, minted in cache._entries} == {0, 1}
        assert cache.evictions == 0
        assert cache.misses == 1 + 8 and cache.hits == 8
        # The bystander was stored first and never touched again: still
        # the least recently used, then the two live versions in order.
        assert [(key[0], key[1]) for key in cache._entries] == [
            (other.packed, 1), (res_id.packed, 7), (res_id.packed, 8)
        ]
        assert set(cache.snapshot()) == {
            "sigma_cache_hits", "sigma_cache_misses", "sigma_cache_entries"
        }

    def test_explicit_invalidate_drops_all_versions(self):
        clock, gateway, router, mid_keys = make_stack()
        cache = router.sigma_cache
        res_id, _ = install(gateway, mid_keys, clock, version=1)
        install(gateway, mid_keys, clock, local_id=5, version=2)
        assert router.validate_only(arriving(gateway, res_id))
        before = len(cache)
        assert before >= 1
        assert cache.invalidate(res_id.packed) == before
        assert len(cache) == 0
        # Correctness is unaffected: the next packet recomputes and re-caches.
        assert router.validate_only(arriving(gateway, res_id))
        assert len(cache) == 1


WORKLOAD_IDS = (5, 6, 7)


def run_workload(mode, cache=True):
    """One fixed randomized workload through a fresh stack.

    ``mode`` is ``"serial"`` (send + process per packet) or ``"batch"``
    (send_batch + process_batch per 16-request burst).  Returns
    everything observable: packet bytes, drop types, verdict names, and
    the stack's counters.
    """
    clock, gateway, router, mid_keys = make_stack(cache=cache)
    for local_id in WORKLOAD_IDS:
        install(gateway, mid_keys, clock, bandwidth=mbps(1), local_id=local_id)
    rng = random.Random(2026)
    requests = []
    for index in range(64):
        if index % 17 == 13:
            requests.append((ReservationId(SRC, 99), b""))  # never installed
        else:
            local_id = WORKLOAD_IDS[rng.randrange(len(WORKLOAD_IDS))]
            requests.append(
                (ReservationId(SRC, local_id), b"z" * rng.randrange(400, 1400))
            )

    outcomes = []
    if mode == "serial":
        for res_id, payload in requests:
            try:
                outcomes.append(gateway.send(res_id, payload))
            except (ReservationNotFound, BandwidthExceeded) as error:
                outcomes.append(error)
    else:
        for start in range(0, len(requests), 16):
            outcomes.extend(gateway.send_batch(requests[start : start + 16]))

    packets, drops = split_batch(outcomes)
    for packet in packets:
        packet.hop_index = 1
    if mode == "serial":
        verdicts = [router.process(packet).verdict for packet in packets]
    else:
        verdicts = []
        for start in range(0, len(packets), 16):
            verdicts.extend(
                result.verdict
                for result in router.process_batch(packets[start : start + 16])
            )
    return {
        "bytes": [packet.to_bytes() for packet in packets],
        "drops": [(index, type(error).__name__) for index, error in drops],
        "verdicts": [verdict.name for verdict in verdicts],
        "router_stats": {v.name: n for v, n in router.stats.items()},
        "sent": gateway.packets_sent,
        "dropped": gateway.packets_dropped,
    }


class TestBatchEquivalence:
    """send/process ≡ send_batch/process_batch ≡ cache-disabled."""

    def test_equivalence_property(self):
        serial = run_workload("serial")
        batch = run_workload("batch")
        batch_nocache = run_workload("batch", cache=False)

        # Byte-identical packets: same Ts sequence, same HVFs, same
        # serialization — the batch path is a pure loop reordering.
        assert serial["bytes"] == batch["bytes"]
        assert serial["bytes"] == batch_nocache["bytes"]
        # Same drops (as exception type), aligned with request order.
        assert serial["drops"] == batch["drops"]
        assert len(serial["drops"]) > 0  # the workload exercises drops
        # Same verdict sequence and router accounting, with and without
        # the σ-cache: cache contents never decide a verdict.
        assert serial["verdicts"] == batch["verdicts"]
        assert serial["verdicts"] == batch_nocache["verdicts"]
        assert serial["router_stats"] == batch["router_stats"]
        assert serial["router_stats"] == batch_nocache["router_stats"]
        assert serial["sent"] == batch["sent"] == batch_nocache["sent"]
        assert serial["dropped"] == batch["dropped"]
        # Sanity: both verdict kinds actually occurred.
        assert "FORWARD" in serial["verdicts"]

    def test_duplicate_suppression_equivalent(self):
        results = {}
        for mode in ("serial", "batch"):
            clock, gateway, router, mid_keys = make_stack()
            res_id, _ = install(gateway, mid_keys, clock)
            wire = gateway.send(res_id, b"dup").to_bytes()
            first = ColibriPacket.from_bytes(wire)
            replay = ColibriPacket.from_bytes(wire)
            first.hop_index = replay.hop_index = 1
            if mode == "serial":
                verdicts = [router.process(p).verdict for p in (first, replay)]
            else:
                verdicts = [r.verdict for r in router.process_batch([first, replay])]
            results[mode] = verdicts
        assert results["serial"] == results["batch"]
        assert results["serial"] == [Verdict.FORWARD, Verdict.DROP_DUPLICATE]

    def test_warm_cache_second_pass_identical(self):
        """Cache hits on a warm second pass change nothing observable."""
        passes = {}
        for cache in (True, False):
            clock, gateway, router, mid_keys = make_stack(cache=cache)
            res_id, _ = install(gateway, mid_keys, clock)
            rounds = []
            for _ in range(3):
                packets, _ = split_batch(
                    gateway.send_batch([(res_id, b"x" * 100)] * 8)
                )
                for packet in packets:
                    packet.hop_index = 1
                rounds.append(
                    [r.verdict.name for r in router.process_batch(packets)]
                )
            passes[cache] = rounds
            if cache:
                assert router.sigma_cache.hits >= 23
        assert passes[True] == passes[False]


class TestPipelineBatch:
    """PathPipeline.send_batch delivers exactly what serial sends do."""

    @staticmethod
    def _pipeline():
        from repro.sim import ColibriNetwork
        from repro.sim.pipeline import PathPipeline
        from repro.topology import build_two_isd_topology

        base = 0xFF00_0000_0000
        src, dst = IsdAs(1, base + 101), IsdAs(2, base + 101)
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(src, dst, gbps(1))
        handle = net.establish_eer(src, dst, mbps(10))
        return src, PathPipeline(net, handle, capacity=mbps(100))

    def test_batch_delivery_matches_serial(self):
        payloads = [b"p" * (100 + 37 * index) for index in range(8)]
        _, serial_pipe = self._pipeline()
        serial = [serial_pipe.send(payload) for payload in payloads]
        _, batch_pipe = self._pipeline()
        batch = batch_pipe.send_batch(payloads)
        assert [r.delivered for r in serial] == [r.delivered for r in batch]
        assert all(r.delivered for r in batch)
        assert [r.dropped_at for r in serial] == [r.dropped_at for r in batch]
        # Burst semantics: later packets queue behind batch-mates, so
        # latency is non-decreasing within the burst.
        latencies = [r.latency for r in batch]
        assert latencies == sorted(latencies)

    def test_wire_walk_matches_object_walk(self):
        """send_batch_wire walks the same waves as send_batch: one wave
        walker, two per-hop steps."""
        payloads = [b"w" * (64 + 29 * index) for index in range(8)]
        payloads += [b"q" * 10_000] * 14  # the tail overruns the bucket
        _, object_pipe = self._pipeline()
        objects = object_pipe.send_batch(payloads)
        _, wire_pipe = self._pipeline()
        wires = wire_pipe.send_batch_wire(payloads)
        assert True in [r.delivered for r in wires]
        assert False in [r.delivered for r in wires]
        assert [
            (r.delivered, r.dropped_at, r.latency, r.per_hop) for r in wires
        ] == [(r.delivered, r.dropped_at, r.latency, r.per_hop) for r in objects]

    def test_batch_gateway_drops_are_aligned(self):
        src, pipe = self._pipeline()
        # 10 Mbps reservation, 0.1 s burst depth = 125 kB: fourteen 10 kB
        # payloads overrun it, so the tail of the burst drops at the
        # source gateway, aligned with its request index.
        reports = pipe.send_batch([b"q" * 10_000] * 14)
        delivered = [r.delivered for r in reports]
        assert True in delivered and False in delivered
        assert delivered == sorted(delivered, reverse=True)  # prefix delivers
        for report in reports:
            if not report.delivered:
                assert report.dropped_at == src
                assert report.latency == 0.0


class TestShardExecutor:
    def test_shard_of_deterministic_and_total(self):
        ids = [ReservationId(SRC, index + 1) for index in range(512)]
        assignment = [shard_of(res_id, 4) for res_id in ids]
        assert assignment == [shard_of(res_id, 4) for res_id in ids]
        assert all(0 <= shard < 4 for shard in assignment)
        # Every shard gets a share (blake2s spreads the counter well).
        counts = [assignment.count(shard) for shard in range(4)]
        assert min(counts) > 0
        assert max(counts) < 2.5 * min(counts)

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of(ReservationId(SRC, 1), 0)

    def test_shards_partition_disjointly(self):
        ids = [ReservationId(SRC, index + 1) for index in range(128)]
        owned = [
            {res_id for res_id in ids if shard_of(res_id, 3) == shard}
            for shard in range(3)
        ]
        assert sum(len(part) for part in owned) == len(ids)
        assert owned[0] | owned[1] | owned[2] == set(ids)

    @pytest.mark.parametrize("path_length", [2, 3, 4, 5])
    @pytest.mark.parametrize("component", ["router", "gateway"])
    def test_single_shard_is_measured(self, component, path_length):
        executor = ShardExecutor(
            component, path_length=path_length, reservations=64, packets=512,
            batch=32,
        )
        result = executor.run(1)
        assert result.mode == "measured"
        assert len(result.shards) == 1
        assert result.shards[0].packets == 512
        assert result.aggregate_pps > 0

    @pytest.mark.parametrize("component", ["router", "gateway"])
    def test_one_hop_path_is_rejected(self, component):
        with pytest.raises(ValueError, match="at least 2 hops"):
            ShardExecutor(component, path_length=1)

    def test_oversubscribed_host_is_labeled(self, monkeypatch):
        executor = ShardExecutor("router", reservations=64, packets=512, batch=32)
        monkeypatch.setattr(ShardExecutor, "available_cpus", staticmethod(lambda: 1))
        result = executor.run(2)
        assert result.mode == "oversubscribed"
        assert len(result.shards) == 2  # every shard still ran

    def test_forced_processes_really_dispatch(self):
        executor = ShardExecutor("gateway", reservations=64, packets=512, batch=32)
        result = executor.run(2)
        assert len(result.shards) == 2
        assert sum(outcome.packets for outcome in result.shards) >= 512
        assert all(outcome.pps > 0 for outcome in result.shards if outcome.packets)

    @pytest.mark.parametrize(
        "fate",
        [lambda spec: os._exit(1), lambda spec: time.sleep(60)],
        ids=["killed", "hung"],
    )
    def test_lost_worker_is_a_typed_error(self, monkeypatch, fate):
        """ROADMAP 6(c): a worker that dies or hangs mid-run must not
        block the caller — the run fails at its deadline, named, and
        leaves no child process behind."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched workload reaches workers by fork only")
        monkeypatch.setattr(shards, "_RUN_DEADLINE", 1.0)
        monkeypatch.setattr(shards, "_workload", fate)
        executor = ShardExecutor("router", reservations=64, packets=512, batch=32)
        wall = PerfClock()
        started = wall.now()
        with pytest.raises(
            SimulationError, match=r"router run over 2 shard.*within 1 s"
        ):
            executor.run(2)
        assert wall.now() - started < 5.0
        assert multiprocessing.active_children() == []

    def test_empty_shard_idles(self):
        # One reservation, many shards: all but one shard own nothing.
        spec = ShardSpec(
            component="router", shard_index=0, num_shards=64,
            reservations=1, packets=64, batch=8,
        )
        owner = shard_of(ReservationId(IsdAs(1, 0xFF00_0000_0000 + 1), 1), 64)
        outcomes = [
            run_shard(ShardSpec(
                component="router", shard_index=index, num_shards=64,
                reservations=1, packets=64, batch=8,
            ))
            for index in (owner, (owner + 1) % 64)
        ]
        assert outcomes[0].packets > 0
        assert outcomes[1].packets == 0

    def test_sharded_telemetry_equals_serial(self):
        """The per-process counters must come back across the process
        boundary and merge exactly: dispatching the same specs through
        OS processes yields the same telemetry as running them serially
        in-process (the workloads are fully seeded).  Before outcomes
        carried counters, sharded runs silently reported nothing."""
        from repro.util.metrics import merge_counters

        executor = ShardExecutor("gateway", reservations=64, packets=512, batch=32)
        serial = [run_shard(spec) for spec in executor._specs(2)]
        sharded = executor.run(2)
        assert [outcome.counters for outcome in sharded.shards] == [
            outcome.counters for outcome in serial
        ]
        telemetry = sharded.telemetry()
        assert telemetry["total"] == merge_counters(
            [outcome.counters for outcome in serial]
        )
        # The shape feeds render_metrics directly: per-shard entries
        # plus the merged total, every packet accounted for.
        assert set(telemetry) == {"shard-0", "shard-1", "total"}
        assert telemetry["total"]["gateway_sent"] == 2 * 2 * 512  # warm-up + timed
        assert telemetry["total"]["gateway_dropped"] == 0

    def test_router_shard_counters_surface_sigma_cache(self):
        executor = ShardExecutor("router", reservations=64, packets=512, batch=32)
        result = executor.run(1)
        total = result.telemetry()["total"]
        # Warm-up misses once per owned reservation, then the timed pass
        # hits: the counters prove the cache actually worked per shard.
        assert total["sigma_cache_misses"] == 64
        assert total["sigma_cache_hits"] > 0
        assert total["sigma_cache_entries"] == 64

    def test_available_cpus_reads_affinity(self, monkeypatch):
        import os as os_module

        if not hasattr(os_module, "sched_getaffinity"):
            pytest.skip("platform exposes no affinity mask")
        monkeypatch.setattr(
            os_module, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=True
        )
        assert ShardExecutor.available_cpus() == 3


def run_wire_workload(mode):
    """The randomized workload of :func:`run_workload`, through either
    ``send_batch`` (``"object"``) or ``send_batch_wire`` (``"wire"``).

    Halfway through, one reservation is renewed in place (version 2,
    fresh σ, fresh bucket) — both paths must pick up the new schedule
    at exactly the same packet.  Wire successes are returned as their
    raw bytes (copied out before the next burst reclaims the arena), so
    the equivalence assertion is exactly
    ``view.materialize() == packet.to_bytes()`` across the workload.
    """
    from repro.packets.wire import PacketArena

    clock, gateway, router, mid_keys = make_stack()
    for local_id in WORKLOAD_IDS:
        install(gateway, mid_keys, clock, bandwidth=mbps(1), local_id=local_id)
    rng = random.Random(2026)
    requests = []
    for index in range(64):
        if index % 17 == 13:
            requests.append((ReservationId(SRC, 99), b""))  # never installed
        else:
            local_id = WORKLOAD_IDS[rng.randrange(len(WORKLOAD_IDS))]
            requests.append(
                (ReservationId(SRC, local_id), b"z" * rng.randrange(400, 1400))
            )
    RENEW_AT = 32  # burst boundary where WORKLOAD_IDS[0] renews to v2

    wire_bytes = []
    drops = []
    position = 0
    if mode == "wire":
        arena = PacketArena(slots=16, slot_size=4096)
        for start in range(0, len(requests), 16):
            if start == RENEW_AT:
                install(
                    gateway, mid_keys, clock, bandwidth=mbps(1),
                    local_id=WORKLOAD_IDS[0], version=2,
                )
            outcomes = gateway.send_batch_wire(requests[start : start + 16], arena)
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    drops.append((position, type(outcome).__name__))
                else:
                    wire_bytes.append(outcome.materialize())
                position += 1
    else:
        for start in range(0, len(requests), 16):
            if start == RENEW_AT:
                install(
                    gateway, mid_keys, clock, bandwidth=mbps(1),
                    local_id=WORKLOAD_IDS[0], version=2,
                )
            for outcome in gateway.send_batch(requests[start : start + 16]):
                if isinstance(outcome, Exception):
                    drops.append((position, type(outcome).__name__))
                else:
                    wire_bytes.append(outcome.to_bytes())
                position += 1
    return {
        "bytes": wire_bytes,
        "drops": drops,
        "sent": gateway.packets_sent,
        "dropped": gateway.packets_dropped,
        "passed": gateway.monitor.packets_passed,
    }


class TestWireEquivalence:
    """send_batch_wire ≡ send_batch: bytes, drops, counters, lifetimes."""

    def test_wire_property_matches_object_path(self):
        wire = run_wire_workload("wire")
        obj = run_wire_workload("object")
        assert wire["bytes"] == obj["bytes"]
        assert wire["drops"] == obj["drops"]
        assert len(wire["drops"]) > 0  # the workload exercises drops
        assert wire["sent"] == obj["sent"]
        assert wire["dropped"] == obj["dropped"]
        assert wire["passed"] == obj["passed"]
        # The mid-workload renewal really happened: the renewed id's
        # packets carry both versions across the run.
        renewed = ReservationId(SRC, WORKLOAD_IDS[0])
        versions = {
            packet.res_info.version
            for packet in map(ColibriPacket.from_bytes, wire["bytes"])
            if packet.res_info.reservation == renewed
        }
        assert versions == {1, 2}

    def test_wire_packets_parse_and_verify_at_router(self):
        from repro.packets.wire import PacketArena

        clock, gateway, router, mid_keys = make_stack()
        res_id, _ = install(gateway, mid_keys, clock)
        arena = PacketArena(slots=8, slot_size=2048)
        views = gateway.send_batch_wire([(res_id, b"pay")] * 4, arena)
        for view in views:
            packet = ColibriPacket.from_bytes(view.materialize())
            packet.hop_index = 1
            assert router.process(packet).verdict is Verdict.FORWARD

    def test_views_occupy_disjoint_slots(self):
        from repro.packets.wire import PacketArena

        clock, gateway, router, mid_keys = make_stack()
        res_id, _ = install(gateway, mid_keys, clock)
        arena = PacketArena(slots=8, slot_size=2048)
        views = gateway.send_batch_wire([(res_id, b"pay")] * 8, arena)
        spans = sorted((view.offset, view.offset + view.length) for view in views)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        # All views window the one arena buffer — no copies were made.
        assert all(view.buffer is arena.buffer for view in views)

    def test_views_die_at_the_next_burst(self):
        """The mbuf lifetime contract: send_batch_wire resets the arena,
        so views from the previous burst alias the new burst's slots."""
        from repro.packets.wire import PacketArena

        clock, gateway, router, mid_keys = make_stack()
        res_id, _ = install(gateway, mid_keys, clock)
        arena = PacketArena(slots=8, slot_size=2048)
        first = gateway.send_batch_wire([(res_id, b"A" * 64)], arena)[0]
        kept = first.materialize()
        second = gateway.send_batch_wire([(res_id, b"B" * 64)], arena)[0]
        # Same storage, new packet: the stale view now shows new bytes.
        assert first.offset == second.offset
        assert first.materialize() == second.materialize()
        assert first.materialize() != kept

    def test_reused_slot_never_leaks_into_verdict(self):
        """Buffer aliasing must not launder authenticity: after a slot
        held a valid packet, a forged packet written into the *same*
        slot must still verify False — the router may only read the
        current bytes, never a verdict (or σ-cache hint) earned by the
        slot's previous occupant."""
        from repro.packets.wire import PacketArena

        clock, gateway, router, mid_keys = make_stack()
        res_id, _ = install(gateway, mid_keys, clock)
        arena = PacketArena(slots=1, slot_size=2048)

        first = gateway.send_batch_wire([(res_id, b"honest")], arena)[0]
        first.advance_hop()  # arriving at the middle AS
        assert router.validate_wire_batch([first]) == [True]

        # The next burst reclaims the only slot, then the attacker (or
        # a stale write) flips the current hop's HVF bytes in place.
        second = gateway.send_batch_wire([(res_id, b"honest")], arena)[0]
        assert second.offset == first.offset  # really the same storage
        second.advance_hop()
        offsets = ColibriPacket.wire_offsets(second.hop_count, True)
        hvf_at = second.offset + offsets.hvf + second.hop_index * L_HVF
        arena.buffer[hvf_at : hvf_at + L_HVF] = bytes(
            byte ^ 0xFF for byte in arena.buffer[hvf_at : hvf_at + L_HVF]
        )
        assert router.validate_wire_batch([second]) == [False]

        # And an honest packet through the same slot verifies again —
        # the False above came from the bytes, not a poisoned slot.
        third = gateway.send_batch_wire([(res_id, b"honest")], arena)[0]
        third.advance_hop()
        assert router.validate_wire_batch([third]) == [True]

    def test_wire_equals_object_for_every_backend(self, monkeypatch):
        """Identity holds on the pure-Python fallback too."""
        from repro.crypto import native
        from repro.packets.wire import PacketArena

        monkeypatch.setenv("COLIBRI_NATIVE", "0")
        native.reset_for_tests()
        try:
            wire = run_wire_workload("wire")
            obj = run_wire_workload("object")
            assert wire["bytes"] == obj["bytes"]
            assert wire["drops"] == obj["drops"]
        finally:
            native.reset_for_tests()


def _native_backend():
    from repro.crypto import native

    return native.backend()


@pytest.mark.skipif(_native_backend() is None, reason="native backend unavailable")
class TestNativeBatchIdentity:
    """Native batch entry points ≡ hashlib, byte for byte."""

    def _sigmas(self, count, seed=0):
        rng = random.Random(seed)
        return tuple(bytes(rng.randrange(256) for _ in range(16)) for _ in range(count))

    def test_schedule_block_matches_hashlib_all_hop_counts(self):
        """Covers every lane-residue of the 8-way kernel (1..20 hops)
        and both the single-block and multi-block message paths."""
        from repro.dataplane.hvf import sigma_schedule, sigma_states, stamp_hvfs

        for count in range(1, 21):
            sigmas = self._sigmas(count, seed=count)
            schedule = sigma_schedule(sigmas)
            states = sigma_states(sigmas)
            for message in (b"\x01" * 12, b"long message " * 11):
                assert schedule.stamp_flat(message) == b"".join(
                    stamp_hvfs(states, message)
                ), f"mismatch at {count} hops, {len(message)} B message"

    def test_stamp_hvfs_batch_native_equals_python(self):
        from repro.dataplane.hvf import sigma_schedule, sigma_states, stamp_hvfs_batch

        sigmas = self._sigmas(16, seed=3)
        messages = [bytes([seq]) * 12 for seq in range(32)]
        native_rows = stamp_hvfs_batch(sigma_schedule(sigmas), messages)
        python_rows = stamp_hvfs_batch(sigma_states(sigmas), messages)
        assert native_rows == python_rows

    def test_burst_stamper_scatter_equals_per_packet(self):
        """The scatter plan (mixed hop counts, interleaved output rows)
        produces exactly what per-packet stamp_flat calls produce."""
        from repro.dataplane.hvf import burst_stamper, sigma_schedule

        rng = random.Random(9)
        schedules = [
            sigma_schedule(self._sigmas(rng.choice((1, 3, 8, 13, 16)), seed=n))
            for n in range(24)
        ]
        messages = [bytes(rng.randrange(256) for _ in range(12)) for _ in schedules]
        stamper = burst_stamper(slots=len(schedules))
        assert stamper is not None
        position = 0
        rows = []
        for index, (schedule, message) in enumerate(zip(schedules, messages)):
            stamper.scheds[index] = schedule._scatter
            stamper.counts[index] = schedule.count
            stamper.offsets[index] = position
            rows.append((position, schedule.count * stamper.tag_len))
            position += schedule.count * stamper.tag_len
        stamper.messages[:] = b"".join(messages)
        flat = stamper.stamp_flat(len(schedules), 12, position)
        for (start, width), schedule, message in zip(rows, schedules, messages):
            assert flat[start : start + width] == schedule.stamp_flat(message)


    def test_verify_returns_the_untruncated_mac(self):
        """``colibri_verify`` over a schedule given as plain bytes: the
        full MAC on a match (whatever the tag width), nothing otherwise."""
        (sigma,) = self._sigmas(1, seed=9)
        res_info = ResInfo(ReservationId(SRC, 5), gbps(1), 1016.0, 1)
        entry = SigmaEntry(sigma, res_info, EER, (2, 3))
        assert type(entry.schedule) is bytes and len(entry.schedule) == 32
        for message in (b"t" * 12, b"s" * 64, b"m" * 200):
            mac = hashlib.blake2s(message, key=sigma, digest_size=16).digest()
            for width in (1, L_HVF, 16):
                assert entry.verify(message, mac[:width]) == mac
            assert entry.verify(message, bytes([mac[0] ^ 1]) + mac[1:L_HVF]) is None
            assert entry.verify(message, mac + b"x") is None

    def test_compile_sweeps_builds_of_older_sources(self, tmp_path, monkeypatch):
        from repro.crypto import native

        monkeypatch.setattr(native, "_BUILD_DIR", str(tmp_path))
        stale = tmp_path / "_colibri_b2s_000000000000.cpython-311-x86_64-linux-gnu.so"
        stale.write_bytes(b"old")
        (tmp_path / "notes.txt").write_text("not ours")
        name = native._module_name()
        built = native._compile_extension(name)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [os.path.basename(built), "notes.txt"]
        )
        assert native._find_extension(name) == built
