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
  and identical counters.
"""

import collections
import os
import random

import pytest

from repro.constants import DRKEY_VALIDITY, EER_LIFETIME, L_HVF
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane import ColibriKeys, hop_authenticator
from repro.dataplane.gateway import ColibriGateway, split_batch
from repro.dataplane.router import BorderRouter, Verdict
from repro.errors import BandwidthExceeded, ReservationNotFound
from repro.packets.colibri import ColibriPacket
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps
from tests import test_router_differential as differential

SRC = IsdAs.parse("1-ff00:0:110")
MID = IsdAs.parse("1-ff00:0:111")

PATH = PathField(((0, 1), (2, 3), (4, 0)))
EER = EerInfo(HostAddr(1), HostAddr(2))


def make_stack(now=1000.0, kernel=True, capacity=None):
    """A source gateway plus the middle AS's router (hop index 1); without
    ``kernel``, a router that runs the Python body alone."""
    clock = SimClock(now)
    mid_keys = ColibriKeys(DrkeyDeriver(MID, clock, seed=b"mid" * 6))
    gateway = ColibriGateway(SRC, clock)
    router = BorderRouter(MID, mid_keys, clock)
    if not kernel:
        router.kernel = None
    elif capacity is not None:
        router.kernel.capacity = capacity
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


def _native_backend():
    from repro.crypto import native

    return native.backend()


def schedule_of(slot) -> bytes:
    return _native_backend().ffi.buffer(slot.sched)[:]


@pytest.mark.skipif(_native_backend() is None, reason="the flow table is the kernel's")
class TestSigmaCacheInvalidation:
    """The kernel's flow table, (ResId, Ver, epoch) -> σ's schedule and cells:
    soft state that answers only for the input it was minted from."""

    def test_renewal_misses_and_stores_fresh_sigma(self):
        clock, gateway, router, mid_keys = make_stack()
        table = router.kernel
        res_id, _ = install(gateway, mid_keys, clock, version=1)
        assert router.validate_only(arriving(gateway, res_id))
        assert router.validate_only(arriving(gateway, res_id))
        assert (table.state.hits, table.state.misses) == (1, 1)

        # Renewal: version 2 has a different ResInfo, hence different σs.
        install(gateway, mid_keys, clock, local_id=5, version=2)
        packet = arriving(gateway, res_id)
        assert packet.res_info.version == 2
        assert router.validate_only(packet)
        # The new version missed (fresh recompute), it did not reuse v1.
        assert table.state.misses == 2
        assert table.state.count == 2
        epoch = int(clock.now() // DRKEY_VALIDITY)
        flows = differential.flows(table)
        v1, v2 = flows[(res_id.packed, 1, epoch)], flows[(res_id.packed, 2, epoch)]
        assert schedule_of(v1) != schedule_of(v2)

    def test_epoch_rollover_hits_previous_epoch_entry(self):
        # Install and validate just before a DRKey epoch boundary...
        start = DRKEY_VALIDITY - 5.0
        clock, gateway, router, mid_keys = make_stack(now=start)
        table = router.kernel
        res_id, _ = install(gateway, mid_keys, clock)
        assert router.validate_only(arriving(gateway, res_id))
        assert table.state.count == 1

        # ...then cross it.  The reservation (and its σs, minted from the
        # old epoch's hop key) is still live; the lookup probes the new
        # epoch, falls back to the previous one, and hits.
        clock.advance(7.0)
        assert int(clock.now() // DRKEY_VALIDITY) == 1
        assert router.validate_only(arriving(gateway, res_id))
        assert table.state.hits == 1
        assert table.state.count == 1  # no duplicate entry under the new epoch

    def test_epoch_rollover_cold_cache_recomputes_with_old_key(self):
        # Same straddle, but the table holds nothing: the derivation must
        # itself fall back to the previous epoch's hop key (§4.5 key
        # rotation) and then store under it.
        start = DRKEY_VALIDITY - 5.0
        clock, gateway, router, mid_keys = make_stack(now=start)
        res_id, _ = install(gateway, mid_keys, clock)
        packet = gateway.send(res_id, b"late")
        packet.hop_index = 1
        clock.advance(7.0)
        assert router.validate_only(arriving(gateway, res_id))
        assert router.kernel.state.misses == 1
        # Stored under the minting epoch, addressable via the fallback.
        assert list(differential.flows(router.kernel)) == [(res_id.packed, 1, 0)]

    def test_poisoned_entry_never_changes_a_verdict(self):
        """A slot with the wrong schedule, or bound to other bytes, is
        refused: a forged packet still fails, an honest one still passes
        (derived afresh) and heals the slot; a forged one stores nothing."""
        clock, gateway, router, mid_keys = make_stack()
        table = router.kernel
        res_id, res_info = install(gateway, mid_keys, clock)
        assert router.validate_only(arriving(gateway, res_id))
        honest = _native_backend().key_schedule(
            hop_authenticator(mid_keys.hop_key(clock.now()), res_info, EER, 2, 3)
        )
        ((key, slot),) = differential.flows(table).items()
        for poison in ("schedule", "bound input"):
            if poison == "schedule":
                table._ffi.memmove(slot.sched, _native_backend().key_schedule(b"poisoned-sigma!!"), 32)
            else:
                slot.input[13] ^= 1  # the bandwidth it was minted for
            forged = arriving(gateway, res_id)
            forged.hvfs[1] = bytes(L_HVF)
            rejected = table.state.rejected_hints
            assert not router.validate_only(forged)
            assert table.state.rejected_hints == rejected + 1
            assert router.validate_only(arriving(gateway, res_id))
            assert table.state.rejected_hints == rejected + 2
            ((healed, slot),) = differential.flows(table).items()
            assert healed == key and schedule_of(slot) == honest
        # A forged packet of a flow the table does not hold stores nothing.
        other, _ = install(gateway, mid_keys, clock, local_id=6)
        forged = arriving(gateway, other)
        forged.hvfs[1] = bytes(L_HVF)
        assert not router.validate_only(forged) and list(differential.flows(table)) == [key]

    def test_eviction_never_changes_a_verdict(self):
        clock, gateway, router, mid_keys = make_stack(capacity=1)
        table = router.kernel
        a, _ = install(gateway, mid_keys, clock, local_id=5)
        b, _ = install(gateway, mid_keys, clock, local_id=6)
        # Alternating reservations through a one-flow table: every lookup
        # after the first evicts the other entry, and every packet still
        # validates.
        for _ in range(4):
            assert router.validate_only(arriving(gateway, a))
            assert router.validate_only(arriving(gateway, b))
        assert table.state.evictions >= 6
        assert table.state.count == 1

    def test_renewed_flow_holds_at_most_two_versions(self):
        """Storing version v drops v-2 (under the minting epoch or the one
        before): a renewed flow never sits in the table more than twice,
        and the drops are not evictions."""
        start = DRKEY_VALIDITY - 30.0  # renewals straddle the epoch boundary
        clock, gateway, router, mid_keys = make_stack(now=start)
        table = router.kernel
        other, _ = install(gateway, mid_keys, clock, local_id=6)
        assert router.validate_only(arriving(gateway, other))
        for version in range(1, 9):
            res_id, _ = install(gateway, mid_keys, clock, version=version)
            assert router.validate_only(arriving(gateway, res_id))
            assert router.validate_only(arriving(gateway, res_id))
            held = sorted(key for key in differential.flows(table) if key[0] == res_id.packed)
            epoch = int(clock.now() // DRKEY_VALIDITY)
            assert [v for _, v, _ in held] == [max(1, version - 1), version][-len(held):]
            assert all(minted in (epoch, epoch - 1) for _, _, minted in held)
            assert len(held) <= 2
            clock.advance(10.0)
        assert {minted for _, _, minted in differential.flows(table)} == {0, 1}
        assert table.state.evictions == 0
        assert table.state.misses == 1 + 8 and table.state.hits == 8
        assert {(key[0], key[1]) for key in differential.flows(table)} == {
            (other.packed, 1), (res_id.packed, 7), (res_id.packed, 8)
        }
        # The counters that moved: one key load per DRKey epoch, cells per label.
        snapshot = table.snapshot()
        assert set(snapshot) == {
            "sigma_cache_hits", "sigma_cache_misses", "sigma_cache_entries",
            "router_stops_rekey", "router_stops_cells",
        }
        assert (snapshot["router_stops_rekey"], snapshot["router_stops_cells"]) == (2, 2)

    def test_table_grows_with_the_working_set(self):
        """64 slots at first, doubled whenever a stored flow would fill more
        than half of them, up to twice the capacity; every packet validates
        and no flow is evicted below the capacity."""
        clock, gateway, router, mid_keys = make_stack()
        table = router.kernel
        assert table.state.nslots == 64
        ids = [install(gateway, mid_keys, clock, local_id=100 + index)[0] for index in range(200)]
        assert all(router.validate_batch([arriving(gateway, res_id) for res_id in ids]))
        assert (table.state.count, table.state.nslots, table.state.evictions) == (200, 512, 0)
        table.capacity = 100
        assert (table.state.count, table.state.nslots) == (0, 64)
        assert all(router.validate_batch([arriving(gateway, res_id) for res_id in ids]))
        assert (table.state.count, table.state.nslots, table.state.evictions) == (100, 256, 100)

    def test_renewal_rounds_keep_the_table_size(self, monkeypatch):
        """Storing v + 1 retires v - 1 before the table is judged full: once
        the first renewal round of 32 flows has grown it, three more leave
        ``nslots`` as it was, with no GROW stop (the second used to double it)."""
        from repro.crypto import native

        clock, gateway, router, mid_keys = make_stack()
        table, grown, move = router.kernel, [], native.BurstKernel._move
        monkeypatch.setattr(native.BurstKernel, "_move", lambda kernel, slots: grown.append(slots) or move(kernel, slots))
        sizes = []
        for version in range(1, 6):
            ids = [install(gateway, mid_keys, clock, local_id=100 + index, version=version)[0] for index in range(32)]
            assert all(router.validate_batch([arriving(gateway, res_id) for res_id in ids]))
            sizes.append((table.state.count, table.state.nslots, len(grown)))
        assert sizes == [(32, 64, 0)] + [(64, 128, 1)] * 4
        assert table.state.evictions == 0

    def test_every_flow_survives_the_doublings(self):
        """Each move reads the old table whole (it is freed only after): 300
        flows stored one burst of one at a time through 64 -> 1,024 slots all
        hit afterwards, each under its own bytes and ``cells_for``'s cells."""
        clock, gateway, router, mid_keys = make_stack()
        table, epoch = router.kernel, int(clock.now() // DRKEY_VALIDITY)
        ids = [install(gateway, mid_keys, clock, local_id=100 + index)[0] for index in range(300)]
        for res_id in ids:
            assert router.validate_only(arriving(gateway, res_id))
        assert (table.state.count, table.state.nslots, table.state.misses) == (300, 1024, 300)
        assert all(router.validate_batch([arriving(gateway, res_id) for res_id in ids]))
        assert (table.state.hits, table.state.misses, table.state.count) == (300, 300, 300)
        flows = differential.flows(table)
        assert sorted(flows) == sorted((res_id.packed, 1, epoch) for res_id in ids)
        for (label, _, _), slot in flows.items():
            assert tuple(slot.cells)[: router.ofd.depth] == router.ofd.cells_for(label)


WORKLOAD_IDS = (5, 6, 7)


def run_workload(mode, kernel=True):
    """One fixed randomized workload through a fresh stack.

    ``mode`` is ``"serial"`` (send + process per packet) or ``"batch"``
    (send_batch + process_batch per 16-request burst).  Returns
    everything observable: packet bytes, drop types, verdict names, and
    the stack's counters.
    """
    clock, gateway, router, mid_keys = make_stack(kernel=kernel)
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
    """send/process ≡ send_batch/process_batch ≡ the Python body alone."""

    def test_equivalence_property(self):
        serial = run_workload("serial")
        batch = run_workload("batch")
        batch_nocache = run_workload("batch", kernel=False)

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
        """Flow-table hits on a warm second pass change nothing observable."""
        passes = {}
        for cache in (True, False):
            clock, gateway, router, mid_keys = make_stack(kernel=cache)
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
            if cache and router.kernel is not None:  # the first packet opened the sketch window
                assert router.kernel.state.hits == 22
        assert passes[True] == passes[False]


def host_rounds(seed=28, count=48):
    """A host's sending, seeded: each round is the flows of the packets
    sent at one instant, their payload lengths, replays of earlier packets
    (as indices back into what was sent) and the clock step after it."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(count):
        sends = [(rng.choice("ab"), rng.randrange(0, 900)) for _ in range(rng.randint(1, 6))]
        replays = [rng.randrange(40) for _ in range(rng.random() < 0.3)]
        rounds.append((sends, replays, rng.choice((0.0, 0.05, 0.2, 0.45))))
    return rounds


class TestBurstOfOne:
    """``process`` is ``_burst`` on a burst of one: a host's packets handed
    over one call each leave exactly what the same packets in bursts leave,
    on the kernel router, the ``COLIBRI_NATIVE=0`` router and the reference,
    across filter rotations and sketch rolls."""

    def test_one_at_a_time_equals_bursts(self):
        from tests.test_policing_native import scripted_world, tables_of

        kernel = _native_backend() is not None  # else the trio alone, against the reference
        one_at_a_time, bursts = differential.run_serial, differential.run_batches(64)
        modes = {"reference": (scripted_world(), differential.run_reference)}
        bodies = ("kernel", "trio") if kernel else ("trio",)
        for body in bodies:
            for label, run in (("process", one_at_a_time), ("process_batch", bursts)):
                modes[f"{body}/{label}"] = (scripted_world(body == "kernel"), run)
        real = [world for label, (world, _) in modes.items() if label != "reference"]
        assert [w.router.kernel is not None for w in real] == [b == "kernel" for b in bodies for _ in "ab"]
        trio_calls = collections.Counter()

        def counted(label, check_and_insert):
            def shadow(mac, now):
                trio_calls[label] += 1
                return check_and_insert(mac, now)

            return shadow

        for label, (world, _) in modes.items():
            if label != "reference":
                duplicates = world.router.duplicates
                duplicates.check_and_insert = counted(label, duplicates.check_and_insert)
        rotations, rolls = set(), set()
        for sends, replays, step in host_rounds():
            traces = []
            for world, run in modes.values():
                burst = [world.stamp(name, b"h" * length) for name, length in sends]
                burst += [differential.copy_of(world.sent[-1 - back % len(world.sent)]) for back in replays]
                world.sent += burst[: len(sends)]
                outcomes = run(world.router, burst)
                traces.append((outcomes, [p.hop_index for p in burst], differential.policing_state(world.router)))
                world.clock.advance(step)
            assert all(trace == traces[0] for trace in traces), (sends, replays)
            states = [
                (tables_of(w.router), w.router.ofd._counts.tobytes(), w.router.obs.journal.export_jsonl())
                for w in real
            ]
            assert all(state == states[0] for state in states)
            rotations.add(states[0][0]["rotated_at"])
            rolls.add(states[0][0]["ofd"][0])
        # The sequence crossed rotations and rolls, and drove forwards,
        # deliveries and replays; the kernel policed most packets and the
        # trio took the ones on which a rotation or a roll was due.
        assert len(rotations) >= 4 and len(rolls) >= 4
        stats = real[0].router.stats
        assert min(stats[Verdict.FORWARD], stats[Verdict.DELIVER_HOST], stats[Verdict.DROP_DUPLICATE]) > 0
        assert trio_calls["trio/process"] == trio_calls["trio/process_batch"] > 100
        if kernel:
            assert 0 < trio_calls["kernel/process"] == trio_calls["kernel/process_batch"] < 20


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
