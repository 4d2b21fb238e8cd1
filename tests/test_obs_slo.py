"""SLO burn-rate alerting and overuse forensics.

The alert state machine is exercised against hand-computed windows via
:meth:`AlertEngine.ingest` (synthetic snapshots, explicit clock), live ≡
offline equivalence via journal replay, and the evidence builder through
a full round trip — including the forged-HVF rejection case: a sample
packet citing an unauthenticated drop must be inadmissible.
"""

import copy
import dataclasses

import pytest

from repro.obs.events import VERDICT_DROPPED
from repro.obs.forensics import EvidenceBuilder, verify_evidence
from repro.obs.report import run_health_scenario
from repro.obs.slo import (
    FIRING,
    OK,
    PENDING,
    RESOLVED,
    AlertEngine,
    SLOSpec,
    default_slos,
    registry_from_events,
    replay_journal,
)
from repro.packets.fields import Timestamp
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
SRC = IsdAs(1, BASE + 101)
DST = IsdAs(2, BASE + 101)


def ratio_slo(objective=0.9):
    return SLOSpec.ratio("drops", numerator="bad", denominator="all", objective=objective)


def snapshot(bad, all_):
    return {
        "bad": {"kind": "counter", "help": "", "value": float(bad)},
        "all": {"kind": "counter", "help": "", "value": float(all_)},
    }


class TestBurnRateMath:
    def test_ratio_burn_is_bad_fraction_over_budget(self):
        slo = ratio_slo(objective=0.9)  # budget 0.1
        older, newer = snapshot(0, 0), snapshot(5, 100)
        # bad fraction 0.05 over budget 0.1 -> burn 0.5
        assert slo.burn_rate(older, newer) == pytest.approx(0.5)

    def test_window_delta_not_cumulative(self):
        slo = ratio_slo(objective=0.9)
        older, newer = snapshot(50, 100), snapshot(55, 200)
        # only the window's 5/100 counts, not the historical 50/100
        assert slo.burn_rate(older, newer) == pytest.approx(0.5)

    def test_empty_window_burns_nothing(self):
        slo = ratio_slo()
        assert slo.burn_rate(snapshot(5, 10), snapshot(5, 10)) == 0.0

    def test_gauge_bound_violation(self):
        slo = SLOSpec.gauge_bound("level", gauge="g", bound=2.0)
        over = {"g": {"kind": "gauge", "help": "", "value": 3.0}}
        under = {"g": {"kind": "gauge", "help": "", "value": 1.0}}
        assert slo.burn_rate({}, over) == 1.0
        assert slo.burn_rate({}, under) == 0.0

    def test_latency_counts_above_threshold(self):
        slo = SLOSpec.latency("p", histogram="h", threshold=0.01, objective=0.5)
        hist = lambda counts, total: {  # noqa: E731
            "h": {
                "kind": "histogram",
                "help": "",
                "buckets": (0.001, 0.01, 0.1),
                "counts": counts,
                "sum": 0.0,
                "count": total,
            }
        }
        older = hist([0, 0, 0], 0)
        newer = hist([4, 4, 2], 10)
        # 2 of 10 above the 0.01 bound; budget 0.5 -> burn 0.4
        assert slo.burn_rate(older, newer) == pytest.approx(0.4)


class TestAlertStateMachine:
    def make_engine(self):
        return AlertEngine(
            (ratio_slo(objective=0.9),),
            fast_window=2.0,
            slow_window=10.0,
            pending_for=1.0,
            burn_threshold=1.0,
        )

    def drive(self, engine, points):
        """Feed ``(time, bad, all)`` points; return visited states."""
        states = []
        for time, bad, all_ in points:
            engine.ingest(time, snapshot(bad, all_))
            (alert,) = engine.alerts()
            states.append(alert.state)
        return states

    def test_clean_stream_stays_ok(self):
        engine = self.make_engine()
        states = self.drive(
            engine, [(t, 0, 100 * (t + 1)) for t in range(5)]
        )
        assert states == [OK] * 5

    def test_breach_walks_pending_then_firing(self):
        engine = self.make_engine()
        # 50% bad over a 0.1 budget: burn 5.0 in both windows.
        states = self.drive(
            engine,
            [(0.0, 0, 0), (0.5, 50, 100), (1.0, 100, 200), (2.0, 200, 400)],
        )
        # breach first seen at t=0.5 (pending); pending_for=1.0 elapses
        # by t=2.0 (1.5s after pending began) -> firing.
        assert states == [OK, PENDING, PENDING, FIRING]

    def test_blip_shorter_than_pending_never_fires(self):
        engine = self.make_engine()
        states = self.drive(
            engine,
            [(0.0, 0, 0), (0.5, 50, 100), (1.0, 50, 200), (1.5, 50, 600)],
        )
        # burn collapses below threshold (50/600 over a 0.1 budget is
        # 0.83) exactly when pending_for would have elapsed
        assert FIRING not in states
        assert states[-1] == OK

    def test_firing_resolves_then_returns_to_ok(self):
        engine = self.make_engine()
        states = self.drive(
            engine,
            [
                (0.0, 0, 0),
                (1.0, 100, 200),
                (2.5, 250, 500),
                # recovery: no new bad events, plenty of good ones
                (13.0, 250, 5000),
                (14.0, 250, 6000),
            ],
        )
        assert states == [OK, PENDING, FIRING, RESOLVED, OK]
        transitions = [(old, new) for _, _, old, new in engine.transitions]
        assert transitions == [
            (OK, PENDING),
            (PENDING, FIRING),
            (FIRING, RESOLVED),
            (RESOLVED, OK),
        ]

    def test_slow_window_vetoes_fast_blip(self):
        """Both windows must burn: a spike inside the fast window alone
        does not breach once the slow window has history to dilute it."""
        engine = self.make_engine()
        points = [(float(t), 0, 1000 * (t + 1)) for t in range(9)]
        states = self.drive(engine, points)
        assert states == [OK] * 9
        # One bad burst at t=9: the fast window (baseline t=7) sees
        # 200/2000 bad = burn 1.0 (breach), but the slow window
        # (baseline t=0) sees 200/9000 ≈ burn 0.22 — vetoed.
        engine.ingest(9.0, snapshot(200, 10000))
        (alert,) = engine.alerts()
        assert alert.fast_burn == pytest.approx(1.0)
        assert alert.slow_burn < 1.0
        assert alert.state == OK

    def test_time_must_advance(self):
        engine = self.make_engine()
        engine.ingest(1.0, snapshot(0, 0))
        with pytest.raises(ValueError):
            engine.ingest(0.5, snapshot(0, 0))


class TestLiveOfflineEquivalence:
    def test_replayed_journal_reproduces_transitions(self):
        """The journal-derived event counters evaluate identically
        whether read live (callback gauges) or rebuilt offline."""
        _, obs = run_health_scenario(seed=5, attack=True, rounds=600)
        events = obs.journal.events()
        slo = SLOSpec.ratio(
            "journal_drops",
            numerator="events_verdict_dropped_total",
            denominator="events_total",
            objective=0.5,
        )
        times = sorted({event.time for event in events})[::10]
        live = AlertEngine((slo,), pending_for=0.0)
        for time in times:
            live.ingest(time, registry_from_events(events, upto=time).state())
        replayed = AlertEngine((slo,), pending_for=0.0)
        replay_journal(events, replayed, times)
        assert replayed.transitions == live.transitions
        assert [a.state for a in replayed.alerts()] == [
            a.state for a in live.alerts()
        ]

    def test_default_slos_cover_documented_set(self):
        names = [slo.name for slo in default_slos()]
        assert names == [
            "admission_latency_p95",
            "hop_drop_ratio",
            "token_bucket_saturation",
            "circuit_breakers",
        ]


# ------------------------------------------------- overuse forensics --


@pytest.fixture(scope="module")
def overuse_case():
    """A journal holding a confirmed overuse *and* a forged-HVF drop.

    The forgery reuses the PR 4 fixture: a byte-copy of a delivered
    packet with a fresh timestamp — it names the victim's reservation
    but cannot authenticate, so it dies as ``drop_bad_hvf`` with
    ``identity_verified=False``.
    """
    net = ColibriNetwork(build_two_isd_topology())
    obs = net.enable_observability(seed=0, journal=True)
    net.reserve_segments(SRC, DST, gbps(1))
    handle = net.establish_eer(SRC, DST, mbps(8))
    report = net.send(SRC, handle, b"legit")
    assert report.delivered

    # Forged copy of the delivered packet (stale HVFs, fresh Ts).
    net.clock.advance(0.001)
    forged = copy.deepcopy(report.packet)
    forged.hop_index = 0
    forged.timestamp = Timestamp.create(net.clock.now(), forged.res_info.expiry)
    forged_report = net.forward(forged)
    assert forged_report.verdicts[-1][1].value == "drop_bad_hvf"

    # The source AS turns rogue (§7.1 threat 3) and floods.
    net.gateway(SRC).monitor.unwatch(handle.reservation_id.packed)
    net.router(SRC).ofd.overuse_factor = float("inf")
    tick = 0.001
    size = max(200, int(mbps(8) * tick / 8))
    builder = EvidenceBuilder(obs.journal)
    for _ in range(2000):
        for _ in range(10):
            net.send(SRC, handle, b"a" * size)
        net.advance(tick)
        if builder.confirmed_flows():
            break
    assert builder.confirmed_flows()
    return net, obs, handle


class TestEvidence:
    def test_round_trip_and_acceptance(self, overuse_case):
        _, obs, _ = overuse_case
        builder = EvidenceBuilder(obs.journal)
        (flow,) = builder.confirmed_flows()
        evidence = builder.build(flow)
        assert evidence.drop_count > 0
        assert evidence.sample_packets
        assert evidence.admitted_bps == pytest.approx(mbps(8))
        assert verify_evidence(evidence, obs.journal) == []

    def test_deterministic_build(self, overuse_case):
        _, obs, _ = overuse_case
        builder = EvidenceBuilder(obs.journal)
        (flow,) = builder.confirmed_flows()
        assert builder.build(flow) == builder.build(flow)

    def test_tampered_counts_rejected(self, overuse_case):
        _, obs, _ = overuse_case
        builder = EvidenceBuilder(obs.journal)
        evidence = builder.build(builder.confirmed_flows()[0])
        inflated = dataclasses.replace(
            evidence,
            drop_count=evidence.drop_count + 7,
            dropped_bytes=evidence.dropped_bytes + 9000,
        )
        failures = verify_evidence(inflated, obs.journal)
        assert any("drop count mismatch" in f for f in failures)
        assert any("dropped bytes mismatch" in f for f in failures)

    def test_forged_sample_inadmissible(self, overuse_case):
        """A sample citing the forged packet's drop must be rejected:
        the drop was never authenticated (drop_bad_hvf)."""
        _, obs, _ = overuse_case
        builder = EvidenceBuilder(obs.journal)
        evidence = builder.build(builder.confirmed_flows()[0])
        forged_drop = next(
            event
            for event in obs.journal.query(VERDICT_DROPPED)
            if event.attrs["verdict"] == "drop_bad_hvf"
        )
        assert not forged_drop.attrs["identity_verified"]
        tampered_sample = {
            "seq": forged_drop.seq,
            "time": forged_drop.time,
            "size": forged_drop.attrs["size"],
        }
        tampered = dataclasses.replace(
            evidence,
            sample_packets=evidence.sample_packets[:-1] + (tampered_sample,),
        )
        failures = verify_evidence(tampered, obs.journal)
        assert any("never authenticated" in f for f in failures)

    def test_invented_sample_rejected(self, overuse_case):
        _, obs, _ = overuse_case
        builder = EvidenceBuilder(obs.journal)
        evidence = builder.build(builder.confirmed_flows()[0])
        fake = {"seq": 10_000_000, "time": 0.0, "size": 1}
        tampered = dataclasses.replace(
            evidence, sample_packets=(fake,) + evidence.sample_packets[1:]
        )
        failures = verify_evidence(tampered, obs.journal)
        assert any("not a journal drop" in f for f in failures)

    def test_unconfirmed_flow_has_no_evidence(self, overuse_case):
        _, obs, _ = overuse_case
        with pytest.raises(ValueError):
            EvidenceBuilder(obs.journal).build("deadbeef")
