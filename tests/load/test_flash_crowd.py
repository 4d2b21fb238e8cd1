"""Budgeted load test: the flash-crowd EER churn campaign.

Runs the canonical ``flash_crowd`` campaign at the configured scale and
holds it to the explicit budgets in :mod:`tests._campaign_budgets`:
wall clock, admission latency p95, delivery ratio, and the peak
reservation-store heap.  Invariants (accounting conservation, journal
completeness, identity-verified policing, zero residual state, SLO
replay equivalence) are enforced inside the harness itself — a single
``result.ok`` covers them all.
"""

import time

import pytest

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import endpoints, flash_crowd
from repro.topology.addresses import HostAddr
from tests._campaign_budgets import SCALE, budget, rss_mb


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(flash_crowd(SCALE, seed=7))
    start = time.perf_counter()
    result = runner.run()
    return runner, result, time.perf_counter() - start


def test_campaign_green(run):
    _, result, _ = run
    assert result.ok, result.violations
    assert result.replay_equivalent


def test_wall_clock_budget(run):
    _, _, wall = run
    assert wall < budget()["wall_seconds"]


def test_admission_ratio_budget(run):
    _, result, _ = run
    arrivals = sum(r.stats["arrivals"] for r in result.phase_reports)
    admitted = sum(r.stats["admitted"] for r in result.phase_reports)
    assert arrivals > 0
    assert admitted / arrivals >= budget()["min_admission_ratio"]


def test_delivery_ratio_budget(run):
    _, result, _ = run
    sent = sum(r.stats["packets_sent"] for r in result.phase_reports)
    delivered = sum(r.stats["packets_delivered"] for r in result.phase_reports)
    assert sent > 0, "campaign produced no renewal data probes"
    assert delivered / sent >= budget()["min_delivery_ratio"]


def test_surge_leaves_no_residual_state(run):
    _, result, _ = run
    final = result.phase_reports[-1]
    assert final.memory["live_eers"] == 0.0
    # The surge really surged: the flash phase saw several times the
    # baseline arrivals.
    baseline, flash = result.phase_reports
    assert flash.stats["arrivals"] >= 4 * max(1, baseline.stats["arrivals"])


def test_peak_store_budget(run):
    _, result, _ = run
    peak_kb = max(r.memory["store_bytes"] for r in result.phase_reports) / 1024
    assert peak_kb < budget()["peak_store_kb"]
    assert rss_mb() < budget()["rss_mb"]


def test_admission_p95_budget(run):
    """Wall-clock p95 of one EER admission on the campaign fabric.

    Best-of-batches: the budget must hold for at least one of three
    20-admission batches, so a noisy co-tenant on the runner cannot
    fail the gate (see CONTRIBUTING — shape assertions prefer
    best-of/min-based measurements over single samples).
    """
    runner, _, _ = run
    network = runner.network
    source, destination = endpoints(SCALE, 2)
    batch_p95s = []
    host = 5000
    for _ in range(3):
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            network.establish_eer(source, destination, 1e5, HostAddr(host))
            samples.append(time.perf_counter() - start)
            host += 1
        samples.sort()
        batch_p95s.append(samples[int(len(samples) * 0.95)])
    assert min(batch_p95s) * 1000 < budget()["admission_p95_ms"]
