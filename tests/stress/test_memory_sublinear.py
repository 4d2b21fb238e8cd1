"""Stress: reservation state must stay sublinear in processed flows.

The flash-crowd campaign multiplies arrivals ~8× between its phases;
the reservation-store heap may not follow.  Expired EERs are swept, so
state tracks *live* reservations, not cumulative arrivals — the same
property the ``memory_footprint.txt`` CI artifact row records.
"""

import time

import pytest

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import flash_crowd
from tests._campaign_budgets import SCALE, budget, rss_mb


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(flash_crowd(SCALE, seed=11))
    start = time.perf_counter()
    result = runner.run()
    return runner, result, time.perf_counter() - start


def test_campaign_green(run):
    _, result, _ = run
    assert result.ok, result.violations


def test_state_sublinear_in_arrivals(run):
    _, result, _ = run
    baseline, flash = result.phase_reports
    arrival_growth = flash.stats["arrivals"] / max(1, baseline.stats["arrivals"])
    store_growth = flash.memory["store_bytes"] / max(
        1.0, baseline.memory["store_bytes"]
    )
    assert arrival_growth >= 4.0, "surge did not materialize"
    # Several-fold more arrivals, bounded store: sweeping works.
    assert store_growth < 2.0, (
        f"store grew {store_growth:.2f}x for {arrival_growth:.1f}x arrivals"
    )


def test_journal_retains_everything(run):
    runner, result, _ = run
    journal = runner.network.obs.journal
    assert journal.stats()["dropped"] == 0
    assert journal.total_events == len(result.journal_jsonl.splitlines())


def test_rss_ceiling(run):
    _, _, _ = run
    assert rss_mb() < budget()["rss_mb"]
