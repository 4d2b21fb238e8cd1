"""Budgeted load test: the renewal-storm campaign.

A synchronized cohort of EERs renews in lockstep waves (lifetime 16 s,
lead 4 s) on top of background churn.  Budgets: no renewal failures, at
least one full wave of cohort renewals, and a housekeeping sweep that
stays under its time budget with the cohort live.
"""

import time

import pytest

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import _INTENSITY, renewal_storm
from tests._campaign_budgets import SCALE, budget


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(renewal_storm(SCALE, seed=7))
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


def test_storm_cohort_set_up(run):
    _, result, _ = run
    storm = result.phase_reports[0]
    cohort = _INTENSITY[SCALE]["cohort"]
    # The cohort must overwhelmingly succeed at setup.
    assert storm.stats["storm_setup_failures"] <= cohort * 0.05


def test_at_least_one_full_renewal_wave(run):
    _, result, _ = run
    storm = result.phase_reports[0]
    cohort = _INTENSITY[SCALE]["cohort"]
    setup = cohort - storm.stats["storm_setup_failures"]
    # Scheduler-driven renewals: every surviving cohort member renews at
    # least once over ≥30 s of simulated time (wave period 12 s).
    assert storm.renewals["eers"] >= setup
    assert storm.renewals["failures"] == 0


def test_no_workload_renewal_failures(run):
    _, result, _ = run
    assert all(
        r.stats["renewal_failures"] == 0 for r in result.phase_reports
    )


def test_sweep_time_budget(run):
    """One full housekeeping pass across every AS store, wall-clocked."""
    runner, _, _ = run
    start = time.perf_counter()
    runner.network.housekeeping()
    sweep = time.perf_counter() - start
    assert sweep < budget()["sweep_seconds"]
