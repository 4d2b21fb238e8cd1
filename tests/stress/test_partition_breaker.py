"""Stress: control-plane partition and circuit-breaker interaction.

Mid-campaign, the destination AS stops answering control-plane calls.
Admissions and renewals toward it must fail fast (breakers opening, not
hanging retries), the fabric must stay conservative (accounting stays
clean — harness checker), and after the partition heals the recovery
phase must admit traffic again and drain to zero residual state.
"""

import json
import time

import pytest

from repro.obs.events import BREAKER_TRANSITION
from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import partition_recovery
from tests._campaign_budgets import budget, SCALE


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(partition_recovery(SCALE, seed=7))
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


def test_partition_rejects_and_recovery_admits(run):
    _, result, _ = run
    steady, partition, recovery = result.phase_reports
    assert steady.stats["admitted"] > 0
    # During the partition everything toward the dead AS fails.
    assert partition.stats["admitted"] == 0
    assert (
        partition.stats["rejected"] + partition.stats["renewal_failures"] > 0
    )
    # Healing restores service.
    assert recovery.stats["admitted"] > 0
    assert recovery.stats["rejected"] == 0


def test_breakers_observed_in_journal(run):
    _, result, _ = run
    transitions = [
        json.loads(line)
        for line in result.journal_jsonl.splitlines()
        if json.loads(line)["type"] == BREAKER_TRANSITION
    ]
    assert transitions, "partition produced no breaker transitions"


def test_drains_to_zero(run):
    _, result, _ = run
    assert result.phase_reports[-1].memory["live_eers"] == 0.0
