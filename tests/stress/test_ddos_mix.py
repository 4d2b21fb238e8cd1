"""Stress: the DDoS threat mix beyond Table 2.

Simultaneously: forged-HVF floods hammer two victim-AS routers under a
spoofed honest source address, a rogue AS overuses a valid EER, and
honest churn keeps arriving.  The paper's §4.8 asymmetry must hold:

* the rogue (cryptographically identified by its valid HVFs) is
  confirmed and blocklisted;
* the spoofed "source" of the forged floods is NOT punished — a forged
  packet never identity-verifies, so it can never trigger punitive
  action against the AS written into its header;
* honest admissions keep succeeding throughout, and the drop-burn SLO
  alert fires during the flood and resolves after the drain.
"""

import time

import pytest

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import endpoints, ddos_mix
from tests._campaign_budgets import SCALE, budget


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(ddos_mix(SCALE, seed=7))
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


def test_forged_floods_dropped_without_punishment(run):
    runner, result, _ = run
    src, dst, victim_a, victim_b, rogue, rogue_dst = endpoints(SCALE, 6)
    mix = result.phase_reports[0]
    assert mix.attack_verdicts.get("drop_bad_hvf", 0) > 0
    blocked = set()
    for stack in runner.network._stacks.values():
        blocked.update(stack.router.blocklist.blocked_ases())
        assert src not in stack.cserv.denied_sources
    # Spoofing cannot get the honest AS punished...
    assert src not in blocked
    # ...while the rogue overuser, whose packets identity-verify, is.
    assert blocked == {rogue}


def test_honest_service_survives_the_mix(run):
    _, result, _ = run
    mix = result.phase_reports[0]
    assert mix.stats["arrivals"] > 0
    assert mix.stats["admitted"] == mix.stats["arrivals"]


def test_drop_burn_alert_fires_and_resolves(run):
    _, result, _ = run
    names = [(name, old, new) for _, name, old, new in result.transitions]
    assert ("campaign_drop_burn", "pending", "firing") in names
    assert ("campaign_drop_burn", "resolved", "ok") in names
