"""Stress: coordinated multi-AS overuse against one victim (§4.8).

Three ASes in different cones send several times their reserved rate
over *valid* EERs.  The policing pipeline must confirm each offender
deterministically, blocklist exactly the three attacker ASes — nobody
else — and every punitive verdict must trace back to an
identity-verified HVF (enforced by the harness checker).
"""

import time

import pytest

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import endpoints, multi_as_overuse
from tests._campaign_budgets import SCALE, budget


@pytest.fixture(scope="module")
def run():
    runner = CampaignRunner(multi_as_overuse(SCALE, seed=7))
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


def test_every_attacker_confirmed_and_blocked(run):
    runner, result, _ = run
    src, dst, victim, att_a, att_b, att_c = endpoints(SCALE, 6)
    attackers = {att_a, att_b, att_c}
    blocked = set()
    for stack in runner.network._stacks.values():
        blocked.update(stack.router.blocklist.blocked_ases())
    assert blocked == attackers, (
        f"blocklist {sorted(map(str, blocked))} != attackers"
    )
    assault = result.phase_reports[-1]
    # One monitor confirmation per attacker, then hard drops.
    assert assault.attack_verdicts.get("drop_overuse", 0) >= len(attackers)
    assert assault.attack_verdicts.get("drop_blocked", 0) > 0


def test_honest_traffic_untouched(run):
    runner, result, _ = run
    src, dst, victim, *_ = endpoints(SCALE, 6)
    for stack in runner.network._stacks.values():
        assert src not in stack.cserv.denied_sources
        assert victim not in stack.cserv.denied_sources
    calm = result.phase_reports[0]
    assert calm.stats["arrivals"] == calm.stats["admitted"]
