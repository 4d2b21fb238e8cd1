"""Campaign-harness unit and determinism tests.

The load-bearing invariant (ISSUE 9 satellite): a campaign is a pure
function of its spec — same seed ⇒ byte-identical journal export and an
identical SLO transition sequence across runs.  Plus unit coverage of
the spec plumbing, artifact writer, and invariant checkers.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs.events import parse_jsonl
from repro.sim.campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    Phase,
    WorkloadSpec,
    campaign_slos,
    check_no_residual_eers,
)
from repro.sim.campaigns import CANONICAL, QUICK, endpoints, flash_crowd
from repro.sim.scenario import ColibriNetwork
from repro.topology.generator import build_two_isd_topology


@pytest.fixture(scope="module")
def twin_runs():
    """The same quick campaign run twice from one seed."""
    return (
        CampaignRunner(flash_crowd(QUICK, seed=3)).run(),
        CampaignRunner(flash_crowd(QUICK, seed=3)).run(),
    )


def test_same_seed_byte_identical_journal(twin_runs):
    first, second = twin_runs
    assert first.journal_jsonl == second.journal_jsonl
    assert len(first.journal_jsonl) > 0


def _normalized(summary):
    # Heap measurement (sys.getsizeof) legitimately varies with dict
    # allocation history; everything else must be reproducible.
    for phase in summary["phases"]:
        phase["memory"].pop("store_bytes", None)
    return summary


def test_same_seed_identical_slo_state(twin_runs):
    first, second = twin_runs
    assert first.slo_times == second.slo_times
    assert first.transitions == second.transitions
    assert _normalized(first.summary()) == _normalized(second.summary())


def test_campaign_green_and_replay_equivalent(twin_runs):
    result = twin_runs[0]
    assert result.ok, result.violations
    assert result.replay_equivalent
    # Drain left nothing behind.
    assert result.phase_reports[-1].memory["live_eers"] == 0.0


def test_different_seed_diverges(twin_runs):
    other = CampaignRunner(flash_crowd(QUICK, seed=4)).run()
    assert other.journal_jsonl != twin_runs[0].journal_jsonl


def test_write_artifacts(twin_runs, tmp_path):
    result = twin_runs[0]
    target = result.write_artifacts(tmp_path)
    assert target == tmp_path / result.name
    events = parse_jsonl((target / "journal.jsonl").read_text())
    assert len(events) > 0
    replay = json.loads((target / "slo_replay.json").read_text())
    assert replay["equivalent"] is True
    summary = json.loads((target / "summary.json").read_text())
    assert summary["ok"] is True
    # The footprint file accumulates one row per campaign written.
    result.write_artifacts(tmp_path)
    rows = (tmp_path / "memory_footprint.txt").read_text().splitlines()
    assert len(rows) == 2
    assert result.name in rows[0]


def test_campaign_slos_are_replay_safe():
    """Replay equivalence is only checkable over journal-derived
    instruments: every campaign SLO must be a ratio over event counters."""
    for spec in campaign_slos():
        assert spec.kind == "ratio"
        for counter in (spec.numerator, spec.denominator):
            assert counter == "events_total" or (
                counter.startswith("events_") and counter.endswith("_total")
            ), f"{spec.name} reads non-journal instrument {counter}"


def test_pairs_deduplicated_in_spec_order():
    src, dst, other, _, _, _ = endpoints(QUICK, 6)
    spec = CampaignSpec(
        name="pairs",
        topology=build_two_isd_topology,
        phases=(
            Phase("a", 1.0, workloads=(
                WorkloadSpec(src, dst),
                WorkloadSpec(other, dst),
            )),
            Phase("b", 1.0, workloads=(WorkloadSpec(src, dst),)),
        ),
    )
    assert CampaignRunner(spec)._pairs() == [(src, dst), (other, dst)]


def test_phase_defaults_are_draining():
    phase = Phase("p", 5.0)
    assert phase.drain is True
    assert phase.workloads == ()
    assert phase.partitioned == ()


def test_result_ok_reflects_violations():
    result = CampaignResult(
        name="x", seed=0, phase_reports=[], journal_jsonl="",
        slo_times=[], transitions=[], replay_transitions=[],
        violations=["phase p: accounting: leak"],
    )
    assert not result.ok
    assert result.replay_equivalent


def test_residual_eer_checker_flags_leftovers():
    network = ColibriNetwork(build_two_isd_topology())
    source = next(
        node.isd_as for node in network.topology.ases() if not node.is_core
    )
    destination = next(
        node.isd_as
        for node in network.topology.ases()
        if not node.is_core and node.isd != source.isd
    )
    network.reserve_segments(source, destination, 1e6)
    network.establish_eer(source, destination, 1e5)
    runner = SimpleNamespace(network=network)
    violations = check_no_residual_eers(runner)
    assert violations and "EER" in violations[0]


def test_endpoints_deterministic_and_distinct():
    first = endpoints(QUICK, 6)
    assert first == endpoints(QUICK, 6)
    assert len(set(first)) == 6


def test_canonical_catalog_complete():
    assert list(CANONICAL) == [
        "flash_crowd",
        "multi_as_overuse",
        "renewal_storm",
        "partition_recovery",
        "ddos_mix",
    ]
    for name, builder in CANONICAL.items():
        spec = builder(QUICK, seed=1)
        assert spec.name == f"{name}_{QUICK}"
        assert spec.phases
