"""Smoke, determinism and fail-closed checks of the e2e benchmark.

Outside the tier-1 ``testpaths``; run it by name (about 15 s):

    python -m pytest benchmarks/e2e/test_smoke.py -q --noconftest

(``--noconftest`` only keeps ``benchmarks/conftest.py`` from appending
every stored result table to the report.)

Every run here uses the ``--quick`` configuration (small populations,
short blocks) with a fixed number of blocks, so program-side counts are
comparable between runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it puts src/ on the path)
import noise  # noqa: E402
import workloads  # noqa: E402
from repro.dataplane.router import Verdict  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def quick(name: str, seed: int = 7, trace: bool = False) -> dict:
    return run.run_once(name, seed, seconds=1, trace=trace, quick=True, blocks=2)


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_gives_identical_inputs_and_program_side_counts(name):
    first, second = quick(name), quick(name)
    assert first["correct"] and first["failed"] == 0, first["problems"]
    assert first["counts"] == second["counts"]
    assert first["attempted"] == second["attempted"] > 0
    assert quick(name, seed=8)["counts"]["inputs"] != first["counts"]["inputs"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_a_budget_that_sums(name, capsys):
    result = quick(name, trace=True)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["per_layer"]}
    assert sum(row[3] for row in result["budget"]) == pytest.approx(1.0, abs=0.02)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert f"budget {name}" in capsys.readouterr().out


def test_setup_mix_refuses_each_class_at_the_named_as():
    workload = workloads.SetupMix(seed=3, quick=True)
    workload.setup()
    workload.prepare_block()
    rec = workloads.Recorder()
    workload.run_block(rec)
    assert rec.failed == 0 and set(rec.class_ns) == {"admit", "reject_far", "reject_near"}
    # The same requests against swapped expectations must all count as failed.
    far, near = workload.CLASSES[1], workload.CLASSES[2]
    workload.CLASSES = (
        workload.CLASSES[0], far[:3] + (near[3],), near[:3] + (far[3],)
    )
    wrong = workloads.Recorder()
    workload.prepare_block()
    workload.run_block(wrong)
    rejected = len(wrong.class_ns["reject_far"]) + len(wrong.class_ns["reject_near"])
    assert wrong.failed == rejected > 0


@pytest.mark.parametrize("check", sorted(workloads.EXPECTED_VERDICTS))
def test_a_wrong_expected_verdict_fails_the_run(check, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_VERDICTS, check, Verdict.FORWARD)
    result = quick("host_serial_path")
    assert not result["correct"]
    assert any(problem.startswith(check) for problem in result["problems"])
    assert run.main(
        ["--workload", "burst_long_path", "--quick", "--blocks", "1", "--seed", "2"]
    ) == 1


def test_driver_command_prints_the_contract_object_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "churn_large_store",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in run.SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_compare_labels_regression_unchanged_improved_unresolved():
    metric = {"better": "lower", "bound": 0.05}
    steady = [100, 101, 99, 100, 102, 100, 98, 100, 101, 100]
    assert noise.verdict(metric, steady, [value * 1.01 for value in steady])[0] == "unchanged"
    assert noise.verdict(metric, steady, [value * 1.2 for value in steady])[0] == "regression"
    assert noise.verdict(metric, steady, [value * 0.8 for value in steady])[0] == "improved"
    wide = [80, 120, 90, 110, 100, 85, 115, 95, 105, 100]
    assert noise.verdict(metric, wide, steady)[0] == "unresolved"
    higher = {"better": "higher", "bound": 0.05}
    assert noise.verdict(higher, steady, [value * 0.8 for value in steady])[0] == "regression"
