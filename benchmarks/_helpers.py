"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
(§6-§7, appendices).  Series are printed AND written to
``benchmark_results/<name>.txt`` so the tee'd bench output and
EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmark_results")


def quick_mode() -> bool:
    """Whether the bench should run its reduced CI-smoke configuration.

    Set ``COLIBRI_BENCH_QUICK=1`` (the CI ``bench-smoke`` job does) to
    shrink sweep axes and durations: the numbers are not publication
    grade, but every code path still runs end to end.
    """
    return os.environ.get("COLIBRI_BENCH_QUICK", "") not in ("", "0")


def report(name: str, title: str, lines: list) -> None:
    """Print a result table and persist it for EXPERIMENTS.md."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    body = "\n".join([title, "-" * len(title), *lines, ""])
    print("\n" + body)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(body)


def report_json(name: str, bench: str, rows: list, profile: dict = None) -> None:
    """Persist machine-readable results as ``BENCH_<name>.json``.

    ``rows`` is a list of ``{"config": {...}, "pps": float}`` entries.
    The run id is a content hash of the bench name, configs, and rates —
    deliberately timestamp-free so re-running identical code on
    identical inputs produces an identical file (the diff, not a clock,
    says whether performance changed).

    ``profile`` is an optional :meth:`repro.obs.profile.Profiler.snapshot` from a
    separate instrumented pass.  It is attached *after* the run id is
    computed: profile timings are wall-clock noise by nature and must not
    churn the content hash of the actual measurements.

    Every run is also appended to ``benchmark_results/trajectory.jsonl``
    (deduplicated by run id, profile excluded), the append-only history
    ``tools/bench_regress.py`` gates regressions against.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {"bench": bench, "results": rows}
    digest = hashlib.blake2s(
        json.dumps(payload, sort_keys=True).encode("utf-8"), digest_size=8
    ).hexdigest()
    payload["run_id"] = digest
    _append_trajectory(
        {"name": name, "bench": bench, "run_id": digest, "results": rows}
    )
    if profile is not None:
        payload["profile"] = profile
    with open(os.path.join(RESULTS_DIR, f"BENCH_{name}.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _append_trajectory(entry: dict) -> None:
    """Append one run to the bench trajectory unless the identical run
    (same name + content-hash run id) is already recorded — re-running
    unchanged code on unchanged inputs must not grow the history."""
    path = os.path.join(RESULTS_DIR, "trajectory.jsonl")
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                prior = json.loads(line)
                if (
                    prior.get("name") == entry["name"]
                    and prior.get("run_id") == entry["run_id"]
                ):
                    return
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def time_per_call(fn, repeat: int = 200, number: int = 1) -> float:
    """Best-of-``repeat`` seconds per call (min reduces scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = (time.perf_counter() - start) / number
        if elapsed < best:
            best = elapsed
    return best


def throughput(fn, duration: float = 0.5) -> float:
    """Calls per second sustained over roughly ``duration`` seconds."""
    # Warm up and estimate cost.
    fn()
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < duration:
        fn()
        count += 1
    return count / (time.perf_counter() - start)
