"""The noise protocol: repeated interleaved runs, and comparing two sets.

``repeat`` runs every selected workload once per repetition, each run in
a fresh process with its own seed, alternating the workload order so a
frequency ramp or a noisy neighbour hits all of them alike (the
interleaving of ``tools/obs_overhead.py``, generalised).  It reports the
median and quartiles of every metric with the sample count and stores
all runs, the crypto backend and the host-speed calibration in ``--out``.

``compare`` reads two such files and applies the bounds of
``BENCHMARK.json`` per metric and workload: *regression* (B's median is
worse than A's by more than the bound), *unchanged*, *improved* (every
run of B beats every run of A), or *unresolved* (the run-to-run spread
of either side is wider than the bound, so the bound cannot be tested).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import probes
from repro.dataplane import hvf


def summarize(values) -> dict:
    """Median, quartiles and relative spread (IQR / median) of one metric."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def repeat(args, spec: dict, runner: Path) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    repetitions = max(1, args.repeat)
    runs = {name: [] for name in names}
    wrong = 0
    for repetition in range(repetitions):
        for name in names if repetition % 2 == 0 else reversed(names):
            command = [
                sys.executable, str(runner),
                "--workload", name,
                "--seed", str(args.seed + repetition),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--blocks", str(args.blocks),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            if not lines or not lines[-1].startswith("{"):
                sys.stderr.write(done.stderr)
                return 2
            result = json.loads(lines[-1])
            wrong += not result["correct"]
            runs[name].append(result)
            print(
                f"run {repetition + 1}/{repetitions} {name}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                file=sys.stderr,
            )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for name, results in runs.items():
        print(f"{name}  (median [q1 .. q3] unit, spread = IQR/median, n)")
        summary[name] = {}
        for metric in results[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            summary[name][metric] = stats
            print(
                f"  {metric:<50}{stats['median']:>14.6g} [{stats['q1']:.6g} .. "
                f"{stats['q3']:.6g}] {units[metric]}  spread {stats['spread']:.2%}  n={stats['n']}"
            )
    if args.out:
        document = {
            "meta": {
                "crypto_backend": hvf.backend_name(),
                "crypto.calib_prf_ops_s": probes.calib_prf_ops_s(),
                "seconds": args.seconds,
                "trace": args.trace,
                "first_seed": args.seed,
                "repetitions": repetitions,
            },
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if wrong else 0


def verdict(metric: dict, a: list, b: list) -> tuple:
    """``(label, worsening)`` of B against A for one bounded metric;
    ``worsening`` is the share of A's median by which B's is worse."""
    lower = metric["better"] == "lower"
    stats_a, stats_b = summarize(a), summarize(b)
    change = (stats_b["median"] - stats_a["median"]) / stats_a["median"]
    worsening = change if lower else -change
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "improved", worsening
    if max(stats_a["spread"], stats_b["spread"]) > metric["bound"]:
        return "unresolved", worsening
    return ("regression" if worsening > metric["bound"] else "unchanged"), worsening


def compare(paths: list, spec: dict) -> int:
    if len(paths) != 2:
        sys.exit("usage: run.py compare A.json B.json")
    first, second = (json.loads(Path(path).read_text()) for path in paths)
    for key in ("crypto_backend", "crypto.calib_prf_ops_s"):
        print(f"{key}: A={first['meta'][key]}  B={second['meta'][key]}")
    regressions = 0
    for name in first["runs"]:
        if name not in second["runs"]:
            continue
        print(name)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            a, b = (
                [
                    run["metrics"][metric["name"]]["value"]
                    for run in side["runs"][name]
                    if metric["name"] in run["metrics"]
                ]
                for side in (first, second)
            )
            if not a or not b or not statistics.median(a):
                continue
            label, worsening = verdict({"bound": float("inf"), **metric}, a, b)
            regressions += label == "regression"
            bound = f"bound {metric['bound']:.0%}" if "bound" in metric else "no bound"
            print(
                f"  {metric['name']:<50}{label:<12}A {statistics.median(a):.6g}  "
                f"B {statistics.median(b):.6g} {metric['unit']}  "
                f"worse by {worsening:+.2%} ({bound})"
            )
    return 1 if regressions else 0
