#!/usr/bin/env python3
"""Collate benchmark_results/ into a single REPRODUCTION_REPORT.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/make_report.py

The report orders the artifacts paper-first (figures, table, appendix),
then the supporting measurements and ablations, each as the exact text
the bench emitted — so the report always reflects the latest run on
*this* machine rather than numbers copied by hand.
"""

from __future__ import annotations

import os
import sys

RESULTS = os.path.join(os.path.dirname(__file__), "..", "benchmark_results")
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "REPRODUCTION_REPORT.md")

#: Paper-first presentation order; anything not listed lands at the end.
ORDER = [
    "fig3_segr_admission",
    "fig3_throughput",
    "fig4_eer_admission",
    "fig4_throughput",
    "fig5_gateway",
    "fig6_scaling",
    "fig6_parallel_measured",
    "table2_protection",
    "appendix_e_payload",
    "control_load_segr",
    "control_load_eer",
    "control_load_renewal",
    "latency_protection",
    "churn",
    "topology_scale",
    "crypto_micro",
    "memory_footprint",
    "ablation_memoization",
    "ablation_two_step_mac",
    "ablation_isolation",
    "baseline_state",
    "baseline_refresh",
    "baseline_guarantees",
]

HEADER = """# Reproduction report

Auto-generated from the latest `pytest benchmarks/ --benchmark-only`
run on this machine (`python tools/make_report.py`).  Paper-vs-measured
analysis and shape-claim discussion live in EXPERIMENTS.md; this file is
the raw regenerated evidence.

"""


def main() -> int:
    if not os.path.isdir(RESULTS):
        print("no benchmark_results/ — run the benchmark suite first", file=sys.stderr)
        return 1
    available = {name[:-4] for name in os.listdir(RESULTS) if name.endswith(".txt")}
    ordered = [name for name in ORDER if name in available]
    ordered += sorted(available - set(ORDER))
    sections = [HEADER]
    for name in ordered:
        with open(os.path.join(RESULTS, f"{name}.txt")) as handle:
            body = handle.read().rstrip()
        sections.append(f"```\n{body}\n```\n")
    with open(OUTPUT, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {os.path.relpath(OUTPUT)} with {len(ordered)} result blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
