#!/usr/bin/env python
"""Run the canonical scenario campaigns and write their artifact sets.

The CI ``campaign-smoke`` job runs this at quick scale; every campaign
must finish green (all harness invariants, SLO replay equivalence) and
the artifact directory then carries, per campaign:

* ``journal.jsonl``  — the complete exported flight recording,
* ``slo_replay.json`` — live vs. replayed alert transitions,
* ``summary.json``    — per-phase stats, telemetry, memory rows,

plus one shared ``memory_footprint.txt`` with a row per campaign
(arrivals vs. peak store vs. final live EERs — the "state stays
sublinear in processed flows" record; a non-zero final live count fails
the run here).

Usage::

    PYTHONPATH=src python tools/run_campaigns.py \
        [--scale quick] [--seed 7] [--out campaign_artifacts] [NAME ...]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.sim.campaign import CampaignRunner
from repro.sim.campaigns import CANONICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", default=None,
                        help="campaign names (default: all canonical)")
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "default", "full"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="campaign_artifacts")
    args = parser.parse_args(argv)

    names = args.names or list(CANONICAL)
    unknown = [name for name in names if name not in CANONICAL]
    if unknown:
        parser.error(f"unknown campaigns: {', '.join(unknown)}")

    failures = 0
    for name in names:
        spec = CANONICAL[name](args.scale, seed=args.seed)
        start = time.perf_counter()
        result = CampaignRunner(spec).run()
        wall = time.perf_counter() - start
        result.write_artifacts(args.out)
        residual = (
            result.phase_reports[-1].memory.get("live_eers", 0.0)
            if result.phase_reports
            else 0.0
        )
        status = "ok" if result.ok and residual == 0.0 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(
            f"{status:>4}  {result.name:<28} wall {wall:6.1f}s  "
            f"replay_equivalent={result.replay_equivalent}  "
            f"residual_eers={residual:.0f}"
        )
        for violation in result.violations:
            print(f"      violation: {violation}")
    print(f"artifacts written under {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
