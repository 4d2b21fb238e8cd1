"""Shared scale selection and explicit budgets for the campaign suites.

``tests/load`` and ``tests/stress`` run the canonical campaigns at the
scale named by ``COLIBRI_CAMPAIGN_SCALE`` (``quick`` by default, so the
tier-1 run stays fast; CI's campaign-smoke job also runs quick).  Every
budget is explicit: a test that exceeds one fails, which is the whole
point — the numbers below are the contract, not a vibe.

Budget glossary
---------------
``wall_seconds``        end-to-end wall clock for one campaign run
``admission_p95_ms``    95th percentile wall time of a single EER setup
``min_admission_ratio`` admitted/arrivals floor (drops at larger scales:
                        saturating the SegR tubes is the experiment)
``min_delivery_ratio``  delivered/sent floor for honest renewal probes
``sweep_seconds``       one full housekeeping pass over every AS store
``peak_store_kb``       peak reservation-store heap across phases
``rss_mb``              process peak RSS guard (generous: the tier-1
                        suite shares one process across all tests)
"""

import os

QUICK = "quick"

SCALE = os.environ.get("COLIBRI_CAMPAIGN_SCALE", QUICK)

BUDGETS = {
    "quick": dict(
        wall_seconds=30.0,
        admission_p95_ms=20.0,
        min_admission_ratio=0.90,
        min_delivery_ratio=0.99,
        sweep_seconds=0.25,
        peak_store_kb=4096,
        rss_mb=4096,
    ),
    "full": dict(
        wall_seconds=1800.0,
        admission_p95_ms=80.0,
        # Measured: the full-scale flash crowd admits ~1.7% (114,314
        # arrivals vs. 1,928 admissions) — saturating the tubes *is*
        # the experiment; the floor just proves admission never dies.
        min_admission_ratio=0.01,
        min_delivery_ratio=0.90,
        sweep_seconds=5.0,
        peak_store_kb=262144,
        rss_mb=8192,
    ),
}


def budget() -> dict:
    return BUDGETS[SCALE]


def rss_mb() -> float:
    """Process peak RSS in MB (ru_maxrss is KB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
