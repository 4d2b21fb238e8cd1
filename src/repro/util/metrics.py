"""Small statistics helpers used across tests and benchmarks."""

from __future__ import annotations

import math


def merge_counters(snapshots: list) -> dict:
    """Key-wise sum of counter snapshots (the ``SigmaCache.snapshot`` /
    router ``stats`` shape): how the shard executor folds per-process
    telemetry back into one view.  Associative and commutative, so the
    merge order across shards cannot change the result."""
    merged: dict = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def jain_fairness(allocations: list) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one taker.

    The standard measure for "did the admission algorithm share the
    bottleneck fairly" — used by the fairness tests on tube-fair SegR
    admission (§4.7).

    >>> jain_fairness([1.0, 1.0, 1.0, 1.0])
    1.0
    >>> round(jain_fairness([4.0, 0.0, 0.0, 0.0]), 3)
    0.25
    """
    if not allocations:
        raise ValueError("fairness of an empty allocation is undefined")
    if any(value < 0 for value in allocations):
        raise ValueError("allocations must be non-negative")
    total = sum(allocations)
    if total == 0:
        return 1.0  # nobody got anything: trivially equal
    squares = sum(value * value for value in allocations)
    return total * total / (len(allocations) * squares)


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile, e.g. ``percentile(latencies, 0.99)``."""
    if not values:
        raise ValueError("percentile of an empty list is undefined")
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def mean(values: list) -> float:
    if not values:
        raise ValueError("mean of an empty list is undefined")
    return sum(values) / len(values)
