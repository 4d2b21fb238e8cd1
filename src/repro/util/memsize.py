"""Deep heap measurement for memory-budget checks.

The §4.6 statelessness claim and the campaign memory budgets both need
the same primitive: the total heap reachable from a component, not just
``sys.getsizeof`` of its top object.  This walks the object graph once,
id-deduplicated, so shared payloads are charged to whoever is reached
first and never double-counted.

Used by the state figure of ``benchmarks/figures.py``, the e2e probes
and the campaign runner's per-phase ``memory_footprint`` rows.
"""

from __future__ import annotations

import sys
from typing import Optional, Set


def deep_size(obj, seen: Optional[Set[int]] = None) -> int:
    """Recursive sys.getsizeof over the object graph (id-deduplicated).

    Pass a shared ``seen`` set to measure several roots without double
    counting objects reachable from more than one of them.
    """
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_size(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_size(obj.__dict__, seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            deep_size(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size
