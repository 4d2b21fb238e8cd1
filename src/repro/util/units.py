"""Bandwidth and size units.

All bandwidth values inside the library are plain floats in **bits per
second** — the natural unit for the paper's Gbps-denominated evaluation —
and all sizes are integers in **bytes**.  The helpers here convert between
human-friendly units and those canonical ones, so call sites read like the
paper: ``gbps(0.4)`` for reservation 1 of Table 2.
"""

from __future__ import annotations

KBPS = 1_000.0
MBPS = 1_000_000.0
GBPS = 1_000_000_000.0


def kbps(value: float) -> float:
    """Kilobits per second to bits per second."""
    return value * KBPS


def mbps(value: float) -> float:
    """Megabits per second to bits per second."""
    return value * MBPS


def gbps(value: float) -> float:
    """Gigabits per second to bits per second."""
    return value * GBPS


def format_bandwidth(bits_per_second: float) -> str:
    """Render a rate with the largest sensible unit, e.g. ``'0.400 Gbps'``.

    >>> format_bandwidth(400_000_000)
    '0.400 Gbps'
    >>> format_bandwidth(1_500)
    '1.500 Kbps'
    >>> format_bandwidth(12)
    '12.000 bps'
    """
    if bits_per_second >= GBPS / 10:
        return f"{bits_per_second / GBPS:.3f} Gbps"
    if bits_per_second >= MBPS / 10:
        return f"{bits_per_second / MBPS:.3f} Mbps"
    if bits_per_second >= KBPS / 10:
        return f"{bits_per_second / KBPS:.3f} Kbps"
    return f"{bits_per_second:.3f} bps"
