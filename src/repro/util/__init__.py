"""Utility substrates: clocks, bandwidth units, ID sequences."""

from repro.util.clock import Clock, PerfClock, SimClock, SkewedClock
from repro.util.sequence import SequenceAllocator
from repro.util.units import (
    GBPS,
    KBPS,
    MBPS,
    format_bandwidth,
    gbps,
    kbps,
    mbps,
)

__all__ = [
    "Clock",
    "PerfClock",
    "SimClock",
    "SkewedClock",
    "SequenceAllocator",
    "GBPS",
    "MBPS",
    "KBPS",
    "gbps",
    "mbps",
    "kbps",
    "format_bandwidth",
]
