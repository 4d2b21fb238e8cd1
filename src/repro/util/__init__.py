"""Utility substrates: clocks, bandwidth units, ID sequences."""

from repro.util.clock import Clock, PerfClock, SimClock, SkewedClock, WallClock
from repro.util.sequence import SequenceAllocator
from repro.util.units import (
    GBPS,
    KBPS,
    MBPS,
    bits_to_bytes,
    bytes_to_bits,
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
    "WallClock",
    "SequenceAllocator",
    "GBPS",
    "MBPS",
    "KBPS",
    "gbps",
    "mbps",
    "kbps",
    "bits_to_bytes",
    "bytes_to_bits",
    "format_bandwidth",
]
