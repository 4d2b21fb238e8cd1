"""Unit tests for repro.util: clocks, units, sequences."""

import pytest

from repro.errors import SimulationError
from repro.util import (
    SequenceAllocator,
    SimClock,
    SkewedClock,
    format_bandwidth,
    gbps,
    kbps,
    mbps,
)


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(5.0).now() == 5.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_rejects_negative(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-1.0)

    def test_set_jumps_to_absolute_time(self):
        clock = SimClock(1.0)
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_set_rejects_backwards(self):
        clock = SimClock(5.0)
        with pytest.raises(SimulationError):
            clock.set(4.9)

    def test_set_same_time_is_allowed(self):
        clock = SimClock(5.0)
        assert clock.set(5.0) == 5.0


class TestSkewedClock:
    def test_positive_offset(self):
        base = SimClock(100.0)
        assert SkewedClock(base, 0.1).now() == pytest.approx(100.1)

    def test_negative_offset(self):
        base = SimClock(100.0)
        assert SkewedClock(base, -0.1).now() == pytest.approx(99.9)

    def test_tracks_base(self):
        base = SimClock(0.0)
        skewed = SkewedClock(base, 0.05)
        base.advance(10.0)
        assert skewed.now() == pytest.approx(10.05)


class TestUnits:
    def test_gbps(self):
        assert gbps(0.4) == pytest.approx(400_000_000)

    def test_mbps(self):
        assert mbps(3) == pytest.approx(3_000_000)

    def test_kbps(self):
        assert kbps(2) == pytest.approx(2_000)

    @pytest.mark.parametrize(
        "rate,expected",
        [
            (400_000_000, "0.400 Gbps"),
            (3_000_000, "3.000 Mbps"),
            (1_500, "1.500 Kbps"),
            (12, "12.000 bps"),
        ],
    )
    def test_format_bandwidth(self, rate, expected):
        assert format_bandwidth(rate) == expected


class TestSequenceAllocator:
    def test_strictly_increasing(self):
        alloc = SequenceAllocator()
        values = [alloc.allocate() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_starts_at_first(self):
        assert SequenceAllocator(first=10).allocate() == 10

    def test_overflow_raises(self):
        alloc = SequenceAllocator(first=0, width_bits=2)
        for _ in range(4):
            alloc.allocate()
        with pytest.raises(OverflowError):
            alloc.allocate()

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SequenceAllocator(first=-1)
