"""Monotonic identifier allocation.

The CServ "increases the ResId for every new SegR or EER" (§4.3) so the
pair ``(SrcAS, ResId)`` is globally unique.  :class:`SequenceAllocator`
provides that counter with overflow detection, and is reused anywhere a
dense monotonically-increasing ID is needed (interface IDs, flow labels).
"""

from __future__ import annotations


class SequenceAllocator:
    """A strictly increasing integer sequence starting at ``first``.

    ``width_bits`` bounds the ID space (ResIds are carried in a fixed-width
    header field); exhausting it raises :class:`OverflowError` rather than
    silently wrapping, which would break global uniqueness.
    """

    def __init__(self, first: int = 1, width_bits: int = 32):
        if first < 0:
            raise ValueError(f"sequence must start at a non-negative value, got {first}")
        self._next = first
        self._limit = 1 << width_bits

    def allocate(self) -> int:
        """Return the next ID and advance the sequence."""
        value = self._next
        if value >= self._limit:
            raise OverflowError(
                f"sequence exhausted: next value {value} exceeds {self._limit - 1}"
            )
        self._next = value + 1
        return value

    def __repr__(self) -> str:
        return f"SequenceAllocator(next={self._next}, limit={self._limit})"
