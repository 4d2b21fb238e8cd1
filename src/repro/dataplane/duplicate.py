"""In-network replay suppression (§2.3, §5.1).

An on-path adversary can capture an authenticated packet and replay it,
both congesting the path and framing the honest source.  Colibri relies
on "an efficient duplicate-packet-suppression system with minimal state
requirements" [32].  Following that design, we keep **rotating Bloom
filters**: the current filter absorbs insertions, the previous one is
still consulted, and rotation every ``window`` seconds bounds memory
regardless of traffic volume.

Only packets inside the freshness window can be replayed at all — older
ones already fail the router's timestamp check — so two filters covering
one window each suffice for no-false-negative suppression (after two
silent windows both start empty).

The packet identifier is the untruncated Eq. (6) MAC the router computed
to authenticate it: unique per (ResId, version, Ts, PktSize) — the paper
makes Ts "uniquely identif[y] the packet for the particular source" —
pseudorandom, and unpredictable without σ, so collisions cannot be aimed
at the filter.  No second hash: bit ``i`` of a packet is ``(h1 + i·h2)
mod bits`` over the MAC's two big-endian 64-bit halves (double hashing,
any k).  A packet costs one pass over its k bits — here, or with
:mod:`repro.crypto.native` loaded inside ``colibri_burst`` on these very
buffers, this body then being the oracle; a rotation a new buffer.
"""

from __future__ import annotations

import struct

from repro.constants import DUPLICATE_WINDOW
from repro.crypto import native
from repro.obs.events import DUPLICATE_SUPPRESSED
from repro.util.clock import Clock

_HALVES = struct.Struct(">QQ").unpack  # raises unless given the 16 bytes of a MAC


class _BloomFilter:
    """A k-position Bloom filter over a bit array."""

    _repoint = staticmethod(lambda: None)  # a new buffer or geometry: native.BurstKernel
    bits, hashes = native.repointing("_bits"), native.repointing("_hashes")

    def __init__(self, bits: int, hashes: int):
        self._bits, self._hashes = bits, hashes
        self.clear()

    def clear(self) -> None:
        # A fresh zeroed buffer: wiping 128 KiB byte by byte took ~6 ms.
        self._array = bytearray((self._bits + 7) // 8)
        self.insertions = 0
        self._repoint()


class DuplicateSuppressor:
    """Rotating-Bloom-filter replay suppression for one border router.

    ``check_and_insert`` returns ``True`` exactly once per identifier per
    window pair (no false negatives); false positives are possible at the
    configured Bloom rate and simply drop an occasional legitimate packet,
    which the paper accepts as the price of bounded state.
    """

    #: Optional :class:`repro.obs.ObsContext` + owning-AS label; the
    #: journal branch below runs only when a duplicate is caught, so the
    #: fresh-packet fast path is unchanged.
    obs = None
    isd_as = ""
    _repoint = staticmethod(lambda: None)  # a rotation: native.BurstKernel
    _rotated_at = native.repointing("_rotated")

    def __init__(
        self,
        clock: Clock,
        window: float = DUPLICATE_WINDOW,
        bits: int = 1 << 20,
        hashes: int = 4,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if bits <= 0 or hashes <= 0:
            raise ValueError(f"filter geometry must be positive: {bits} bits, {hashes} hashes")
        self.window = window
        self._current = _BloomFilter(bits, hashes)
        self._previous = _BloomFilter(bits, hashes)
        self._rounds = range(hashes)
        self._rotated_at = clock.now()
        self.duplicates_caught = 0

    def _rotate(self, now: float) -> None:
        """Current becomes previous — unless two windows passed in silence:
        then it, too, holds only identifiers the freshness check rejects."""
        self._previous, self._current = self._current, self._previous
        self._current.clear()
        if now - self._rotated_at >= 2 * self.window:
            self._previous.clear()
        self._rotated_at = now

    def check_and_insert(self, identifier: bytes, now: float) -> bool:
        """``True`` if the packet is fresh (and is now recorded); ``False``
        if it is a duplicate and must be discarded.  ``identifier`` is its
        16-byte MAC, ``now`` the caller's clock (the router reads it per burst)."""
        if now - self._rotated_at >= self.window:
            self._rotate(now)
        current = self._current
        first, step = _HALVES(identifier)
        array, bits, rounds = current._array, current._bits, self._rounds
        previous, position = self._previous._array, first
        for _ in rounds:
            bit = position % bits
            if not previous[bit >> 3] & (1 << (bit & 7)):
                break
            position += step
        else:
            return self._caught(identifier)  # seen in the previous window
        # One test-and-set pass; fresh if any bit was still clear.
        fresh = False
        for _ in rounds:
            bit = first % bits
            index, mask = bit >> 3, 1 << (bit & 7)
            byte = array[index]
            if not byte & mask:
                array[index] = byte | mask
                fresh = True
            first += step
        if not fresh:
            return self._caught(identifier)
        current.insertions += 1
        return True

    def _caught(self, identifier: bytes) -> bool:
        self.duplicates_caught += 1
        if self.obs is not None and self.obs.journal is not None:
            self.obs.journal.record(
                DUPLICATE_SUPPRESSED, isd_as=self.isd_as, identifier=identifier.hex()
            )
        return False

    def false_positive_rate(self) -> float:
        """Probability a *fresh* packet is wrongly suppressed, from the
        filters' actual fill fractions (``fill^k`` per filter).

        The measured fill is used instead of the textbook
        ``(1-e^{-kn/m})^k`` because check-and-insert only inserts items
        that were *not* flagged, a selection effect that fills the filter
        faster than unconditioned insertion.  A fresh identifier is
        dropped if either filter false-positives:
        ``1 - (1-p_cur)(1-p_prev)``.  Operators size the filter so this
        stays negligible at their line rate (an occasional legitimate
        drop is the accepted cost of bounded state, §2.3).
        """

        def per_filter(bloom: _BloomFilter) -> float:
            if bloom.insertions == 0:
                return 0.0
            # One C-level popcount of the array (3.9 has no int.bit_count).
            set_bits = bin(int.from_bytes(bloom._array, "big")).count("1")
            return (set_bits / bloom.bits) ** bloom.hashes

        p_current = per_filter(self._current)
        p_previous = per_filter(self._previous)
        return 1.0 - (1.0 - p_current) * (1.0 - p_previous)
