"""Probabilistic overuse-flow detection (§4.8).

"The probabilistic overuse flow detector (OFD) represents the centerpiece
of the monitoring architecture in transit and transfer ASes."  It must
track an enormous number of flows in a cache-sized footprint, so exact
per-flow counters are out; Colibri cites sketch-based detectors
(LOFT [44], large-flow detection [64]).

This implementation is a **count-min sketch over normalized packet
sizes**, its rows replaced every measurement window:

* input per packet: the flow label ``(SrcAS, ResId)`` — all versions of
  an EER share it; one digest of it picks a cell per row, a pure function
  the router's flow table keeps beside σ — and the *normalized* size ``total size /
  reservation bandwidth`` (§4.8), the fraction of one second's budget
  the packet consumes;
* a flow is reported when its estimated normalized volume within the
  window exceeds ``window * overuse_factor`` — i.e. it consumed more
  than its reserved share of the window (plus slack against noise).

Count-min estimates never under-count, so the OFD has **no false
negatives**: every truly overusing flow is reported.  Collisions can
over-count, producing false positives — exactly why §4.8 sends suspects
to deterministic monitoring instead of punishing them directly.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from math import inf

from repro.constants import (
    OFD_DEFAULT_DEPTH,
    OFD_DEFAULT_WIDTH,
    OFD_DEFAULT_WINDOW,
    OFD_OVERUSE_FACTOR,
)
from repro.crypto import native
from repro.obs.events import OFD_FLAGGED


class OveruseFlowDetector:
    """Windowed count-min sketch reporting suspected overuse flows."""

    #: Optional :class:`repro.obs.ObsContext` + owning-AS label, wired by
    #: ``enable_observability``; class-level defaults so the
    #: un-instrumented observe path is unchanged (the journal branch runs
    #: only when a flow is newly flagged).
    obs = None
    isd_as = ""
    _repoint = staticmethod(lambda: None)  # new rows or factor: native.BurstKernel
    overuse_factor = native.repointing("_overuse_factor")

    def __init__(
        self,
        width: int = OFD_DEFAULT_WIDTH,
        depth: int = OFD_DEFAULT_DEPTH,
        window: float = OFD_DEFAULT_WINDOW,
        overuse_factor: float = OFD_OVERUSE_FACTOR,
    ):
        if width <= 0 or not 0 < depth <= native.SKETCH_DEPTH:
            raise ValueError(
                f"sketch geometry must be positive, depth at most {native.SKETCH_DEPTH}: {width}x{depth}"
            )
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.width = width
        self.depth = depth
        self.window = window
        self.overuse_factor = overuse_factor
        # Flat rows of doubles, r at [r*width, (r+1)*width), made by _roll;
        # with the kernel loaded, colibri_burst adds into this same buffer.
        self._counts = array("d")
        self._words = struct.Struct(f">{depth}I")
        self._window_start = -inf  # so the first packet opens the first window
        self._suspects: set = set()
        # Cumulative per-flow observations while flagged; survives window
        # rolls (evidence wants the whole history, not one window's).
        self._hits: dict = {}
        self.packets_seen = 0
        self.reports = 0

    def _roll(self, now: float) -> None:
        """Start a new measurement window on fresh, all-zero rows."""
        self._counts = array("d", bytes(8 * self.width * self.depth))
        self._suspects.clear()
        self._window_start = now
        self._repoint()

    def cells_for(self, flow_label: bytes) -> tuple:
        """The flow's cell in each row, as indices into the flat counts:
        row ``r`` counts it at ``word_r % width``, ``word_r`` the ``r``-th
        big-endian 32-bit word of the label's BLAKE2b digest."""
        words, width = self._words, self.width
        digest = hashlib.blake2b(flow_label, digest_size=words.size).digest()
        return tuple(row * width + word % width for row, word in enumerate(words.unpack(digest)))

    def observe(self, flow_label: bytes, packet_size: int, bandwidth: float, now: float) -> bool:
        """Record one packet; returns ``True`` if the flow is now suspect.

        ``packet_size`` is the total size in bytes (header included);
        ``bandwidth`` the reservation's guaranteed bits per second.
        Normalization makes one detector serve every bandwidth class.
        """
        if now - self._window_start >= self.window:
            self._roll(now)
        self.packets_seen += 1
        if bandwidth <= 0:
            # A packet on a zero-bandwidth (fully expired) reservation is
            # overusing by definition.
            self._flag(flow_label, now)
            return True
        normalized = (packet_size * 8) / bandwidth  # seconds of budget
        counts = self._counts
        estimate = inf
        for cell in self.cells_for(flow_label):
            counts[cell] = count = counts[cell] + normalized
            if count < estimate:
                estimate = count
        return self._judge(flow_label, estimate > self.window * self._overuse_factor, now)

    def _judge(self, flow_label: bytes, over: bool, now: float) -> bool:
        """After the add, whichever body made it: a flow already flagged in
        this window collects a hit; otherwise it is flagged iff ``over``."""
        if flow_label in self._suspects:
            self._hits[flow_label] = self._hits.get(flow_label, 0) + 1
            return False
        if over:
            self._flag(flow_label, now)
        return over

    def _flag(self, flow_label: bytes, now: float) -> None:
        """A flow crossed the sketch threshold: flag it for deterministic
        monitoring and remember the hit."""
        self._suspects.add(flow_label)
        self._hits[flow_label] = self._hits.get(flow_label, 0) + 1
        self.reports += 1
        if self.obs is not None and self.obs.journal is not None:
            self.obs.journal.record(
                OFD_FLAGGED,
                isd_as=self.isd_as,
                flow=flow_label.hex(),
                hits=self._hits[flow_label],
            )

    def suspect_count(self) -> int:
        """Flows flagged in the current window — feeds the
        ``ofd_suspects`` registry gauge."""
        return len(self._suspects)

    def total_hits(self) -> int:
        """Cumulative flagged-flow observations across all flows — feeds
        the ``ofd_hits_total`` registry gauge (monotone)."""
        return sum(self._hits.values())

    def suspects(self) -> set:
        """Flows flagged in the current window, for handoff to the
        deterministic monitor (§4.8)."""
        return set(self._suspects)
