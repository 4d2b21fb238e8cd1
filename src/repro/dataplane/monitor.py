"""Deterministic monitoring (§4.8).

Two uses:

* at the **source AS**, the gateway monitors every local EER
  deterministically (one token bucket per flow) while stamping HVFs;
* at **other ASes**, flows the probabilistic OFD flagged as suspects are
  "subjected to deterministic monitoring, which inspects the reservation
  precisely — similar to the monitoring at the source AS — to determine
  overuse with certainty."

:class:`DeterministicMonitor` is that shared machinery: a table of token
buckets keyed by flow label, sized only by the number of *monitored*
flows (all local flows at the source, only suspects elsewhere).
A confirmed overuse is reported through a callback — the hook where the
border router blocks the source AS and notifies the CServ (policing).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.constants import DEFAULT_BURST_SECONDS
from repro.dataplane.token_bucket import TokenBucket
from repro.obs.events import MONITOR_CONFIRMED_OVERUSE

#: Number of non-conforming packets after which overuse is *confirmed*
#: rather than attributed to an isolated burst.
DEFAULT_CONFIRMATION_DROPS = 3

#: Drops further apart than this don't accumulate towards confirmation:
#: confirmation needs a *burst* of violations, not one stray drop per
#: EER lifetime collected over hours ("determine overuse with
#: certainty", §4.8 — certainty about sustained overuse, not jitter).
DEFAULT_CONFIRMATION_WINDOW = 10.0


class DeterministicMonitor:
    """Exact per-flow rate enforcement over token buckets."""

    #: Optional :class:`repro.obs.ObsContext` + owning-AS label, wired by
    #: ``enable_observability``; class-level defaults keep the disabled
    #: check path untouched (the branch below only runs on confirmation,
    #: which is rare by construction).
    obs = None
    isd_as = ""

    def __init__(
        self,
        burst_seconds: float = DEFAULT_BURST_SECONDS,
        confirmation_drops: int = DEFAULT_CONFIRMATION_DROPS,
        confirmation_window: float = DEFAULT_CONFIRMATION_WINDOW,
        on_confirmed: Optional[Callable] = None,
    ):
        self.burst_seconds = burst_seconds
        self.confirmation_drops = confirmation_drops
        self.confirmation_window = confirmation_window
        self.on_confirmed = on_confirmed
        self._buckets: dict[bytes, TokenBucket] = {}
        self._drops: dict[bytes, tuple] = {}  # flow -> (count, last_drop_at)
        self._confirmed: set = set()
        self.packets_passed = 0
        self.packets_dropped = 0

    def watch(self, flow_label: bytes, bandwidth: float, now: float) -> None:
        """Start (or update) deterministic monitoring of a flow.

        Called for every local EER at the source gateway, and for OFD
        suspects at transit ASes.  On renewal the bucket's rate follows
        the new effective bandwidth instead of being re-created, so the
        flow cannot reset its burst budget by renewing.
        """
        bucket = self._buckets.get(flow_label)
        if bucket is None:
            self._buckets[flow_label] = TokenBucket(
                bandwidth, self.burst_seconds, now=now
            )
        elif bucket.rate != bandwidth:
            bucket.set_rate(bandwidth, now, self.burst_seconds)

    def unwatch(self, flow_label: bytes) -> None:
        self._buckets.pop(flow_label, None)
        self._drops.pop(flow_label, None)
        self._confirmed.discard(flow_label)

    def is_watched(self, flow_label: bytes) -> bool:
        return flow_label in self._buckets

    def check(self, flow_label: bytes, packet_size: int, now: float) -> bool:
        """Account one packet; ``True`` = conforming, ``False`` = drop.

        Unwatched flows pass — the caller decides what to watch.
        """
        bucket = self._buckets.get(flow_label)
        if bucket is None or bucket.conforms(packet_size, now):
            self.packets_passed += 1
            return True
        self.record_drop(flow_label, now, bucket)
        return False

    def record_drop(self, flow_label: bytes, now: float, bucket=None) -> None:
        """Account one non-conforming packet and track confirmation.

        The drop half of :meth:`check`, factored out so a caller that
        charges the bucket itself (the gateway's burst plan reads
        :attr:`_buckets` live, per packet) keeps streak tracking,
        journaling and the confirmation callback identical to the
        non-inlined path; such a caller bumps :attr:`packets_passed`
        itself.
        """
        self.packets_dropped += 1
        count, last_drop = self._drops.get(flow_label, (0, now))
        if now - last_drop > self.confirmation_window:
            count = 0  # stale history: the streak starts over
        drops = count + 1
        self._drops[flow_label] = (drops, now)
        if drops >= self.confirmation_drops and flow_label not in self._confirmed:
            self._confirmed.add(flow_label)
            if self.obs is not None and self.obs.journal is not None:
                if bucket is None:
                    bucket = self._buckets.get(flow_label)
                self.obs.journal.record(
                    MONITOR_CONFIRMED_OVERUSE,
                    isd_as=self.isd_as,
                    flow=flow_label.hex(),
                    drops=drops,
                    window=self.confirmation_window,
                    bandwidth=bucket.rate if bucket is not None else 0.0,
                )
            if self.on_confirmed is not None:
                self.on_confirmed(flow_label)

    def is_confirmed_overuser(self, flow_label: bytes) -> bool:
        return flow_label in self._confirmed

    def confirmed_count(self) -> int:
        """Flows confirmed as overusers — feeds the
        ``monitor_confirmed_flows`` registry gauge."""
        return len(self._confirmed)

    def watched_count(self) -> int:
        return len(self._buckets)

    def occupancy(self) -> float:
        """Mean fill ratio of the watched token buckets in [0, 1].

        1.0 means every bucket is full (idle or conforming flows with
        their whole burst budget available); values near 0 mean flows are
        pressing against their reserved rates.  With nothing watched the
        monitor reports 1.0 — all (zero) budgets available.  Feeds the
        ``token_bucket_occupancy`` gauge.
        """
        if not self._buckets:
            return 1.0
        total = 0.0
        for bucket in self._buckets.values():
            total += (
                bucket.available_bits / bucket.depth if bucket.depth > 0 else 1.0
            )
        return total / len(self._buckets)
