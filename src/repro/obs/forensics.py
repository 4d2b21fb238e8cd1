"""Attack forensics: overuse evidence records for §5 complaints.

When the deterministic monitor confirms an overusing flow (§4.8), the
blocking AS needs more than a counter: SIBRA-style reservation systems
are deployable only if an AS can *prove* misuse to the reservation's
source (and to a dispute-of-complaint process, §5).  This module joins
the event journal into a per-flow :class:`OveruseEvidence` record — the
artifact an operator exports and attaches to a complaint — and supplies
:func:`verify_evidence`, the receiving side's re-check of every claim
against the journal.

Evidentiary discipline — "claimed vs. authenticated identity": a
``VerdictDropped`` event always names the reservation the packet header
*claimed*, and only drops whose claimed identity was **cryptographically
verified** before the verdict (``Verdict.identity_verified``, journalled
as ``identity_verified``) may serve as sample packets.
Overuse drops qualify — the §4.6 pipeline authenticates the HVF before
policing — while a forged packet dies earlier as ``drop_bad_hvf`` and is
rejected as evidence (the attacker replayed header bytes naming the
victim, but could not authenticate them).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List

from repro.constants import DRKEY_VALIDITY
from repro.obs.events import (
    MONITOR_CONFIRMED_OVERUSE,
    OFD_FLAGGED,
    VERDICT_DROPPED,
    EventJournal,
)

#: Sample packets attached to an evidence record by default: enough to
#: spot-check, small enough to ship in a complaint.
DEFAULT_MAX_SAMPLES = 5


@dataclass(frozen=True)
class OveruseEvidence:
    """One flow's overuse case, assembled entirely from journal facts.

    ``sample_packets`` are ``{"seq", "time", "size"}`` references to
    MAC-verified overuse drops; ``journal_refs`` lists the sequence
    numbers of the confirmation and OFD events the claims rest on.
    """

    flow: str  # reservation id, packed hex — the monitor's flow label
    reservation: str  # human-readable reservation id
    src_as: str
    isd_as: str  # the AS presenting the evidence
    version: int
    admitted_bps: float  # what admission granted (the bucket's rate)
    confirmed_at: float
    window_start: float  # confirmation streak window
    window_end: float
    drkey_epoch: int  # epoch whose hop key authenticated the samples
    monitor_drops: int  # non-conforming packets in the streak
    ofd_hits: int  # sketch hits while the flow was flagged
    drop_count: int  # verified overuse drops inside the window
    dropped_bytes: int
    sample_packets: tuple
    journal_refs: tuple

    def to_json(self) -> str:
        """Deterministic serialization (sorted keys, no whitespace
        churn) — two builds over the same journal are byte-identical."""
        payload = asdict(self)
        payload["sample_packets"] = list(self.sample_packets)
        payload["journal_refs"] = list(self.journal_refs)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OveruseEvidence":
        data = json.loads(text)
        data["sample_packets"] = tuple(data["sample_packets"])
        data["journal_refs"] = tuple(data["journal_refs"])
        return cls(**data)


class EvidenceBuilder:
    """Assembles :class:`OveruseEvidence` from an :class:`EventJournal`."""

    def __init__(self, journal: EventJournal):
        self.journal = journal

    def confirmed_flows(self) -> List[str]:
        """Flow labels with at least one confirmed-overuse event,
        discovery order, deduplicated."""
        seen: dict = {}
        for event in self.journal.query(MONITOR_CONFIRMED_OVERUSE):
            seen.setdefault(event.attrs["flow"], None)
        return list(seen)

    def build(
        self, flow: str, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> OveruseEvidence:
        """Evidence for one flow label (reservation id, packed hex).

        Raises :class:`ValueError` when the journal holds no confirmed
        overuse for the flow — evidence cannot outrun its facts.
        """
        confirmations = [
            event
            for event in self.journal.query(MONITOR_CONFIRMED_OVERUSE)
            if event.attrs["flow"] == flow
        ]
        if not confirmations:
            raise ValueError(f"no confirmed overuse for flow {flow!r} in journal")
        confirmation = confirmations[-1]
        window = float(confirmation.attrs["window"])
        window_end = confirmation.time
        window_start = window_end - window

        drops = self._verified_drops(flow, window_start, window_end)
        ofd_events = [
            event
            for event in self.journal.query(OFD_FLAGGED)
            if event.attrs["flow"] == flow
        ]
        reservation = confirmation.attrs.get("reservation", "")
        src_as = ""
        version = 0
        if drops:
            reservation = drops[0].attrs.get("reservation", reservation)
            src_as = drops[0].attrs.get("src_as", "")
            version = int(drops[0].attrs.get("version", 0))

        return OveruseEvidence(
            flow=flow,
            reservation=reservation,
            src_as=src_as,
            isd_as=confirmation.attrs["isd_as"],
            version=version,
            admitted_bps=float(confirmation.attrs["bandwidth"]),
            confirmed_at=window_end,
            window_start=window_start,
            window_end=window_end,
            drkey_epoch=int(window_end // DRKEY_VALIDITY),
            monitor_drops=int(confirmation.attrs["drops"]),
            ofd_hits=max(
                (int(event.attrs.get("hits", 0)) for event in ofd_events),
                default=0,
            ),
            drop_count=len(drops),
            dropped_bytes=sum(int(event.attrs["size"]) for event in drops),
            sample_packets=tuple(
                {"seq": event.seq, "time": event.time, "size": event.attrs["size"]}
                for event in drops[:max_samples]
            ),
            journal_refs=(confirmation.seq,)
            + tuple(event.seq for event in ofd_events),
        )

    def build_all(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> List[OveruseEvidence]:
        return [
            self.build(flow, max_samples=max_samples)
            for flow in self.confirmed_flows()
        ]

    def _verified_drops(self, flow: str, start: float, end: float) -> list:
        """Identity-verified overuse drops for ``flow`` in the streak
        window (inclusive end: the confirming drop happens *at*
        ``window_end``)."""
        return [
            event
            for event in self.journal.query(VERDICT_DROPPED)
            if event.attrs.get("flow") == flow
            and event.attrs.get("verdict") == "drop_overuse"
            and event.attrs.get("identity_verified")
            and start <= event.time <= end
        ]


def verify_evidence(
    evidence: OveruseEvidence, journal: EventJournal
) -> List[str]:
    """Re-check every claim in ``evidence`` against ``journal``.

    Returns the list of discrepancies — empty means the evidence is
    accepted.  This is the receiving AS's side of a §5 complaint: the
    record is only as good as the journal facts it cites, so a tampered
    count, an invented sample packet, or a sample pointing at an
    unverified drop (e.g. a ``drop_bad_hvf`` forgery) all surface here.
    """
    failures: List[str] = []
    builder = EvidenceBuilder(journal)

    confirmations = [
        event
        for event in journal.query(MONITOR_CONFIRMED_OVERUSE)
        if event.attrs["flow"] == evidence.flow
        and event.time == evidence.confirmed_at
    ]
    if not confirmations:
        failures.append(
            f"no confirmed-overuse event for flow {evidence.flow} "
            f"at t={evidence.confirmed_at}"
        )
        return failures  # nothing else can be cross-checked
    confirmation = confirmations[-1]
    if int(confirmation.attrs["drops"]) != evidence.monitor_drops:
        failures.append(
            f"monitor drop streak mismatch: journal says "
            f"{confirmation.attrs['drops']}, evidence claims "
            f"{evidence.monitor_drops}"
        )
    if float(confirmation.attrs["bandwidth"]) != evidence.admitted_bps:
        failures.append(
            f"admitted bandwidth mismatch: journal says "
            f"{confirmation.attrs['bandwidth']}, evidence claims "
            f"{evidence.admitted_bps}"
        )
    if evidence.drkey_epoch != int(evidence.confirmed_at // DRKEY_VALIDITY):
        failures.append(
            f"DRKey epoch {evidence.drkey_epoch} does not cover "
            f"t={evidence.confirmed_at}"
        )

    drops = builder._verified_drops(
        evidence.flow, evidence.window_start, evidence.window_end
    )
    if len(drops) != evidence.drop_count:
        failures.append(
            f"drop count mismatch: journal shows {len(drops)} verified "
            f"overuse drops in window, evidence claims {evidence.drop_count}"
        )
    journal_bytes = sum(int(event.attrs["size"]) for event in drops)
    if journal_bytes != evidence.dropped_bytes:
        failures.append(
            f"dropped bytes mismatch: journal shows {journal_bytes}, "
            f"evidence claims {evidence.dropped_bytes}"
        )

    by_seq = {event.seq: event for event in journal.query(VERDICT_DROPPED)}
    for sample in evidence.sample_packets:
        event = by_seq.get(sample["seq"])
        if event is None:
            failures.append(f"sample seq {sample['seq']} is not a journal drop")
            continue
        if not event.attrs.get("identity_verified"):
            failures.append(
                f"sample seq {sample['seq']} was never authenticated "
                f"({event.attrs.get('verdict')}): inadmissible"
            )
            continue
        if event.attrs.get("verdict") != "drop_overuse":
            failures.append(
                f"sample seq {sample['seq']} is {event.attrs.get('verdict')}, "
                f"not an overuse drop"
            )
        if event.attrs.get("flow") != evidence.flow:
            failures.append(
                f"sample seq {sample['seq']} belongs to flow "
                f"{event.attrs.get('flow')}, not {evidence.flow}"
            )
        if event.time != sample["time"] or event.attrs["size"] != sample["size"]:
            failures.append(
                f"sample seq {sample['seq']} does not match the journal "
                f"record (time/size tampered)"
            )

    ofd_max = max(
        (
            int(event.attrs.get("hits", 0))
            for event in journal.query(OFD_FLAGGED)
            if event.attrs["flow"] == evidence.flow
        ),
        default=0,
    )
    if evidence.ofd_hits > ofd_max:
        failures.append(
            f"OFD hit count inflated: journal supports at most {ofd_max}, "
            f"evidence claims {evidence.ofd_hits}"
        )
    return failures
