"""The Colibri border router (§4.6) — the stateless fast path.

One in-order loop per burst (``process_batch``; ``process`` runs it on a
burst of one) takes each packet through the steps of the i-th on-path AS:

1. check freshness and that the reservation has not expired;
2. consult the policing blocklist (§4.8) — an O(1) hash-set lookup;
3. authenticate the HVF: the Eq. (3) token of a SegR packet, or for an
   EER packet the HopAuth (Eq. 4) recomputed from the AS secret and the
   per-packet HVF (Eq. 6) derived from it — *no per-reservation state*,
   everything comes from the packet header and one AS-level key;
4. suppress duplicates (replay defence, §2.3);
5. feed the probabilistic overuse detector and, for flagged flows, the
   deterministic monitor; a confirmed overuser gets its source AS
   blocked and reported (§4.8), effective from the next packet on;
6. forward: to the next border router (advancing the hop pointer), to
   the local CServ (SegR control packets), or to the destination host
   (last hop of an EER).

The loop is fused, not staged in columns: a duplicate, an escalation or
a σ-cache fill acts on the *next* packet of the same burst, exactly as
under serial processing (docs/performance.md §9).

Step 3 is the hop's one hash.  A bounded LRU σ-cache
(:mod:`repro.dataplane.sigma_cache`) holds a record per flow version: σ,
the Eq. (4) input it was minted from, its Eq. (6) key schedule, the
flow's sketch cells.  An entry is a *hint*: it counts only when the
packet carries that same input and its HVF matches the MAC under σ;
anything else falls back to the stateless Eq. (4) recompute, so verdicts
never depend on cache contents (docs/performance.md §1).  The full MAC
then names the packet to the duplicate filter (step 4) and the memoized
cells index the sketch (step 5) — with :mod:`repro.crypto.native` loaded,
steps 3-5 of a packet are one ``colibri_hop`` call on the router's tables.

Every drop reason is an explicit enum member so tests, the simulator,
and Table 2 accounting can distinguish *why* traffic died.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.constants import DRKEY_VALIDITY, FRESHNESS_WINDOW, L_HVF, MAX_CLOCK_SKEW
from repro.dataplane.blocklist import Blocklist
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.hvf import ColibriKeys, eer_hvf_message, hop_authenticator, segment_token
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.ofd import OveruseFlowDetector
from repro.dataplane.sigma_cache import SigmaCache, SigmaEntry
from repro.crypto import native
from repro.crypto.mac import constant_time_equal
from repro.obs.events import VERDICT_DROPPED
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import PathField, ResInfo, Timestamp
from repro.topology.addresses import IsdAs
from repro.util.clock import Clock

# Wire-form field readers for validate_wire_batch: ``unpack_from`` reads
# straight out of the arena buffer (fresh ``bytes`` for ``s`` fields).
_TS_WIRE = Timestamp.WIRE
_WIRE_MESSAGE = struct.Struct("!QI")  # Eq. (6) input, Ts word || PktSize
_pack_size = struct.Struct("!I").pack  # its PktSize half, after ``Ts.packed``
_HVF_TAG = struct.Struct(f"!{L_HVF}s")
_PAIR_WIRE = PathField.WIRE_PAIR
_SEQ_BITS = Timestamp._SEQ_BITS
# What steps 3-5 made of an EER packet, as ``colibri_hop`` returns it (less
# is refused, more is over the threshold), and the drop the first two mean.
_BAD_HVF, _DUPLICATE, _POLICED = 0, 1, 2


class Verdict(enum.Enum):
    """What to do with the packet after processing."""

    FORWARD = "forward"  # hand to the next AS's border router
    DELIVER_HOST = "deliver_host"  # last hop of an EER: to DstHost
    DELIVER_CSERV = "deliver_cserv"  # SegR control packet: to local CServ
    DROP_EXPIRED = "drop_expired"
    DROP_STALE = "drop_stale"  # failed the freshness check
    DROP_BAD_HVF = "drop_bad_hvf"  # cryptographic check failed
    DROP_BLOCKED = "drop_blocked"  # source AS on the blocklist
    DROP_DUPLICATE = "drop_duplicate"  # replay suppressed
    DROP_OVERUSE = "drop_overuse"  # deterministic monitor non-conformance
    __hash__ = object.__hash__  # singletons: identity, in C (``Enum.__hash__`` is Python)


# Fixed at class creation, so each member carries them as plain attributes.
# ``is_drop`` is read once per processed packet by every consumer of a
# RouterResult.  ``identity_verified``: whether the packet's claimed
# identity (ResId, Ts) was cryptographically authenticated before the
# verdict was reached.  The §4.6 pipeline checks expiry, freshness, and
# the blocklist *before* the HVF (steps 1-2 vs. 3), so those drops — and
# DROP_BAD_HVF itself — judge attacker-controlled header bytes: forensic
# tooling must not attribute them to the claimed reservation as
# established fact (see obs/forensics).
for _verdict in Verdict:
    _verdict.is_drop = _verdict.name.startswith("DROP")
    _verdict.identity_verified = _verdict not in (
        Verdict.DROP_EXPIRED,
        Verdict.DROP_STALE,
        Verdict.DROP_BLOCKED,
        Verdict.DROP_BAD_HVF,
    )
del _verdict
_DROPS = (Verdict.DROP_BAD_HVF, Verdict.DROP_DUPLICATE)
_FORWARD, _DELIVER_HOST = Verdict.FORWARD, Verdict.DELIVER_HOST  # a member read is ~0.1 µs


@dataclass
class RouterResult:
    verdict: Verdict
    packet: ColibriPacket
    egress: Optional[int] = None  # interface to forward on (FORWARD only)


class BorderRouter:
    """One AS's Colibri border router."""

    #: Optional :class:`repro.obs.ObsContext`.  A class-level default
    #: keeps the disabled fast path at one attribute read (the PR 4
    #: bound in docs/performance.md §6); ``enable_observability`` sets a
    #: per-instance context and the journal starts receiving
    #: ``VerdictDropped`` events for every drop verdict.
    obs = None

    def __init__(
        self,
        isd_as: IsdAs,
        keys: ColibriKeys,
        clock: Clock,
        blocklist: Optional[Blocklist] = None,
        duplicates: Optional[DuplicateSuppressor] = None,
        ofd: Optional[OveruseFlowDetector] = None,
        monitor: Optional[DeterministicMonitor] = None,
        on_offense: Optional[Callable] = None,
        sigma_cache: Optional[SigmaCache] = None,
        enable_sigma_cache: bool = True,
    ):
        self.isd_as = isd_as
        self.keys = keys
        self.clock = clock
        self.blocklist = blocklist or Blocklist()
        self.duplicates = duplicates or DuplicateSuppressor(clock)
        self.ofd = ofd or OveruseFlowDetector()
        self.monitor = monitor or DeterministicMonitor()
        #: Called with (source AS, reservation id) when overuse is
        #: confirmed — the report to the local CServ (§4.8).
        self.on_offense = on_offense
        #: Soft state only: ``None`` (``enable_sigma_cache=False``) runs
        #: the seed's fully stateless path, bit-for-bit.
        if sigma_cache is None and enable_sigma_cache:
            sigma_cache = SigmaCache()
        self.sigma_cache = sigma_cache
        #: The kernel's handle on the policing tables, if it is loaded.
        backend = native.backend()
        self._policer = backend and native.HopPolicer(backend, self.duplicates, self.ofd)
        self.stats = {verdict: 0 for verdict in Verdict}

    # -- helpers --------------------------------------------------------------------

    def _authenticate(self, packet: ColibriPacket, now: float, message: bytes) -> bool:
        """Recompute (or cache-confirm) the HVF for the current hop;
        ``message`` is the Eq. (6) input (unused by Eq. (3) SegR tokens).

        HopAuths and tokens are minted from the hop key of the epoch in
        which the reservation was *set up*; DRKey epochs last a day while
        reservations live minutes, so a reservation can straddle one
        boundary: try the current epoch's key, then the previous epoch's
        (both derive from local secrets — still zero per-flow state).

        For EER packets a σ-cache entry counts, as in ``_burst``, only if
        bound to this packet's Eq. (4) input (same objects, else equal
        ones) and its Eq. (6) MAC matches the HVF.
        """
        res_info = packet.res_info
        hop_index = packet.hop_index
        hvf = packet.hvfs[hop_index]
        pair = packet.path.interface_pairs[hop_index]
        if packet.packet_type != PacketType.EER_DATA:
            for when in (now, now - DRKEY_VALIDITY):
                if when < 0:
                    continue
                hop_key = self.keys.hop_key(when)
                if constant_time_equal(segment_token(hop_key, res_info, *pair), hvf):
                    return True
            return False
        eer_info = packet.eer_info
        cache = self.sigma_cache
        if cache is not None:
            epoch = int(now // DRKEY_VALIDITY)
            entry = cache.lookup(res_info.reservation.packed, res_info.version, epoch)
            if entry is not None:
                bound = entry.res_info
                if (
                    (bound is res_info or bound == res_info)
                    and (entry.eer_info is eer_info or entry.eer_info == eer_info)
                    and entry.pair == pair
                    and entry.verify(message, hvf) is not None
                ):
                    return True
                cache.rejected_hints += 1
        return self._recompute(res_info, eer_info, pair, message, hvf, now) is not None

    def _recompute(self, res_info, eer_info, pair, message: bytes, tag: bytes, now: float):
        """The stateless Eq. (4) + (6) check: derive σ from the AS secret
        of the current and then the previous DRKey epoch and compare the
        HVF it implies against ``tag`` in constant time.  Returns the
        flow's entry, or ``None``; the entry is cached only now that its σ
        validated a packet, so forged headers can never plant entries.
        """
        for when in (now, now - DRKEY_VALIDITY):
            if when < 0:
                continue
            sigma = hop_authenticator(self.keys.hop_key(when), res_info, eer_info, *pair)
            entry = SigmaEntry(sigma, res_info, eer_info, pair)
            if entry.verify(message, tag) is not None:
                if self.sigma_cache is not None:
                    epoch = int(when // DRKEY_VALIDITY)
                    self.sigma_cache.store(
                        (res_info.reservation.packed, res_info.version, epoch), entry
                    )
                return entry
        return None

    def _finish(self, packet: ColibriPacket, verdict: Verdict) -> RouterResult:
        """Count one drop and, with observability on, journal why."""
        self.stats[verdict] += 1
        if self.obs is not None:
            journal = self.obs.journal
            if journal is not None:
                res_info = packet.res_info
                journal.record(
                    VERDICT_DROPPED,
                    isd_as=str(self.isd_as),
                    verdict=verdict.value,
                    reservation=str(res_info.reservation),
                    flow=res_info.reservation.packed.hex(),
                    src_as=str(res_info.src_as),
                    version=res_info.version,
                    size=packet.total_size,
                    identity_verified=verdict.identity_verified,
                )
        return RouterResult(verdict, packet)

    # -- the fast path -----------------------------------------------------------------

    def process(self, packet: ColibriPacket) -> RouterResult:
        """Run the full §4.6 pipeline on one packet: a burst of one."""
        return self._burst((packet,))[0]

    def process_batch(self, packets) -> List[RouterResult]:
        """Run the §4.6 pipeline over a burst of packets.

        Semantically identical to calling :meth:`process` per packet
        (verdicts, stats, and mutations are per-packet and in order);
        what a deployed router amortizes across a NIC burst (paper §7.1
        processes DPDK bursts the same way) is the per-burst set-up.
        """
        return self._burst(packets)

    def _burst(self, packets) -> List[RouterResult]:
        """Steps 1-6 per packet in arrival order, the pipeline's only body, so
        its set-up is what a lone packet pays: the clock, the live blocklist and
        bucket dicts (no call while empty), and — at the first packet, again
        after the trio ran (looked up on the instances: tracers shadow it) —
        whether ``colibri_hop`` may police (not while a rotation or roll is due).
        Tallies kept in locals reach their counters even if a packet raises."""
        now = self.clock.now()
        epoch = int(now // DRKEY_VALIDITY)
        cache, blocked = self.sigma_cache, self.blocklist._blocked
        duplicates, ofd, suspects = self.duplicates, self.ofd, self.ofd._suspects
        monitor, buckets = self.monitor, self.monitor._buckets
        policer = self._policer
        police, hop, recheck = None, policer and policer.hop, policer is not None
        header_sizes = ColibriPacket._HEADER_SIZES
        forwarded = delivered = policed = passed = 0
        results = []
        append = results.append
        try:
            for packet in packets:
                if recheck:  # the trio's own compares: a due rotation or roll is its to do
                    recheck, due = False, now - duplicates._rotated_at >= duplicates.window
                    police = None if due or now - ofd._window_start >= ofd.window else policer.state
                res_info = packet.res_info
                timestamp = packet.timestamp
                # 1. Reservation expiry (allow the paper's assumed clock skew).
                expiry = res_info.expiry
                if now > expiry + MAX_CLOCK_SKEW:
                    append(self._finish(packet, Verdict.DROP_EXPIRED))
                    continue
                # 1b. Packet freshness: Ts encodes µs before expiry.
                created = expiry - timestamp.micros_before_expiry / 1e6
                if abs(now - created) > FRESHNESS_WINDOW:
                    append(self._finish(packet, Verdict.DROP_STALE))
                    continue
                # 2. Policing blocklist — cheap, before any crypto.
                reservation = res_info.reservation
                if blocked and self.blocklist.is_blocked(reservation.src_as, now):
                    append(self._finish(packet, Verdict.DROP_BLOCKED))
                    continue
                # 3. Cryptographic validation (Eq. 3 or Eq. 4+6) over PktSize.
                if packet.packet_type != PacketType.EER_DATA:
                    # SegR control traffic: the local CServ authenticates the
                    # payload (DRKey) and re-injects requests in transit.
                    if self._authenticate(packet, now, b""):
                        self.stats[Verdict.DELIVER_CSERV] += 1
                        append(RouterResult(Verdict.DELIVER_CSERV, packet))
                    else:
                        append(self._finish(packet, Verdict.DROP_BAD_HVF))
                    continue
                pairs = packet.path.interface_pairs
                size = header_sizes.get((len(pairs), True))
                size = packet.total_size if size is None else size + len(packet.payload)
                message = timestamp.packed + _pack_size(size)
                hop_index = packet.hop_index
                pair = pairs[hop_index]
                hvf = packet.hvfs[hop_index]
                eer_info = packet.eer_info
                flow_label = reservation.packed
                bandwidth = res_info.bandwidth
                # The flow's record, if bound to this very Eq. (4) input and its
                # σ explains the HVF, else the stateless recompute's (bound by
                # construction); either is policed the same way.
                hint = entry = None
                if cache is not None:
                    hint = entry = cache.lookup(flow_label, res_info.version, epoch)
                while True:
                    if entry is None:
                        entry = self._recompute(res_info, eer_info, pair, message, hvf, now)
                        if entry is None:
                            outcome = _BAD_HVF
                            break
                    if entry.detector is not ofd:
                        entry.detector, entry.cells = ofd, ofd.cells_for(flow_label)
                    cells = entry.cells
                    # 3-5. Verify, replay suppression on the MAC as the packet's
                    # unique name, overuse detection: one C call, or the trio.
                    if not (
                        (entry.res_info is res_info or entry.res_info == res_info)
                        and (entry.eer_info is eer_info or entry.eer_info == eer_info)
                        and entry.pair == pair
                    ):
                        outcome = _BAD_HVF
                    elif police is not None and bandwidth > 0:
                        outcome = hop(
                            police, entry.schedule, message, len(message), hvf, len(hvf),
                            cells, len(cells), size * 8 / bandwidth,
                        )
                        if outcome >= _POLICED:
                            policed += 1
                            over = outcome > _POLICED
                            suspect = (over or suspects) and ofd._judge(flow_label, over, now)
                        elif outcome == _DUPLICATE:
                            duplicates._caught(policer.mac[:])
                        elif outcome < _BAD_HVF:
                            raise IndexError(f"policing tables or cells {list(cells)} refused")
                    else:
                        mac = entry.verify(message, hvf)
                        if mac is None:
                            outcome = _BAD_HVF
                        elif not duplicates.check_and_insert(mac, now):
                            outcome = _DUPLICATE
                        else:
                            outcome = _POLICED
                            suspect = ofd.observe(flow_label, size, bandwidth, now, cells)
                        recheck = policer is not None  # did it rotate or roll?
                    if outcome != _BAD_HVF or entry is not hint:
                        break
                    cache.rejected_hints += 1
                    entry = None
                if outcome < _POLICED:
                    append(self._finish(packet, _DROPS[outcome]))
                    continue
                # 5b. The monitor checks the OFD's suspects exactly; a confirmed
                # overuser's AS is blocked and reported (§4.8).
                if suspect and not monitor.is_watched(flow_label):
                    monitor.watch(flow_label, bandwidth, now)
                if not buckets:
                    passed += 1
                elif not monitor.check(flow_label, size, now):
                    if monitor.is_confirmed_overuser(flow_label):
                        self.blocklist.block(reservation.src_as)
                        if self.on_offense is not None:
                            self.on_offense(reservation.src_as, reservation)
                    append(self._finish(packet, Verdict.DROP_OVERUSE))
                    continue
                # 6. Forward towards the destination.
                if hop_index == len(pairs) - 1:
                    delivered += 1
                    append(RouterResult(_DELIVER_HOST, packet))
                else:
                    packet.hop_index = hop_index + 1
                    forwarded += 1
                    append(RouterResult(_FORWARD, packet, pair[1]))
        finally:
            self.stats[_FORWARD] += forwarded
            self.stats[_DELIVER_HOST] += delivered
            duplicates._current.insertions += policed
            ofd.packets_seen += policed
            monitor.packets_passed += passed
        return results

    # -- bench support --------------------------------------------------------------------

    def validate_only(self, packet: ColibriPacket) -> bool:
        """Just the cryptographic hot loop (expiry + freshness + MAC), the
        cost Figs. 5-6 measure for the border router."""
        return self._validate_one(packet, self.clock.now())

    def validate_batch(self, packets) -> List[bool]:
        """:meth:`validate_only` over a burst, clock read hoisted."""
        now = self.clock.now()
        validate_one = self._validate_one
        return [validate_one(packet, now) for packet in packets]

    def _validate_one(self, packet: ColibriPacket, now: float) -> bool:
        expiry = packet.res_info.expiry
        if now > expiry + MAX_CLOCK_SKEW:
            return False
        # Freshness: created at expiry - µs/1e6, Ts encoding µs before expiry.
        if abs(now - expiry + packet.timestamp.micros_before_expiry / 1e6) > FRESHNESS_WINDOW:
            return False
        message = eer_hvf_message(packet.timestamp, packet.total_size)
        return self._authenticate(packet, now, message)

    def validate_wire_batch(self, views) -> List[bool]:
        """:meth:`validate_batch` over zero-copy wire packets.

        Takes the :class:`~repro.packets.colibri.WirePacketView` bursts
        the gateway's ``send_batch_wire`` produces and validates each
        packet *in place* inside its arena slot: expiry, freshness and
        the σ-cache hit (bound-input compare, Eq. (6) check) read header
        fields straight from the wire buffer; only a miss or rejected
        hint parses the packet, for the stateless Eq. (4) recompute.
        Verdicts (and cache counters) equal :meth:`validate_batch`'s.
        """
        now = self.clock.now()
        validate_one = self._validate_wire_one
        return [validate_one(view, now) for view in views]

    def _validate_wire_one(self, view, now: float) -> bool:
        buffer = view.buffer
        base = view.offset
        if buffer[base + 3] & 0x0F != PacketType.EER_DATA:
            # Control traffic is off the wire fast path entirely.
            return self._validate_one(ColibriPacket.from_bytes(view.materialize()), now)
        hop_count = buffer[base + 4]
        hop_index = buffer[base + 5]
        offsets = ColibriPacket.wire_offsets(hop_count, True)
        reservation_packed, _bandwidth, expiry, version = ResInfo.WIRE.unpack_from(
            buffer, base + offsets.res
        )
        if now > expiry + MAX_CLOCK_SKEW:
            return False
        (ts_word,) = _TS_WIRE.unpack_from(buffer, base + offsets.ts)
        if abs(now - expiry + (ts_word >> _SEQ_BITS) / 1e6) > FRESHNESS_WINDOW:
            return False
        (tag,) = _HVF_TAG.unpack_from(buffer, base + offsets.hvf + hop_index * L_HVF)
        message = _WIRE_MESSAGE.pack(ts_word, view.length)
        cache = self.sigma_cache
        if cache is not None:
            entry = cache.lookup(reservation_packed, version, int(now // DRKEY_VALIDITY))
            if entry is not None:
                # Bound input: ResInfo || EERInfo as one header slice, and (In, Eg).
                pair_at = base + offsets.path + 4 * hop_index
                if (
                    buffer[base + offsets.res : base + offsets.ts] == entry.wire
                    and _PAIR_WIRE.unpack_from(buffer, pair_at) == entry.pair
                    and entry.verify(message, tag) is not None
                ):
                    return True
                cache.rejected_hints += 1
        # Cold half: parse the packet out of the arena only here, where
        # the MAC recompute already dominates the copy.
        packet = ColibriPacket.from_bytes(view.materialize())
        return self._recompute(
            packet.res_info, packet.eer_info, packet.current_pair(), message, tag, now
        ) is not None
