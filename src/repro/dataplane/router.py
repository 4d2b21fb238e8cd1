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

The loop is fused, not staged in columns: a duplicate or an escalation
acts on the *next* packet of the same burst, exactly as under serial
processing (docs/performance.md §9).

With :mod:`repro.crypto.native` loaded a burst is one call of the glue's
``burst``: it packs a 64-byte row per packet (:data:`native.ROW`) from its
``_row`` memo (the bytes its gateway stamped it over, or its first
router's build), hop pointer and HVF; runs steps 1 and 3-5 in C over the
tables ``DuplicateSuppressor`` and ``OveruseFlowDetector`` own, σ from the
kernel's flow table (docs/performance.md §1); and advances each forwarded
packet and builds each result, a drop's through ``_finish`` (the journal).
It returns to Python only at a kernel stop of its own or a packet for the
Python body below — a SegR packet, a blocked source, a watched or suspect
flow, no bandwidth, a due rotation or roll, an estimate over the OFD threshold.
That body, stateless like the paper's router, is the whole loop under
``COLIBRI_NATIVE=0`` and the oracle.

Every drop reason is an explicit enum member so tests, the simulator,
and Table 2 accounting can distinguish *why* traffic died.
"""

from __future__ import annotations

import enum
import struct
from collections import namedtuple
from typing import Callable, List, Optional

from repro.constants import DRKEY_VALIDITY, FRESHNESS_WINDOW, MAX_CLOCK_SKEW
from repro.crypto import native
from repro.crypto.mac import constant_time_equal, mac
from repro.dataplane.blocklist import Blocklist
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.hvf import ColibriKeys, hop_authenticator, segment_token
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.ofd import OveruseFlowDetector
from repro.obs.events import VERDICT_DROPPED
from repro.packets.colibri import ColibriPacket, HvfVector, PacketType
from repro.topology.addresses import IsdAs
from repro.util.clock import Clock

_pack_size = struct.Struct("!I").pack  # Eq. (6)'s PktSize, after ``Ts.packed``
_HEAD, _TAIL = struct.Struct("!12sddHII").pack, struct.Struct("!8sI").pack  # a ``_row`` memo's bytes
_ROW = struct.Struct("!38sHH12s4sB5x")  # :data:`native.ROW` around them


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
_FORWARD, _DELIVER_HOST = Verdict.FORWARD, Verdict.DELIVER_HOST  # a member read is ~0.1 µs
_EER = PacketType.EER_DATA  # a per-packet read, hoisted
#: The verdict a kernel verdict byte means, at its value (FORWARD to DUPLICATE).
_VERDICTS = (None, _FORWARD, _DELIVER_HOST, Verdict.DROP_EXPIRED, Verdict.DROP_STALE, Verdict.DROP_BAD_HVF,
             Verdict.DROP_DUPLICATE)


#: A packet's verdict and, for FORWARD only, the interface to forward on.
RouterResult = namedtuple("RouterResult", "verdict packet egress", defaults=(None,))


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
        #: The burst kernel and its flow table (soft state), if loaded.
        backend = native.backend()
        self.kernel = backend and native.BurstKernel(backend, keys, self.duplicates, self.ofd)
        if backend:
            backend.glue.bind(ColibriPacket, HvfVector, RouterResult, _VERDICTS, native.BurstKernel)
        self.stats = {verdict: 0 for verdict in Verdict}

    # -- the Python body ----------------------------------------------------------------

    def _authenticate(self, packet: ColibriPacket, now: float, message: bytes) -> Optional[bytes]:
        """The stateless step 3: the Eq. (3) token (SegR) or the full Eq. (6)
        MAC under the σ recomputed by Eq. (4) (EER, over ``message``) if the
        packet's HVF is its start, else ``None``.  HopAuths and tokens are
        minted from the hop key of the epoch the reservation was *set up*
        in; DRKey epochs last a day, reservations minutes, so one can
        straddle a boundary: try this epoch's key, then the previous one's
        (both derive from local secrets — still zero per-flow state).
        """
        res_info, hop_index = packet.res_info, packet.hop_index
        hvf, pair = packet.hvfs[hop_index], packet.path.interface_pairs[hop_index]
        for when in (now, now - DRKEY_VALIDITY):
            if when < 0:
                continue
            key = self.keys.hop_key(when)
            if packet.packet_type != PacketType.EER_DATA:
                token = segment_token(key, res_info, *pair)
                if constant_time_equal(token, hvf):
                    return token
            else:
                full = mac(hop_authenticator(key, res_info, packet.eer_info, *pair), message)
                if constant_time_equal(full[: len(hvf)], hvf):
                    return full
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

    def _packet(self, packet: ColibriPacket, now: float) -> RouterResult:
        """Steps 1-6 for one packet, in Python: the ``COLIBRI_NATIVE=0``
        loop, the oracle, and the packets the kernel hands back."""
        res_info = packet.res_info
        # 1. Reservation expiry (allow the paper's assumed clock skew) and
        # packet freshness: Ts encodes µs before expiry.
        expiry = res_info.expiry
        if now > expiry + MAX_CLOCK_SKEW:
            return self._finish(packet, Verdict.DROP_EXPIRED)
        if abs(now - (expiry - packet.timestamp.micros_before_expiry / 1e6)) > FRESHNESS_WINDOW:
            return self._finish(packet, Verdict.DROP_STALE)
        # 2. Policing blocklist — cheap, before any crypto.
        reservation = res_info.reservation
        if reservation.src_as in self.blocklist._blocked:
            return self._finish(packet, Verdict.DROP_BLOCKED)
        # 3. Cryptographic validation (Eq. 3 or Eq. 4+6) over PktSize.
        if packet.packet_type != PacketType.EER_DATA:
            # SegR control traffic: the local CServ authenticates the
            # payload (DRKey) and re-injects requests in transit.
            if self._authenticate(packet, now, b"") is None:
                return self._finish(packet, Verdict.DROP_BAD_HVF)
            self.stats[Verdict.DELIVER_CSERV] += 1
            return RouterResult(Verdict.DELIVER_CSERV, packet)
        size = packet.total_size
        identifier = self._authenticate(packet, now, packet.timestamp.packed + _pack_size(size))
        if identifier is None:
            return self._finish(packet, Verdict.DROP_BAD_HVF)
        # 4. Replay suppression on the MAC as the packet's unique name.
        if not self.duplicates.check_and_insert(identifier, now):
            return self._finish(packet, Verdict.DROP_DUPLICATE)
        # 5. Overuse detection.
        suspect = self.ofd.observe(reservation.packed, size, res_info.bandwidth, now)
        return self._policed(packet, size, suspect, now)

    def _policed(self, packet: ColibriPacket, size: int, suspect: bool, now: float) -> RouterResult:
        """Steps 5b-6 of a packet the OFD has seen: the monitor checks the
        OFD's suspects exactly, a confirmed overuser's AS is blocked and
        reported (§4.8); then forward towards the destination."""
        monitor, reservation = self.monitor, packet.res_info.reservation
        flow_label = reservation.packed
        if suspect and not monitor.is_watched(flow_label):
            monitor.watch(flow_label, packet.res_info.bandwidth, now)
        if not monitor._buckets:
            monitor.packets_passed += 1
        elif not monitor.check(flow_label, size, now):
            if monitor.is_confirmed_overuser(flow_label):
                self.blocklist.block(reservation.src_as)
                if self.on_offense is not None:
                    self.on_offense(reservation.src_as, reservation)
            return self._finish(packet, Verdict.DROP_OVERUSE)
        hop_index, pairs = packet.hop_index, packet.path.interface_pairs
        if hop_index == len(pairs) - 1:
            self.stats[_DELIVER_HOST] += 1
            return RouterResult(_DELIVER_HOST, packet)
        packet.hop_index = hop_index + 1
        self.stats[_FORWARD] += 1
        return RouterResult(_FORWARD, packet, pairs[hop_index][1])

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
        return self._burst(tuple(packets))  # one snapshot for every call into the glue

    def _burst(self, packets, validate: int = 0) -> list:
        """Steps 1-6 per packet in arrival order (``validate``: steps 1 and 3,
        a bool per packet, tables untouched), the pipeline's only loop.  With
        the kernel, one glue call (:attr:`native.BurstKernel.drive`) packs the
        rows (and calls :meth:`_flag` if a policing set holds anything), runs
        ``colibri_burst``, builds each row's result (a drop's through
        :meth:`_finish`) and flushes the counters.  It returns only at a row
        Python must see; the loop below serves that row and calls again from
        there (``gathered`` -1: every row is packed and marked)."""
        now, kernel = self.clock.now(), self.kernel
        if kernel is None:
            judge = self._validate_one if validate else self._packet
            return [judge(packet, now) for packet in packets]
        results, drive = [], kernel.drive
        flagged = self.blocklist._blocked or self.monitor._buckets or self.ofd._suspects
        stop, retried = drive(self, packets, results, now, validate, 0, 0, flagged), -1
        while stop >= 0:
            packet, code, start, gathered = packets[stop], kernel.verdicts[stop], stop + 1, -1
            if code == native.GATHER:  # the gather took no row: the memo is built here
                reservation, bandwidth, expiry, version = packet.res_info
                pairs, payload = packet.path.interface_pairs, packet.payload
                last = len(pairs) - 1
                if packet.packet_type == _EER:
                    (source,), (destination,) = packet.eer_info
                    size, flags = ColibriPacket._HEADER_SIZES[last + 1, True] + len(payload), 0
                else:  # a SegR packet (Eq. 3): Python's
                    source, destination, size, flags = 0, 0, 0, native.F_PYTHON
                head = _HEAD(reservation.packed, bandwidth, expiry, version, source, destination)
                tail = _TAIL(packet.timestamp.packed, size)
                start, gathered = 0, stop
                if payload.__class__ is bytes and stop != retried:  # the gather reads it from here
                    packet._row, retried = (head, tail, pairs, last, flags), stop
                else:  # a hop pointer, HVF, payload or packet class of its own: Python's
                    _ROW.pack_into(kernel.rows, 64 * stop, head, 0, 0, tail, b"", native.F_PYTHON)
                    gathered += 1
            elif code >= native.GROW:  # GROW, REKEY, CELLS: the kernel's, then the row again
                kernel.resume(stop, now)
                start = stop
            elif code == native.REFUSED:
                raise IndexError("a flow's sketch cells lie outside the sketch")
            elif validate:
                results.append(self._validate_one(packet, now))
            else:
                if code == native.PYTHON:
                    results.append(self._packet(packet, now))
                else:  # OVER: policed over the threshold, the OFD judges
                    suspect = self.ofd._judge(packet.res_info.reservation.packed, True, now)
                    results.append(self._policed(packet, packet.total_size, suspect, now))
                if flagged or self.blocklist._blocked or self.monitor._buckets or self.ofd._suspects:
                    flagged = self._flag(packets, start)
            stop = drive(self, packets, results, now, validate, start, gathered, flagged)
        return results

    def _flag(self, packets, start: int) -> bool:
        """Mark the rows from ``start`` on whose source is blocked or whose
        flow is watched or suspect — the kernel hands those to :meth:`_packet`
        — and unmark the rest; whether any is marked."""
        blocked, watched, suspects = self.blocklist._blocked, self.monitor._buckets, self.ofd._suspects
        rows, marked = self.kernel.rows, False
        for index in range(start, len(packets)):
            reservation = packets[index].res_info.reservation
            label, at = reservation.packed, native.ROW.size * index + 58  # its flags byte
            if reservation.src_as in blocked or label in watched or label in suspects:
                rows[at] |= native.F_FLAGGED
                marked = True
            else:
                rows[at] &= ~native.F_FLAGGED
        return marked

    # -- bench support ---------------------------------------------------------------

    def validate_only(self, packet: ColibriPacket) -> bool:
        """Expiry, freshness and the MAC: the cost Figs. 5-6 measure for a router."""
        return self._burst((packet,), 1)[0]

    def validate_batch(self, packets) -> List[bool]:
        """:meth:`validate_only` over a burst: steps 1 and 3, tables untouched."""
        return self._burst(tuple(packets), 1)

    def _validate_one(self, packet: ColibriPacket, now: float) -> bool:
        expiry = packet.res_info.expiry
        if now > expiry + MAX_CLOCK_SKEW:
            return False
        if abs(now - (expiry - packet.timestamp.micros_before_expiry / 1e6)) > FRESHNESS_WINDOW:
            return False
        message = packet.timestamp.packed + _pack_size(packet.total_size)
        return self._authenticate(packet, now, message) is not None
