"""The Colibri gateway (§3.2, §4.6).

All Colibri traffic of an AS's end hosts passes through the gateway,
which is the *stateful* half of the data plane:

* it maps the ResId of incoming EER packets to the Path, ResInfo,
  EERInfo, and HopAuths obtained during setup/renewal;
* it performs **deterministic traffic monitoring** (token bucket per
  flow) — the duty other ASes hold this AS accountable for;
* it generates the high-precision timestamp Ts and computes the HVFs for
  all on-path ASes (Eq. 6), confirming "that it has performed the
  mandatory flow monitoring and authorized this packet".

HopAuths are **per version**: Eq. (4) covers ResInfo, which contains the
version number, so a renewal installs a fresh HopAuth set.  The gateway
stamps packets with the latest live version (§4.2) while the monitor
keys on the reservation ID alone, so using several versions can never
exceed the maximum version bandwidth (§4.8).

One pipeline serves both APIs — :meth:`ColibriGateway.send` (a burst of
one: the host path) and :meth:`ColibriGateway.send_batch`.  With the native
kernel loaded it is one call of the glue's ``send`` (C in
:data:`repro.crypto.native._GLUE`): per request the table probe, the latest
live version, the Ts word, the token bucket and the counters, then Eq. (6)
for every hop and the packet with its ``_row`` memo.  It returns to Python
only at a request Python must see — a drop, an out-of-range Ts, a version
without a native schedule, an object not as this module writes it — which
the Python body serves before the glue goes on from the next.  That body,
and the whole pipeline without the kernel (``COLIBRI_NATIVE=0``), is:

1. **plan** (:meth:`ColibriGateway._plan`) — the only per-request loop:
   table lookup, latest live version, Ts assignment and range check,
   token bucket, counters, and request-aligned error outcomes;
2. **stamp** (:meth:`ColibriGateway._stamp`) — every Eq. (6) tag of the
   burst as one flat string, a ``version.stamp`` per row;
3. **emit** (:meth:`ColibriGateway._emit_packets`) —
   :class:`~repro.packets.colibri.ColibriPacket` objects over windows of
   that string.

The reference lives in tests/test_gateway_differential.py:
``ReferenceGateway`` writes §4.3 and §4.6 down per packet, with its own
token buckets and Eq. (6) per σ, sharing no code with this module; both
APIs are byte-, counter- and state-identical to it.  Installation
pays the key schedules (a native schedule block, or prehashed hashlib
states per σ) at control-plane rate, so no data packet ever does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.constants import L_HVF
from repro.crypto import native
from repro.dataplane.hvf import sigma_schedule, sigma_states, stamp_hvfs
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.token_bucket import TokenBucket
from repro.errors import (
    BandwidthExceeded,
    DataPlaneError,
    ReservationError,
    ReservationExpired,
    ReservationNotFound,
)
from repro.packets.colibri import ColibriPacket, HvfVector, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import IsdAs
from repro.util.clock import Clock

#: A stamped packet, or the error that dropped the request (send_batch).
SendOutcome = Union[ColibriPacket, ReservationError, DataPlaneError]

#: The Eq. (6) MAC input ``Ts || PktSize`` in one struct: byte-identical
#: to ``eer_hvf_message(Timestamp(micros, seq), size)`` (``!Q`` of the
#: packed Ts word followed by ``!I`` of PktSize), built with a single C
#: call on the send fast path.
_HVF_MESSAGE = struct.Struct("!QI")

_SEQ_BITS = Timestamp._SEQ_BITS
_SEQ_MASK = Timestamp._SEQ_MASK


@dataclass
class GatewayVersion:
    """One installed EER version: its ResInfo and per-AS HopAuths."""

    res_info: ResInfo
    hop_auths: tuple  # one sigma_i per on-path AS, in path order
    #: Prehashed Eq. (6) MAC states, one per σ, on hosts without the
    #: native kernel.  Not part of the version's identity and not
    #: picklable.
    _states: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Native key-schedule block (all σs contiguous in C memory), when
    #: the cffi kernel is available; byte-identical to ``_states``.
    _schedule: Optional[object] = field(default=None, repr=False, compare=False)
    #: ResInfo ‖ EERInfo, constant per version: the head of each packet's
    #: ``_row``, packed by the version's first packet (the glue leaves that one to Python).
    _row_head: Optional[bytes] = field(default=None, repr=False, compare=False)

    @property
    def version(self) -> int:
        return self.res_info.version

    @property
    def expiry(self) -> float:
        return self.res_info.expiry

    def is_live(self, now: float) -> bool:
        return now < self.res_info.expiry

    def prepare(self) -> None:
        """Pay the per-σ key schedules now, at control-plane rate — the
        software analogue of expanding AES round keys at setup — so no
        data packet ever does.

        Prefers one native schedule block (lighter than a tuple of
        hashlib objects at 2^17 installed reservations); hosts without
        the native backend prehash hashlib states instead.
        """
        self._schedule = sigma_schedule(self.hop_auths)
        if self._schedule is None:
            self._states = sigma_states(self.hop_auths)

    def stamp(self, message: bytes) -> bytes:
        """All per-hop HVFs (Eq. 6) of one packet over ``message``, as
        one flat string in path order."""
        if self._schedule is not None:
            return self._schedule.stamp_flat(message)
        return b"".join(stamp_hvfs(self._states, message))


@dataclass
class GatewayReservation:
    """Everything the gateway keeps per EER."""

    reservation_id: ReservationId
    path: PathField
    eer_info: EerInfo
    versions: dict  # version number -> GatewayVersion, live at last install
    #: Header bytes of every packet on this EER (fixed by path length).
    header_size: int
    #: HVF bytes of every packet on this EER (one tag per hop).
    tag_bytes: int
    #: ``reservation_id.packed``, computed once: the table key, the
    #: monitor's flow label and part of every replay identifier —
    #: packing 12 bytes per packet would shadow the MAC cost on short
    #: paths.
    packed_id: bytes
    #: ``(micros, sequence)`` of the latest stamped packet, for Ts
    #: uniqueness (kept here so the fast path does not probe a side
    #: table per packet).
    last_micros: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Latest live version as of the last lookup; reset by install and
    #: re-derived by :meth:`latest_live` the moment it stops being live.
    _latest: Optional[GatewayVersion] = field(default=None, repr=False, compare=False)

    def latest_live(self, now: float) -> Optional[GatewayVersion]:
        cached = self._latest
        if cached is not None and now < cached.res_info.expiry:
            return cached
        live = [v for v in self.versions.values() if v.is_live(now)]
        latest = max(live, key=lambda v: v.version) if live else None
        # Installing a higher version resets the cache, and expiry is
        # checked above, so the cached answer can never outlive its
        # validity.
        self._latest = latest
        return latest


class ColibriGateway:
    """The source AS's gateway: monitor, stamp, and forward EER packets."""

    def __init__(self, isd_as: IsdAs, clock: Clock, monitor: DeterministicMonitor = None):
        self.isd_as = isd_as
        self.clock = clock
        self.monitor = monitor or DeterministicMonitor()
        #: Entries keyed by ``ReservationId.packed``.  A dict probe under
        #: a bytes key costs a C-level hash; under a ReservationId it
        #: calls the Python ``__hash__`` — a function call per packet the
        #: burst plan cannot afford, while ``.packed`` is a cached
        #: attribute read on the request's id.
        self._reservations: dict[bytes, GatewayReservation] = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        #: The glue's ``send`` (``native._GLUE``) with the kernel loaded, else ``None``.
        backend = native.backend()
        self._drive = backend and backend.glue.send
        if backend:
            backend.glue.bind(ColibriPacket, HvfVector, Timestamp, GatewayReservation, GatewayVersion,
                              ReservationId, ResInfo, PathField, TokenBucket, native.ScheduleBlock)

    # -- reservation installation (fed by the CServ after EER setup) -----------

    def install(self, reservation_id: ReservationId, path: PathField, eer_info: EerInfo, res_info: ResInfo,
                hop_auths: tuple) -> None:
        """Install a new EER or an additional version of an existing one.

        Called by the CServ with the HopAuths it decrypted from the setup
        or renewal response (step 5 of Fig. 1b).  Versions that have
        expired since the previous install are dropped here, so an
        entry's size is bounded by the live versions of its EER, not by
        how often it was renewed.
        """
        if len(hop_auths) != len(path):
            raise ValueError(f"need one HopAuth per hop: {len(hop_auths)} vs {len(path)} hops")
        now = self.clock.now()
        packed_id = reservation_id.packed
        entry = self._reservations.get(packed_id)
        if entry is None:
            entry = GatewayReservation(reservation_id=reservation_id, path=path, eer_info=eer_info, versions={},
                                       header_size=ColibriPacket.header_size_for(len(path)),
                                       tag_bytes=len(path) * L_HVF, packed_id=packed_id)
            self._reservations[packed_id] = entry
        else:
            entry.versions = {number: version for number, version in entry.versions.items() if version.is_live(now)}
        version = GatewayVersion(res_info=res_info, hop_auths=tuple(hop_auths))
        version.prepare()
        entry.versions[res_info.version] = version
        # Prime the latest-live cache so a reservation's first data
        # packet takes the same path as its millionth, and (re-)arm the
        # deterministic monitor at the live maximum (§4.8) — an expired
        # high-bandwidth version stops counting at the next renewal.
        entry._latest = None
        entry.latest_live(now)
        bandwidth = max((v.res_info.bandwidth for v in entry.versions.values() if v.is_live(now)), default=0.0)
        self.monitor.watch(packed_id, bandwidth, now)

    def uninstall(self, reservation_id: ReservationId) -> None:
        """Forget an EER (expired, aborted or torn down); unknown IDs
        are a no-op."""
        packed_id = reservation_id.packed
        self._reservations.pop(packed_id, None)
        self.monitor.unwatch(packed_id)

    # -- the burst pipeline: plan -> stamp -> emit -----------------------------------

    def send(self, reservation_id: ReservationId, payload: bytes) -> ColibriPacket:
        """Process one packet from a local end host: a burst of one.

        The host hands the gateway its ResId and payload (its packet's
        "header fields are empty, with the exception of the ResId and the
        Payload").  Returns the fully stamped packet ready for the border
        router, or raises — a raise is a drop.
        """
        (outcome,) = self.send_batch(((reservation_id, payload),))
        if outcome.__class__ is ColibriPacket:
            return outcome
        raise outcome

    def send_batch(self, requests) -> List[SendOutcome]:
        """Stamp a burst of ``(reservation_id, payload)`` requests.

        Semantically identical to calling :meth:`send` per request, in
        order — same packets, same monitor accounting, same counters —
        except that drops come back as error *values* (aligned with their
        request) instead of raised exceptions, and the clock is read once
        for the whole burst, the fixed cost the paper's DPDK gateway
        amortizes across NIC bursts.  A request that passed monitoring
        counts as sent once planned.
        """
        requests, now, drive = tuple(requests), self.clock.now(), self._drive
        if drive is None:
            outcomes = self._plan(requests, now)
            return self._emit_packets(outcomes, self._stamp(outcomes))
        outcomes = []
        stop = drive(self, requests, outcomes, now, 0)
        while stop >= 0:  # a request the glue leaves to the Python body; then on from the next
            served = self._plan(requests[stop : stop + 1], now)
            outcomes += self._emit_packets(served, self._stamp(served))
            stop = drive(self, requests, outcomes, now, stop + 1)
        return outcomes

    def _plan(self, requests, now: float) -> list:
        """Resolve every request of a burst, in order (§4.3, §4.6).

        The pipeline's only per-request loop, so its set-up is what a
        lone :meth:`send` pays.  Per request: the table probe, the latest
        live version, a unique Ts (microseconds before expiry plus a
        sequence for packets of the same microsecond; one out of range
        raises ``PacketFieldError`` at its request, everything before it
        accounted), the flow's token bucket as the monitor holds it now
        (an unwatched flow passes), and the counters.

        Returns one outcome per request: its drop error, or the ``(entry,
        version, Ts word, payload, tag offset, Eq. 6 message)`` row the
        emitter replaces with the packet.  The glue's ``send`` is this loop
        in C for the requests it recognises.
        """
        table = self._reservations
        monitor = self.monitor
        buckets = monitor._buckets
        outcomes: list = []
        current = None  # version of the previous row
        position = 0
        for reservation_id, payload in requests:
            entry = table.get(reservation_id.packed)
            if entry is None:
                self.packets_dropped += 1
                outcomes.append(ReservationNotFound(f"gateway has no EER {reservation_id}"))
                continue
            # entry.latest_live(now)'s hit path inlined — one attribute
            # read and one float compare per packet; the miss path
            # (expiry or fresh install) recomputes.
            version = entry._latest
            if version is None or now >= version.res_info.expiry:
                version = entry.latest_live(now)
                if version is None:
                    self.packets_dropped += 1
                    outcomes.append(ReservationExpired(f"all versions of EER {reservation_id} expired"))
                    continue
            if version is not current:
                # ``now`` is fixed for the burst, so Ts microseconds
                # only change when the version does.
                current = version
                micros = int((version.res_info.expiry - now) * 1e6)
            last = entry.last_micros
            sequence = last[1] + 1 if last is not None and last[0] == micros else 0
            entry.last_micros = (micros, sequence)
            if micros >> 48 or sequence > _SEQ_MASK:  # micros < 0 shifts to -1
                Timestamp(micros, sequence)  # raises the field's own error
            # Deterministic monitoring before stamping: a
            # non-conforming packet is dropped and never authorized.
            size = entry.header_size + len(payload)
            bucket = buckets.get(entry.packed_id)
            if bucket is not None:
                # TokenBucket.conforms inlined (same arithmetic, same
                # state writes): two Python frames per packet are the
                # price of the method calls, and this loop is the
                # Fig. 5 hot path.  After a flow's first packet the
                # refill branch is dead — ``now`` is fixed per burst.
                tokens = bucket._tokens
                if now > bucket._updated:
                    depth = bucket.depth
                    tokens += (now - bucket._updated) * bucket.rate
                    if tokens > depth:
                        tokens = depth
                    bucket._updated = now
                bits = size * 8
                if bits <= tokens:
                    bucket._tokens = tokens - bits
                else:
                    bucket._tokens = tokens
                    monitor.record_drop(entry.packed_id, now, bucket)
                    self.packets_dropped += 1
                    outcomes.append(BandwidthExceeded(f"EER {reservation_id} exceeded its reserved rate"))
                    continue
            word = (micros << _SEQ_BITS) | sequence
            outcomes.append((entry, version, word, payload, position, _HVF_MESSAGE.pack(word, size)))
            position += entry.tag_bytes
            # Counted as they happen, so a raise mid-burst leaves every
            # counter exact for the requests before it.
            monitor.packets_passed += 1
            self.packets_sent += 1
        return outcomes

    def _stamp(self, outcomes: list) -> bytes:
        """Eq. (6) for every planned packet, as one flat string: a row's
        per-hop tags start at its recorded tag offset."""
        tags = []
        for row in outcomes:
            if type(row) is tuple:
                tags.append(row[1].stamp(row[5]))
        return b"".join(tags)

    def _emit_packets(self, outcomes: list, flat: bytes) -> List[SendOutcome]:
        """Packet objects over zero-copy windows of the flat tags, each with
        the ``_row`` memo of the bytes it was stamped over."""
        trusted = ColibriPacket.trusted
        eer_data = PacketType.EER_DATA
        index = 0
        for row in outcomes:
            if type(row) is tuple:
                entry, version, ts_word, payload, position, message = row
                hops, path, head = len(version.hop_auths), entry.path, version._row_head
                if head is None:
                    head = version._row_head = version.res_info.packed + entry.eer_info.packed
                memo = (head, message, path.interface_pairs, hops - 1, 0)
                outcomes[index] = trusted(eer_data, path, version.res_info, Timestamp.from_word(ts_word),
                                          HvfVector(flat, position, hops), entry.eer_info, payload,
                                          memo if payload.__class__ is bytes else None)
            index += 1
        return outcomes


def split_batch(outcomes: List[SendOutcome]) -> Tuple[list, list]:
    """Partition :meth:`ColibriGateway.send_batch` outcomes.

    Returns ``(packets, drops)`` where drops are ``(index, error)`` pairs
    in request order.
    """
    packets = []
    drops = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, ColibriPacket):
            packets.append(outcome)
        else:
            drops.append((index, outcome))
    return packets, drops
