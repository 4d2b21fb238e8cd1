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

One burst pipeline (docs/performance.md §8) serves both burst APIs:

1. **plan** (:meth:`ColibriGateway._plan`) — the only per-request loop:
   table lookup, latest live version, Ts assignment and range check,
   token bucket, counters, and request-aligned error outcomes;
2. **stamp** (:meth:`ColibriGateway._stamp`) — every Eq. (6) tag of the
   burst as one flat string: one native scatter call, one ``stamp_many``
   call when the whole burst resolved to a single version, and on hosts
   without the native kernel the same row loop over hashlib;
3. **emit** — :class:`~repro.packets.colibri.ColibriPacket` objects over
   windows of that string (:meth:`ColibriGateway.send_batch`), or wire
   bytes written in place into :class:`~repro.packets.wire.PacketArena`
   slots (:meth:`ColibriGateway.send_batch_wire`).

:meth:`ColibriGateway.send` keeps the serial per-packet form as the
reference: both burst APIs are byte-, counter- and state-identical to
calling it per request (tests/test_batch_equivalence.py).  Installation
pays the key schedules (a native schedule block, or prehashed hashlib
states per σ) at control-plane rate, so no data packet ever does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.constants import L_HVF
from repro.dataplane.hvf import (
    burst_stamper,
    sigma_schedule,
    sigma_states,
    stamp_hvfs,
)
from repro.dataplane.monitor import DeterministicMonitor
from repro.obs.profile import profiled
from repro.errors import (
    BandwidthExceeded,
    DataPlaneError,
    ReservationError,
    ReservationExpired,
    ReservationNotFound,
)
from repro.packets.colibri import ColibriPacket, HvfVector, PacketType, WirePacketView
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.packets.wire import PacketArena
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
    #: Prehashed Eq. (6) MAC states, one per σ.  Built at control-plane
    #: time — the software analogue of expanding AES round keys at setup
    #: — so no data packet ever pays a key schedule.  Not part of the
    #: version's identity and not picklable.
    _states: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Native key-schedule block (all σs contiguous in C memory), when
    #: the cffi kernel is available; byte-identical to ``_states``.
    _schedule: Optional[object] = field(default=None, repr=False, compare=False)
    #: Serialized header prefix up to (excluding) Ts — constant per
    #: version, copied into each arena slot by the wire emitter.
    _wire_template: Optional[bytes] = field(default=None, repr=False, compare=False)

    @property
    def version(self) -> int:
        return self.res_info.version

    @property
    def expiry(self) -> float:
        return self.res_info.expiry

    def is_live(self, now: float) -> bool:
        return now < self.res_info.expiry

    def prepare(self) -> None:
        """Pay the per-σ key schedules now, at control-plane rate.

        Prefers one native schedule block (lighter than a tuple of
        hashlib objects at 2^17 installed reservations); hosts without
        the native backend prehash hashlib states instead.
        """
        if self._schedule is None:
            self._schedule = sigma_schedule(self.hop_auths)
        if self._schedule is None and self._states is None:
            self._states = sigma_states(self.hop_auths)

    def stamp(self, message: bytes):
        """All per-hop HVFs (Eq. 6) of one packet over ``message``."""
        schedule = self._schedule
        if schedule is not None:
            return HvfVector(schedule.stamp_flat(message))
        states = self._states
        if states is None:
            # Not installed through ColibriGateway.install: prehash on
            # first demand.
            states = self._states = sigma_states(self.hop_auths)
        return stamp_hvfs(states, message)


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
    #: :meth:`~repro.packets.colibri.ColibriPacket.wire_header` of this
    #: EER's packets — fixed by path length, resolved once at install so
    #: the wire emitter never pays the per-packet layout lookup.
    wire_header: struct.Struct
    #: ``reservation_id.packed``, computed once: the table key, the
    #: monitor's flow label and part of every replay identifier —
    #: packing 12 bytes per packet would shadow the MAC cost on short
    #: paths.
    packed_id: bytes
    #: ``(micros, sequence)`` of the latest stamped packet, for Ts
    #: uniqueness (kept here so the fast path does not probe a side
    #: table per packet).
    last_micros: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: The monitor's token bucket for this flow.  Owned by the gateway:
    #: install keeps it in sync with ``monitor.watch``, so the burst
    #: plan accounts packets against it directly instead of re-probing
    #: the monitor's flow table per packet.
    bucket: Optional[object] = field(default=None, repr=False, compare=False)
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


class _BurstPlan:
    """What :meth:`ColibriGateway._plan` resolved for one burst."""

    __slots__ = ("outcomes", "rows", "messages", "version", "tag_bytes")

    def __init__(self, outcomes, rows, messages, version, tag_bytes):
        #: Request-aligned results: the drop error of every refused
        #: request, ``None`` where an emitter fills in the packet.
        self.outcomes = outcomes
        #: One ``(request index, entry, version, Ts word, PktSize,
        #: payload, tag offset)`` tuple per conforming request, in
        #: request order; the tag offset locates the packet's HVF row in
        #: the stamp step's flat result.
        self.rows = rows
        #: The rows' Eq. (6) inputs (``_HVF_MESSAGE``), back to back.
        self.messages = messages
        #: The one version every row resolved to, else ``None``.
        self.version = version
        #: Total HVF bytes of the burst (the flat result's length).
        self.tag_bytes = tag_bytes


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
        #: Lazily built native scatter stamper shared across bursts
        #: (stays ``None`` without the native backend).
        self._burst = None

    # -- reservation installation (fed by the CServ after EER setup) -----------

    def install(
        self,
        reservation_id: ReservationId,
        path: PathField,
        eer_info: EerInfo,
        res_info: ResInfo,
        hop_auths: tuple,
    ) -> None:
        """Install a new EER or an additional version of an existing one.

        Called by the CServ with the HopAuths it decrypted from the setup
        or renewal response (step 5 of Fig. 1b).  Versions that have
        expired since the previous install are dropped here, so an
        entry's size is bounded by the live versions of its EER, not by
        how often it was renewed.
        """
        if len(hop_auths) != len(path):
            raise ValueError(
                f"need one HopAuth per hop: {len(hop_auths)} vs {len(path)} hops"
            )
        now = self.clock.now()
        packed_id = reservation_id.packed
        entry = self._reservations.get(packed_id)
        if entry is None:
            entry = GatewayReservation(
                reservation_id=reservation_id,
                path=path,
                eer_info=eer_info,
                versions={},
                header_size=ColibriPacket.header_size_for(len(path)),
                tag_bytes=len(path) * L_HVF,
                wire_header=ColibriPacket.wire_header(len(path)),
                packed_id=packed_id,
            )
            self._reservations[packed_id] = entry
        else:
            entry.versions = {
                number: version
                for number, version in entry.versions.items()
                if version.is_live(now)
            }
        version = GatewayVersion(res_info=res_info, hop_auths=tuple(hop_auths))
        version.prepare()
        entry.versions[res_info.version] = version
        # Prime the latest-live cache so a reservation's first data
        # packet takes the same path as its millionth, and (re-)arm the
        # deterministic monitor at the live maximum (§4.8) — an expired
        # high-bandwidth version stops counting at the next renewal.
        entry._latest = None
        entry.latest_live(now)
        bandwidth = max(
            (v.res_info.bandwidth for v in entry.versions.values() if v.is_live(now)),
            default=0.0,
        )
        self.monitor.watch(packed_id, bandwidth, now)
        entry.bucket = self.monitor.bucket_for(packed_id)

    def uninstall(self, reservation_id: ReservationId) -> None:
        """Forget an EER (expired, aborted or torn down); unknown IDs
        are a no-op."""
        packed_id = reservation_id.packed
        self._reservations.pop(packed_id, None)
        self.monitor.unwatch(packed_id)

    def reservation_count(self) -> int:
        return len(self._reservations)

    def known_reservations(self) -> list:
        return [entry.reservation_id for entry in self._reservations.values()]

    # -- the serial reference (§4.6) -----------------------------------------------

    def send(self, reservation_id: ReservationId, payload: bytes) -> ColibriPacket:
        """Process one packet from a local end host.

        The host hands the gateway its ResId and payload (its packet's
        "header fields are empty, with the exception of the ResId and the
        Payload").  Returns the fully stamped packet ready for the border
        router, or raises — a raise is a drop.
        """
        return self._send_one(reservation_id, payload, self.clock.now())

    def _send_one(
        self, reservation_id: ReservationId, payload: bytes, now: float
    ) -> ColibriPacket:
        entry = self._reservations.get(reservation_id.packed)
        if entry is None:
            self.packets_dropped += 1
            raise ReservationNotFound(f"gateway has no EER {reservation_id}")
        version = entry.latest_live(now)
        if version is None:
            self.packets_dropped += 1
            raise ReservationExpired(
                f"all versions of EER {reservation_id} expired"
            )
        res_info = version.res_info

        # Unique Ts per packet (§4.3): microseconds before expiry plus a
        # sequence counter for packets created in the same microsecond.
        micros = int((res_info.expiry - now) * 1e6)
        last = entry.last_micros
        sequence = last[1] + 1 if last is not None and last[0] == micros else 0
        entry.last_micros = (micros, sequence)
        timestamp = Timestamp(micros, sequence)

        # Deterministic monitoring before stamping: a non-conforming
        # packet is dropped and never authorized.  PktSize is known from
        # the path geometry alone, so the drop path never builds a packet.
        size = entry.header_size + len(payload)
        if not self.monitor.check(entry.packed_id, size, now):
            self.packets_dropped += 1
            raise BandwidthExceeded(
                f"EER {reservation_id} exceeded its reserved rate"
            )
        message = _HVF_MESSAGE.pack((micros << _SEQ_BITS) | sequence, size)
        packet = ColibriPacket.trusted(
            PacketType.EER_DATA,
            entry.path,
            res_info,
            timestamp,
            version.stamp(message),
            entry.eer_info,
            payload,
        )
        self.packets_sent += 1
        return packet

    # -- the burst pipeline: plan -> stamp -> emit -----------------------------------

    @profiled("gateway.send_batch")
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
        if type(requests) is not list:
            requests = list(requests)
        plan = self._plan(requests, self.clock.now())
        return self._emit_packets(plan, self._stamp(plan))

    def send_batch_wire(self, requests, arena: PacketArena) -> list:
        """Stamp a burst straight into ``arena`` as wire-form packets.

        The same plan and stamp steps as :meth:`send_batch`; only the
        emitter differs.  Each conforming request claims an arena slot
        and gets the per-version header template, the Ts word, its HVF
        row, the payload length and the payload written in place.
        Outcomes are request-aligned like :meth:`send_batch`, but
        successes are :class:`~repro.packets.colibri.WirePacketView`
        objects whose bytes equal ``packet.to_bytes()`` of the object
        form — no packet-sized ``bytes`` is ever materialized.

        The arena is ``reset()`` at entry, so views from the previous
        burst die here (the mbuf lifetime contract).
        """
        if type(requests) is not list:
            requests = list(requests)
        arena.reset()
        plan = self._plan(requests, self.clock.now())
        return self._emit_wire(plan, self._stamp(plan), arena)

    @profiled("gateway.plan")
    def _plan(self, requests: list, now: float) -> _BurstPlan:
        """Resolve every request of a burst, in order.

        Each branch mirrors :meth:`_send_one` — same order of Ts
        assignment, monitor accounting and error strings — so outcomes,
        counters, bucket levels and ``last_micros`` are
        indistinguishable from the serial path, including when a Ts
        sequence overflows mid-burst (the ``PacketFieldError`` surfaces
        at the same request, with everything before it accounted).
        """
        get_entry = self._reservations.get
        monitor = self.monitor
        pack_message = _HVF_MESSAGE.pack
        outcomes: list = [None] * len(requests)
        rows: list = []
        add_row = rows.append
        messages = bytearray()
        current = None  # version of the previous row
        switches = 0  # version changes along the burst (1 = single version)
        position = 0
        passed = 0
        dropped = 0
        try:
            for index, (reservation_id, payload) in enumerate(requests):
                entry = get_entry(reservation_id.packed)
                if entry is None:
                    dropped += 1
                    outcomes[index] = ReservationNotFound(
                        f"gateway has no EER {reservation_id}"
                    )
                    continue
                # entry.latest_live(now)'s hit path inlined — one
                # attribute read and one float compare per packet; the
                # miss path (expiry or fresh install) recomputes.
                version = entry._latest
                if version is None or now >= version.res_info.expiry:
                    version = entry.latest_live(now)
                    if version is None:
                        dropped += 1
                        outcomes[index] = ReservationExpired(
                            f"all versions of EER {reservation_id} expired"
                        )
                        continue
                if version is not current:
                    # ``now`` is fixed for the burst, so Ts microseconds
                    # only change when the version does.
                    current = version
                    switches += 1
                    micros = int((version.res_info.expiry - now) * 1e6)
                last = entry.last_micros
                sequence = last[1] + 1 if last is not None and last[0] == micros else 0
                entry.last_micros = (micros, sequence)
                if not 0 <= micros < 1 << 48 or sequence > _SEQ_MASK:
                    Timestamp(micros, sequence)  # raises the serial path's error
                size = entry.header_size + len(payload)
                bucket = entry.bucket
                if bucket is None:
                    passed += 1
                else:
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
                        passed += 1
                    else:
                        bucket._tokens = tokens
                        monitor.record_drop(entry.packed_id, now, bucket)
                        dropped += 1
                        outcomes[index] = BandwidthExceeded(
                            f"EER {reservation_id} exceeded its reserved rate"
                        )
                        continue
                ts_word = (micros << _SEQ_BITS) | sequence
                messages += pack_message(ts_word, size)
                add_row((index, entry, version, ts_word, size, payload, position))
                position += entry.tag_bytes
        finally:
            monitor.packets_passed += passed
            self.packets_sent += len(rows)
            self.packets_dropped += dropped
        return _BurstPlan(
            outcomes, rows, messages, current if switches == 1 else None, position
        )

    @profiled("gateway.stamp")
    def _stamp(self, plan: _BurstPlan) -> bytes:
        """Eq. (6) for every planned packet, as one flat string: row
        ``k``'s per-hop tags start at its recorded tag offset."""
        rows = plan.rows
        if not rows:
            return b""
        size = _HVF_MESSAGE.size
        only = plan.version
        if only is not None and only._schedule is not None:
            return only._schedule.stamp_many_flat(plan.messages, size, len(rows))
        stamper = self._burst
        if stamper is None:
            stamper = self._burst = burst_stamper(slots=len(rows))
        if stamper is not None:
            stamper.reserve(len(rows))
            scheds = stamper.scheds
            counts = stamper.counts
            offsets = stamper.offsets
            for number, row in enumerate(rows):
                schedule = row[2]._schedule
                if schedule is None:
                    break  # installed while the native probe was off
                scheds[number] = schedule._scatter
                counts[number] = schedule.count
                offsets[number] = row[6]
            else:
                stamper.messages[:] = plan.messages
                return stamper.stamp_flat(len(rows), size, plan.tag_bytes)
        messages = bytes(plan.messages)
        tags: list = []
        for number, row in enumerate(rows):
            tags.extend(row[2].stamp(messages[number * size : (number + 1) * size]))
        return b"".join(tags)

    @profiled("gateway.emit_packets")
    def _emit_packets(self, plan: _BurstPlan, flat: bytes) -> List[SendOutcome]:
        """Packet objects over zero-copy windows of the flat tags."""
        outcomes = plan.outcomes
        trusted = ColibriPacket.trusted
        eer_data = PacketType.EER_DATA
        for index, entry, version, ts_word, _size, payload, position in plan.rows:
            outcomes[index] = trusted(
                eer_data,
                entry.path,
                version.res_info,
                Timestamp(ts_word >> _SEQ_BITS, ts_word & _SEQ_MASK),
                HvfVector(flat, position, len(version.hop_auths)),
                entry.eer_info,
                payload,
            )
        return outcomes

    @profiled("gateway.emit_wire")
    def _emit_wire(self, plan: _BurstPlan, flat: bytes, arena: PacketArena) -> list:
        """Wire bytes written in place, one arena slot per packet."""
        outcomes = plan.outcomes
        buffer = arena.buffer
        take = arena.take
        for index, entry, version, ts_word, size, payload, position in plan.rows:
            template = version._wire_template
            if template is None:
                template = version._wire_template = ColibriPacket.wire_template(
                    PacketType.EER_DATA, entry.path, version.res_info, entry.eer_info
                )
            slot = take(size)
            entry.wire_header.pack_into(
                buffer,
                slot,
                template,
                ts_word,
                flat[position : position + entry.tag_bytes],
                len(payload),
            )
            buffer[slot + entry.header_size : slot + size] = payload
            outcomes[index] = WirePacketView(buffer, slot, size)
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
