"""Traffic sources for the data-plane evaluation (§7.1).

The paper's Spirent packet generator produces three traffic classes at
configurable rates; these sources reproduce that mix:

* :class:`ReservationSource` — authentic Colibri traffic conforming to
  its EER (reservations 1 and 2 of Table 2);
* :class:`OverusingSource` — authentic Colibri traffic at a rate above
  the reservation, modelling "a faulty or malicious AS [that] may not
  monitor Colibri flows originating in its network" (threat 3): it
  stamps valid HVFs using the real HopAuths but **bypasses the
  gateway's deterministic monitor**;
* :class:`BogusColibriSource` — packets with random authentication tags
  (threat 2), hoping to overwhelm the router's crypto checks;
* :class:`BestEffortSource` — plain best-effort volume (threat 1).

Each source implements ``packets(now, tick) -> iterator`` yielding what
arrives at the router in one tick.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.constants import L_HVF
from repro.control.cserv import EerHandle
from repro.dataplane.gateway import ColibriGateway
from repro.errors import DataPlaneError
from repro.packets.colibri import ColibriPacket, PacketType
from repro.packets.fields import EerInfo, PathField, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs


class ReservationSource:
    """Conforming EER traffic through the (honest) gateway."""

    def __init__(
        self,
        gateway: ColibriGateway,
        handle: EerHandle,
        rate: float,
        packet_bytes: int,
    ):
        self.gateway = gateway
        self.handle = handle
        self.rate = rate  # bits per second offered
        self.packet_bytes = packet_bytes
        self._carry = 0.0  # fractional packets carried between ticks
        self.generated = 0
        self.gateway_drops = 0

    def packets(self, now: float, tick: float) -> Iterator[ColibriPacket]:
        """Yield this tick's stamped packets (drops at the gateway are
        counted, not yielded — the gateway refused to authorize them)."""
        exact = self.rate * tick / (self.packet_bytes * 8) + self._carry
        count = int(exact)
        self._carry = exact - count
        payload = b"\x00" * max(0, self.packet_bytes - 120)
        for _ in range(count):
            self.generated += 1
            try:
                yield self.gateway.send(self.handle.reservation_id, payload)
            except DataPlaneError:
                self.gateway_drops += 1


class OverusingSource(ReservationSource):
    """EER traffic stamped *without* monitoring — a rogue source AS.

    Reaches into the gateway's reservation table for the HopAuths (the
    rogue AS operates its own gateway, so it has them) and stamps packets
    directly, skipping the token-bucket check.  Downstream ASes must
    catch this via OFD + deterministic monitoring (§4.8, Table 2 phase 3).
    """

    def packets(self, now: float, tick: float) -> Iterator[ColibriPacket]:
        exact = self.rate * tick / (self.packet_bytes * 8) + self._carry
        count = int(exact)
        self._carry = exact - count
        payload = b"\x00" * max(0, self.packet_bytes - 120)
        entry = self.gateway._reservations[self.handle.reservation_id.packed]
        for _ in range(count):
            self.generated += 1
            version = entry.latest_live(now)
            if version is None:
                self.gateway_drops += 1
                continue
            # Same Ts-uniqueness rule the honest gateway applies, driven
            # off the shared per-entry (micros, sequence) state.
            micros = int((version.expiry - now) * 1e6)
            last = entry.last_micros
            sequence = last[1] + 1 if last is not None and last[0] == micros else 0
            entry.last_micros = (micros, sequence)
            timestamp = Timestamp(micros, sequence)
            packet = ColibriPacket(
                packet_type=PacketType.EER_DATA,
                path=entry.path,
                res_info=version.res_info,
                timestamp=timestamp,
                hvfs=[ColibriPacket.EMPTY_HVF] * len(entry.path),
                eer_info=entry.eer_info,
                payload=payload,
            )
            from repro.dataplane.hvf import eer_hvf  # local to avoid cycle

            size = packet.total_size
            packet.hvfs = [
                eer_hvf(sigma, timestamp, size) for sigma in version.hop_auths
            ]
            yield packet


class BogusColibriSource:
    """Unauthentic Colibri packets: plausible headers, random HVFs (§7.1).

    "An adversary can send Colibri packets without authorization, and
    replace the authentication tags with random strings hoping to
    overwhelm the authentication process on the router."
    """

    def __init__(
        self,
        src_as: IsdAs,
        path_pairs: tuple,
        rate: float,
        packet_bytes: int,
        expiry: float = 1e12,
        seed: int = 99,
    ):
        self.src_as = src_as
        self.path = PathField(path_pairs)
        self.rate = rate
        self.packet_bytes = packet_bytes
        self.expiry = expiry
        self._rng = random.Random(seed)
        self._carry = 0.0
        self.generated = 0

    def packets(self, now: float, tick: float) -> Iterator[ColibriPacket]:
        exact = self.rate * tick / (self.packet_bytes * 8) + self._carry
        count = int(exact)
        self._carry = exact - count
        payload = b"\x00" * max(0, self.packet_bytes - 120)
        for _ in range(count):
            self.generated += 1
            res_info = ResInfo(
                reservation=ReservationId(self.src_as, self._rng.randrange(1 << 31)),
                bandwidth=1e9,
                expiry=self.expiry,
                version=1,
            )
            yield ColibriPacket(
                packet_type=PacketType.EER_DATA,
                path=self.path,
                res_info=res_info,
                timestamp=Timestamp.create(now, self.expiry),
                hvfs=[
                    self._rng.getrandbits(8 * L_HVF).to_bytes(L_HVF, "big")
                    for _ in range(len(self.path))
                ],
                eer_info=EerInfo(HostAddr(1), HostAddr(2)),
                payload=payload,
            )


class BestEffortSource:
    """Plain best-effort volume (packet sizes only, no Colibri headers)."""

    def __init__(self, rate: float, packet_bytes: int):
        self.rate = rate
        self.packet_bytes = packet_bytes
        self._carry = 0.0
        self.generated = 0

    def sizes(self, now: float, tick: float) -> Iterator[int]:
        exact = self.rate * tick / (self.packet_bytes * 8) + self._carry
        count = int(exact)
        self._carry = exact - count
        for _ in range(count):
            self.generated += 1
            yield self.packet_bytes
