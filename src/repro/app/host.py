"""The end-host networking stack (§3.2).

"Colibri modifies the SCIONDaemon to enable an application to explicitly
request and renew EERs."  :class:`EndHost` is that daemon-side view: it
talks to the local CServ for reservations and to the local gateway for
sending.  :class:`ColibriSocket` is the application-facing handle over
one EER — request, send, renew, and an optional pace-to-reservation mode
("in QUIC, it is straightforward to disable congestion control and set
the sending rate to the reserved bandwidth", §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.control.renewal import RenewalScheduler
from repro.errors import BandwidthExceeded, ColibriError
from repro.sim.scenario import ColibriNetwork, DeliveryReport
from repro.topology.addresses import HostAddr, IsdAs


@dataclass
class SendStats:
    packets: int = 0
    delivered: int = 0
    gateway_drops: int = 0
    network_drops: int = 0
    bytes_delivered: int = 0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.packets if self.packets else 0.0


class ColibriSocket:
    """An application handle over one EER."""

    def __init__(self, host: "EndHost", handle, auto_renew: bool):
        self._host = host
        self._handle = handle
        self._scheduler: Optional[RenewalScheduler] = None
        if auto_renew:
            self._scheduler = RenewalScheduler(host.cserv)
            self._scheduler.track_eer(handle)
        self.stats = SendStats()

    @property
    def handle(self):
        """The scheduler's freshest handle, or the last one it had."""
        if self._scheduler is not None:
            try:
                self._handle = self._scheduler.eer_handle(self._handle.reservation_id)
            except KeyError:  # tick() untracked it (torn down or swept): the gateway says why
                pass
        return self._handle

    @property
    def reserved_bandwidth(self) -> float:
        return self.handle.res_info.bandwidth

    def send(self, payload: bytes) -> DeliveryReport:
        """Send one datagram over the reservation.

        Gateway drops (rate exceeded, expired) raise; network verdicts are
        reported and counted either way.
        """
        self._maybe_renew()
        self.stats.packets += 1
        try:
            report = self._host.network.send(
                self._host.isd_as, self.handle, payload
            )
        except ColibriError:
            self.stats.gateway_drops += 1
            raise
        if report.delivered:
            self.stats.delivered += 1
            self.stats.bytes_delivered += len(payload)
        else:
            self.stats.network_drops += 1
        return report

    def send_paced(self, total_bytes: int, packet_bytes: int, tick: float = 0.001) -> SendStats:
        """Stream ``total_bytes`` of payload at the reserved *wire* rate.

        The tight transport integration of §3.2: no congestion control,
        the sending rate IS the reservation.  Budgeting uses the actual
        on-wire packet size (header included — what the token bucket and
        the monitors charge, Eq. 6), so a correctly paced stream never
        trips its own gateway monitor.  Advances the simulation clock.
        """
        budget_bits = 0.0
        header_bits = 0  # learned from the first packet actually sent
        sent = 0
        while sent < total_bytes:
            budget_bits += self.reserved_bandwidth * tick
            while sent < total_bytes:
                chunk = min(packet_bytes, total_bytes - sent)
                if chunk * 8 + header_bits > budget_bits:
                    break
                try:
                    report = self.send(b"\x00" * chunk)
                except BandwidthExceeded:
                    break  # renewal boundary hiccup; retry next tick
                wire_bits = report.packet.total_size * 8
                header_bits = wire_bits - chunk * 8
                budget_bits -= wire_bits
                sent += chunk
            self._host.network.advance(tick)
            self._maybe_renew()
        return self.stats

    def renew(self, new_bandwidth: float = None):
        """Explicit renewal (applications may also rely on auto-renew)."""
        renewed = self._host.cserv.renew_eer(self.handle, new_bandwidth)
        self._handle = renewed
        if self._scheduler is not None:
            self._scheduler.track_eer(renewed)
        return renewed

    def _maybe_renew(self) -> None:
        if self._scheduler is not None:
            self._scheduler.tick()


class EndHost:
    """One end host inside an AS, bound to its CServ and gateway.

    At construction the host receives its provisioned key (footnote 2 of
    the paper: a host-specific key below the AS-level DRKey) — the
    subscription-time credential it uses to authenticate every request
    towards its own CServ.
    """

    def __init__(self, network: ColibriNetwork, isd_as: IsdAs, address: HostAddr):
        self.network = network
        self.isd_as = isd_as
        self.address = address
        self.cserv = network.cserv(isd_as)
        self.gateway = network.gateway(isd_as)
        self._host_key = self.cserv.provision_host_key(address)

    def connect(
        self,
        destination: IsdAs,
        destination_host: HostAddr,
        bandwidth: float,
        auto_renew: bool = True,
    ) -> ColibriSocket:
        """Request an EER to a remote host and wrap it in a socket.

        The request is MAC'd under the host's provisioned key, so the
        CServ can attribute it with certainty before applying per-host
        policy.  Raises :class:`~repro.errors.NoPathError` when no SegR
        chain exists yet (the ASes involved must reserve segments first)
        and :class:`~repro.errors.InsufficientBandwidth` when admission
        denies the request.
        """
        from repro.crypto.mac import mac

        payload = self.cserv._host_request_bytes(
            self.address, destination, destination_host, bandwidth
        )
        handle = self.cserv.request_eer(
            self.address,
            destination,
            destination_host,
            bandwidth,
            tag=mac(self._host_key, payload),
        )
        return ColibriSocket(self, handle, auto_renew=auto_renew)

    def estimate_bandwidth_for(self, bitrate: float, headroom: float = 1.1) -> float:
        """Heuristic from §3.3: base the request on expected traffic
        (e.g. a video stream's known bitrate) plus protocol headroom."""
        if bitrate <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate}")
        return bitrate * headroom


def establish_bidirectional(
    network: ColibriNetwork,
    host_a: "EndHost",
    host_b: "EndHost",
    bandwidth_ab: float,
    bandwidth_ba: float = None,
    auto_renew: bool = True,
):
    """A socket pair for two-way guaranteed traffic.

    Reservations are strictly unidirectional (§3.3: "some ASes mainly
    send traffic […] others predominantly receive") — small replies
    normally ride best effort.  When both directions carry real volume
    (VoIP, interactive video), each side opens its own EER; this helper
    pairs them.  Asymmetric sizing is the common case, e.g. a thin
    uplink against a fat downlink.

    Requires SegR chains in *both* directions.  Returns
    ``(socket_ab, socket_ba)``.
    """
    if bandwidth_ba is None:
        bandwidth_ba = bandwidth_ab
    socket_ab = host_a.connect(
        host_b.isd_as, host_b.address, bandwidth_ab, auto_renew=auto_renew
    )
    try:
        socket_ba = host_b.connect(
            host_a.isd_as, host_a.address, bandwidth_ba, auto_renew=auto_renew
        )
    except ColibriError:
        # The forward EER simply expires (§4.2: no early removal), but
        # uninstalling at the gateway stops traffic immediately.
        host_a.gateway.uninstall(socket_ab.handle.reservation_id)
        raise
    return socket_ab, socket_ba
