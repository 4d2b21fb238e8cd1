"""Data-plane memory footprints: the statelessness claim, measured.

§4.6: the border router needs *no per-reservation state* — "all
necessary keys can be derived on the fly from a single AS-specific
secret value".  This bench measures actual Python heap growth per
component as reservations scale, against the IntServ baseline whose
routers grow linearly:

* border router: flat (only fixed-size filters/sketches);
* gateway: linear in reservations it originates (expected and local:
  a source AS naturally knows its own reservations, §7.1);
* IntServ router: linear at *every* hop — the design Colibri retires.
"""

from __future__ import annotations

import gc

import pytest

from _helpers import quick_mode, report
from test_fig5_gateway import build_gateway
from repro.baselines import IntServNetwork
from repro.crypto.drkey import DrkeyDeriver
from repro.dataplane.hvf import ColibriKeys
from repro.dataplane.router import BorderRouter
from repro.packets.fields import EerInfo
from repro.reservation import (
    E2EReservation,
    E2EVersion,
    ReservationId,
    ReservationStore,
)
from repro.topology import IsdAs
from repro.topology.addresses import HostAddr
from repro.topology.graph import NO_INTERFACE
from repro.topology.segments import HopField
from repro.util.clock import SimClock
from repro.util.memsize import deep_size
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
SCALES = [0, 1000, 10_000]
STORE_SCALES = [2_000, 10_000] if quick_mode() else [10_000, 100_000]


def router_size_at(reservations: int) -> int:
    """A border router after 'learning about' N reservations — which it
    never does: its size is whatever its fixed-size structures cost."""
    clock = SimClock(0.0)
    keys = ColibriKeys(DrkeyDeriver(IsdAs(1, BASE + 1), clock, seed=b"m" * 16))
    router = BorderRouter(IsdAs(1, BASE + 1), keys, clock)
    # The router sees packets from N reservations; it stores nothing
    # about them (the OFD sketch and Bloom filters are fixed-size).
    return deep_size(router)


def gateway_size_at(reservations: int) -> int:
    if reservations == 0:
        gateway, _ = build_gateway(4, 1)
        gateway.uninstall(gateway.known_reservations()[0])
        return deep_size(gateway)
    gateway, _ = build_gateway(4, reservations)
    return deep_size(gateway)


def build_store(live: int, near_fraction: float = 0.0) -> ReservationStore:
    """A CServ reservation store holding ``live`` EERs.

    Payload objects (``eer_info``, hops) are shared across records so the
    measured growth is the store's own per-EER state — record, version,
    expiry-wheel entry — not duplicated request payloads.
    ``near_fraction`` of the population expires at t=10 (sweepable), the
    rest is spread over ~50k expiry buckets far in the future.
    """
    store = ReservationStore()
    src = IsdAs(1, BASE + 1)
    info = EerInfo(HostAddr(1), HostAddr(2))
    hops = (
        HopField(src, NO_INTERFACE, 1),
        HopField(IsdAs(1, BASE + 2), 1, NO_INTERFACE),
    )
    near = int(live * near_fraction)
    for i in range(live):
        expiry = 10.0 if i < near else 1000.0 + (i % 50_000)
        store.add_eer(
            E2EReservation(
                ReservationId(src, i + 1),
                info,
                hops,
                (),
                E2EVersion(version=1, bandwidth=1.0, expiry=expiry),
            )
        )
    return store


def store_size_at(reservations: int) -> int:
    return deep_size(build_store(reservations))


def intserv_size_at(reservations: int) -> int:
    path = [IsdAs(1, BASE + i) for i in range(1, 5)]
    net = IntServNetwork(path, capacity=gbps(10_000))
    for _ in range(reservations):
        net.reserve(path[0], path[-1], mbps(1))
    return deep_size(net.routers[path[0]])


@pytest.mark.benchmark(group="memory")
def test_memory_footprints(benchmark):
    gc.collect()
    lines = [
        f"{'reservations':>13} | {'Colibri BR':>11} | {'Colibri GW':>11} | "
        f"{'CServ store':>11} | {'IntServ router':>14}"
    ]
    br_sizes, gw_sizes, store_sizes, intserv_sizes = [], [], [], []
    for scale in SCALES:
        br = router_size_at(scale)
        gw = gateway_size_at(scale)
        cs = store_size_at(scale)
        rsvp = intserv_size_at(scale)
        br_sizes.append(br)
        gw_sizes.append(gw)
        store_sizes.append(cs)
        intserv_sizes.append(rsvp)
        lines.append(
            f"{scale:>13} | {br / 1024:9.0f}KB | {gw / 1024:9.0f}KB | "
            f"{cs / 1024:9.0f}KB | {rsvp / 1024:12.0f}KB"
        )
    lines.append("(deep heap size per component; BR flat = §4.6 statelessness)")
    report("memory_footprint", "Per-component memory vs reservation count", lines)

    # The router is flat; IntServ routers, the gateway, and the CServ
    # store grow linearly in the reservations they legitimately own.
    assert br_sizes[-1] < br_sizes[0] * 1.2 + 64 * 1024
    assert intserv_sizes[-1] > intserv_sizes[0] * 50
    assert gw_sizes[-1] > gw_sizes[0] * 50  # expected: state lives at the source
    assert store_sizes[-1] > store_sizes[1] * 5  # linear in live EERs

    benchmark(lambda: router_size_at(0))


@pytest.mark.benchmark(group="memory")
def test_store_memory_linear_in_live(benchmark):
    """The reservation store's heap must be linear in *live* EERs.

    Two failure modes would break a million-EER deployment: superlinear
    per-EER overhead (the expiry index costing more than the records it
    indexes) and state that survives the reservations — swept EERs whose
    wheel entries or allocation rows stay behind.  Half
    the population here expires at t=10; after the sweep the store must
    shrink by roughly that half.
    """
    gc.collect()
    lines = [
        f"{'live EERs':>11} | {'store size':>11} | {'bytes/EER':>10} | "
        f"{'after sweeping half':>19}"
    ]
    per_eer = []
    for scale in STORE_SCALES:
        store = build_store(scale, near_fraction=0.5)
        gc.collect()
        before = deep_size(store)
        counts, _, _ = store.sweep_expired_details(100.0)
        assert counts["eers"] == scale // 2
        after = deep_size(store)
        per_eer.append(before / scale)
        lines.append(
            f"{scale:>11,} | {before / 1024:9.0f}KB | {before / scale:>10.0f} | "
            f"{after / 1024:17.0f}KB"
        )
        # The sweep must return the dead half's memory, not just its ids.
        assert after < before * 0.75
    lines.append("(shared payloads excluded; store-owned state only)")
    report(
        "memory_footprint_store",
        "Reservation-store memory vs live EER population",
        lines,
    )
    # Linear means flat bytes/EER across a 10x population jump.
    assert max(per_eer) < min(per_eer) * 1.5

    benchmark(lambda: build_store(1000))
