"""Standalone probes: layers whose boundary the driver cannot wrap.

Each probe times one public function on inputs taken from the live
workload and returns microseconds per call (best of a few short rounds,
so a probe costs a fraction of a second).  ``calib_prf_ops_s`` is the
host-speed calibration row stored with every result: the keyed-BLAKE2s
rate of plain ``hashlib``, which no change to the repository can move.
"""
# A wall-clock benchmark: the injected-Clock rule does not apply here.
# colibri-lint: disable-file=CL001

from __future__ import annotations

import hashlib
import time

from repro.crypto.aead import aead_open, aead_seal
from repro.crypto.mac import mac
from repro.dataplane import hvf
from repro.dataplane.gateway import split_batch
from repro.packets.colibri import ColibriPacket
from repro.util.memsize import deep_size

_KEY = bytes(range(16))


def per_call_us(fn, calls: int = 2000, rounds: int = 5) -> float:
    """Microseconds per call of ``fn``: the fastest of ``rounds`` rounds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter_ns() - start)
    return best / calls / 1e3


#: What :func:`host_speed_ns` reads on the reference host: the seed
#: commit's development VM between its slow spells.  It only fixes the
#: scale of the reported figures; comparisons do not depend on it.
REFERENCE_SPEED_NS = 5_000_000


class _Counter:
    def __init__(self):
        self.seen = {}

    def step(self, index: int) -> int:
        tag = hashlib.blake2s(index.to_bytes(8, "big"), key=_KEY, digest_size=16).digest()
        self.seen[tag[:4]] = index
        return self.seen.get(tag[:4])


def host_speed_ns(steps: int = 5000) -> int:
    """Nanoseconds this host needs for a fixed loop of method calls,
    dict updates and keyed hashes (about 5 ms): a sample of host speed
    taken next to each timed block."""
    counter = _Counter()
    step = counter.step
    start = time.perf_counter_ns()
    for index in range(steps):
        step(index)
    return time.perf_counter_ns() - start


def reference_scale(before_ns: int) -> float:
    """Factor that turns a time measured between the sample
    ``before_ns`` and one taken now into time on the reference host
    (below 1 while the host is slow)."""
    return REFERENCE_SPEED_NS / ((before_ns + host_speed_ns()) / 2)


def calib_prf_ops_s() -> float:
    message = bytes(12)
    blake2s = hashlib.blake2s
    return 1e6 / per_call_us(
        lambda: blake2s(message, key=_KEY, digest_size=16).digest(), calls=20000
    )


def crypto_probes(net) -> dict:
    """Workload-independent crypto floors (Eq. 5/6 primitives, DRKey)."""
    hop_auths = [bytes([index]) * 16 for index in range(16)]
    states = hvf.sigma_schedule(hop_auths) or hvf.sigma_states(hop_auths)
    messages = [index.to_bytes(12, "big") for index in range(64)]
    stamped = len(hop_auths) * len(messages)
    ases = net.ases()
    now = net.clock.now()
    return {
        "crypto.calib_prf_ops_s": calib_prf_ops_s(),
        "crypto.stamp_hvfs_batch.us_per_hvf": per_call_us(
            lambda: hvf.stamp_hvfs_batch(states, messages), calls=50
        )
        / stamped,
        "crypto.aead.seal_open.us": per_call_us(
            lambda: aead_open(_KEY, aead_seal(_KEY, _KEY))
        ),
        "crypto.mac.us": per_call_us(lambda: mac(_KEY, bytes(64))),
        "crypto.keyserver.fetch_key.us": per_call_us(
            lambda: net.directory.fetch_key(ases[-1], ases[0], now)
        ),
    }


def packet_probes(net, handle, payload: bytes) -> dict:
    """Serialization and the router's crypto-only validation, on one
    freshly stamped burst of the workload's own EER (eight packets: a
    1 Mbps flow's token bucket covers no more at 1,000 B each)."""
    gateway = net.gateway(handle.hops[0].isd_as)
    router = net.router(handle.hops[0].isd_as)
    net.advance(1.0)  # refill the flow's token bucket
    packets, _ = split_batch(
        gateway.send_batch([(handle.reservation_id, payload)] * 8)
    )
    packet = packets[0]
    wire = packet.to_bytes()
    return {
        "packets.colibri.to_bytes.us": per_call_us(packet.to_bytes),
        "packets.colibri.from_bytes.us": per_call_us(
            lambda: ColibriPacket.from_bytes(wire)
        ),
        "dataplane.router.validate_batch.us_per_pkt": per_call_us(
            lambda: router.validate_batch(packets), calls=200
        )
        / len(packets),
    }


def false_positive_ratio(net) -> float:
    """The fullest duplicate filter's chance of dropping a fresh packet
    (counts the set bits of every router's filters: ~0.5 s on 16 ASes)."""
    return max(
        net.router(isd_as).duplicates.false_positive_rate() for isd_as in net.ases()
    )


def store_bytes_per_eer(net, isd_as) -> float:
    """Deep size of one AS's reservation store over its live EERs."""
    store = net.cserv(isd_as).store
    return deep_size(store) / max(1, store.eer_count())
