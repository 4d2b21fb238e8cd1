"""Micro-benchmarks of the cryptographic primitives.

Context for every data-plane number in Figs. 5/6: the per-packet costs
decompose into these operations.  The paper's prototype uses AES-NI
(~100M ops/s/core); our keyed-BLAKE2s substitution runs at Python speed,
which is exactly the ~10^3x scale factor between our kpps and the
paper's Mpps (DESIGN.md §2).

The prehashed-context rows quantify the batch fast path's core trick:
paying the per-key BLAKE2s key schedule once (at install or on a σ-cache
hit) and cloning the hash state per message, versus re-keying on every
MAC.  The 16-hop stamp row is the exact inner loop of Fig. 5's
worst-case column.
"""

from __future__ import annotations

import pytest

from _helpers import quick_mode, report, report_json, throughput
from repro.crypto import aead_open, aead_seal, mac, prf, truncated_mac
from repro.crypto import native
from repro.crypto.drkey import DrkeyDeriver
from repro.crypto.mac import KeyedMacContext
from repro.dataplane.hvf import (
    burst_stamper,
    eer_hvf,
    eer_hvf_message,
    hop_authenticator,
    segment_token,
    sigma_schedule,
    sigma_states,
    stamp_hvfs,
)
from repro.packets.fields import EerInfo, ResInfo, Timestamp
from repro.reservation.ids import ReservationId
from repro.topology.addresses import HostAddr, IsdAs
from repro.util.clock import SimClock

SRC = IsdAs.parse("1-ff00:0:110")
KEY = b"k" * 16
RES_INFO = ResInfo(
    reservation=ReservationId(SRC, 7), bandwidth=1e9, expiry=1e6, version=1
)
EER = EerInfo(HostAddr(1), HostAddr(2))
TS = Timestamp(123456, 0)
SEALED = aead_seal(KEY, b"sigma" * 3)

# The Fig. 5 worst-case inner loop: 16 on-path σs, one shared message.
SIGMAS_16 = tuple(bytes([i + 1]) * 16 for i in range(16))
STATES_16 = sigma_states(SIGMAS_16)
CTX = KeyedMacContext(KEY)
MSG = eer_hvf_message(TS, 600)


@pytest.mark.benchmark(group="crypto")
def test_crypto_micro(benchmark):
    deriver = DrkeyDeriver(SRC, SimClock(0.0), seed=b"seed" * 4)
    operations = {
        "PRF (16 B out)": lambda: prf(KEY, b"input data"),
        "MAC (full)": lambda: mac(KEY, b"a control payload of usual size" * 2),
        "MAC (truncated, Eq.3/6)": lambda: truncated_mac(KEY, b"hdr" * 10),
        "DRKey derive K_{A->B}": lambda: deriver.as_key(b"AS-B"),
        "SegR token (Eq. 3)": lambda: segment_token(KEY, RES_INFO, 2, 3),
        "HopAuth (Eq. 4)": lambda: hop_authenticator(KEY, RES_INFO, EER, 2, 3),
        "EER HVF (Eq. 6)": lambda: eer_hvf(KEY, TS, 600),
        "EER HVF (prehashed ctx)": lambda: CTX.truncated(MSG),
        "16-hop stamp (prehashed)": lambda: stamp_hvfs(STATES_16, MSG),
        "AEAD seal (Eq. 5)": lambda: aead_seal(KEY, b"sigma" * 3),
        "AEAD open (Eq. 5)": lambda: aead_open(KEY, SEALED),
    }
    duration = 0.02 if quick_mode() else 0.1
    lines = [f"{'operation':<26} | {'ops/s':>12}"]
    rates = {}
    json_rows = []
    # Best-of sampling (as in fig6's router_pps): host scheduler noise
    # is one-sided, so the max over a few draws is the stable estimate.
    # The measurement duration is part of the config so bench_regress
    # only ever compares quick-mode runs against quick-mode history and
    # full runs against full history — its documented contract, which
    # the bare {"operation": ...} config silently violated.
    for name, op in operations.items():
        rate = max(throughput(op, duration=duration) for _ in range(3))
        rates[name] = rate
        lines.append(f"{name:<26} | {rate:>12,.0f}")
        json_rows.append(
            {"config": {"operation": name, "duration": duration}, "pps": round(rate, 1)}
        )

    # Native-kernel rows, when the cffi backend is loaded: the same
    # 16-hop stamp through each amortization tier — one C call per
    # packet (schedule block), per single-reservation burst
    # (stamp_many), and per mixed burst (scatter).  Separate configs
    # keyed by backend so the regression gate never compares across
    # backends.
    if native.available():
        schedule = sigma_schedule(SIGMAS_16)
        stamper = burst_stamper(slots=64)
        messages = b"".join(
            eer_hvf_message(Timestamp(123456, seq), 600) for seq in range(64)
        )
        stamper.reserve(64)
        for p in range(64):
            stamper.scheds[p] = schedule._scatter
            stamper.counts[p] = schedule.count
            stamper.offsets[p] = p * 64  # 16 hops x 4 B per packet row
        stamper.messages[:] = messages

        def stamp_many_64():
            schedule.stamp_many_flat(messages, len(MSG), 64)

        def scatter_64():
            stamper.stamp_flat(64, len(MSG), 64 * 64)

        native_rows = {
            "16-hop stamp (native)": (
                lambda: schedule.stamp_flat(MSG), 1
            ),
            "16-hop stamp (native x64)": (stamp_many_64, 64),
            "16-hop stamp (scatter x64)": (scatter_64, 64),
        }
        for name, (op, per_call) in native_rows.items():
            rate = max(throughput(op, duration=duration) for _ in range(3)) * per_call
            rates[name] = rate
            lines.append(f"{name:<26} | {rate:>12,.0f}")
            json_rows.append(
                {
                    "config": {
                        "operation": name,
                        "backend": "native",
                        "duration": duration,
                    },
                    "pps": round(rate, 1),
                }
            )
        # The kernel's whole reason to exist: one C call per packet (or
        # burst) must beat the per-hop hashlib clone loop.
        assert rates["16-hop stamp (native)"] > rates["16-hop stamp (prehashed)"]
        assert rates["16-hop stamp (native x64)"] >= rates["16-hop stamp (native)"]
    report("crypto_micro", "Cryptographic primitive rates (one core)", lines)
    report_json("crypto_micro", "crypto_primitive_rates", json_rows)

    # Sanity ordering: Eq. 6 (one truncated MAC over 12 bytes) must be
    # the cheapest of the protocol operations; Eq. 4 costs about one MAC.
    assert rates["EER HVF (Eq. 6)"] >= rates["HopAuth (Eq. 4)"] * 0.8
    assert rates["AEAD seal (Eq. 5)"] < rates["MAC (full)"]
    # The batch fast path's premise: cloning a prehashed state beats
    # re-running the key schedule.
    assert rates["EER HVF (prehashed ctx)"] > rates["EER HVF (Eq. 6)"]
    benchmark(operations["EER HVF (Eq. 6)"])
