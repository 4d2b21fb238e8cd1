#!/usr/bin/env python
"""Gate the disabled-path cost of the ``@profiled`` sites on the burst path.

``ColibriGateway.send_batch`` runs under four ``@profiled`` wrappers
(the entry point and its plan, stamp and emit steps).  With no profiler
installed each wrapper is one module-global ``None`` check; this tool
measures that promise and fails when it breaks, timing three modes over
identical pregenerated bursts:

* **baseline** — ``ColibriGateway.send_batch.__wrapped__``: the
  undecorated entry point (its three steps still pass through their own
  wrappers — they are the cost being bounded);
* **disabled** — ``gateway.send_batch`` with no profiler installed (the
  shipped default everyone who never profiles runs);
* **enabled** — ``gateway.send_batch`` under ``profiling()``, for the
  informational overhead figure.

Rounds interleave the modes (baseline, disabled, enabled, repeat) so a
frequency ramp or a noisy neighbour hits all three equally, and each
mode keeps its best round — shared-host noise only ever slows a sample
down.  The gate: disabled throughput must stay within ``--threshold``
(default 2%) of baseline.  The enabled figure is reported but not
gated — profiling costs what it costs, by design, and only when asked
for.

Usage::

    python tools/obs_overhead.py [--rounds 5]
        [--duration 0.08] [--threshold 0.02]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import figures  # noqa: E402
from repro.dataplane.gateway import ColibriGateway  # noqa: E402
from repro.obs.profile import profiling  # noqa: E402

#: The Fig. 5 gateway this gate times: 2^10 EERs on 4-AS paths.
PATH_LENGTH = 4
RESERVATIONS = 2**10
BATCH = 64


def make_batches(ids, rng, count, batch=BATCH):
    n = len(ids)
    return [
        [(ids[rng.randrange(n)], b"") for _ in range(batch)]
        for _ in range(count)
    ]


def timed_pps(send_one, gateway, batches, duration):
    """Sustained throughput of ``send_one(requests)`` cycling over the
    pregenerated bursts, one virtual microsecond per burst (Ts
    uniqueness; see ``_burst_op`` in benchmarks/figures.py)."""
    send_one(batches[0])  # warm up
    advance = gateway.clock.advance
    count = len(batches)
    index = 0
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < duration:
        send_one(batches[index])
        advance(1e-6)
        done += BATCH
        index += 1
        if index == count:
            index = 0
    return done / (time.perf_counter() - start)


def measure(rounds: int, duration: float) -> dict:
    """Best-of-``rounds`` pps per mode, rounds interleaved."""
    gateway, ids = figures.stamping_gateway(PATH_LENGTH, RESERVATIONS)
    batches = make_batches(ids, random.Random(7), count=256)
    undecorated = ColibriGateway.send_batch.__wrapped__

    def baseline(requests):
        undecorated(gateway, requests)

    modes = [
        ("baseline", baseline, nullcontext),
        ("disabled", gateway.send_batch, nullcontext),
        ("enabled", gateway.send_batch, profiling),
    ]
    best = {name: 0.0 for name, _, _ in modes}
    # Saturate the CPU governor and every lazy cache before the first
    # measured sample, then rotate which mode goes first each round —
    # otherwise a frequency ramp systematically flatters whichever mode
    # happens to run last.
    timed_pps(gateway.send_batch, gateway, batches, duration)
    for round_index in range(rounds):
        for offset in range(len(modes)):
            name, send_one, context = modes[(round_index + offset) % len(modes)]
            with context():
                pps = timed_pps(send_one, gateway, batches, duration)
            if pps > best[name]:
                best[name] = pps
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--duration", type=float, default=0.08,
                        help="seconds per timing sample")
    parser.add_argument(
        "--threshold", type=float, default=0.02,
        help="maximum tolerated disabled-path fractional regression",
    )
    args = parser.parse_args(argv)

    best = measure(args.rounds, args.duration)
    disabled_ratio = best["disabled"] / best["baseline"]
    enabled_ratio = best["enabled"] / best["baseline"]
    print(f"{'mode':<10} | {'best pps':>12} | {'vs baseline':>11}")
    for name in ("baseline", "disabled", "enabled"):
        ratio = best[name] / best["baseline"]
        print(f"{name:<10} | {best[name]:>12.1f} | {ratio:>10.3f}x")
    print(
        f"enabled-mode profiling overhead (informational): "
        f"{(1.0 - enabled_ratio) * 100.0:+.1f}%"
    )
    if disabled_ratio < 1.0 - args.threshold:
        print(
            f"obs-overhead: unprofiled send_batch at {disabled_ratio:.3f}x of "
            f"baseline exceeds the {args.threshold:.0%} budget — the "
            f"profiler-disabled burst path regressed",
            file=sys.stderr,
        )
        return 1
    print(
        f"obs-overhead: unprofiled send_batch within "
        f"{args.threshold:.0%} of baseline — OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
