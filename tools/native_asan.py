#!/usr/bin/env python
"""Run the native kernel under AddressSanitizer and UBSan (``make native-asan``).

``repro.crypto.native`` hands C the addresses of buffers Python owns; a
wrong index there corrupts the interpreter's heap instead of raising.
This tool compiles ``native._SOURCE`` together with a generated C driver
using ``gcc -fsanitize=address,undefined -fno-sanitize-recover=all`` and
runs it, twice: as shipped (AVX2 lanes where the CPU has them) and with
``-DCOLIBRI_SCALAR`` (the scalar fallback over the same schedule layout).

Every buffer in the driver is ``malloc``'d at its exact size, so one byte
past either end aborts the run.  Expected values come from the Python
side — hashlib for the MACs, the ``COLIBRI_NATIVE=0`` bodies of
``DuplicateSuppressor`` / ``OveruseFlowDetector`` for the tables:

* Eq. (6) verify (good tag, bad tag) and ``colibri_stamp_t`` /
  ``_many_t`` / ``_scatter_t`` over 1, 8, 9 and 16 hops;
* ``colibri_hop`` over a script of fresh, repeated and forged packets for
  ``hashes`` 1…8, power-of-two and odd ``bits`` (4,999 and 1,000) and
  sketches from 1x1 to 1024x6 — every return value, the final filter
  bytes and the final counts — with a rotation and a roll half way: the
  old buffers are freed and the struct re-bound to fresh ones, so a write
  through a stale pointer aborts;
* the refused inputs — zero ``bits``, ``bits`` past the buffer, a cell
  past ``ncounts`` — answered with -1, and a 17-byte tag answered as a
  bad HVF, all without a write; a full 16-byte tag verifies.

Usage (from the repo root)::

    PYTHONPATH=src python tools/native_asan.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crypto import native  # noqa: E402
from repro.dataplane.duplicate import DuplicateSuppressor  # noqa: E402
from repro.dataplane.ofd import OveruseFlowDetector  # noqa: E402
from repro.util.clock import SimClock  # noqa: E402

CFLAGS = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
HOP_COUNTS = (1, 8, 9, 16)
BLOOM_CASES = [(1 << 10, hashes) for hashes in range(1, 9)] + [(4999, 7), (1000, 1), (4999, 4)]
SKETCHES = [(1, 1), (16, 4), (1024, 6)]  # width, depth; a hop case takes them in turn
MESSAGE = bytes(range(12))  # Ts || PktSize, one block
LONG_MESSAGE = bytes(range(150))  # three blocks: the cold multi-block path

PRELUDE = r"""
#include <math.h>
#include <stdio.h>
#include <stdlib.h>

static int failures;
#define CHECK(cond) \
    do { if (!(cond)) { failures++; printf("FAILED line %d: %s\n", __LINE__, #cond); } } while (0)

/* A heap copy at the exact size: ASan guards both ends. */
static void *heap(const void *src, size_t len)
{
    void *p = malloc(len ? len : 1);
    if (len) memcpy(p, src, len);
    return p;
}

static uint32_t *transposed(const uint8_t *keys, size_t nkeys)
{
    size_t groups = (nkeys + 7) / 8, i;
    uint32_t *scheds = malloc(32 * nkeys);
    uint32_t *out = malloc(groups * 256);
    for (i = 0; i < nkeys; i++)
        colibri_b2s_key_schedule(keys + 16 * i, 16, 16, scheds + 8 * i);
    colibri_b2s_transpose(scheds, nkeys, out);
    free(scheds);
    return out;
}
"""


def c_bytes(name: str, data: bytes) -> str:
    body = ",".join(str(byte) for byte in data) or "0"
    return f"static const uint8_t {name}[] = {{{body}}};\n"


def key(index: int) -> bytes:
    return hashlib.blake2s(b"key-%d" % index, digest_size=16).digest()


def mac(key_bytes: bytes, message: bytes) -> bytes:
    return hashlib.blake2s(message, key=key_bytes, digest_size=16).digest()


def identifier(index: int) -> bytes:
    return hashlib.blake2s(b"packet-%d" % index, digest_size=16).digest()


def crypto_section() -> tuple:
    """``(declarations, statements)`` for verify and the three stamps."""
    decls, body = [], []
    decls.append(c_bytes("MSG", MESSAGE) + c_bytes("LONG_MSG", LONG_MESSAGE))
    for label, message in (("MSG", MESSAGE), ("LONG_MSG", LONG_MESSAGE)):
        decls.append(c_bytes(f"MAC_{label}", mac(key(0), message)))
        body.append(f"""
    {{
        uint32_t *sched = malloc(32);
        uint8_t *key = heap(KEYS, 16), *msg = heap({label}, sizeof {label});
        uint8_t *out = malloc(16), *tag = heap(MAC_{label}, 4);
        colibri_b2s_key_schedule(key, 16, 16, sched);
        CHECK(colibri_verify((uint8_t *)sched, msg, sizeof {label}, tag, 4, out) == 1);
        CHECK(memcmp(out, MAC_{label}, 16) == 0);
        tag[3] ^= 1;
        CHECK(colibri_verify((uint8_t *)sched, msg, sizeof {label}, tag, 4, out) == 0);
        free(sched); free(key); free(msg); free(out); free(tag);
    }}""")
    decls.append(c_bytes("KEYS", b"".join(key(index) for index in range(max(HOP_COUNTS)))))
    for hops in HOP_COUNTS:
        for label, message in (("MSG", MESSAGE), ("LONG_MSG", LONG_MESSAGE)):
            tags = b"".join(mac(key(index), message)[:4] for index in range(hops))
            decls.append(c_bytes(f"TAGS_{label}_{hops}", tags))
            body.append(f"""
    {{
        uint32_t *scheds = transposed(KEYS, {hops});
        uint8_t *msgs = malloc(2 * sizeof {label}), *out = malloc(2 * {4 * hops});
        uint32_t *plan[2] = {{scheds, scheds}};
        int32_t counts[2] = {{{hops}, {hops}}};
        int64_t offsets[2] = {{{4 * hops}, 0}};
        memcpy(msgs, {label}, sizeof {label});
        memcpy(msgs + sizeof {label}, {label}, sizeof {label});
        colibri_stamp_t(scheds, {hops}, msgs, sizeof {label}, out, 4);
        CHECK(memcmp(out, TAGS_{label}_{hops}, {4 * hops}) == 0);
        memset(out, 0, 2 * {4 * hops});
        colibri_stamp_many_t(scheds, {hops}, msgs, sizeof {label}, 2, out, 4);
        CHECK(memcmp(out, TAGS_{label}_{hops}, {4 * hops}) == 0);
        CHECK(memcmp(out + {4 * hops}, TAGS_{label}_{hops}, {4 * hops}) == 0);
        memset(out, 0, 2 * {4 * hops});
        colibri_stamp_scatter_t(plan, counts, msgs, sizeof {label}, 2, out, offsets, 4);
        CHECK(memcmp(out, TAGS_{label}_{hops}, {4 * hops}) == 0);
        CHECK(memcmp(out + {4 * hops}, TAGS_{label}_{hops}, {4 * hops}) == 0);
        free(scheds); free(msgs); free(out);
    }}""")
    return decls, body


def hop_section() -> tuple:
    """``colibri_hop`` against the Python trio: one script per filter case."""
    decls, body = [], []
    messages = [struct.pack("!QI", index, 1000) for index in range(150)]
    macs = [mac(key(0), message) for message in messages]
    script = [(index * 7) % 150 for index in range(400)]  # repeats included
    forged = {index for index in range(400) if index % 13 == 5}
    decls.append(
        c_bytes("HOP_MSGS", b"".join(messages))
        + c_bytes("HOP_TAGS", b"".join(m[:4] for m in macs))
        + c_bytes("HOP_SCRIPT", bytes(script))
        + c_bytes("HOP_FORGED", bytes(index in forged for index in range(400)))
        + c_bytes("HOP_WIDE", macs[149] + b"\0")  # the whole MAC as a tag, and one byte more
    )
    for case, (bits, hashes) in enumerate(BLOOM_CASES):
        width, depth = SKETCHES[case % len(SKETCHES)]
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes)
        ofd = OveruseFlowDetector(width=width, depth=depth)
        threshold = ofd.window * ofd.overuse_factor
        flows = [ofd.cells_for(b"flow-%d" % flow) for flow in range(5)]
        for packet in script[:40]:  # the previous window already holds some of them
            suppressor.check_and_insert(macs[packet], 0.0)
        suppressor._rotate(1.0)
        previous = bytes(suppressor._previous._array)
        outcomes, now = [], 1.0
        for step, packet in enumerate(script):
            if step == 200:  # the driver frees and re-binds all three buffers here
                now = 2.5
                suppressor._rotate(now)
                ofd._roll(now)
            cells = flows[packet % 5]
            if step in forged:
                outcomes.append(0)
            elif not suppressor.check_and_insert(macs[packet], now):
                outcomes.append(1)
            else:
                ofd.observe(b"flow-%d" % (packet % 5), 1000, 8e4, now, cells)
                outcomes.append(3 if min(ofd._counts[cell] for cell in cells) > threshold else 2)
        assert {0, 1, 2, 3} <= set(outcomes), (bits, hashes, set(outcomes))
        decls.append(
            c_bytes(f"PREV_{case}", previous)
            + c_bytes(f"WANT_{case}", bytes(suppressor._current._array))
            + c_bytes(f"WANT_PREV_{case}", bytes(suppressor._previous._array))
            + c_bytes(f"OUTCOMES_{case}", bytes(outcomes))
            + f"static const uint32_t CELLS_{case}[] = {{{','.join(str(c) for f in flows for c in f)}}};\n"
            + f"static const double COUNTS_{case}[] = {{{','.join(repr(c) for c in ofd._counts)}}};\n"
        )
        ncounts = width * depth
        body.append(f"""
    {{
        size_t nbytes = sizeof PREV_{case}, p;
        colibri_police_t *police = calloc(1, sizeof *police);
        uint32_t *sched = malloc(32);
        uint8_t *key = heap(KEYS, 16);
        uint8_t *previous = heap(PREV_{case}, nbytes);
        colibri_b2s_key_schedule(key, 16, 16, sched);
        police->current = calloc(nbytes, 1); police->previous = previous; police->nbytes = nbytes;
        police->bits = {bits}; police->hashes = {hashes};
        police->counts = calloc({ncounts}, sizeof(double)); police->ncounts = {ncounts};
        police->threshold = {threshold!r};
        for (p = 0; p < 400; p++) {{
            uint8_t *msg = heap(HOP_MSGS + 12 * HOP_SCRIPT[p], 12);
            uint8_t *tag = heap(HOP_TAGS + 4 * HOP_SCRIPT[p], 4);
            uint32_t *cells = heap(CELLS_{case} + {depth} * (HOP_SCRIPT[p] % 5), {4 * depth});
            if (p == 200) {{   /* rotation and roll: old buffers gone, struct re-bound */
                free(previous); free(police->counts);
                previous = police->current;
                police->previous = previous;
                police->current = calloc(nbytes, 1);
                police->counts = calloc({ncounts}, sizeof(double));
            }}
            tag[0] ^= HOP_FORGED[p];
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, tag, 4, cells, {depth}, {1000 * 8 / 8e4!r})
                  == OUTCOMES_{case}[p]);
            free(msg); free(tag); free(cells);
        }}
        CHECK(memcmp(police->current, WANT_{case}, nbytes) == 0);
        CHECK(memcmp(previous, WANT_PREV_{case}, nbytes) == 0);
        CHECK(memcmp(police->counts, COUNTS_{case}, sizeof COUNTS_{case}) == 0);
        {{   /* refused, or a tag no MAC can match: nothing written */
            uint8_t *msg = heap(HOP_MSGS + 12 * 149, 12), *wide = heap(HOP_WIDE, 17);
            uint32_t *cells = heap(CELLS_{case}, {4 * depth});
            uint32_t past[] = {{0, {ncounts}}}, far[] = {{UINT32_MAX}};
            uint8_t mac_before[16];
            uint64_t bits = police->bits;
            memcpy(mac_before, police->mac, 16);
            police->bits = 0;
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, cells, {depth}, 1.0) == -1);
            police->bits = 8 * nbytes + 1;
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, cells, {depth}, 1.0) == -1);
            police->bits = UINT64_MAX;
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, cells, {depth}, 1.0) == -1);
            police->bits = bits;
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, past, 2, 1.0) == -1);
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, far, 1, 1.0) == -1);
            CHECK(memcmp(police->mac, mac_before, 16) == 0);
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 17, cells, {depth}, 1.0) == 0);
            CHECK(memcmp(police->current, WANT_{case}, nbytes) == 0);
            CHECK(memcmp(police->counts, COUNTS_{case}, sizeof COUNTS_{case}) == 0);
            /* the untruncated MAC is a tag too; with no cells the estimate is +inf */
            CHECK(colibri_hop(police, (uint8_t *)sched, msg, 12, wide, 16, far, 0, 1.0)
                  == HOP_WIDE_OUTCOME_{case});
            free(msg); free(wide); free(cells);
        }}
        free(police->current); free(previous); free(police->counts);
        free(police); free(sched); free(key);
    }}""")
        # Message 149 once more, whole MAC as the tag, no cells: a duplicate if the
        # script's second half already carried it, else fresh with an infinite estimate.
        fresh = suppressor.check_and_insert(macs[149], now)
        decls.append(f"enum {{ HOP_WIDE_OUTCOME_{case} = {3 if fresh else 1} }};\n")
    return decls, body


def driver_source() -> str:
    os.environ["COLIBRI_NATIVE"] = "0"  # expected tables come from the Python bodies
    native.reset_for_tests()
    decls, body = [], []
    for section in (crypto_section, hop_section):
        section_decls, section_body = section()
        decls += section_decls
        body += section_body
    return (
        native._SOURCE + PRELUDE + "".join(decls)
        + "\nint main(void)\n{" + "".join(body)
        + '\n    printf("%s\\n", failures ? "native-asan: FAILED" : "native-asan: ok");'
        + "\n    return failures != 0;\n}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write driver.c and the binaries here instead of a temp dir")
    args = parser.parse_args(argv)
    compiler = shutil.which(os.environ.get("CC", "gcc"))
    if compiler is None:
        print("native-asan: no C compiler found", file=sys.stderr)
        return 2
    workdir = Path(args.keep or tempfile.mkdtemp(prefix="colibri-asan-"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        source = workdir / "driver.c"
        source.write_text(driver_source())
        for label, defines in (("avx2-if-present", []), ("scalar", ["-DCOLIBRI_SCALAR"])):
            binary = workdir / f"driver-{label}"
            subprocess.run(
                [compiler, *CFLAGS, *defines, "-o", str(binary), str(source), "-lm"], check=True
            )
            print(f"[{label}] ", end="", flush=True)
            status = subprocess.run([str(binary)]).returncode
            if status:
                return status
        return 0
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
