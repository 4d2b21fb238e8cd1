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
* Bloom test-and-set for ``hashes`` 1…8 over power-of-two and odd
  ``bits`` (4,999 and 1,000), verdicts and final filter bytes;
* sketch add at the first and the last cell, and the minimum returned;
* the refused inputs — a 15- and a 17-byte identifier, zero ``bits``,
  ``bits`` past the buffer, a cell past the counts — answered with the
  error value and no write.

Usage (from the repo root)::

    PYTHONPATH=src python tools/native_asan.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
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


def bloom_section() -> tuple:
    decls, body = [], []
    packets = [identifier(index % 150) for index in range(400)]  # repeats included
    decls.append(c_bytes("IDS", b"".join(packets)))
    for case, (bits, hashes) in enumerate(BLOOM_CASES):
        suppressor = DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes)
        for packet in packets[:40]:  # the previous window already holds some of them
            suppressor.check_and_insert(packet, 0.0)
        suppressor._rotate(1.0)
        previous = bytes(suppressor._previous._array)
        verdicts = bytes(suppressor.check_and_insert(packet, 1.0) for packet in packets)
        decls.append(
            c_bytes(f"PREV_{case}", previous)
            + c_bytes(f"WANT_{case}", bytes(suppressor._current._array))
            + c_bytes(f"VERDICTS_{case}", verdicts)
        )
        body.append(f"""
    {{
        size_t nbytes = sizeof PREV_{case}, p;
        uint8_t *current = calloc(nbytes, 1), *previous = heap(PREV_{case}, nbytes);
        for (p = 0; p < {len(packets)}; p++) {{
            uint8_t *id = heap(IDS + 16 * p, 16);
            CHECK(colibri_bloom_check(current, previous, nbytes, {bits}, {hashes}, id, 16)
                  == VERDICTS_{case}[p]);
            free(id);
        }}
        CHECK(memcmp(current, WANT_{case}, nbytes) == 0);
        CHECK(memcmp(previous, PREV_{case}, nbytes) == 0);
        {{   /* refused: nothing read beyond, nothing written */
            uint8_t *id = heap(IDS, 15), *wide = heap(IDS, 17);
            CHECK(colibri_bloom_check(current, previous, nbytes, {bits}, {hashes}, id, 15) == -1);
            CHECK(colibri_bloom_check(current, previous, nbytes, {bits}, {hashes}, wide, 17) == -1);
            CHECK(colibri_bloom_check(current, previous, nbytes, 0, {hashes}, wide, 16) == -1);
            CHECK(colibri_bloom_check(current, previous, nbytes, 8 * nbytes + 1, {hashes}, wide, 16) == -1);
            CHECK(colibri_bloom_check(current, previous, nbytes, UINT64_MAX, {hashes}, wide, 16) == -1);
            CHECK(memcmp(current, WANT_{case}, nbytes) == 0);
            free(id); free(wide);
        }}
        free(current); free(previous);
    }}""")
    return decls, body


def sketch_section() -> tuple:
    body = []
    for width, depth in [(1, 1), (16, 4), (1024, 6)]:
        ofd = OveruseFlowDetector(width=width, depth=depth, overuse_factor=1e9)
        last = width * depth - 1
        # Distinct cells per call, so the minimum returned is the smallest final count.
        script = [(0,), (last,), tuple(row * width for row in range(depth)), (last, 0)[: last + 1]]
        lines = []
        for cells in script:
            ofd.observe(b"flow", 1000, 4e6, 0.0, cells)
            estimate = min(ofd._counts[cell] for cell in cells)
            array = ",".join(str(cell) for cell in cells)
            lines.append(f"""
        {{
            uint32_t want[] = {{{array}}};
            uint32_t *cells = heap(want, sizeof want);
            CHECK(colibri_sketch_add(counts, {last + 1}, cells, {len(cells)}, 0.002) == {estimate!r});
            free(cells);
        }}""")
        want = ",".join(repr(count) for count in ofd._counts)
        body.append(f"""
    {{
        static const double want_counts[] = {{{want}}};
        double *counts = calloc({last + 1}, sizeof(double));
        uint32_t past[] = {{0, {last + 1}}}, far[] = {{UINT32_MAX}};
        {"".join(lines)}
        CHECK(memcmp(counts, want_counts, sizeof want_counts) == 0);
        CHECK(isnan(colibri_sketch_add(counts, {last + 1}, past, 2, 1.0)));
        CHECK(isnan(colibri_sketch_add(counts, {last + 1}, far, 1, 1.0)));
        CHECK(isinf(colibri_sketch_add(counts, {last + 1}, far, 0, 1.0)));
        CHECK(memcmp(counts, want_counts, sizeof want_counts) == 0);
        free(counts);
    }}""")
    return [], body


def driver_source() -> str:
    os.environ["COLIBRI_NATIVE"] = "0"  # expected tables come from the Python bodies
    native.reset_for_tests()
    decls, body = [], []
    for section in (crypto_section, bloom_section, sketch_section):
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
