#!/usr/bin/env python
"""Run the native kernel under AddressSanitizer and UBSan (``make native-asan``).

``repro.crypto.native`` hands C the addresses of buffers Python owns; a
wrong index there corrupts the interpreter's heap instead of raising.
First the kernel (``native._SOURCE``, as shipped and with
``-DCOLIBRI_SCALAR``) and the glue (``native._GLUE``) are compiled with
``-Wall -Wextra -Werror``, so neither gains a warning.  Then this tool
compiles ``native._SOURCE`` together with a generated C driver
using ``gcc -fsanitize=address,undefined -fno-sanitize-recover=all`` and
runs it, twice: as shipped (AVX2 lanes where the CPU has them) and with
``-DCOLIBRI_SCALAR`` (the scalar fallback over the same schedule layout).

Every buffer in the driver is ``malloc``'d at its exact size, so one byte
past either end aborts the run.  Expected values come from the Python
side — hashlib for the MACs, the ``COLIBRI_NATIVE=0`` bodies of
``DuplicateSuppressor`` / ``OveruseFlowDetector`` for the tables:

* Eq. (6) verify (good tag, bad tag) and ``colibri_stamp_t`` /
  ``_many_t`` over 1, 8, 9 and 16 hops;
* ``colibri_burst`` over one 400-row script — fresh, replayed, forged,
  stale, expired, flagged and SegR packets, a flow of no bandwidth, one
  minted under the previous epoch's key, versions that drop v - 2 — in
  bursts of 0, 1, 63, 64 and 65 rows, for ``hashes`` 1…8, power-of-two
  and odd ``bits`` and sketches from 1x1 to 1024x6 and 2x8: every verdict
  byte, the duplicates' MACs, the final filters, counts and flow-table
  counters.  The driver does what Python does at each stop: ``V_REKEY``
  loads the keys, ``V_GROW`` moves the table into a fresh allocation and
  frees the old one, ``V_CELLS`` hands over the row's cells from a table
  ``cells_for`` made, and half way a due rotation and roll free and
  re-bind the filters and the sketch, so a stale pointer aborts;
* a table that must stay reachable from every flow's home slot after
  each burst and through ~400 evictions and drops at capacity 3;
* ``V_REFUSED`` for a cell outside the sketch, and -1 for a geometry that
  does not fit (zero ``bits``, ``bits`` past the buffer, ``depth`` 0 or
  9, a table not a power of two or over half full), all without a write;
* validate mode over the whole script, the filters and sketch untouched;
* four renewal rounds of four flows: after the first, the table keeps its size.

Then it builds the extension itself — the kernel's cffi module and the
glue (``native._GLUE``, CPython API: the router's whole burst in one
``burst`` call, the gateway's in one ``send`` call) — under the same
sanitizers and runs ``tests/test_router_differential.py`` (the differential
and hostile-object tests), ``test_policing_native.py -k glue`` (the
refcounts, and a GROW, REKEY and CELLS stop served in one burst) and
``tests/test_gateway_differential.py`` (the gateway's differential, its
hostile requests and refcounts) against it in a subprocess with libasan
preloaded and ``PYTHONMALLOC=malloc``, so a read past a Python object's end
aborts too.

Usage (from the repo root)::

    PYTHONPATH=src python tools/native_asan.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import sysconfig
import itertools
import os
import random
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
STRICT = ["-O2", "-Wall", "-Wextra", "-Werror"]
HOP_COUNTS = (1, 8, 9, 16)
BLOOM_CASES = [(1 << 10, hashes) for hashes in range(1, 9)] + [(4999, 7), (1000, 1), (4999, 4)]
SKETCHES = [(1, 1), (16, 4), (1024, 6), (2, 8)]  # width, depth; a case takes them in turn
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
        memcpy(msgs, {label}, sizeof {label});
        memcpy(msgs + sizeof {label}, {label}, sizeof {label});
        colibri_stamp_t(scheds, {hops}, msgs, sizeof {label}, out, 4);
        CHECK(memcmp(out, TAGS_{label}_{hops}, {4 * hops}) == 0);
        memset(out, 0, 2 * {4 * hops});
        colibri_stamp_many_t(scheds, {hops}, msgs, sizeof {label}, 2, out, 4);
        CHECK(memcmp(out, TAGS_{label}_{hops}, {4 * hops}) == 0);
        CHECK(memcmp(out + {4 * hops}, TAGS_{label}_{hops}, {4 * hops}) == 0);
        free(scheds); free(msgs); free(out);
    }}""")
    return decls, body


# -- colibri_burst: one script of rows, the Python bodies as the model ------

NOW, EXPIRY, EPOCH = 1000.0, 1100.0, 5
FRESH, OLD = 100_000_000, 200_000_000  # µs before expiry: created at NOW, and 100 s before
BURSTS = (1, 63, 64, 65, 0)  # burst sizes, in turn
DUE_FROM = 200  # the first burst starting here finds a rotation and a roll due
#: ResId index, Ver, Bw, the K_i that minted σ (0: this epoch's, 1: the last one's), ExpT
FLOWS = (
    [(0, 1, 8e6, 0, EXPIRY), (0, 2, 8e6, 0, EXPIRY), (0, 3, 8e6, 0, EXPIRY)]  # v3 drops v1
    + [(1, 1, 8e6, 1, EXPIRY), (2, 1, 2e4, 0, EXPIRY)]  # the last epoch's key; a small one
    + [(3, 1, 0.0, 0, EXPIRY), (4, 1, 8e6, 0, NOW - 1.0)]  # no bandwidth; expired
    + [(20, 1, 8e6, 1, EXPIRY), (20, 3, 8e6, 0, EXPIRY)]  # v3 drops v1 of the last epoch
    + [(5 + index, 1, 8e6, 0, EXPIRY) for index in range(9)]  # collisions and growth
)


def resid(index: int) -> bytes:
    return b"\x00\x01" + bytes(6) + index.to_bytes(4, "big")


def burst_script() -> list:
    """``(row bytes, full MAC, flow)`` for 400 packets: fresh, replayed,
    forged, stale, flagged, SegR, some at their last hop."""
    rng, rows, sequence = random.Random(7), [], [0] * len(FLOWS)
    for _ in range(400):
        draw, flow = rng.random(), rng.randrange(len(FLOWS))
        if draw < 0.1 and rows:
            rows.append(rows[rng.randrange(len(rows))])
            continue
        index, version, bandwidth, which, expiry = FLOWS[flow]
        sequence[flow] += 1
        flags = native.F_LAST if rng.random() < 0.2 else 0
        flags |= native.F_FLAGGED if 0.1 <= draw < 0.14 else native.F_PYTHON if 0.14 <= draw < 0.17 else 0
        micros = OLD if 0.17 <= draw < 0.21 else FRESH
        fields = [resid(index), bandwidth, expiry, version, 1, 2, 2, 3]
        sigma = mac(key(which), native.ROW.pack(*fields, bytes(8), 0, bytes(4), 0)[:42])
        ts = ((micros << 16) | sequence[flow]).to_bytes(8, "big")
        size = rng.randrange(100, 1500)
        full = mac(sigma, ts + size.to_bytes(4, "big"))
        tag = bytes([full[0] ^ (0.21 <= draw < 0.26)]) + full[1:4]
        rows.append((native.ROW.pack(*fields, ts, size, tag, flags), full, flow))
    return rows


def burst_model(script, bits, hashes, width, depth):
    """What colibri_burst must leave, from the Python bodies: a verdict per
    row, the filters, the counts and the table's counters and size."""
    suppressor = DuplicateSuppressor(SimClock(NOW), bits=bits, hashes=hashes)
    ofd = OveruseFlowDetector(width=width, depth=depth)
    ofd._roll(NOW)
    threshold, table, nslots = ofd.window * ofd.overuse_factor, {}, 4
    counters = dict(hits=0, misses=0, rejected_hints=0)
    codes, start, due, done = [], 0, False, False
    policed = (native.FORWARD, native.DELIVER, native.DUPLICATE, native.OVER)
    for burst in itertools.cycle(BURSTS):
        if start >= DUE_FROM and not done:
            due = done = True
        for row, full, flow in script[start : start + burst]:
            _, bandwidth, expiry, version, *_, ts, size, tag, flags = native.ROW.unpack(row)
            index, _, _, which, _ = FLOWS[flow]
            if NOW > expiry + 0.1:
                codes.append(native.EXPIRED)
            elif (int.from_bytes(ts, "big") >> 16) != FRESH:
                codes.append(native.STALE)
            elif flags & (native.F_PYTHON | native.F_FLAGGED) or due or not bandwidth > 0:
                codes.append(native.PYTHON)
                if due:  # Python's trio rotates and rolls; the driver does the same
                    suppressor._rotate(NOW)
                    ofd._roll(NOW)
                    due = False
            else:
                found = [k for k in ((index, version, EPOCH), (index, version, EPOCH - 1)) if k in table]
                good = tag == full[:4]
                counters["hits" if found else "misses"] += 1
                counters["rejected_hints"] += bool(found) and not good
                if good and not found:
                    for epoch in (EPOCH, EPOCH - 1):  # v - 2 retires before the table is judged full
                        table.pop((index, version - 2, epoch), None)
                    if nslots < 64 and 2 * (len(table) + 1) > nslots:
                        nslots *= 2
                    table[(index, version, EPOCH - which)] = row[:42]
                if not good:
                    codes.append(native.BAD_HVF)
                elif not suppressor.check_and_insert(full, NOW):
                    codes.append(native.DUPLICATE)
                else:
                    cells = ofd.cells_for(resid(index))
                    for cell in cells:
                        ofd._counts[cell] += size * 8 / bandwidth
                    over = min(ofd._counts[cell] for cell in cells) > threshold
                    codes.append(native.OVER if over else native.DELIVER if flags & native.F_LAST else native.FORWARD)
        start += burst
        if start >= len(script):
            break
    tables = (bytes(suppressor._current._array), bytes(suppressor._previous._array), ofd._counts)
    refused = next(i for i, code in enumerate(codes) if code in policed and key_of(script[i]) in table)
    return codes, tables, counters, len(table), nslots, refused


def key_of(entry) -> tuple:
    index, version, _, which, _ = FLOWS[entry[2]]
    return index, version, EPOCH - which


def new_flow_row() -> bytes:
    """An honest packet of a flow the script never sends."""
    fields = [resid(99), 8e6, EXPIRY, 1, 1, 2, 2, 3]
    sigma = mac(key(0), native.ROW.pack(*fields, bytes(8), 0, bytes(4), 0)[:42])
    ts, size = (FRESH << 16).to_bytes(8, "big"), 500
    return native.ROW.pack(*fields, ts, size, mac(sigma, ts + size.to_bytes(4, "big"))[:4], 0)


def validate_model(script) -> bytes:
    """Validate mode's verdicts: policing and bandwidth play no part."""
    codes = []
    for row, full, _ in script:
        _, _, expiry, _, *_, ts, _, tag, flags = native.ROW.unpack(row)
        if NOW > expiry + 0.1:
            codes.append(native.EXPIRED)
        elif (int.from_bytes(ts, "big") >> 16) != FRESH:
            codes.append(native.STALE)
        elif flags & (native.F_PYTHON | native.F_FLAGGED):
            codes.append(native.PYTHON)
        else:
            codes.append(native.FORWARD if tag == full[:4] else native.BAD_HVF)
    return bytes(codes)


PRELUDE_BURST = r"""
/* A fresh table of n zeroed slots, the old one freed: what Python's GROW does. */
static void grow(colibri_police_t *p, size_t n)
{
    colibri_flow_t *old = p->slots;
    colibri_flows_move(p, calloc(n, sizeof(colibri_flow_t)), n);
    free(old);
}

/* Every flow label the script sends with its cells, as cells_for gives them. */
typedef struct { uint8_t label[12]; uint32_t cells[8]; } cells_entry_t;
static const cells_entry_t *CELLS;
static size_t NCELLS, cells_served;

/* Every stored flow holds its label's cells. */
static int cells_ok(const colibri_police_t *p)
{
    size_t i, j;
    for (i = 0; i < p->nslots; i++) {
        if (!p->slots[i].used) continue;
        for (j = 0; j < NCELLS && memcmp(CELLS[j].label, p->slots[i].input, 12); j++);
        if (j == NCELLS || memcmp(CELLS[j].cells, p->slots[i].cells, 4 * p->depth)) return 0;
    }
    return 1;
}

/* What Python does when the kernel stops for the table, row `row`: 1 if it did. */
static int serve(colibri_police_t *p, uint8_t verdict, const uint8_t *row)
{
    size_t i;
    if (verdict == V_GROW) { grow(p, 2 * p->nslots); return 1; }
    if (verdict != V_CELLS) return 0;
    for (i = 0; i < NCELLS && memcmp(CELLS[i].label, row, 12); i++);
    CHECK(i < NCELLS);
    if (i == NCELLS) return 0;
    memcpy(p->label, CELLS[i].label, 12); memcpy(p->cells, CELLS[i].cells, 32);
    cells_served++;
    return 1;
}

/* Every flow is reachable from its home slot: no empty slot in between. */
static int table_ok(const colibri_police_t *p)
{
    size_t i, j, used = 0;
    for (i = 0; i < p->nslots; i++) {
        if (!p->slots[i].used) continue;
        used++;
        for (j = flow_home(p, p->slots[i].input, p->slots[i].epoch); j != i; j = (j + 1) % p->nslots)
            if (!p->slots[j].used) return 0;
    }
    return used == p->count;
}

/* Set up a police struct over exact-size heap tables, the keys unloaded. */
static colibri_police_t *police_new(size_t nbytes, uint64_t bits, size_t hashes,
                                    size_t width, size_t depth, double threshold)
{
    colibri_police_t *p = calloc(1, sizeof *p);
    p->current = calloc(nbytes, 1); p->previous = calloc(nbytes, 1); p->nbytes = nbytes;
    p->bits = bits; p->hashes = hashes; p->width = width; p->depth = depth;
    p->counts = calloc(width * depth, sizeof(double)); p->ncounts = width * depth;
    p->threshold = threshold; p->skew = 0.1; p->freshness = 1.2;
    p->rotated_at = p->window_start = 1000.0; p->duplicate_window = 1.2; p->sketch_window = 1.0;
    p->slots = calloc(4, sizeof(colibri_flow_t)); p->nslots = 4; p->max_slots = 64;
    p->capacity = 1000;
    return p;
}

/* Run rows [0, n) of a heap copy of `rows`, doing what Python does at each
   stop except the row itself; the verdicts land in `out`. */
static void run_burst(colibri_police_t *p, uint8_t *rows, size_t n, uint8_t *out,
                      const uint8_t *keys)
{
    uint8_t *heap_rows = heap(rows, 64 * n), *verdicts = malloc(n ? n : 1);
    long stop = 0;
    while ((stop = colibri_burst(p, heap_rows, n, (size_t)stop, verdicts, 1000.0, 0)) < (long)n) {
        CHECK(stop >= 0);
        if (stop < 0) break;
        if (serve(p, verdicts[stop], heap_rows + 64 * stop)) continue;
        if (verdicts[stop] == V_REKEY) {
            p->epoch = 5; p->prev_epoch = 4; p->has_prev = 1;
            p->epoch_start = 900.0; p->epoch_end = 1100.0;
            colibri_b2s_key_schedule(keys, 16, 16, p->key);
            colibri_b2s_key_schedule(keys + 16, 16, 16, p->prev_key);
            continue;
        }
        if (verdicts[stop] == V_PYTHON && p->rotated_at < 1000.0) {  /* the trio's rotation and roll */
            free((void *)p->previous); p->previous = p->current;
            p->current = calloc(p->nbytes, 1);
            free(p->counts); p->counts = calloc(p->ncounts, sizeof(double));
            p->rotated_at = p->window_start = 1000.0;
        }
        stop++;
    }
    CHECK(table_ok(p));
    memcpy(out, verdicts, n);
    memcpy(rows, heap_rows, 64 * n);  /* the duplicates' MACs, for the caller */
    free(heap_rows); free(verdicts);
}
"""


def burst_section() -> tuple:
    """``colibri_burst`` over one script per filter and sketch case, bursts
    of 0, 1, 63, 64 and 65 rows, every stop code, the refusals."""
    script = burst_script()
    decls = [
        c_bytes("B_ROWS", b"".join(row for row, _, _ in script))
        + c_bytes("B_MACS", b"".join(full for _, full, _ in script))
        + c_bytes("B_KEYS", key(0) + key(1))
        + f"static const size_t B_SIZES[] = {{{','.join(map(str, BURSTS))}}};\n"
        + c_bytes("B_VALID", validate_model(script))
        + c_bytes("B_NEW_FLOW", new_flow_row())
    ]
    body = []
    for case, (bits, hashes) in enumerate(BLOOM_CASES):
        width, depth = SKETCHES[case % len(SKETCHES)]
        codes, (current, previous, counts), counters, flows, nslots, refused = burst_model(
            script, bits, hashes, width, depth
        )
        assert {native.EXPIRED, native.STALE, native.BAD_HVF, native.PYTHON} <= set(codes), case
        assert {native.DUPLICATE, native.OVER} <= set(codes) and set(codes) & {native.FORWARD, native.DELIVER}
        ofd = OveruseFlowDetector(width=width, depth=depth)
        threshold = ofd.window * ofd.overuse_factor
        entries = (
            "{{%s}, {%s}}" % (",".join(map(str, label)), ",".join(map(str, ofd.cells_for(label))))
            for label in sorted({resid(flow[0]) for flow in FLOWS} | {resid(99)})
        )
        decls.append(
            f"static const cells_entry_t B_CELLS_{case}[] = {{{','.join(entries)}}};\n"
            + c_bytes(f"B_CODES_{case}", bytes(codes))
            + c_bytes(f"B_CUR_{case}", current) + c_bytes(f"B_PREV_{case}", previous)
            + f"static const double B_COUNTS_{case}[] = {{{','.join(repr(c) for c in counts)}}};\n"
        )
        body.append(f"""
    {{
        size_t nbytes = sizeof B_CUR_{case}, start = 0, b = 0, n, i;
        uint8_t *rows = heap(B_ROWS, sizeof B_ROWS), *out = malloc(400), *probe;
        uint32_t cells[64][8];
        int due = 0;
        colibri_police_t *p = police_new(nbytes, {bits}, {hashes}, {width}, {depth}, {threshold!r});
        CELLS = B_CELLS_{case}, NCELLS = sizeof B_CELLS_{case} / sizeof *CELLS, cells_served = 0;
        for (; start < 400; start += n, b++) {{
            n = B_SIZES[b % 5] < 400 - start ? B_SIZES[b % 5] : 400 - start;
            if (start >= {DUE_FROM} && !due) {{  /* a rotation and a roll due */
                p->rotated_at = 1000.0 - 1.2;
                due = 1;
            }}
            run_burst(p, rows + 64 * start, n, out + start, B_KEYS);
        }}
        CHECK(memcmp(out, B_CODES_{case}, 400) == 0);
        for (i = 0; i < 400; i++)
            if (out[i] == V_DUPLICATE) CHECK(memcmp(rows + 64 * i, B_MACS + 16 * i, 16) == 0);
        CHECK(memcmp(p->current, B_CUR_{case}, nbytes) == 0);
        CHECK(memcmp(p->previous, B_PREV_{case}, nbytes) == 0);
        CHECK(memcmp(p->counts, B_COUNTS_{case}, sizeof B_COUNTS_{case}) == 0);
        CHECK(p->hits == {counters['hits']} && p->misses == {counters['misses']});
        CHECK(p->rejected_hints == {counters['rejected_hints']} && p->evictions == 0);
        CHECK(p->count == {flows} && p->nslots == {nslots} && cells_served > 0 && cells_ok(p));
        /* refusals before any write: verdicts, filters, sketch and table as they were */
        probe = heap(B_ROWS, 64);
        memset(out, 0xAA, 400);
        p->bits = 0;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == -1);
        p->bits = 8 * nbytes + 1;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == -1);
        p->bits = {bits}; p->depth = 9;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 1) == -1);
        p->depth = 0;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == -1);
        p->depth = {depth}; p->nslots--;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == -1);
        p->nslots++; p->count = p->nslots / 2 + 1;
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == -1);
        p->count = {flows};
        CHECK(out[0] == 0xAA && memcmp(p->current, B_CUR_{case}, nbytes) == 0);
        CHECK(memcmp(p->counts, B_COUNTS_{case}, sizeof B_COUNTS_{case}) == 0);
        CHECK(memcmp(probe, B_ROWS, 64) == 0 && p->hits == {counters['hits']});
        free(probe);
        /* a cell outside the sketch: V_REFUSED at that row, nothing written */
        for (i = 0; i < p->nslots; i++) {{
            memcpy(cells[i], p->slots[i].cells, 32);
            p->slots[i].cells[{depth} - 1] = (uint32_t)p->ncounts;
        }}
        probe = heap(B_ROWS + 64 * {refused}, 64);
        CHECK(colibri_burst(p, probe, 1, 0, out, 1000.0, 0) == 0 && out[0] == V_REFUSED);
        CHECK(memcmp(p->current, B_CUR_{case}, nbytes) == 0);
        CHECK(memcmp(p->counts, B_COUNTS_{case}, sizeof B_COUNTS_{case}) == 0);
        for (i = 0; i < p->nslots; i++) memcpy(p->slots[i].cells, cells[i], 32);
        free(probe);
        /* a full table evicts: one flow out, one in */
        p->capacity = p->count;
        probe = heap(B_NEW_FLOW, 64);
        while (colibri_burst(p, probe, 1, 0, out, 1000.0, 1) == 0 && serve(p, out[0], probe));
        CHECK(out[0] == V_FORWARD && p->evictions == 1 && p->count == p->capacity && table_ok(p));
        free(probe);
        /* a table of three flows under the whole script: evictions and drops
           shift runs back, and every flow stays reachable */
        free(p->slots);  /* as BurstKernel.capacity = 3 leaves it */
        p->slots = calloc(4, sizeof(colibri_flow_t)); p->nslots = 4; p->count = 0;
        p->capacity = 3; p->max_slots = 8; p->evictions = 0;
        for (i = 0; i < 400; i++) {{
            probe = heap(B_ROWS + 64 * i, 64);
            while (colibri_burst(p, probe, 1, 0, out, 1000.0, 1) == 0 && serve(p, out[0], probe));
            CHECK(p->count <= 3 && table_ok(p));
            free(probe);
        }}
        CHECK(p->evictions > 20);
        /* validate mode: steps 1 and 3 over the whole script, tables untouched */
        memcpy(rows, B_ROWS, sizeof B_ROWS);
        for (start = 0; start < 400;) {{
            long stop = colibri_burst(p, rows, 400, start, out, 1000.0, 1);
            CHECK(stop >= 0 && (stop == 400 || out[stop] != V_REKEY));
            if (stop < 0 || stop == 400) break;
            if (!serve(p, out[stop], rows + 64 * stop)) stop++;
            start = (size_t)stop;
        }}
        CHECK(memcmp(out, B_VALID, 400) == 0);
        CHECK(memcmp(p->current, B_CUR_{case}, nbytes) == 0);
        CHECK(memcmp(p->counts, B_COUNTS_{case}, sizeof B_COUNTS_{case}) == 0);
        free(p->current); free((void *)p->previous); free(p->counts); free(p->slots); free(p);
        free(rows); free(out);
    }}""")
    return decls, body


def renewal_section() -> tuple:
    """Four rounds of four flows, versions 1 to 4: storing v + 1 retires
    v - 1 before the table is judged full, so after the first renewal
    round (4 -> 8 -> 16 slots) the table keeps its size."""
    ofd, rows = OveruseFlowDetector(width=16, depth=4), b""
    for version in range(1, 5):
        for index in range(30, 34):
            fields = [resid(index), 8e6, EXPIRY, version, 1, 2, 2, 3]
            sigma = mac(key(0), native.ROW.pack(*fields, bytes(8), 0, bytes(4), 0)[:42])
            ts = ((FRESH << 16) | version).to_bytes(8, "big")
            rows += native.ROW.pack(*fields, ts, 500, mac(sigma, ts + (500).to_bytes(4, "big"))[:4], 0)
    entries = ",".join(
        "{{%s}, {%s}}" % (",".join(map(str, resid(index))), ",".join(map(str, ofd.cells_for(resid(index)))))
        for index in range(30, 34)
    )
    decls = [c_bytes("R_ROWS", rows) + f"static const cells_entry_t R_CELLS[] = {{{entries}}};\n"]
    body = ["""
    {
        uint8_t *rows = heap(R_ROWS, sizeof R_ROWS), out[4];
        size_t round, sizes[4];
        colibri_police_t *p = police_new(128, 1024, 4, 16, 4, 1e9);
        CELLS = R_CELLS, NCELLS = 4;
        for (round = 0; round < 4; round++) {
            run_burst(p, rows + 256 * round, 4, out, B_KEYS);
            CHECK(out[0] == V_FORWARD && out[1] == V_FORWARD && out[2] == V_FORWARD && out[3] == V_FORWARD);
            sizes[round] = p->nslots;
        }
        CHECK(p->count == 8 && sizes[0] == 8 && sizes[1] == 16 && sizes[2] == 16 && sizes[3] == 16);
        free(p->current); free((void *)p->previous); free(p->counts); free(p->slots); free(p); free(rows);
    }"""]
    return decls, body


def driver_source() -> str:
    os.environ["COLIBRI_NATIVE"] = "0"  # expected tables come from the Python bodies
    native.reset_for_tests()
    decls, body = [], []
    for section in (crypto_section, burst_section, renewal_section):
        section_decls, section_body = section()
        decls += section_decls
        body += section_body
    return (
        native._SOURCE + PRELUDE + PRELUDE_BURST + "".join(decls)
        + "\nint main(void)\n{" + "".join(body)
        + '\n    printf("%s\\n", failures ? "native-asan: FAILED" : "native-asan: ok");'
        + "\n    return failures != 0;\n}\n"
    )


#: Loaded by the subprocess (``-p``): the build directory is the sanitized one.
PLUGIN = """
from repro.crypto import native
native._BUILD_DIR = {directory!r}
native.reset_for_tests()
assert native.backend().glue.__file__.startswith(native._BUILD_DIR), native._probe()
"""


def strict(compiler: str, workdir: Path) -> int:
    """The kernel, as shipped and scalar-only, and the glue with every warning an error."""
    (workdir / "strict-kernel.c").write_text(native._SOURCE)
    (workdir / "strict-glue.c").write_text(native._GLUE)
    builds = (("kernel", "strict-kernel.c", []), ("kernel-scalar", "strict-kernel.c", ["-DCOLIBRI_SCALAR"]),
              ("glue", "strict-glue.c", ["-I", sysconfig.get_paths()["include"]]))
    for label, source, flags in builds:
        print(f"[strict {label}] ", end="", flush=True)
        status = subprocess.run([compiler, *STRICT, *flags, "-c", str(workdir / source), "-o", os.devnull]).returncode
        print("failed" if status else "ok")
        if status:
            return status
    return 0


def run_glue(compiler: str, workdir: Path) -> int:
    """The extension under ASan + UBSan, the router's tests against it."""
    runtime = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        print("native-asan: no libasan.so to preload; the glue is not checked", file=sys.stderr)
        return 2
    from cffi import FFI

    name, build = native._module_name(), workdir / "build"
    build.mkdir(exist_ok=True)
    ffi = FFI()
    ffi.cdef(native._CDEF)
    ffi.set_source(name, native._SOURCE)
    ffi.emit_c_code(str(workdir / "kernel.c"))
    (workdir / "glue.c").write_text(native._GLUE)
    subprocess.run([compiler, *CFLAGS, "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"], "-o",
                    str(build / (name + sysconfig.get_config_var("EXT_SUFFIX"))),
                    str(workdir / "kernel.c"), str(workdir / "glue.c")], check=True)
    (workdir / "asan_glue.py").write_text(PLUGIN.format(directory=str(build)))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(workdir), str(root)]))
    env.pop("COLIBRI_NATIVE")
    print("[glue] ", end="", flush=True)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--capture=sys", "-p", "asan_glue", "-p", "no:cacheprovider",
         "tests/test_router_differential.py", "tests/test_policing_native.py", "tests/test_gateway_differential.py",
         "-k", "not policing or glue"],
        cwd=root, env=env,
    ).returncode


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
        status = strict(compiler, workdir)
        if status:
            return status
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
        return run_glue(compiler, workdir)
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
