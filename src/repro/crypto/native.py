"""Optional cffi-native kernel: keyed BLAKE2s for Eq. (6) stamping, and
the border router's §4.6 burst loop with its flow table.

The paper's DPDK prototype reaches line rate because AES-NI computes a
per-packet MAC in tens of cycles; the pure-Python data plane pays
``hashlib`` calls per hop plus Python glue around each.  This module is
the reproduction's "hardware": keyed BLAKE2s in C, compiled on demand
through cffi.  The gateway and the router each cross once per burst, into
``_colibri_glue`` (:data:`_GLUE`, CPython API, a second module in the same
extension).  The gateway's ``send`` plans each request as ``_plan`` does,
stamps its hops with ``colibri_stamp_t`` and builds its packet.  The router's
``burst`` packs one 64-byte row per packet (:data:`ROW`), calls
``colibri_burst`` — steps 1 and 3-5 on the router's own tables through a
``colibri_police_t`` they re-point as they change, σ from a flow table in the
same struct (:class:`BurstKernel`) — and builds each packet's
``RouterResult``, a drop's through ``_finish``.

Byte-identity is the admission contract (docs/performance.md): for every
key and message, ``ScheduleBlock(backend, [key]).stamp_flat(msg) ==
hashlib.blake2s(msg, key=key, digest_size=16).digest()[:L_HVF]``, which
is :func:`repro.crypto.prf.prf` truncated; tests/test_batch_equivalence.py
enforces it, and every consumer falls back to hashlib with identical
output when the backend is unavailable.

Availability is best-effort: no cffi, no C compiler, or
``COLIBRI_NATIVE=0`` mean :func:`backend` returns ``None`` and callers
keep their pure-Python paths.  Builds are cached under ``_native_build/``
(gitignored) keyed by a hash of the C sources; concurrent builders compile
into a private directory and atomically rename the extension into place.
:func:`backend` is ``None`` unless both modules load.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import operator
import os
import shutil
import struct
import weakref
from typing import Optional

from repro.constants import DRKEY_VALIDITY, FRESHNESS_WINDOW, L_HVF, MAC_LENGTH, MAX_CLOCK_SKEW

#: One router's policing tables, flow table and clock as ``colibri_burst``
#: sees them; shared by the cffi declarations and the C source.
_POLICE_T = """
typedef struct {
    uint8_t input[42];        /* the Eq. (4) input σ was minted from */
    uint8_t used, spare;
    uint32_t epoch;           /* the DRKey epoch of the K_i that minted it */
    uint32_t sched[8];        /* σ's Eq. (6) key schedule */
    uint32_t cells[8];        /* the flow's sketch cells, `depth` of them */
} colibri_flow_t;

typedef struct {
    uint8_t *current;         /* duplicate filter taking insertions */
    const uint8_t *previous;  /* the window before: consulted only */
    size_t nbytes;            /* what each filter buffer holds */
    uint64_t bits;
    size_t hashes;
    double *counts;           /* sketch rows, flat */
    size_t ncounts, width, depth;
    double threshold;         /* an estimate above it is overuse */
    double rotated_at, duplicate_window, window_start, sketch_window;
    double skew, freshness;   /* MAX_CLOCK_SKEW, FRESHNESS_WINDOW */
    double epoch_start, epoch_end;  /* where `key` is the current K_i */
    uint32_t epoch, prev_epoch, has_prev;
    uint32_t key[8], prev_key[8];   /* K_i's schedule, this epoch and the last */
    uint8_t label[12];        /* a flow label and its sketch cells, as */
    uint32_t cells[8];        /*   OveruseFlowDetector.cells_for gives them */
    colibri_flow_t *slots;    /* the flow table: linear probing */
    size_t nslots, max_slots, count, capacity;
    uint64_t hits, misses, evictions, rejected_hints;
    uint64_t stops[16];       /* colibri_burst's returns, by verdict byte */
} colibri_police_t;
"""

#: The verdict bytes and row flags, for the kernel and the glue (:data:`FORWARD`).
_CODES = """enum { V_FORWARD = 1, V_DELIVER, V_EXPIRED, V_STALE, V_BAD_HVF, V_DUPLICATE,
       V_PYTHON, V_OVER, V_REFUSED, V_GROW, V_REKEY, V_CELLS, V_GATHER };
enum { F_PYTHON = 1, F_FLAGGED = 2, F_LAST = 4 };
"""

_CDEF = _POLICE_T + """
void colibri_b2s_key_schedule(const uint8_t *key, size_t keylen,
                              size_t outlen, uint32_t *h_out);
void colibri_flows_move(colibri_police_t *p, colibri_flow_t *slots,
                        size_t nslots);
void colibri_b2s_transpose(const uint32_t *scheds, size_t nscheds,
                           uint32_t *out);
void colibri_stamp_t(const uint32_t *scheds_t, size_t nscheds,
                     const uint8_t *msg, size_t msglen,
                     uint8_t *out, size_t tag_len);
void colibri_stamp_many_t(const uint32_t *scheds_t, size_t nscheds,
                          const uint8_t *msgs, size_t msglen, size_t nmsgs,
                          uint8_t *out, size_t tag_len);
"""

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
""" + _POLICE_T + _CODES + r"""
static const uint32_t B2S_IV[8] = {
    0x6A09E667UL, 0xBB67AE85UL, 0x3C6EF372UL, 0xA54FF53AUL,
    0x510E527FUL, 0x9B05688CUL, 0x1F83D9ABUL, 0x5BE0CD19UL
};

static const uint8_t B2S_SIGMA[10][16] = {
    { 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,10,11,12,13,14,15},
    {14,10, 4, 8, 9,15,13, 6, 1,12, 0, 2,11, 7, 5, 3},
    {11, 8,12, 0, 5, 2,15,13,10,14, 3, 6, 7, 1, 9, 4},
    { 7, 9, 3, 1,13,12,11,14, 2, 6, 5,10, 4, 0,15, 8},
    { 9, 0, 5, 7, 2, 4,10,15,14, 1,11,12, 6, 8, 3,13},
    { 2,12, 6,10, 0,11, 8, 3, 4,13, 7, 5,15,14, 1, 9},
    {12, 5, 1,15,14,13, 4,10, 0, 7, 6, 3, 9, 2, 8,11},
    {13,11, 7,14,12, 1, 3, 9, 5, 0,15, 4, 8, 6, 2,10},
    { 6,15,14, 9,11, 3, 0, 8,12, 2,13, 7, 1, 4,10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5,15,11, 9,14, 3,12,13, 0}
};

#define ROTR32(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

#define G(r, i, a, b, c, d)                                               \
    do {                                                                  \
        a = a + b + m[B2S_SIGMA[r][2 * i]]; d = ROTR32(d ^ a, 16);        \
        c = c + d; b = ROTR32(b ^ c, 12);                                 \
        a = a + b + m[B2S_SIGMA[r][2 * i + 1]]; d = ROTR32(d ^ a, 8);     \
        c = c + d; b = ROTR32(b ^ c, 7);                                  \
    } while (0)

/* One full round, spelled out so the sigma indices fold into immediate
   offsets (~20% on the 16-hop stamp against the rolled loop). */
#define ROUND(r)                                    \
    G(r, 0, v[0], v[4], v[ 8], v[12]);              \
    G(r, 1, v[1], v[5], v[ 9], v[13]);              \
    G(r, 2, v[2], v[6], v[10], v[14]);              \
    G(r, 3, v[3], v[7], v[11], v[15]);              \
    G(r, 4, v[0], v[5], v[10], v[15]);              \
    G(r, 5, v[1], v[6], v[11], v[12]);              \
    G(r, 6, v[2], v[7], v[ 8], v[13]);              \
    G(r, 7, v[3], v[4], v[ 9], v[14])

/* Compress over a block already decoded to little-endian words.  The
   stamp loops decode the (shared) message block once per packet and
   run only this per hop, instead of re-decoding per MAC. */
static void b2s_compress_words(uint32_t h[8], const uint32_t m[16],
                               uint64_t t, uint32_t f0)
{
    uint32_t v[16];
    int i;
    for (i = 0; i < 8; i++) v[i] = h[i];
    v[8] = B2S_IV[0]; v[9] = B2S_IV[1]; v[10] = B2S_IV[2]; v[11] = B2S_IV[3];
    v[12] = B2S_IV[4] ^ (uint32_t)t;
    v[13] = B2S_IV[5] ^ (uint32_t)(t >> 32);
    v[14] = B2S_IV[6] ^ f0;
    v[15] = B2S_IV[7];
    ROUND(0); ROUND(1); ROUND(2); ROUND(3); ROUND(4);
    ROUND(5); ROUND(6); ROUND(7); ROUND(8); ROUND(9);
    for (i = 0; i < 8; i++) h[i] = h[i] ^ v[i] ^ v[i + 8];
}

/* Zero-pad a partial chunk to one block and decode it to words. */
static void b2s_block_words(const uint8_t *chunk, size_t len, uint32_t m[16])
{
    uint8_t block[64];
    int i;
    memset(block, 0, 64);
    memcpy(block, chunk, len);
    for (i = 0; i < 16; i++) {
        m[i] = (uint32_t)block[4 * i] | ((uint32_t)block[4 * i + 1] << 8)
             | ((uint32_t)block[4 * i + 2] << 16)
             | ((uint32_t)block[4 * i + 3] << 24);
    }
}

static void b2s_compress(uint32_t h[8], const uint8_t block[64],
                         uint64_t t, uint32_t f0)
{
    uint32_t m[16];
    b2s_block_words(block, 64, m);
    b2s_compress_words(h, m, t, f0);
}

/* Key schedule: the chaining state after the padded key block, for keyed
   BLAKE2s with the given digest length.  Matches
   hashlib.blake2s(key=..., digest_size=outlen) exactly: parameter-block
   word 0 is digest_length | key_length << 8 | fanout(1) << 16 |
   depth(1) << 24, and the key block counts 64 bytes. */
void colibri_b2s_key_schedule(const uint8_t *key, size_t keylen,
                              size_t outlen, uint32_t *h_out)
{
    uint8_t block[64];
    int i;
    for (i = 0; i < 8; i++) h_out[i] = B2S_IV[i];
    h_out[0] ^= (uint32_t)outlen | ((uint32_t)keylen << 8)
              | (1UL << 16) | (1UL << 24);
    memset(block, 0, 64);
    memcpy(block, key, keylen);
    b2s_compress(h_out, block, 64, 0);
}

/* Finish a keyed MAC over one message from a prepared key schedule. */
static void b2s_tail(const void *sched, const uint8_t *msg,
                     size_t msglen, uint8_t *out, size_t outlen)
{
    uint32_t h[8];
    uint32_t m[16];
    uint64_t t = 64;
    size_t i;
    memcpy(h, sched, 32);
    while (msglen > 64) {
        t += 64;
        b2s_compress(h, msg, t, 0);
        msg += 64;
        msglen -= 64;
    }
    b2s_block_words(msg, msglen, m);
    t += msglen;
    b2s_compress_words(h, m, t, 0xFFFFFFFFUL);
    for (i = 0; i < outlen; i++)
        out[i] = (uint8_t)(h[i / 4] >> (8 * (i % 4)));
}

/* ---- 8-way SIMD lane layout ----------------------------------------
   All hops of a packet MAC one single-block message under different
   schedules: lane L of a vector compress runs hop L.  Schedules are laid
   out once at install ("transposed": groups of 8 hops, word-major, zero-
   padded lanes); without AVX2 (or with COLIBRI_SCALAR) the `_t` entry
   points run scalar compressions over the same layout. */

void colibri_b2s_transpose(const uint32_t *scheds, size_t nscheds,
                           uint32_t *out)
{
    size_t groups = (nscheds + 7) / 8, i, w;
    memset(out, 0, groups * 64 * sizeof(uint32_t));
    for (i = 0; i < nscheds; i++)
        for (w = 0; w < 8; w++)
            out[(i / 8) * 64 + w * 8 + (i % 8)] = scheds[i * 8 + w];
}

/* Scalar view of one lane's schedule in the transposed layout. */
static void sched_lane(const uint32_t *scheds_t, size_t lane, uint32_t sc[8])
{
    const uint32_t *group = scheds_t + (lane >> 3) * 64 + (lane & 7);
    size_t w;
    for (w = 0; w < 8; w++) sc[w] = group[w * 8];
}

#if defined(__GNUC__) && defined(__x86_64__) && !defined(COLIBRI_SCALAR)
#define COLIBRI_AVX2 1
#include <immintrin.h>

static int colibri_has_avx2(void) { return __builtin_cpu_supports("avx2"); }

/* The 16-bit and 8-bit rotations are byte permutations, so they map to
   one shuffle; 12 and 7 need the two-shift form. */
#define GV(r, i, a, b, c, d)                                              \
    a = _mm256_add_epi32(_mm256_add_epi32(a, b),                          \
                         _mm256_set1_epi32((int)m[B2S_SIGMA[r][2*i+0]])); \
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), r16);                 \
    c = _mm256_add_epi32(c, d);                                           \
    b = _mm256_xor_si256(b, c);                                           \
    b = _mm256_or_si256(_mm256_srli_epi32(b, 12),                         \
                        _mm256_slli_epi32(b, 20));                        \
    a = _mm256_add_epi32(_mm256_add_epi32(a, b),                          \
                         _mm256_set1_epi32((int)m[B2S_SIGMA[r][2*i+1]])); \
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), r8);                  \
    c = _mm256_add_epi32(c, d);                                           \
    b = _mm256_xor_si256(b, c);                                           \
    b = _mm256_or_si256(_mm256_srli_epi32(b, 7),                          \
                        _mm256_slli_epi32(b, 25));

#define ROUNDV(r)                                   \
    GV(r, 0, v[0], v[4], v[ 8], v[12])              \
    GV(r, 1, v[1], v[5], v[ 9], v[13])              \
    GV(r, 2, v[2], v[6], v[10], v[14])              \
    GV(r, 3, v[3], v[7], v[11], v[15])              \
    GV(r, 4, v[0], v[5], v[10], v[15])              \
    GV(r, 5, v[1], v[6], v[11], v[12])              \
    GV(r, 6, v[2], v[7], v[ 8], v[13])              \
    GV(r, 7, v[3], v[4], v[ 9], v[14])

/* One compression of 8 independent chaining states over one shared
   decoded message block. */
__attribute__((target("avx2")))
static void b2s_compress_x8(__m256i h[8], const uint32_t m[16], uint64_t t,
                            uint32_t f0)
{
    __m256i v[16];
    const __m256i r16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
    const __m256i r8 = _mm256_setr_epi8(
        1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12,
        1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12);
    int i;
    for (i = 0; i < 8; i++) v[i] = h[i];
    v[8]  = _mm256_set1_epi32((int)B2S_IV[0]);
    v[9]  = _mm256_set1_epi32((int)B2S_IV[1]);
    v[10] = _mm256_set1_epi32((int)B2S_IV[2]);
    v[11] = _mm256_set1_epi32((int)B2S_IV[3]);
    v[12] = _mm256_set1_epi32((int)(B2S_IV[4] ^ (uint32_t)t));
    v[13] = _mm256_set1_epi32((int)(B2S_IV[5] ^ (uint32_t)(t >> 32)));
    v[14] = _mm256_set1_epi32((int)(B2S_IV[6] ^ f0));
    v[15] = _mm256_set1_epi32((int)B2S_IV[7]);
    ROUNDV(0) ROUNDV(1) ROUNDV(2) ROUNDV(3) ROUNDV(4)
    ROUNDV(5) ROUNDV(6) ROUNDV(7) ROUNDV(8) ROUNDV(9)
    for (i = 0; i < 8; i++)
        h[i] = _mm256_xor_si256(h[i], _mm256_xor_si256(v[i], v[i + 8]));
}

/* Write the first tag_len digest bytes of each of `lanes` lanes. */
__attribute__((target("avx2")))
static void b2s_emit_x8(const __m256i h[8], uint8_t *out, size_t lanes,
                        size_t tag_len)
{
    size_t lane, j;
    if (tag_len == 4) {
        uint32_t h0[8];
        _mm256_storeu_si256((__m256i *)h0, h[0]);
        for (lane = 0; lane < lanes; lane++)
            memcpy(out + 4 * lane, &h0[lane], 4);  /* x86 is LE */
        return;
    }
    {
        uint32_t hw[8][8];
        int i;
        for (i = 0; i < 8; i++)
            _mm256_storeu_si256((__m256i *)hw[i], h[i]);
        for (lane = 0; lane < lanes; lane++)
            for (j = 0; j < tag_len; j++)
                out[lane * tag_len + j] =
                    (uint8_t)(hw[j / 4][lane] >> (8 * (j % 4)));
    }
}

/* 8 tails over a shared single-block decoded message: the hot shape. */
__attribute__((target("avx2")))
static void b2s_tails_words_x8(const uint32_t *group, const uint32_t m[16],
                               uint64_t t, uint8_t *out, size_t lanes,
                               size_t tag_len)
{
    __m256i h[8];
    int i;
    for (i = 0; i < 8; i++)
        h[i] = _mm256_loadu_si256((const __m256i *)(group + 8 * i));
    b2s_compress_x8(h, m, t, 0xFFFFFFFFUL);
    b2s_emit_x8(h, out, lanes, tag_len);
}

#endif

/* One message, many key schedules: all hop HVFs of one packet (Eq. 6),
   8 hops per compress. */
void colibri_stamp_t(const uint32_t *scheds_t, size_t nscheds,
                     const uint8_t *msg, size_t msglen,
                     uint8_t *out, size_t tag_len)
{
    size_t i;
#ifdef COLIBRI_AVX2
    if (colibri_has_avx2() && msglen <= 64) {  /* longer messages: the scalar tail */
        uint32_t m[16];
        uint64_t t = 64 + msglen;
        b2s_block_words(msg, msglen, m);
        for (i = 0; i < nscheds; i += 8) {
            size_t lanes = nscheds - i;
            if (lanes > 8) lanes = 8;
            b2s_tails_words_x8(scheds_t + i * 8, m, t, out + i * tag_len,
                               lanes, tag_len);
        }
        return;
    }
#endif
    for (i = 0; i < nscheds; i++) {
        uint32_t sc[8];
        sched_lane(scheds_t, i, sc);
        b2s_tail(sc, msg, msglen, out + i * tag_len, tag_len);
    }
}

void colibri_stamp_many_t(const uint32_t *scheds_t, size_t nscheds,
                          const uint8_t *msgs, size_t msglen, size_t nmsgs,
                          uint8_t *out, size_t tag_len)
{
    size_t p;
#ifdef COLIBRI_AVX2
    if (colibri_has_avx2() && msglen <= 64) {
        size_t i;
        uint32_t m[16];
        uint64_t t = 64 + msglen;
        for (p = 0; p < nmsgs; p++) {
            uint8_t *row = out + p * nscheds * tag_len;
            b2s_block_words(msgs + p * msglen, msglen, m);
            for (i = 0; i < nscheds; i += 8) {
                size_t lanes = nscheds - i;
                if (lanes > 8) lanes = 8;
                b2s_tails_words_x8(scheds_t + i * 8, m, t, row + i * tag_len,
                                   lanes, tag_len);
            }
        }
        return;
    }
#endif
    for (p = 0; p < nmsgs; p++)
        colibri_stamp_t(scheds_t, nscheds, msgs + p * msglen, msglen,
                        out + p * nscheds * tag_len, tag_len);
}

/* Constant-time verify of one (truncated) tag; mac_out gets all 16 bytes. */
static int colibri_verify(const uint8_t *sched, const uint8_t *msg, size_t msglen,
                          const uint8_t *tag, size_t tag_len, uint8_t *mac_out)
{
    uint8_t acc = (uint8_t)(tag_len > 16);
    size_t i;
    b2s_tail(sched, msg, msglen, mac_out, 16);
    for (i = 0; i < tag_len && i < 16; i++) acc |= (uint8_t)(mac_out[i] ^ tag[i]);
    return acc == 0;
}

static uint64_t be64(const uint8_t *p)
{
    uint64_t x = 0;
    int i;
    for (i = 0; i < 8; i++) x = (x << 8) | p[i];
    return x;
}

static uint32_t be32(const uint8_t *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

static double be_double(const uint8_t *p)
{
    uint64_t x = be64(p);
    double d;
    return *(double *)memcpy(&d, &x, 8);
}

/* Rotating-Bloom test-and-set on a 16-byte MAC: bit i is (h1 + i*h2) mod
   bits over its two big-endian halves, both reduced first so the running
   sum never wraps.  1 = fresh and now recorded in `current`, 0 = seen (in
   `previous`, or every bit already set).  colibri_burst checked the geometry. */
static int colibri_bloom_check(uint8_t *current, const uint8_t *previous,
                               uint64_t bits, size_t hashes, const uint8_t *mac)
{
    uint64_t first = be64(mac) % bits, step = be64(mac + 8) % bits, bit;
    size_t i;
    int fresh = 0;
    for (i = 0, bit = first; i < hashes; i++) {
        if (!(previous[bit >> 3] & (1 << (bit & 7)))) break;
        bit = bit + step < bits ? bit + step : bit + step - bits;
    }
    if (i == hashes) return 0;
    for (i = 0, bit = first; i < hashes; i++) {
        if (!(current[bit >> 3] & (1 << (bit & 7)))) {
            current[bit >> 3] |= (uint8_t)(1 << (bit & 7));
            fresh = 1;
        }
        bit = bit + step < bits ? bit + step : bit + step - bits;
    }
    return fresh;
}

/* Count-min add: `amount` onto each of the flow's cells, returning the
   smallest new count (+inf for no cells). */
static double colibri_sketch_add(double *counts, const uint32_t *cells,
                                 size_t ncells, double amount)
{
    double estimate = __builtin_inf(), count;
    size_t i;
    for (i = 0; i < ncells; i++) {
        count = counts[cells[i]] += amount;
        if (count < estimate) estimate = count;
    }
    return estimate;
}

/* ---- the flow table: (ResId, Ver, epoch) -> σ's schedule and cells -------
   Linear probing, at most half full (Python doubles it on V_GROW, up to
   max_slots); deletion shifts the run back.  The key, ResInfo's bytes 0-11
   and 28-29 and the epoch, is hashed as bytes (FNV-1a). */

static size_t flow_home(const colibri_police_t *p, const uint8_t *input, uint32_t epoch)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    int i;
    for (i = 0; i < 12; i++) h = (h ^ input[i]) * 0x100000001B3ULL;
    for (i = 28; i < 30; i++) h = (h ^ input[i]) * 0x100000001B3ULL;
    for (i = 0; i < 4; i++) h = (h ^ ((epoch >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    return (size_t)(h ^ (h >> 32)) & (p->nslots - 1);
}

static colibri_flow_t *flow_find(const colibri_police_t *p, const uint8_t *input,
                                 uint32_t epoch)
{
    size_t i = flow_home(p, input, epoch);
    colibri_flow_t *f;
    for (;; i = (i + 1) & (p->nslots - 1)) {
        f = p->slots + i;
        if (!f->used) return NULL;
        if (f->epoch == epoch && !memcmp(f->input, input, 12)
            && f->input[28] == input[28] && f->input[29] == input[29])
            return f;
    }
}

static void flow_delete(colibri_police_t *p, colibri_flow_t *f)
{
    size_t mask = p->nslots - 1, hole = (size_t)(f - p->slots), j = hole, home;
    colibri_flow_t *s = p->slots;
    for (;;) {
        j = (j + 1) & mask;
        if (!s[j].used) break;
        home = flow_home(p, s[j].input, s[j].epoch);
        if (hole <= j ? (home <= hole || home > j) : (home <= hole && home > j)) {
            s[hole] = s[j];
            hole = j;
        }
    }
    s[hole].used = 0;
    p->count--;
}

/* Version v - 2 of a flow about to be stored leaves under either epoch (not
   an eviction), before the table is judged full: a renewed set keeps its size. */
static void flow_retire(colibri_police_t *p, const uint8_t *input, uint32_t epoch)
{
    uint8_t key[42];
    colibri_flow_t *f;
    size_t version = ((size_t)input[28] << 8) | input[29];
    if (version < 2) return;
    memcpy(key, input, 30);
    key[28] = (uint8_t)((version - 2) >> 8), key[29] = (uint8_t)(version - 2);
    if ((f = flow_find(p, key, epoch)) != NULL) flow_delete(p, f);
    if ((f = flow_find(p, key, epoch - 1)) != NULL) flow_delete(p, f);
}

/* Store a σ that just validated a packet (and only then); a full table
   evicts the first flow at or after the new key's home slot. */
static colibri_flow_t *flow_store(colibri_police_t *p, const uint8_t *input,
                                  uint32_t epoch, const uint32_t sched[8])
{
    colibri_flow_t *f;
    size_t i;
    f = flow_find(p, input, epoch);
    if (f == NULL) {
        if (p->count && (p->count >= p->capacity || 2 * (p->count + 1) > p->nslots)) {
            for (i = flow_home(p, input, epoch); !p->slots[i].used; i = (i + 1) & (p->nslots - 1));
            flow_delete(p, p->slots + i);
            p->evictions++;
        }
        for (i = flow_home(p, input, epoch); p->slots[i].used; i = (i + 1) & (p->nslots - 1));
        f = p->slots + i;
        f->used = 1, p->count++;
    }
    memcpy(f->input, input, 42), memcpy(f->sched, sched, 32);
    f->epoch = epoch;
    memcpy(f->cells, p->cells, sizeof f->cells);  /* colibri_burst checked the label */
    return f;
}

/* Rehash every live flow into `slots` (zeroed, a power of two at least
   twice the count) and make it the table. */
void colibri_flows_move(colibri_police_t *p, colibri_flow_t *slots, size_t nslots)
{
    colibri_flow_t *old = p->slots;
    size_t nold = p->nslots, i, j;
    p->slots = slots;
    p->nslots = nslots;
    for (i = 0; i < nold; i++) {
        if (!old[i].used) continue;
        for (j = flow_home(p, old[i].input, old[i].epoch); slots[j].used; j = (j + 1) & (nslots - 1));
        slots[j] = old[i];
    }
}

/* ---- the §4.6 burst loop ---------------------------------------------------
   Row i (native.ROW) holds ResInfo || EERInfo || (In, Eg), the 42-byte
   Eq. (4) input; Ts || PktSize, the Eq. (6) input; the HVF; the flags.
   Steps 1 and 3-5 in arrival order from `start`, a verdict byte per row.
   Returns the row it stopped at (nrows when done), whose verdict says why
   and is counted in `stops`: V_PYTHON (flagged, SegR, no bandwidth, a
   rotation or roll due: past step 1 untouched), V_OVER (policed, over the
   threshold), V_REFUSED (a cell outside the sketch), V_GROW (the table
   needs room), V_REKEY (`now` left `key`'s epoch), V_CELLS (a flow to store
   of a label not `label`); -1: the geometry does not fit, nothing written.
   A drop (V_EXPIRED to V_DUPLICATE) is a verdict byte, not a stop.
   `validate`: steps 1 and 3 only, filters and sketch untouched. */
#define STOP(code) do { verdicts[i] = (code); p->stops[code]++; return (long)i; } while (0)
long colibri_burst(colibri_police_t *p, uint8_t *rows, size_t nrows,
                   size_t start, uint8_t *verdicts, double now, int validate)
{
    size_t i, r;
    int e, due = now - p->rotated_at >= p->duplicate_window
              || now - p->window_start >= p->sketch_window;
    if (p->depth == 0 || p->depth > 8 || p->nslots < 2 || (p->nslots & (p->nslots - 1))
        || 2 * p->count > p->nslots
        || (!validate && (p->bits == 0 || (p->bits - 1) / 8 >= p->nbytes)))
        return -1;
    if ((i = start) < nrows && (now < p->epoch_start || now >= p->epoch_end)) STOP(V_REKEY);
    for (; i < nrows; i++) {
        uint8_t *row = rows + 64 * i, mac[16], sigma[16];
        double expiry = be_double(row + 20), bandwidth = be_double(row + 12);
        double age = now - (expiry - (double)(be64(row + 42) >> 16) / 1e6), estimate;
        uint32_t sched[8];
        colibri_flow_t *f;
        int hit;
        if (now > expiry + p->skew) { verdicts[i] = V_EXPIRED; continue; }
        if (age > p->freshness || -age > p->freshness) { verdicts[i] = V_STALE; continue; }
        if ((row[58] & (F_PYTHON | F_FLAGGED)) || (!validate && (due || !(bandwidth > 0)))) STOP(V_PYTHON);
        /* 3. σ from the table if bound to this very input and it explains
           the HVF, else derived from K_i (this epoch, then the last) and
           stored only now that it validated the packet. */
        f = flow_find(p, row, p->epoch);
        if (f == NULL && p->has_prev) f = flow_find(p, row, p->prev_epoch);
        hit = f != NULL;
        if (!hit || memcmp(f->input, row, 42)
            || !colibri_verify((const uint8_t *)f->sched, row + 42, 12, row + 54, 4, mac)) {
            for (f = NULL, e = 0; f == NULL && e <= (int)p->has_prev; e++) {
                b2s_tail(e ? p->prev_key : p->key, row, 42, sigma, 16);
                colibri_b2s_key_schedule(sigma, 16, 16, sched);
                if (!colibri_verify((const uint8_t *)sched, row + 42, 12, row + 54, 4, mac))
                    continue;
                flow_retire(p, row, e ? p->prev_epoch : p->epoch);
                if (p->nslots < p->max_slots && 2 * (p->count + 1) > p->nslots) STOP(V_GROW);
                if (memcmp(p->label, row, 12)) STOP(V_CELLS);
                f = flow_store(p, row, e ? p->prev_epoch : p->epoch, sched);
            }
            p->rejected_hints += hit;
        }
        p->hits += hit;
        p->misses += !hit;
        if (f == NULL) { verdicts[i] = V_BAD_HVF; continue; }
        if (validate) { verdicts[i] = V_FORWARD; continue; }
        for (r = 0; r < p->depth; r++)
            if (f->cells[r] >= p->ncounts) STOP(V_REFUSED);
        /* 4. The full MAC names the packet to the duplicate filter. */
        if (!colibri_bloom_check(p->current, p->previous, p->bits, p->hashes, mac)) {
            memcpy(row, mac, 16);  /* for the journal */
            verdicts[i] = V_DUPLICATE;
            continue;
        }
        /* 5. The sketch, over the normalized size. */
        estimate = colibri_sketch_add(p->counts, f->cells, p->depth,
                                      (double)((uint64_t)be32(row + 50) * 8) / bandwidth);
        if (estimate > p->threshold) STOP(V_OVER);
        verdicts[i] = row[58] & F_LAST ? V_DELIVER : V_FORWARD;
    }
    return (long)nrows;
}
"""

#: ``BorderRouter._burst``'s one native call, ``burst``: rows, ``colibri_burst`` and the
#: results in one call; ``ColibriGateway.send_batch``'s, ``send``: plan, Eq. (6)
#: and packets in one call.  Each goes back to Python only at a row it must see;
#: a CPython module in the same extension, since cffi takes no Python objects.
_GLUE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
""" + _POLICE_T + _CODES + r"""
long colibri_burst(colibri_police_t *p, uint8_t *rows, size_t nrows,
                   size_t start, uint8_t *verdicts, double now, int validate);
void colibri_stamp_t(const uint32_t *scheds_t, size_t nscheds, const uint8_t *msg, size_t msglen,
                     uint8_t *out, size_t tag_len);
#define BYTES(o, n) ((o) != NULL && PyBytes_CheckExact(o) && PyBytes_GET_SIZE(o) == (n))
#define SLOT(o, at) (*(PyObject **)((char *)(o) + (at)))
#define TYPE(k) ((PyTypeObject *)Bound[k])
enum { ROW_, HOP, HVFS, KERNEL, STATS, DUPLICATES, CURRENT, INSERTIONS, OFD, SEEN, MONITOR, PASSED, FINISH, PACKED,
       TABLE, BUCKETS, SENT, LATEST, RES, SCHEDULE, HEAD, LAST, HEADER, LABEL, PATH, PAIRS, EER, TYPE_, TS, PAYLOAD,
       MICROS, SEQUENCE, NAMES };
static const char *names[NAMES] = {"_row", "hop_index", "hvfs", "kernel", "stats", "duplicates", "_current",
                                   "insertions", "ofd", "packets_seen", "monitor", "packets_passed", "_finish", "packed",
                                   "_reservations", "_buckets", "packets_sent", "_latest", "res_info", "_schedule",
                                   "_row_head", "last_micros", "header_size", "packed_id", "path", "interface_pairs",
                                   "eer_info", "packet_type", "timestamp", "payload", "micros_before_expiry", "sequence"};
static const int keys[9] = {TYPE_, PATH, RES, TS, HVFS, EER, PAYLOAD, HOP, ROW_};  /* ColibriPacket.trusted's dict */
/* What bind() takes, each by its class name (the Verdict of each code: a tuple), and the slots read off them. */
enum { K_PACKET, K_HVFS, K_RESULT, K_VERDICTS, K_KERNEL, K_TS, K_ENTRY, K_VERSION, K_ID, K_RES, K_PATH, K_BUCKET,
       K_SCHEDULE, KINDS };
static const char *kinds[KINDS] = {"ColibriPacket", "HvfVector", "RouterResult", "tuple", "BurstKernel", "Timestamp",
                                   "GatewayReservation", "GatewayVersion", "ReservationId", "ResInfo", "PathField",
                                   "TokenBucket", "ScheduleBlock"};
enum { S_BUFFER, S_START, S_STRUCT, S_ROWS, S_VERDICTS, S_COUNT, S_RATE, S_DEPTH, S_TOKENS, S_UPDATED, S_HOPS, S_TAG,
       S_LANES, SLOTS };
static const struct { int kind; const char *name; } slots[SLOTS] = {
    {K_HVFS, "buffer"}, {K_HVFS, "start"}, {K_KERNEL, "_struct"}, {K_KERNEL, "rows"}, {K_KERNEL, "verdicts"},
    {K_HVFS, "count"}, {K_BUCKET, "rate"}, {K_BUCKET, "depth"}, {K_BUCKET, "_tokens"}, {K_BUCKET, "_updated"},
    {K_SCHEDULE, "count"}, {K_SCHEDULE, "tag_len"}, {K_SCHEDULE, "_lanes"}};
static PyObject *Name[NAMES], *ZERO, *ONE, *EMPTY, *Packet, *Bound[KINDS];  /* Packet: a packet dict's keys, in order */
static Py_ssize_t at[SLOTS];

/* An exact int in [0, most], else -1. */
static long small(PyObject *o, long most)
{
    int overflow = 0;
    long v = o != NULL && PyLong_CheckExact(o) ? PyLong_AsLongAndOverflow(o, &overflow) : -1;
    return overflow || v < 0 || v > most ? -1 : v;
}

/* Row i of an exact ColibriPacket whose `_row` memo, `hop_index` and HVF
   (an HvfVector's bytes, or a list's or tuple's item) are exactly what
   _burst's memo build reads from its instance dict: 1.  Else 0, nothing written. */
static int gather_one(PyObject *packet, uint8_t *row)
{
    PyObject *state, *memo, *hvfs, *pairs, *pair, *buffer;
    long hop, in, eg, last, flags, start;
    const char *hvf = NULL;
    if (!Py_IS_TYPE(packet, TYPE(K_PACKET)) || (state = PyObject_GenericGetDict(packet, NULL)) == NULL)
        return PyErr_Clear(), 0;
    Py_XINCREF(memo = PyDict_GetItemWithError(state, Name[ROW_]));
    Py_XINCREF(hvfs = PyDict_GetItemWithError(state, Name[HVFS]));
    hop = small(PyDict_GetItemWithError(state, Name[HOP]), LONG_MAX / 8);
    PyErr_Clear();
    if (memo && hvfs && hop >= 0 && PyTuple_CheckExact(memo) && PyTuple_GET_SIZE(memo) == 5
        && BYTES(PyTuple_GET_ITEM(memo, 0), 38) && BYTES(PyTuple_GET_ITEM(memo, 1), 12)
        && PyTuple_CheckExact(pairs = PyTuple_GET_ITEM(memo, 2)) && hop < PyTuple_GET_SIZE(pairs)
        && PyTuple_CheckExact(pair = PyTuple_GET_ITEM(pairs, hop)) && PyTuple_GET_SIZE(pair) == 2
        && (in = small(PyTuple_GET_ITEM(pair, 0), 0xFFFF)) >= 0 && (eg = small(PyTuple_GET_ITEM(pair, 1), 0xFFFF)) >= 0
        && (last = small(PyTuple_GET_ITEM(memo, 3), 0xFF)) >= 0 && (flags = small(PyTuple_GET_ITEM(memo, 4), 0xFF)) >= 0) {
        buffer = Py_IS_TYPE(hvfs, TYPE(K_HVFS)) ? SLOT(hvfs, at[S_BUFFER]) : NULL;
        start = buffer ? small(SLOT(hvfs, at[S_START]), LONG_MAX / 8) + 4 * hop : -1;
        if (buffer && PyBytes_CheckExact(buffer) && start >= 4 * hop && start + 4 <= PyBytes_GET_SIZE(buffer))
            hvf = PyBytes_AS_STRING(buffer) + start;
        else if ((PyList_CheckExact(hvfs) || PyTuple_CheckExact(hvfs)) && hop < PySequence_Fast_GET_SIZE(hvfs)
                 && BYTES(PySequence_Fast_GET_ITEM(hvfs, hop), 4))
            hvf = PyBytes_AS_STRING(PySequence_Fast_GET_ITEM(hvfs, hop));
    }
    if (hvf != NULL) {
        memcpy(row, PyBytes_AS_STRING(PyTuple_GET_ITEM(memo, 0)), 38);
        row[38] = (uint8_t)(in >> 8), row[39] = (uint8_t)in, row[40] = (uint8_t)(eg >> 8), row[41] = (uint8_t)eg;
        memcpy(row + 42, PyBytes_AS_STRING(PyTuple_GET_ITEM(memo, 1)), 12);
        memcpy(row + 54, hvf, 4);
        row[58] = (uint8_t)(flags | (hop == last ? F_LAST : 0));
        memset(row + 59, 0, 5);
    }
    Py_XDECREF(memo), Py_XDECREF(hvfs), Py_DECREF(state);
    return hvf != NULL;
}

/* F_PYTHON on each later copy of a packet object in rows [0, count): it meets
   the hop its first copy was forwarded to.  A pointer set on the stack, on the
   heap past 64 packets.  0, or -1 with an error. */
static int repeats(PyObject *const *packets, Py_ssize_t count, uint8_t *rows)
{
    PyObject *stack[128], **seen = stack, *packet;
    size_t size = 128, i, h;
    while (size < 2 * (size_t)count) size *= 2;
    if (size == 128) memset(stack, 0, sizeof stack);
    else if ((seen = PyMem_Calloc(size, sizeof *seen)) == NULL) return PyErr_NoMemory(), -1;
    for (i = 0; i < (size_t)count; i++) {
        packet = packets[i];
        for (h = (size_t)((uintptr_t)packet * 0x9E3779B97F4A7C15ULL >> 32) & (size - 1);
             seen[h] != NULL && seen[h] != packet; h = (h + 1) & (size - 1));
        rows[64 * i + 58] |= seen[h] != NULL ? F_PYTHON : 0;
        seen[h] = packet;
    }
    if (seen != stack) PyMem_Free(seen);
    return 0;
}

/* owner.<path[k]> += by[k] for each of `count` counters with a count, up to
   the first that fails: path[k] names the holder, an attribute of the owner
   (-1: the owner itself), an attribute of that (0: none) and the counter, an
   attribute or, negated, a verdict code whose Verdict keys the holder's item.
   A pending error stays the one raised. */
static void flush(PyObject *owner, const int (*path)[3], const Py_ssize_t *by, int count)
{
    PyObject *type, *value, *trace, *holder, *key, *old, *delta, *sum;
    int k;
    PyErr_Fetch(&type, &value, &trace);
    for (k = 0; k < count && !PyErr_Occurred(); k++) {
        if (by[k] == 0) continue;
        holder = path[k][0] < 0 ? (Py_INCREF(owner), owner) : PyObject_GetAttr(owner, Name[path[k][0]]);
        if (holder != NULL && path[k][1]) Py_SETREF(holder, PyObject_GetAttr(holder, Name[path[k][1]]));
        key = path[k][2] < 0 ? PyTuple_GET_ITEM(Bound[K_VERDICTS], -path[k][2]) : Name[path[k][2]];
        old = holder ? (path[k][2] < 0 ? PyObject_GetItem(holder, key) : PyObject_GetAttr(holder, key)) : NULL;
        delta = old ? PyLong_FromSsize_t(by[k]) : NULL;
        if ((sum = delta ? PyNumber_Add(old, delta) : NULL) != NULL)
            path[k][2] < 0 ? PyObject_SetItem(holder, key, sum) : PyObject_SetAttr(holder, key, sum);
        Py_XDECREF(holder), Py_XDECREF(old), Py_XDECREF(delta), Py_XDECREF(sum);
    }
    if (type != NULL) PyErr_Restore(type, value, trace);
}

/* Row i's result onto `results`.  Validating, True or False.  Else a drop is
   router._finish's, after duplicates._caught for a DUPLICATE (the kernel left
   its MAC in the row); FORWARD is after `packet.hop_index += 1`, the egress
   off the row.  counted[0] or [1] once the pointer moved.  0, or -1 with an error. */
static int emit(PyObject *router, PyObject *packet, const uint8_t *row, int code, int validate, PyObject *results, Py_ssize_t counted[3])
{
    PyObject *hop, *next = NULL, *result = NULL, *caught = NULL;
    int status = -1;
    if (code < V_FORWARD || code > V_DUPLICATE)
        return PyErr_SetString(PyExc_IndexError, "a stop the kernel ran past"), -1;
    if (validate) return PyList_Append(results, code == V_FORWARD ? Py_True : Py_False);
    if (code == V_DUPLICATE && (caught = PyObject_GetAttr(router, Name[DUPLICATES])) != NULL)
        Py_SETREF(caught, PyObject_CallMethod(caught, "_caught", "y#", (const char *)row, (Py_ssize_t)16));
    if (code >= V_EXPIRED && (code != V_DUPLICATE || caught != NULL))
        result = PyObject_CallMethodObjArgs(router, Name[FINISH], packet, PyTuple_GET_ITEM(Bound[K_VERDICTS], code), NULL);
    if (code == V_FORWARD && (hop = PyObject_GetAttr(packet, Name[HOP])) != NULL) {
        if ((next = PyNumber_Add(hop, ONE)) != NULL && PyObject_SetAttr(packet, Name[HOP], next) < 0)
            Py_CLEAR(next);
        Py_DECREF(hop);
    }
    if (code == V_DELIVER || next != NULL) {
        counted[code - V_FORWARD]++;
        result = TYPE(K_RESULT)->tp_alloc(TYPE(K_RESULT), 3);
        if (result != NULL) {
            Py_INCREF(PyTuple_GET_ITEM(Bound[K_VERDICTS], code)), Py_INCREF(packet);
            PyTuple_SET_ITEM(result, 0, PyTuple_GET_ITEM(Bound[K_VERDICTS], code));
            PyTuple_SET_ITEM(result, 1, packet);
            PyTuple_SET_ITEM(result, 2, code == V_DELIVER ? (Py_INCREF(Py_None), Py_None) : PyLong_FromLong(row[40] << 8 | row[41]));
            if (PyTuple_GET_ITEM(result, 2) == NULL) Py_CLEAR(result);
        }
    }
    status = result == NULL ? -1 : PyList_Append(results, result);
    Py_XDECREF(next), Py_XDECREF(result), Py_XDECREF(caught);
    return status;
}

/* burst(router, packets, results, now, validate, start, gathered, flag) -> the
   row Python must see, why in router.kernel.verdicts at that row, or -1: done.
   Unless `gathered` is -1 (every row packed and marked), rows [gathered, len)
   are packed into kernel.rows, grown to fit (GATHER: a packet the gather does
   not take), then repeats are marked and, if `flag` (a policing set holds
   anything), router._flag(packets, 0) marks the flagged rows.  colibri_burst
   runs from `start` and each row up to its stop gets its result onto
   `results`.  The packets are a tuple and the buffers pinned for the call,
   whatever Python code runs in it; its tallies are flushed, also when it raises. */
static PyObject *burst(PyObject *self, PyObject *const *args, Py_ssize_t n)
{
    static const int counters[5][3] = {{STATS, 0, -V_FORWARD}, {STATS, 0, -V_DELIVER}, {DUPLICATES, CURRENT, INSERTIONS},
                                       {OFD, 0, SEEN}, {MONITOR, 0, PASSED}};
    PyObject *router = n == 8 ? args[0] : NULL, *kernel, *seq = NULL, *state, *rows, *verdicts, *flags, *const *packets;
    Py_buffer row_view = {0}, verdict_view = {0};
    Py_ssize_t count = 0, start, gathered, i, counted[3] = {0, 0, 0};
    uint8_t *row, *verdict;
    double now;
    long stop = -1;
    int validate, flag;
    (void)self;
    if (router == NULL || Bound[K_KERNEL] == NULL || !PyList_Check(args[2]))
        return PyErr_Format(PyExc_TypeError, "burst(router, packets, results, now, validate, start, gathered, flag) after bind()");
    now = PyFloat_AsDouble(args[3]), validate = PyObject_IsTrue(args[4]), flag = PyObject_IsTrue(args[7]);
    start = PyLong_AsSsize_t(args[5]), gathered = PyLong_AsSsize_t(args[6]);
    if (validate < 0 || flag < 0 || PyErr_Occurred() || (kernel = PyObject_GetAttr(router, Name[KERNEL])) == NULL)
        return NULL;
    state = Py_IS_TYPE(kernel, TYPE(K_KERNEL)) ? SLOT(kernel, at[S_STRUCT]) : NULL;
    rows = state ? SLOT(kernel, at[S_ROWS]) : NULL, verdicts = state ? SLOT(kernel, at[S_VERDICTS]) : NULL;
    Py_XINCREF(state);
    if (!rows || !verdicts || !PyByteArray_Check(rows) || !PyByteArray_Check(verdicts)
        || !PyByteArray_Check(state) || PyByteArray_GET_SIZE(state) != sizeof(colibri_police_t))
        PyErr_SetString(PyExc_TypeError, "router.kernel is not a bound BurstKernel");
    else if ((seq = PySequence_Tuple(args[1])) != NULL
             && ((count = PyTuple_GET_SIZE(seq)) < start || start < 0 || count < gathered || gathered < -1))
        PyErr_SetString(PyExc_IndexError, "start or gathered outside the burst");
    if (PyErr_Occurred() || (PyByteArray_GET_SIZE(verdicts) < count && PyByteArray_Resize(verdicts, count) < 0)
        || (PyByteArray_GET_SIZE(rows) < 64 * count && PyByteArray_Resize(rows, 64 * count) < 0)
        || PyObject_GetBuffer(rows, &row_view, PyBUF_WRITABLE) < 0 || PyObject_GetBuffer(verdicts, &verdict_view, PyBUF_WRITABLE) < 0)
        goto done;
    packets = &PyTuple_GET_ITEM(seq, 0), row = row_view.buf, verdict = verdict_view.buf;
    for (i = gathered < 0 ? count : gathered; i < count; i++)
        if (!gather_one(packets[i], row + 64 * i)) {  /* its memo is built in Python */
            verdict[i] = V_GATHER, stop = (long)i;
            goto done;
        }
    if (gathered >= 0 && count > 1 && repeats(packets, count, row) < 0) goto done;
    if (gathered >= 0 && flag && !validate) {
        if ((flags = PyObject_CallMethod(router, "_flag", "Oi", seq, 0)) == NULL) goto done;
        Py_DECREF(flags);
    }
    if ((stop = colibri_burst((colibri_police_t *)PyByteArray_AS_STRING(state), row, count, start, verdict, now, validate)) < 0) {
        PyErr_SetString(PyExc_IndexError, "the policing tables' geometry was refused");
        goto done;
    }
    for (i = start; i < stop; i++)
        if (emit(router, packets[i], row + 64 * i, verdict[i], validate, args[2], counted) < 0) goto done;
    counted[2] += stop < count && verdict[stop] == V_OVER;
    stop = stop == count ? -1 : stop;
done:
    if (!validate) {  /* what the Python body counts for the rows forwarded, delivered or handed over at OVER */
        Py_ssize_t by[5] = {counted[0], counted[1], counted[0] + counted[1] + counted[2], counted[0] + counted[1] + counted[2],
                            counted[0] + counted[1]};
        flush(router, counters, by, 5);
    }
    PyBuffer_Release(&row_view), PyBuffer_Release(&verdict_view);
    Py_XDECREF(seq), Py_XDECREF(state), Py_DECREF(kernel);
    return PyErr_Occurred() ? NULL : PyLong_FromLong(stop);
}

/* ---- the gateway: ColibriGateway.send_batch in one call ---------------------- */

/* `owner`'s instance dict, borrowed (the owner keeps it) until Python code runs; NULL and no error if none. */
static PyObject *state_of(PyObject *owner)
{
    PyObject *state = owner != NULL ? PyObject_GenericGetDict(owner, NULL) : NULL;
    Py_XDECREF(state);
    PyErr_Clear();
    return state;
}

/* A new reference to item `name` of the instance dict `state` if exactly a `type` (any, if NULL), else NULL. */
static PyObject *item(PyObject *state, int name, PyTypeObject *type)
{
    PyObject *value = state != NULL ? PyDict_GetItemWithError(state, Name[name]) : NULL;
    if (value == NULL || (type != NULL && !Py_IS_TYPE(value, type))) return NULL;
    Py_INCREF(value);
    return value;
}

/* An exact float's value into d: 1, else 0. */
#define REAL(o, d) ((o) != NULL && PyFloat_CheckExact(o) && ((d) = PyFloat_AS_DOUBLE(o), 1))

/* A new object of a class bind() took, as object.__new__ makes it; ALLOC: no
   instance dict made yet (ColibriPacket.trusted sets one). */
#define NEW(k) PyBaseObject_Type.tp_new(TYPE(k), EMPTY, NULL)
#define ALLOC(k) TYPE(k)->tp_alloc(TYPE(k), 0)

/* The packet _plan, _stamp and _emit_packets make of `request` at `when`: an
   exact ColibriPacket (EER_DATA) with its `_row` memo and a tag string of its
   own, its EER's last_micros and token bucket moved as _plan moves them
   (*moved set once they are).  NULL and no error: the request is Python's -- a
   missing or expired latest version, an out-of-range Ts, a bucket drop, a
   version without a native schedule, or any object not exactly as the gateway
   writes it -- and nothing moved. */
static PyObject *stamp_one(PyObject *request, PyObject *table, PyObject *buckets, PyObject *when, int *moved)
{
    enum { ENTRY, VERSION, RES_, PATH_, PAIRS_, EER_, HEAD_, SCHED, LANES, LAST_, SIZE_, LABEL_, BUCKET, HELD };
    enum { M_MICROS, M_SEQ, M_LAST, M_TOKENS, M_TAGS, M_MESSAGE, M_PACKED, M_TS, M_HVFS, M_COUNT, M_HOP, M_ROW, M_DICT, MADE };
    PyObject *held[HELD] = {NULL}, *made[MADE] = {NULL}, *state, *id, *payload, *key, *lanes = NULL, *packet = NULL;
    double now = PyFloat_AS_DOUBLE(when), expiry = 0, span = 0, tokens = 0, updated = 0, rate = 0, depth = 0;
    long long micros, sequence = 0, hops = -1, size = -1, previous;
    unsigned long long word;
    int k, overflow = 0, refill = 0, ok;
    uint8_t message[12], tags[4 * 255];
    if (!PyTuple_CheckExact(request) || PyTuple_GET_SIZE(request) != 2 || !Py_IS_TYPE(id = PyTuple_GET_ITEM(request, 0), TYPE(K_ID))
        || !PyBytes_CheckExact(payload = PyTuple_GET_ITEM(request, 1)) || (key = item(state_of(id), PACKED, &PyBytes_Type)) == NULL)
        return NULL;
    held[ENTRY] = PyDict_GetItemWithError(table, key);
    Py_DECREF(key);
    if (held[ENTRY] == NULL || !Py_IS_TYPE(held[ENTRY], TYPE(K_ENTRY)))
        return PyErr_Clear(), NULL;
    Py_INCREF(held[ENTRY]);
    state = state_of(held[ENTRY]);
    held[VERSION] = item(state, LATEST, TYPE(K_VERSION)), held[PATH_] = item(state, PATH, TYPE(K_PATH));
    held[EER_] = item(state, EER, NULL), held[LAST_] = item(state, LAST, NULL);
    held[SIZE_] = item(state, HEADER, &PyLong_Type), held[LABEL_] = item(state, LABEL, &PyBytes_Type);
    state = state_of(held[VERSION]);
    held[RES_] = item(state, RES, TYPE(K_RES)), held[HEAD_] = item(state, HEAD, &PyBytes_Type);
    held[SCHED] = item(state, SCHEDULE, TYPE(K_SCHEDULE)), held[PAIRS_] = item(state_of(held[PATH_]), PAIRS, &PyTuple_Type);
    if ((held[BUCKET] = held[LABEL_] ? PyDict_GetItemWithError(buckets, held[LABEL_]) : NULL) != NULL) Py_INCREF(held[BUCKET]);
    PyErr_Clear();
    if (held[SCHED] != NULL)
        hops = small(SLOT(held[SCHED], at[S_HOPS]), 255), Py_XINCREF(held[LANES] = lanes = SLOT(held[SCHED], at[S_LANES]));
    /* The latest live version, the Ts word and its range, PktSize, as _plan reads them. */
    ok = held[RES_] && PyTuple_GET_SIZE(held[RES_]) == 4 && held[PAIRS_] && held[EER_] && BYTES(held[HEAD_], 38)
         && held[LAST_] && held[LABEL_] && hops > 0 && PyTuple_GET_SIZE(held[PAIRS_]) == hops
         && small(SLOT(held[SCHED], at[S_TAG]), 16) == 4 && lanes && PyByteArray_CheckExact(lanes)
         && PyByteArray_GET_SIZE(lanes) >= 256 * ((hops + 7) / 8)
         && REAL(PyTuple_GET_ITEM(held[RES_], 2), expiry) && now < expiry && (span = (expiry - now) * 1e6) < 281474976710656.0
         && (size = small(held[SIZE_], 0xFFFF)) >= 0 && (size += PyBytes_GET_SIZE(payload)) <= 0xFFFFFFFFLL;
    micros = ok ? (long long)span : 0;  /* int() of a float in [0, 2^48): truncated */
    if (ok && held[LAST_] != Py_None) {
        ok = PyTuple_CheckExact(held[LAST_]) && PyTuple_GET_SIZE(held[LAST_]) == 2 && PyLong_CheckExact(PyTuple_GET_ITEM(held[LAST_], 0));
        previous = ok ? PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(held[LAST_], 0), &overflow) : -1;
        if (ok && !overflow && previous == micros)
            ok = (sequence = small(PyTuple_GET_ITEM(held[LAST_], 1), 0xFFFE) + 1) > 0;
    }
    /* TokenBucket.conforms as _plan inlines it: the same double operations in the same order. */
    if (ok && held[BUCKET] != NULL) {
        ok = Py_IS_TYPE(held[BUCKET], TYPE(K_BUCKET)) && REAL(SLOT(held[BUCKET], at[S_TOKENS]), tokens)
             && REAL(SLOT(held[BUCKET], at[S_UPDATED]), updated);
        if (ok && now > updated) {
            ok = REAL(SLOT(held[BUCKET], at[S_DEPTH]), depth) && REAL(SLOT(held[BUCKET], at[S_RATE]), rate);
            tokens += (now - updated) * rate;
            if (tokens > depth) tokens = depth;
            refill = 1;
        }
        ok = ok && (double)(size * 8) <= tokens;  /* else a drop: monitor.record_drop is Python's */
    }
    if (!ok) goto done;
    /* Eq. (6) over Ts || PktSize, one tag per hop, before any Python code can run. */
    word = (unsigned long long)micros << 16 | (unsigned long long)sequence;
    for (k = 0; k < 12; k++) message[k] = (uint8_t)(k < 8 ? word >> (56 - 8 * k) : (unsigned long long)size >> (88 - 8 * k));
    colibri_stamp_t((const uint32_t *)PyByteArray_AS_STRING(lanes), (size_t)hops, message, 12, tags, 4);
    *moved = 1;
    if ((made[M_MICROS] = PyLong_FromLongLong(micros)) == NULL || (made[M_SEQ] = PyLong_FromLongLong(sequence)) == NULL
        || (made[M_LAST] = PyTuple_Pack(2, made[M_MICROS], made[M_SEQ])) == NULL
        || PyObject_SetAttr(held[ENTRY], Name[LAST], made[M_LAST]) < 0
        || (held[BUCKET] != NULL && (made[M_TOKENS] = PyFloat_FromDouble(tokens - (double)(size * 8))) == NULL))
        goto done;
    if (held[BUCKET] != NULL) {
        Py_INCREF(made[M_TOKENS]);
        Py_XSETREF(SLOT(held[BUCKET], at[S_TOKENS]), made[M_TOKENS]);
        if (refill) {
            Py_INCREF(when);
            Py_XSETREF(SLOT(held[BUCKET], at[S_UPDATED]), when);
        }
    }
    if ((made[M_TAGS] = PyBytes_FromStringAndSize((const char *)tags, 4 * hops)) == NULL
        || (made[M_MESSAGE] = PyBytes_FromStringAndSize((const char *)message, 12)) == NULL
        || (made[M_PACKED] = PyBytes_FromStringAndSize((const char *)message, 8)) == NULL
        || (made[M_TS] = NEW(K_TS)) == NULL || PyObject_SetAttr(made[M_TS], Name[MICROS], made[M_MICROS]) < 0
        || PyObject_SetAttr(made[M_TS], Name[SEQUENCE], made[M_SEQ]) < 0 || PyObject_SetAttr(made[M_TS], Name[PACKED], made[M_PACKED]) < 0
        || (made[M_COUNT] = PyLong_FromLongLong(hops)) == NULL || (made[M_HOP] = PyLong_FromLongLong(hops - 1)) == NULL
        || (made[M_HVFS] = ALLOC(K_HVFS)) == NULL
        || (made[M_ROW] = PyTuple_Pack(5, held[HEAD_], made[M_MESSAGE], held[PAIRS_], made[M_HOP], ZERO)) == NULL
        || (made[M_DICT] = PyDict_Copy(Packet)) == NULL)
        goto done;
    Py_INCREF(made[M_TAGS]), Py_INCREF(ZERO), Py_INCREF(made[M_COUNT]);  /* HvfVector(tags, 0, hops) */
    SLOT(made[M_HVFS], at[S_BUFFER]) = made[M_TAGS], SLOT(made[M_HVFS], at[S_START]) = ZERO, SLOT(made[M_HVFS], at[S_COUNT]) = made[M_COUNT];
    {
        PyObject *values[9] = {ONE, held[PATH_], held[RES_], made[M_TS], made[M_HVFS], held[EER_], payload, ZERO, made[M_ROW]};
        for (k = 0; k < 9; k++)
            if (PyDict_SetItem(made[M_DICT], Name[keys[k]], values[k]) < 0) goto done;
    }
    if ((packet = ALLOC(K_PACKET)) != NULL && PyObject_GenericSetDict(packet, made[M_DICT], NULL) < 0) Py_CLEAR(packet);
done:
    for (k = 0; k < HELD; k++) Py_XDECREF(held[k]);
    for (k = 0; k < MADE; k++) Py_XDECREF(made[k]);
    return packet;
}

/* send(gateway, requests, outcomes, now, start) -> the request Python must
   serve, or -1: done.  ColibriGateway.send_batch's native call: from `start`,
   each request of the tuple becomes stamp_one's packet on `outcomes` until one
   is Python's; gateway.packets_sent and monitor.packets_passed count what
   stamp_one moved, also when it raises. */
static PyObject *send(PyObject *self, PyObject *const *args, Py_ssize_t n)
{
    static const int counters[2][3] = {{-1, 0, SENT}, {MONITOR, 0, PASSED}};
    PyObject *gateway = n == 5 ? args[0] : NULL, *table = NULL, *monitor = NULL, *buckets = NULL, *packet;
    Py_ssize_t start = gateway ? PyLong_AsSsize_t(args[4]) : -1, i, count = 0, sent[2] = {0, 0};
    int k, moved;
    (void)self;
    for (k = K_TS; k < KINDS && Bound[k] != NULL; k++);
    if (gateway == NULL || k < KINDS || Bound[K_PACKET] == NULL || Bound[K_HVFS] == NULL || !PyTuple_CheckExact(args[1])
        || !PyList_Check(args[2]) || start < 0 || start > (count = PyTuple_GET_SIZE(args[1])))
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_TypeError, "send(gateway, requests, outcomes, now, start) after bind()");
    if ((table = PyObject_GetAttr(gateway, Name[TABLE])) != NULL && (monitor = PyObject_GetAttr(gateway, Name[MONITOR])) != NULL)
        buckets = PyObject_GetAttr(monitor, Name[BUCKETS]);
    for (i = start; buckets && PyDict_CheckExact(table) && PyDict_CheckExact(buckets) && PyFloat_CheckExact(args[3]) && i < count; i++) {
        moved = 0, packet = stamp_one(PyTuple_GET_ITEM(args[1], i), table, buckets, args[3], &moved);
        sent[0] += moved, sent[1] += moved;
        k = packet != NULL ? PyList_Append(args[2], packet) : -1;
        Py_XDECREF(packet);
        if (k < 0) break;
    }
    flush(gateway, counters, sent, 2);
    Py_XDECREF(table), Py_XDECREF(monitor), Py_XDECREF(buckets);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(i < count ? i : -1);
}

/* bind(*classes): the classes the glue reads and builds, each by its name in
   `kinds`, and the offsets of their slots it reads; the router's `verdicts`
   is the tuple of the Verdict each code FORWARD to DUPLICATE means, at its value. */
static PyObject *bind(PyObject *self, PyObject *const *args, Py_ssize_t n)
{
    PyObject *member;
    Py_ssize_t i, found[SLOTS];
    int k, s;
    (void)self;
    for (i = 0; i < n; i++) {
        const char *name = PyTuple_CheckExact(args[i]) ? "tuple" : PyType_Check(args[i]) ? ((PyTypeObject *)args[i])->tp_name : "";
        for (k = 0; k < KINDS && strcmp(name, kinds[k]); k++);
        for (s = 0; k < KINDS && s < SLOTS; s++) {
            if (slots[s].kind != k) continue;
            member = PyObject_GetAttrString(args[i], slots[s].name);
            found[s] = member && Py_IS_TYPE(member, &PyMemberDescr_Type) ? ((PyMemberDescrObject *)member)->d_member->offset : -1;
            Py_XDECREF(member);
            k = found[s] < 0 ? KINDS : k;
        }
        if (k == KINDS || (k == K_VERDICTS && PyTuple_GET_SIZE(args[i]) != V_DUPLICATE + 1)
            || ((k == K_RESULT || k == K_RES) && !PyType_IsSubtype((PyTypeObject *)args[i], &PyTuple_Type))) {
            PyErr_Clear();
            return PyErr_Format(PyExc_TypeError, "bind() takes the classes the glue reads, not %R", args[i]);
        }
        for (s = 0; s < SLOTS; s++)
            if (slots[s].kind == k) at[s] = found[s];
        Py_INCREF(args[i]);
        Py_XSETREF(Bound[k], args[i]);
    }
    Py_RETURN_NONE;
}

#define METHOD(f) {#f, (PyCFunction)(void (*)(void))f, METH_FASTCALL, NULL}
static PyMethodDef methods[] = {METHOD(bind), METHOD(burst), METHOD(send), {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_colibri_glue", NULL, -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__colibri_glue(void)
{
    int i;
    for (i = 0; i < NAMES; i++)
        if ((Name[i] = PyUnicode_InternFromString(names[i])) == NULL) return NULL;
    ZERO = PyLong_FromLong(0), ONE = PyLong_FromLong(1), EMPTY = PyTuple_New(0), Packet = PyDict_New();
    for (i = 0; Packet != NULL && i < 9; i++)
        if (PyDict_SetItem(Packet, Name[keys[i]], Py_None) < 0) Py_CLEAR(Packet);
    return ZERO && ONE && EMPTY && Packet ? PyModule_Create(&module) : NULL;
}
"""

_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native_build")

def _module_name() -> str:
    return "_colibri_b2s_" + hashlib.blake2s((_CDEF + _SOURCE + _GLUE).encode("utf-8"), digest_size=6).hexdigest()


def _find_extension(name: str) -> Optional[str]:
    if not os.path.isdir(_BUILD_DIR):
        return None
    for entry in sorted(os.listdir(_BUILD_DIR)):
        if entry.startswith(name) and entry.endswith(".so"):
            return os.path.join(_BUILD_DIR, entry)
    return None


def _compile_extension(name: str) -> str:
    """Build the extension (the kernel, and the glue as a C file of its own)
    into ``_BUILD_DIR`` and return its path.

    Compiles in a per-process scratch directory and atomically renames
    the result, so concurrent first-callers (two test or benchmark
    processes) cannot corrupt each other's build; older revisions' builds
    then go.
    """
    from cffi import FFI, VerificationError

    scratch = os.path.join(_BUILD_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    with open(os.path.join(scratch, "_colibri_glue.c"), "w") as glue:
        glue.write(_GLUE)
    ffi = FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, _SOURCE, sources=[glue.name], extra_compile_args=["-O3", "-ffp-contract=off"])
    try:
        built = ffi.compile(tmpdir=scratch, verbose=False)
        final = os.path.join(_BUILD_DIR, os.path.basename(built))
        os.replace(built, final)
    except VerificationError as error:  # no working C toolchain
        raise OSError(f"native kernel compile failed: {error}") from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for entry in os.listdir(_BUILD_DIR):  # builds of older source revisions
        if entry.startswith("_colibri_b2s_") and not entry.startswith(name):
            try:
                os.unlink(os.path.join(_BUILD_DIR, entry))
            except OSError:  # a concurrent builder removed it first
                pass
    return final


def _load() -> "NativeBackend":
    name = _module_name()
    path, modules = _find_extension(name) or _compile_extension(name), []
    for module in (name, "_colibri_glue"):  # one extension, two PyInit_ functions
        spec = importlib.util.spec_from_file_location(module, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load native extension at {path}")
        modules.append(importlib.util.module_from_spec(spec))
        spec.loader.exec_module(modules[-1])
    return NativeBackend(modules[0].ffi, modules[0].lib, modules[1])


@functools.lru_cache(maxsize=1)
def _probe() -> tuple:
    """``(backend, unavailable_reason)`` — exactly one is non-``None``.

    Memoized probe of the environment (``COLIBRI_NATIVE=0`` disables, else
    load a cached build or compile one): a host without a compiler pays it
    once.  The memo lives on the function, not in a module global, and is a
    pure function of the process environment.
    """
    if os.environ.get("COLIBRI_NATIVE", "1").lower() in ("0", "no", "off"):
        return None, "disabled via COLIBRI_NATIVE"
    try:
        return _load(), None
    except ImportError as error:  # no cffi, or the built .so will not load
        return None, f"import failed: {error}"
    except OSError as error:  # no compiler, unwritable build dir, ...
        return None, f"build failed: {error}"


def backend() -> Optional["NativeBackend"]:
    """The loaded native backend, or ``None`` when unavailable."""
    return _probe()[0]


def reset_for_tests() -> None:
    """Forget the probe result so tests can flip COLIBRI_NATIVE."""
    _probe.cache_clear()


def _normalize_key(key: bytes) -> bytes:
    """The :func:`repro.crypto.prf.prf` key rule: non-empty, and keys
    longer than one BLAKE2s block are compressed first."""
    if not key:
        raise ValueError("PRF key must be non-empty")
    if len(key) > 32:
        key = hashlib.blake2s(key).digest()
    return key


class NativeBackend:
    """A loaded kernel: the cffi ``ffi``/``lib`` pair and the glue module."""

    __slots__ = ("ffi", "lib", "glue")

    def __init__(self, ffi, lib, glue):
        self.ffi, self.lib, self.glue = ffi, lib, glue

    def key_schedule(self, key: bytes) -> bytes:
        """One key's 32-byte chaining state, as the kernel keys a MAC with it."""
        key = _normalize_key(key)
        words = self.ffi.new("uint32_t[8]")
        self.lib.colibri_b2s_key_schedule(key, len(key), MAC_LENGTH, words)
        return self.ffi.buffer(words)[:]


class ScheduleBlock:
    """Contiguous native key schedules for one ordered key set.

    The native analogue of :func:`repro.dataplane.hvf.sigma_states`: one C
    call stamps every hop of a packet (:meth:`stamp_flat`) or a whole burst
    (:meth:`stamp_many_flat`), byte-identical to the hashlib path.  Not
    thread-safe (the output scratch is reused per call).
    """

    __slots__ = ("count", "tag_len", "_ffi", "_lib", "_lanes", "_out", "_view")

    def __init__(self, backend: NativeBackend, keys, tag_len: int = L_HVF):
        if not 0 < tag_len <= MAC_LENGTH:
            raise ValueError(f"tag length must be in (0, {MAC_LENGTH}], got {tag_len}")
        ffi, lib, keys = backend.ffi, backend.lib, tuple(keys)
        scheds = ffi.new("uint32_t[]", 8 * len(keys))
        for index, key in enumerate(keys):
            key = _normalize_key(key)
            lib.colibri_b2s_key_schedule(key, len(key), MAC_LENGTH, scheds + 8 * index)
        self.count, self.tag_len, self._ffi, self._lib = len(keys), tag_len, ffi, lib
        # The 8-way lane layout (see the C side), built once at install in a
        # bytearray the gateway's glue reads; cffi views of it are per call.
        groups = (len(keys) + 7) // 8
        self._lanes = bytearray(4 * max(64, groups * 64))
        lib.colibri_b2s_transpose(scheds, len(keys), ffi.from_buffer("uint32_t[]", self._lanes))
        self._out = ffi.new("uint8_t[]", max(1, self.count * tag_len))
        self._view = ffi.buffer(self._out)

    def stamp_flat(self, message: bytes) -> bytes:
        """All per-key tags over ``message``, concatenated (one C call)."""
        lanes = self._ffi.from_buffer("uint32_t[]", self._lanes)
        self._lib.colibri_stamp_t(lanes, self.count, message, len(message), self._out, self.tag_len)
        return self._view[:]

    def stamp_many_flat(self, messages, message_len: int, count: int) -> bytes:
        """Tags for ``count`` fixed-size messages packed back to back.

        ``messages`` is any buffer of ``count * message_len`` bytes;
        the result is message-major: packet p's tags occupy
        ``[p*count_keys*tag_len, (p+1)*count_keys*tag_len)``.
        """
        ffi, lanes = self._ffi, self._ffi.from_buffer("uint32_t[]", self._lanes)
        out = ffi.new("uint8_t[]", max(1, count * self.count * self.tag_len))
        self._lib.colibri_stamp_many_t(lanes, self.count, ffi.from_buffer(messages), message_len, count, out, self.tag_len)
        return ffi.buffer(out)[:]


def repointing(name: str) -> property:
    """A table attribute the struct copies: setting it calls ``_repoint``."""

    def assign(table, value) -> None:
        setattr(table, name, value)
        table._repoint()

    return property(operator.attrgetter(name), assign)


#: A packet's row as ``colibri_burst`` reads it: ResId, Bw, ExpT, Ver,
#: SrcHost, DstHost, In, Eg (the Eq. (4) input), Ts, PktSize, HVF, flags.
ROW = struct.Struct("!12sddHIIHH8sI4sB5x")
#: Its verdict bytes, the glue's two stops and the row flags (the C enums).
FORWARD, DELIVER, EXPIRED, STALE, BAD_HVF, DUPLICATE, PYTHON, OVER, REFUSED, GROW, REKEY, CELLS, GATHER = range(1, 14)
F_PYTHON, F_FLAGGED, F_LAST = 1, 2, 4
#: The kernel stops ``burst`` returns to Python for, as :meth:`BurstKernel.snapshot` names them.
STOPS = (("grow", GROW), ("rekey", REKEY), ("cells", CELLS), ("over", OVER), ("python", PYTHON))
#: The flow table's bound, in flows: soft state for the working set only.
FLOW_CAPACITY = 65536
#: The most sketch rows a flow's entry holds (``colibri_flow_t.cells``).
SKETCH_DEPTH = 8


class BurstKernel:
    """One router's ``colibri_police_t``: its filters and sketch, its flow
    table and the row and verdict buffers of a burst, which the glue's
    ``burst`` (:attr:`drive`) grows to fit.

    Push-bound, nothing polls: :meth:`point` is the ``_repoint`` of the
    suppressor, both filters and the sketch, called where they change —
    ``_BloomFilter.clear`` (so every rotation), ``_roll``, a
    :func:`repointing` attribute (``bits``, ``hashes``, ``overuse_factor``,
    ``_rotated_at``).  The struct, the flow table and the buffers are
    bytearrays (a heap walk sees them); :meth:`resume` grows the table,
    loads the epoch's keys or hands over a new flow's sketch cells (computed
    only by ``cells_for``) when the kernel stops for it.  Weak proxies to the
    tables avoid a cycle.  Not thread-safe: one router, one burst at a time.
    """

    __slots__ = (
        "state", "drive", "rows", "verdicts", "_struct",
        "_ffi", "_schedule", "_move_flows", "_keys", "_pins", "_table", "_duplicates", "_ofd",
    )

    def __init__(self, backend: NativeBackend, keys, duplicates, ofd):
        self._ffi, self._schedule, self._keys = backend.ffi, backend.key_schedule, keys
        self.drive, self._move_flows = backend.glue.burst, backend.lib.colibri_flows_move
        self._struct = bytearray(backend.ffi.sizeof("colibri_police_t"))
        self.state = state = backend.ffi.from_buffer("colibri_police_t *", self._struct)
        self.rows, self.verdicts = bytearray(), bytearray()
        state.skew, state.freshness = MAX_CLOCK_SKEW, FRESHNESS_WINDOW
        self._duplicates, self._ofd = weakref.proxy(duplicates), weakref.proxy(ofd)
        for table in (duplicates, duplicates._current, duplicates._previous, ofd):
            table._repoint = self.point
        self.point()
        self._label(bytes(12))
        self.capacity = FLOW_CAPACITY

    def point(self) -> None:
        """Aim the struct at the tables' buffers, geometry, windows and threshold now."""
        duplicates, ofd, state = self._duplicates, self._ofd, self.state
        current, from_buffer = duplicates._current, self._ffi.from_buffer
        self._pins = pins = (
            from_buffer("uint8_t[]", current._array),
            from_buffer("uint8_t[]", duplicates._previous._array),
            from_buffer("double[]", ofd._counts),
        )
        state.current, state.previous, state.counts = pins
        state.nbytes, state.ncounts = min(len(pins[0]), len(pins[1])), len(pins[2])
        state.bits, state.hashes = current.bits, current.hashes
        state.width, state.depth = ofd.width, ofd.depth
        state.threshold = ofd.window * ofd.overuse_factor  # what observe() compares with
        state.rotated_at, state.duplicate_window = duplicates._rotated_at, duplicates.window
        state.window_start, state.sketch_window = ofd._window_start, ofd.window

    @property
    def capacity(self) -> int:
        """The most flows the table holds; setting it empties the table."""
        return self.state.capacity

    @capacity.setter
    def capacity(self, flows: int) -> None:
        if flows <= 0:
            raise ValueError(f"flow capacity must be positive, got {flows}")
        self.state.capacity, self.state.max_slots = flows, 1 << (2 * flows - 1).bit_length()
        self.clear()

    def clear(self) -> None:
        """Forget every flow (the counters stay)."""
        self.state.slots, self.state.nslots, self.state.count = self._ffi.NULL, 0, 0
        self._move(min(64, self.state.max_slots))

    def _move(self, slots: int) -> None:
        table = bytearray(slots * self._ffi.sizeof("colibri_flow_t"))
        cdata = self._ffi.from_buffer("colibri_flow_t[]", table)
        self._move_flows(self.state, cdata, slots)  # reads the old table: still pinned
        self._table = (table, cdata)

    def _label(self, label: bytes) -> None:
        """Give the struct flow ``label``'s sketch cells, for the flows of it
        the kernel stores next."""
        self._ffi.memmove(self.state.label, label, 12)
        self.state.cells = self._ofd.cells_for(label)

    def resume(self, stop: int, now: float) -> None:
        """Do what the kernel stopped at row ``stop`` for, before it runs that
        row again: double the flow table (``GROW``), load the K_i of ``now``'s
        DRKey epoch and the one before (``REKEY``), or hand over the cells of
        the row's flow (``CELLS``)."""
        state, code = self.state, self.verdicts[stop]
        if code == GROW:
            self._move(2 * state.nslots)
        elif code == CELLS:
            self._label(bytes(self.rows[ROW.size * stop : ROW.size * stop + 12]))
        else:
            epoch, previous, hop_key = int(now // DRKEY_VALIDITY), now - DRKEY_VALIDITY, self._keys.hop_key
            state.epoch, state.has_prev = epoch, previous >= 0
            state.epoch_start, state.epoch_end = epoch * DRKEY_VALIDITY, (epoch + 1) * DRKEY_VALIDITY
            self._ffi.memmove(state.key, self._schedule(hop_key(now)), 32)
            if previous >= 0:
                state.prev_epoch = int(previous // DRKEY_VALIDITY)
                self._ffi.memmove(state.prev_key, self._schedule(hop_key(previous)), 32)

    def snapshot(self) -> dict:
        """The ``sigma_cache_*`` telemetry and the kernel's ``router_stops_*``
        by reason (:data:`STOPS`): the counters that have moved, and the
        flows held."""
        state = self.state
        values = {
            f"sigma_cache_{name}": getattr(state, name)
            for name in ("hits", "misses", "evictions", "rejected_hints")
            if getattr(state, name)
        }
        values.update((f"router_stops_{name}", state.stops[code]) for name, code in STOPS if state.stops[code])
        values["sigma_cache_entries"] = state.count
        return values
