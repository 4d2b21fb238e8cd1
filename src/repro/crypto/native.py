"""Optional cffi-native kernel: keyed BLAKE2s for Eq. (6) stamping and
verification, and the border router's policing body for one packet-hop.

The paper's DPDK prototype reaches line rate because AES-NI computes a
per-packet MAC in tens of cycles; our pure-Python data plane pays three
``hashlib`` C calls *per hop* plus Python glue around each.  This module
is the corresponding "hardware" acceleration for the reproduction: a
small C implementation of keyed BLAKE2s, compiled on demand through
cffi, whose entry points amortize the Python→C boundary over a whole
packet (``colibri_stamp_t``: all hops in one call), a whole
single-reservation burst (``colibri_stamp_many_t``), or a whole *mixed*
burst (``colibri_stamp_scatter_t``: per-packet schedules, messages and
output offsets, one call — see :class:`BurstStamper`).  The router side
crosses once per packet-hop: ``colibri_hop`` runs §4.6 steps 3–5 — the
σ-cache entry's Eq. (6) check, the duplicate filter's test-and-set on
that MAC, the overuse detector's count-min update — on the router's own
tables — a ``bytearray`` pair, an ``array('d')``, Python's to read and
replace — through a ``colibri_police_t`` they re-point as they change
(:class:`HopPolicer`); a geometry that does not fit them is refused before
anything is written.  (``colibri_verify`` serves the validate-only paths.)

Byte-identity is the admission contract (docs/performance.md): for every
key and message,

    ScheduleBlock(backend, [key]).stamp_flat(msg)
        == hashlib.blake2s(msg, key=key, digest_size=16).digest()[:L_HVF]

which is exactly :func:`repro.crypto.prf.prf` truncated — the property
tests in tests/test_batch_equivalence.py enforce it, and every consumer
(gateway stamping, router σ-cache verification) falls back to the
hashlib path with identical output when the backend is unavailable.

Availability is best-effort by design: no cffi, no C compiler, or
``COLIBRI_NATIVE=0`` in the environment all mean
:func:`backend` returns ``None`` and the callers keep their pure-Python
hot paths.  Builds are cached under ``_native_build/`` (gitignored)
keyed by a hash of the C source, so the compiler runs once per source
revision per machine; concurrent builders compile into a private
directory and atomically rename the finished extension into place.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import operator
import os
import shutil
import weakref
from typing import Optional

from repro.constants import L_HVF, MAC_LENGTH

#: One router's policing tables as ``colibri_hop`` sees them; shared by the
#: cffi declarations and the C source.
_POLICE_T = """
typedef struct {
    uint8_t *current;         /* duplicate filter taking insertions */
    const uint8_t *previous;  /* the window before: consulted only */
    size_t nbytes;            /* what each filter buffer holds */
    uint64_t bits;
    size_t hashes;
    double *counts;           /* sketch rows, flat */
    size_t ncounts;
    double threshold;         /* an estimate above it is overuse */
    double estimate;          /* out: the flow's count-min estimate */
    uint8_t mac[16];          /* out: the untruncated Eq. (6) MAC */
} colibri_police_t;
"""

_CDEF = _POLICE_T + """
void colibri_b2s_key_schedule(const uint8_t *key, size_t keylen,
                              size_t outlen, uint32_t *h_out);
int colibri_verify(const uint8_t *sched, const uint8_t *msg, size_t msglen,
                   const uint8_t *tag, size_t tag_len, uint8_t *mac_out);
int colibri_hop(colibri_police_t *police, const uint8_t *sched,
                const uint8_t *msg, size_t msglen,
                const uint8_t *tag, size_t tag_len,
                const uint32_t *cells, size_t ncells, double amount);
void colibri_b2s_transpose(const uint32_t *scheds, size_t nscheds,
                           uint32_t *out);
void colibri_stamp_t(const uint32_t *scheds_t, size_t nscheds,
                     const uint8_t *msg, size_t msglen,
                     uint8_t *out, size_t tag_len);
void colibri_stamp_many_t(const uint32_t *scheds_t, size_t nscheds,
                          const uint8_t *msgs, size_t msglen, size_t nmsgs,
                          uint8_t *out, size_t tag_len);
void colibri_stamp_scatter_t(uint32_t * const *scheds_t,
                             const int32_t *nscheds,
                             const uint8_t *msgs, size_t msglen, size_t npkts,
                             uint8_t *out, const int64_t *offsets,
                             size_t tag_len);
"""

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
""" + _POLICE_T + r"""
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

#define G(r, i, a, b, c, d)                         \
    do {                                            \
        a = a + b + m[B2S_SIGMA[r][2 * i + 0]];     \
        d = ROTR32(d ^ a, 16);                      \
        c = c + d;                                  \
        b = ROTR32(b ^ c, 12);                      \
        a = a + b + m[B2S_SIGMA[r][2 * i + 1]];     \
        d = ROTR32(d ^ a, 8);                       \
        c = c + d;                                  \
        b = ROTR32(b ^ c, 7);                       \
    } while (0)

/* One full round, spelled out so the sigma indices are compile-time
   constants.  The rolled `for (r = 0; ...)` form makes every message
   word load an indirect table lookup; unrolling lets the compiler fold
   B2S_SIGMA into immediate offsets (~20% on the 16-hop stamp). */
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
   All hops of one packet MAC the same (single-block) message under
   different schedules -- the textbook shape for N-way SIMD hashing:
   lane L of a vector compress runs hop L.  Schedules are re-laid-out
   once at install time ("transposed": groups of 8 hops, word-major
   within a group, zero-padded lanes) so the vector loads need no
   per-packet gathers.  It is the only layout: the `_t` entry points
   fall back to scalar compressions over it when the CPU lacks AVX2 (or
   the build defines COLIBRI_SCALAR, as the sanitizer driver does). */

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

/* 8 tails over an arbitrary-length shared message (cold generality). */
__attribute__((target("avx2")))
static void b2s_tails_x8(const uint32_t *group, const uint8_t *msg,
                         size_t msglen, uint8_t *out, size_t lanes,
                         size_t tag_len)
{
    __m256i h[8];
    uint32_t m[16];
    uint64_t t = 64;
    int i;
    for (i = 0; i < 8; i++)
        h[i] = _mm256_loadu_si256((const __m256i *)(group + 8 * i));
    while (msglen > 64) {
        t += 64;
        b2s_block_words(msg, 64, m);
        b2s_compress_x8(h, m, t, 0);
        msg += 64;
        msglen -= 64;
    }
    b2s_block_words(msg, msglen, m);
    t += msglen;
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
    if (colibri_has_avx2()) {
        if (msglen <= 64) {
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
        for (i = 0; i < nscheds; i += 8) {
            size_t lanes = nscheds - i;
            if (lanes > 8) lanes = 8;
            b2s_tails_x8(scheds_t + i * 8, msg, msglen, out + i * tag_len,
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
    size_t p, i;
#ifdef COLIBRI_AVX2
    if (colibri_has_avx2() && msglen <= 64) {
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

void colibri_stamp_scatter_t(uint32_t * const *scheds_t,
                             const int32_t *nscheds,
                             const uint8_t *msgs, size_t msglen, size_t npkts,
                             uint8_t *out, const int64_t *offsets,
                             size_t tag_len)
{
    size_t p, i;
#ifdef COLIBRI_AVX2
    if (colibri_has_avx2() && msglen <= 64) {
        uint32_t m[16];
        uint64_t t = 64 + msglen;
        for (p = 0; p < npkts; p++) {
            const uint32_t *st = scheds_t[p];
            uint8_t *row = out + offsets[p];
            size_t hops = (size_t)nscheds[p];
            if (p + 1 < npkts) {
                const char *next = (const char *)scheds_t[p + 1];
                size_t nbytes = (((size_t)nscheds[p + 1] + 7) / 8) * 256;
                size_t line;
                for (line = 0; line < nbytes; line += 64)
                    __builtin_prefetch(next + line, 0, 1);
            }
            b2s_block_words(msgs + p * msglen, msglen, m);
            for (i = 0; i < hops; i += 8) {
                size_t lanes = hops - i;
                if (lanes > 8) lanes = 8;
                b2s_tails_words_x8(st + i * 8, m, t, row + i * tag_len,
                                   lanes, tag_len);
            }
        }
        return;
    }
#endif
    for (p = 0; p < npkts; p++)
        colibri_stamp_t(scheds_t[p], (size_t)nscheds[p], msgs + p * msglen,
                        msglen, out + offsets[p], tag_len);
}

/* Constant-time verify of one (truncated) tag; mac_out gets all 16 bytes. */
int colibri_verify(const uint8_t *sched, const uint8_t *msg, size_t msglen,
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

/* Rotating-Bloom test-and-set on a 16-byte MAC: bit i is (h1 + i*h2) mod
   bits over its two big-endian halves, both reduced first so the running
   sum never wraps.  1 = fresh and now recorded in `current`, 0 = seen (in
   `previous`, or every bit already set).  colibri_hop checked the geometry. */
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

/* One packet-hop, §4.6 steps 3-5 in order: Eq. (6) verify under the flow's
   schedule, duplicate test-and-set on the untruncated MAC, count-min add.
   -1 = refused, nothing written: `bits` does not fit the nbytes both
   filters hold, or a cell lies outside counts[0..ncounts); 0 = bad HVF;
   1 = duplicate; 2 = policed; 3 = policed and the estimate is over the
   threshold. */
int colibri_hop(colibri_police_t *police, const uint8_t *sched,
                const uint8_t *msg, size_t msglen,
                const uint8_t *tag, size_t tag_len,
                const uint32_t *cells, size_t ncells, double amount)
{
    size_t i;
    if (police->bits == 0 || (police->bits - 1) / 8 >= police->nbytes) return -1;
    for (i = 0; i < ncells; i++)
        if (cells[i] >= police->ncounts) return -1;
    if (!colibri_verify(sched, msg, msglen, tag, tag_len, police->mac)) return 0;
    if (!colibri_bloom_check(police->current, police->previous, police->bits,
                             police->hashes, police->mac))
        return 1;
    police->estimate = colibri_sketch_add(police->counts, cells, ncells, amount);
    return police->estimate > police->threshold ? 3 : 2;
}
"""

_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native_build")

def _module_name() -> str:
    digest = hashlib.blake2s(
        (_CDEF + _SOURCE).encode("utf-8"), digest_size=6
    ).hexdigest()
    return f"_colibri_b2s_{digest}"


def _find_extension(name: str) -> Optional[str]:
    if not os.path.isdir(_BUILD_DIR):
        return None
    for entry in sorted(os.listdir(_BUILD_DIR)):
        if entry.startswith(name) and entry.endswith(".so"):
            return os.path.join(_BUILD_DIR, entry)
    return None


def _compile_extension(name: str) -> str:
    """Build the extension into ``_BUILD_DIR`` and return its path.

    Compiles in a per-process scratch directory and atomically renames
    the result, so concurrent first-callers (e.g. spawned shard workers)
    cannot corrupt each other's build; older revisions' builds then go.
    """
    from cffi import FFI, VerificationError

    ffi = FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, _SOURCE, extra_compile_args=["-O3"])
    scratch = os.path.join(_BUILD_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
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
    path = _find_extension(name)
    if path is None:
        path = _compile_extension(name)
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load native extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return NativeBackend(module.ffi, module.lib)


@functools.lru_cache(maxsize=1)
def _probe() -> tuple:
    """``(backend, unavailable_reason)`` — exactly one is non-``None``.

    Memoized pure probe of the host environment (``COLIBRI_NATIVE=0``
    disables; otherwise load a cached build or compile one).  Failure to
    build is remembered — a host without a compiler pays the probe once,
    not per reservation install.  The cache lives on the function object
    rather than in module globals so shard workers reaching this through
    forked fast paths stay shared-nothing (CF004): the memoized value is
    a pure function of the process environment, identical in every
    worker that probes it independently.
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


def available() -> bool:
    return backend() is not None


def why_unavailable() -> Optional[str]:
    """Human-readable reason the backend is off (``None`` when loaded)."""
    return _probe()[1]


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
    """A loaded kernel: the cffi ``ffi``/``lib`` pair and the verify scratch."""

    __slots__ = ("ffi", "lib", "mac_out", "mac_view")

    def __init__(self, ffi, lib):
        self.ffi = ffi
        self.lib = lib
        #: Scratch ``colibri_verify`` leaves the untruncated MAC in, read out
        #: by ``mac_view[:]``; one per process, so one verifying thread.
        self.mac_out = ffi.new("uint8_t[]", MAC_LENGTH)
        self.mac_view = ffi.buffer(self.mac_out)

    def key_schedule(self, key: bytes) -> bytes:
        """One key's 32-byte chaining state, as ``colibri_verify`` takes it."""
        key = _normalize_key(key)
        words = self.ffi.new("uint32_t[8]")
        self.lib.colibri_b2s_key_schedule(key, len(key), MAC_LENGTH, words)
        return self.ffi.buffer(words)[:]


class ScheduleBlock:
    """Contiguous native key schedules for one ordered key set.

    The native analogue of :func:`repro.dataplane.hvf.sigma_states`: one
    32-byte chaining state per key, laid out back to back so a single C
    call stamps every hop of a packet (:meth:`stamp_flat`) or a whole
    burst (:meth:`stamp_many_flat`).  Output is byte-identical to the
    hashlib path by construction and by test.

    Not thread-safe (the output scratch buffer is reused per call) —
    the same single-threaded-per-component discipline as every other
    data-plane object here; shard workers each build their own.
    """

    __slots__ = ("count", "tag_len", "_ffi", "_lib", "_scatter", "_out", "_view")

    def __init__(self, backend: NativeBackend, keys, tag_len: int = L_HVF):
        if not 0 < tag_len <= MAC_LENGTH:
            raise ValueError(
                f"tag length must be in (0, {MAC_LENGTH}], got {tag_len}"
            )
        ffi = backend.ffi
        lib = backend.lib
        keys = tuple(keys)
        scheds = ffi.new("uint32_t[]", 8 * len(keys))
        for index, key in enumerate(keys):
            key = _normalize_key(key)
            lib.colibri_b2s_key_schedule(key, len(key), MAC_LENGTH, scheds + 8 * index)
        self.count = len(keys)
        self.tag_len = tag_len
        self._ffi = ffi
        self._lib = lib
        # The 8-way lane layout (see the C side), built once here at
        # install time so the per-packet stamps never gather; it is also
        # what a BurstStamper plan references for this block.
        groups = (len(keys) + 7) // 8
        self._scatter = ffi.new("uint32_t[]", max(64, groups * 64))
        lib.colibri_b2s_transpose(scheds, len(keys), self._scatter)
        self._out = ffi.new("uint8_t[]", max(1, self.count * tag_len))
        self._view = ffi.buffer(self._out)

    def stamp_flat(self, message: bytes) -> bytes:
        """All per-key tags over ``message``, concatenated (one C call)."""
        self._lib.colibri_stamp_t(
            self._scatter, self.count, message, len(message), self._out, self.tag_len
        )
        return self._view[:]

    def stamp_many_flat(self, messages, message_len: int, count: int) -> bytes:
        """Tags for ``count`` fixed-size messages packed back to back.

        ``messages`` is any buffer of ``count * message_len`` bytes;
        the result is message-major: packet p's tags occupy
        ``[p*count_keys*tag_len, (p+1)*count_keys*tag_len)``.
        """
        ffi = self._ffi
        row = self.count * self.tag_len
        out = ffi.new("uint8_t[]", max(1, count * row))
        self._lib.colibri_stamp_many_t(
            self._scatter,
            self.count,
            ffi.from_buffer(messages),
            message_len,
            count,
            out,
            self.tag_len,
        )
        return ffi.buffer(out)[:]


class BurstStamper:
    """Scatter plan for stamping one *mixed* burst with a single C call.

    :meth:`ScheduleBlock.stamp_many_flat` amortizes the Python->C
    boundary only for bursts addressed to one reservation; this is the
    general form.  The caller's per-packet loop records each packet's
    plan directly into the exposed cdata arrays — ``scheds[p]`` (the
    packet's version's :attr:`ScheduleBlock._scatter` block),
    ``counts[p]`` (its hop count), ``offsets[p]`` (where its tags go) —
    and appends its Eq. (6) message to :attr:`messages`; one
    ``colibri_stamp_scatter_t`` call then stamps every packet of the
    burst (:meth:`stamp_flat`).  ``offsets`` are byte offsets into its
    flat result — a running row cursor.

    The arrays are plain attributes rather than an ``add()`` method on
    purpose: the gateway's burst loop is the hottest Python in the
    repository, and a per-packet method call would give back a measurable
    slice of what the single C call saves.  Not thread-safe (the plan
    arrays and output scratch are reused per burst) — the same
    single-threaded-per-component discipline as :class:`ScheduleBlock`.
    """

    __slots__ = (
        "tag_len", "scheds", "counts", "offsets", "messages",
        "_ffi", "_lib", "_capacity", "_out", "_out_size",
    )

    def __init__(self, backend: NativeBackend, tag_len: int = L_HVF, slots: int = 64):
        if not 0 < tag_len <= MAC_LENGTH:
            raise ValueError(
                f"tag length must be in (0, {MAC_LENGTH}], got {tag_len}"
            )
        self._ffi = backend.ffi
        self._lib = backend.lib
        self.tag_len = tag_len
        self._capacity = 0
        self._out = None
        self._out_size = 0
        self.messages = bytearray()
        self.reserve(max(1, slots))

    def reserve(self, capacity: int) -> None:
        """Grow the plan arrays to hold ``capacity`` packets (never
        shrinks; reallocation invalidates previously written plans)."""
        if capacity > self._capacity:
            ffi = self._ffi
            self.scheds = ffi.new("uint32_t *[]", capacity)
            self.counts = ffi.new("int32_t[]", capacity)
            self.offsets = ffi.new("int64_t[]", capacity)
            self._capacity = capacity

    def stamp_flat(self, npkts: int, message_len: int, size: int) -> bytes:
        """Stamp the planned burst into scratch and return it as one
        ``bytes`` of ``size`` total tag bytes — packet p's row sits at
        ``offsets[p]``, ready for zero-copy ``HvfVector`` windows."""
        if size > self._out_size:
            self._out = self._ffi.new("uint8_t[]", max(1, size))
            self._out_size = max(1, size)
        self._lib.colibri_stamp_scatter_t(
            self.scheds,
            self.counts,
            self._ffi.from_buffer(self.messages),
            message_len,
            npkts,
            self._out,
            self.offsets,
            self.tag_len,
        )
        return self._ffi.buffer(self._out, size)[:]


def repointing(name: str) -> property:
    """A table attribute the struct copies: setting it calls ``_repoint``."""

    def assign(table, value) -> None:
        setattr(table, name, value)
        table._repoint()

    return property(operator.attrgetter(name), assign)


class HopPolicer:
    """One router's ``colibri_police_t``, kept pointed at its live tables.

    Push-bound, nothing polls: :meth:`point` is the ``_repoint`` of both
    filters and the sketch, called where they change — ``_BloomFilter.clear``
    (so every rotation), ``_roll``, a :func:`repointing` attribute (``bits``,
    ``hashes``, ``overuse_factor``).  The router asks only whether a rotation
    or roll is due (that packet takes the Python trio, which does it).  Pins
    keep the buffers alive; weak proxies to the tables avoid a cycle.  Call
    ``hop(state, schedule, message, len(message), tag, len(tag), cells,
    len(cells), amount)``; a duplicate's MAC is then ``mac[:]``.  Not
    thread-safe: one router, one burst at a time.
    """

    __slots__ = ("hop", "state", "mac", "_ffi", "_pins", "_duplicates", "_ofd")

    def __init__(self, backend: NativeBackend, duplicates, ofd):
        self._ffi, self.hop = backend.ffi, backend.lib.colibri_hop
        self.state = backend.ffi.new("colibri_police_t *")
        self.mac = backend.ffi.buffer(self.state.mac)
        self._duplicates, self._ofd = weakref.proxy(duplicates), weakref.proxy(ofd)
        for table in (duplicates._current, duplicates._previous, ofd):
            table._repoint = self.point
        self.point()

    def point(self) -> None:
        """Aim the struct at the tables' buffers, geometry and threshold now."""
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
        state.threshold = ofd.window * ofd.overuse_factor  # what observe() compares with
