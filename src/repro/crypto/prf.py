"""Pseudo-random function primitive.

DRKey's core operation is ``K_{A->B} = PRF_{K_A}(B)`` (Eq. 1): a keyed
pseudo-random function that an AS evaluates on the fly — "faster than a
memory lookup" in the paper's hardware-AES setting.  We implement the PRF
with keyed BLAKE2s truncated to 16 bytes, the same output width as the
AES-128-based PRF in the prototype.
"""

from __future__ import annotations

import hashlib
import os

KEY_LENGTH = 16  # bytes; matches AES-128 keys in the paper's prototype.


def prf(key: bytes, data: bytes) -> bytes:
    """Evaluate the keyed PRF: a 16-byte pseudo-random value.

    Deterministic in ``(key, data)``; infeasible to compute or predict
    without ``key``.  Used for DRKey derivation (Eq. 1) and as the
    building block of :func:`repro.crypto.mac.mac`.
    """
    if not key:
        raise ValueError("PRF key must be non-empty")
    # blake2s accepts keys up to 32 bytes; longer keys are compressed first
    # so callers may pass arbitrary key material (e.g. chained HopAuths).
    if len(key) > 32:
        key = hashlib.blake2s(key).digest()
    return hashlib.blake2s(data, key=key, digest_size=KEY_LENGTH).digest()


def prf_context(key: bytes):
    """A reusable keyed-PRF state for evaluating many messages under one key.

    Key scheduling (padding the key into the first compression block) is
    the fixed per-key cost of every :func:`prf` call; batch consumers pay
    it once and then clone the returned context per message::

        ctx = prf_context(key)
        h = ctx.copy(); h.update(data); tag = h.digest()

    is byte-identical to ``prf(key, data)`` — the context is pure
    memoization of the key schedule, never of any message.
    """
    if not key:
        raise ValueError("PRF key must be non-empty")
    if len(key) > 32:
        key = hashlib.blake2s(key).digest()
    return hashlib.blake2s(key=key, digest_size=KEY_LENGTH)


def random_key(length: int = KEY_LENGTH) -> bytes:
    """Generate a fresh uniformly random key (AS secret values, SVs)."""
    if length <= 0:
        raise ValueError(f"key length must be positive, got {length}")
    return os.urandom(length)
