"""Message-authentication codes with optional truncation.

Colibri authenticates three kinds of objects with MACs (§4.5):

* SegR tokens — Eq. (3): ``MAC_{K_i}(ResInfo || (In_i, Eg_i))`` truncated
  to the first ``l_hvf`` bytes;
* HopAuths — Eq. (4): the same construction over ResInfo, EERInfo and the
  interface pair, **untruncated**, because the HopAuth doubles as a secret
  per-reservation key;
* per-packet HVFs — Eq. (6): ``MAC_{sigma_i}(Ts || PktSize)`` truncated to
  ``l_hvf`` bytes.

This module provides the MAC, its truncation, constant-time comparison
(to avoid timing side channels on the 4-byte tags), and a verify helper.
"""

from __future__ import annotations

import hmac

from repro.constants import L_HVF, MAC_LENGTH
from repro.crypto.prf import prf
from repro.errors import CryptoError, MacVerificationError


# The default truncation width is validated once at import: the batch
# Eq. (6) paths (hvf.stamp_hvfs, the native kernel) slice to it unchecked.
if not 0 < L_HVF <= MAC_LENGTH:  # pragma: no cover - import-time sanity
    raise ValueError(
        f"L_HVF must be in (0, {MAC_LENGTH}], got {L_HVF}"
    )


def mac(key: bytes, data: bytes) -> bytes:
    """Full-width (16-byte) MAC over ``data`` under ``key``."""
    tag = prf(key, data)
    if len(tag) != MAC_LENGTH:
        raise CryptoError(
            f"PRF produced a {len(tag)}-byte tag, expected {MAC_LENGTH}"
        )
    return tag


def truncated_mac(key: bytes, data: bytes, length: int = L_HVF) -> bytes:
    """MAC truncated to the first ``length`` bytes (Eq. 3 / Eq. 6).

    The paper argues the short lifetime of reservations makes 4-byte tags
    safe despite brute-force reuse in principle (§4.5).
    """
    if not 0 < length <= MAC_LENGTH:
        raise ValueError(f"truncation length must be in (0, {MAC_LENGTH}], got {length}")
    return mac(key, data)[:length]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe tag comparison."""
    return hmac.compare_digest(a, b)


def verify_mac(key: bytes, data: bytes, tag: bytes) -> None:
    """Recompute the (possibly truncated) MAC and compare.

    Raises :class:`MacVerificationError` on mismatch — the router drops
    such packets (§4.6).
    """
    expected = mac(key, data)[: len(tag)]
    if not constant_time_equal(expected, tag):
        raise MacVerificationError(
            f"MAC mismatch: got {tag.hex()}, expected {expected.hex()}"
        )
