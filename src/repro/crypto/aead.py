"""Authenticated encryption with associated data (AEAD).

HopAuths are returned to the source AS "over a channel secured through
authenticated encryption with associated data" (Eq. 5):
``AS_i -> AS_0 : AEAD_{K_{AS_i -> AS_0}}(sigma_i)``.

We build AEAD from the library PRF in an encrypt-then-MAC construction:

* a keystream is derived per message from ``(key, nonce)`` and XORed with
  the plaintext (a stream cipher in counter mode): block ``i`` is the PRF
  of ``nonce || i`` under an encryption subkey, evaluated from one
  prehashed context per message, and the XOR is a single big-integer
  operation rather than a per-byte loop;
* a MAC over ``nonce || associated_data || ciphertext`` authenticates the
  whole message under a MAC subkey derived from the same key.

The nonce is chosen randomly per seal and carried with the ciphertext, so
callers only manage the shared DRKey.  The wire format ``nonce ||
ciphertext || tag`` is what sealed HopAuths cross ASes in; it is pinned
by known-answer vectors in ``tests/test_crypto.py``.
"""

from __future__ import annotations

import os

from repro.crypto.mac import constant_time_equal, mac
from repro.crypto.prf import KEY_LENGTH, prf, prf_context
from repro.errors import AeadError

NONCE_LENGTH = 12
TAG_LENGTH = 16
_BLOCK_LENGTH = KEY_LENGTH  # one PRF output per keystream block

_ENC_LABEL = b"colibri-aead-enc"
_MAC_LABEL = b"colibri-aead-mac"


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the ``(key, nonce)`` keystream (its own inverse)."""
    length = len(data)
    if not length:
        return b""
    state = prf_context(prf(key, _ENC_LABEL))
    blocks = []
    for counter in range(-(-length // _BLOCK_LENGTH)):
        block = state.copy()
        block.update(nonce + counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    stream = b"".join(blocks)[:length]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


def aead_seal(key: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """Encrypt and authenticate ``plaintext``.

    Returns ``nonce || ciphertext || tag``; the associated data is
    authenticated but not transmitted (the caller reconstructs it).
    """
    nonce = os.urandom(NONCE_LENGTH)
    ciphertext = _xor_keystream(key, nonce, plaintext)
    tag = mac(prf(key, _MAC_LABEL), nonce + associated_data + ciphertext)
    return nonce + ciphertext + tag


def aead_open(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a message produced by :func:`aead_seal`.

    Raises :class:`AeadError` if the message is truncated or the tag does
    not verify (tampering, wrong key, or wrong associated data).
    """
    if len(sealed) < NONCE_LENGTH + TAG_LENGTH:
        raise AeadError(f"sealed message too short: {len(sealed)} bytes")
    nonce = sealed[:NONCE_LENGTH]
    ciphertext = sealed[NONCE_LENGTH:-TAG_LENGTH]
    expected = mac(prf(key, _MAC_LABEL), nonce + associated_data + ciphertext)
    if not constant_time_equal(expected, sealed[-TAG_LENGTH:]):
        raise AeadError("AEAD tag verification failed")
    return _xor_keystream(key, nonce, ciphertext)
