"""Authenticated encryption with associated data (AEAD), and the key
object both ends of a DRKey channel hold.

HopAuths are returned to the source AS "over a channel secured through
authenticated encryption with associated data" (Eq. 5):
``AS_i -> AS_0 : AEAD_{K_{AS_i -> AS_0}}(sigma_i)``.

We build AEAD from the library PRF in an encrypt-then-MAC construction:

* a keystream is derived per message from ``(key, nonce)`` and XORed with
  the plaintext (a stream cipher in counter mode): block ``i`` is the PRF
  of ``nonce || i`` under an encryption subkey, and the XOR is a single
  big-integer operation rather than a per-byte loop;
* a MAC over ``nonce || associated_data || ciphertext`` authenticates the
  whole message under a MAC subkey derived from the same key.

The nonce is chosen randomly per seal and carried with the ciphertext, so
callers only manage the shared DRKey.  The wire format ``nonce ||
ciphertext || tag`` is what sealed HopAuths cross ASes in; it is pinned
by known-answer vectors in ``tests/test_aead_vectors.py``.
"""

from __future__ import annotations

import os

from repro.crypto.mac import constant_time_equal
from repro.crypto.prf import KEY_LENGTH, prf, prf_context
from repro.errors import AeadError

NONCE_LENGTH = 12
TAG_LENGTH = 16
_BLOCK_LENGTH = KEY_LENGTH  # one PRF output per keystream block

_ENC_LABEL = b"colibri-aead-enc"
_MAC_LABEL = b"colibri-aead-mac"


class KeyContext:
    """One symmetric key with every key schedule it needs prehashed.

    ``K_{AS_i->Src}`` authenticates the source's request, AS_i's grant
    and AS_i's sealed HopAuth (§4.5, Eq. 5); the verifying hop and the
    initiator each build one of these per (peer, DRKey epoch) instead of
    re-keying per message — the keyed-BLAKE2s counterpart of expanding
    AES round keys once.  :meth:`mac`, :meth:`seal` and :meth:`open` are
    byte-identical to :func:`~repro.crypto.mac.mac`, :func:`aead_seal`
    and :func:`aead_open` under :attr:`key`.  Only key schedules are
    cached, never message state, so one context may serve any number of
    messages.
    """

    __slots__ = ("key", "_mac", "_enc", "_tag")

    def __init__(self, key: bytes):
        self.key = key
        self._mac = prf_context(key)
        self._enc = prf_context(prf(key, _ENC_LABEL))  # keystream subkey
        self._tag = prf_context(prf(key, _MAC_LABEL))  # AEAD tag subkey

    def mac(self, data: bytes) -> bytes:
        """Full-width MAC, equal to ``mac(key, data)``."""
        state = self._mac.copy()
        state.update(data)
        return state.digest()

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the ``(key, nonce)`` keystream (its own inverse)."""
        length = len(data)
        if not length:
            return b""
        blocks = []
        for counter in range(-(-length // _BLOCK_LENGTH)):
            block = self._enc.copy()
            block.update(nonce + counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        stream = b"".join(blocks)[:length]
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(length, "big")

    def _tag_of(self, nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
        state = self._tag.copy()
        state.update(nonce + associated_data + ciphertext)
        return state.digest()

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Encrypt and authenticate ``plaintext`` under a fresh random
        nonce.  Returns ``nonce || ciphertext || tag``; the associated
        data is authenticated but not transmitted (the caller
        reconstructs it)."""
        nonce = os.urandom(NONCE_LENGTH)
        ciphertext = self._xor_keystream(nonce, plaintext)
        return nonce + ciphertext + self._tag_of(nonce, associated_data, ciphertext)

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a message produced by :meth:`seal`.

        Raises :class:`AeadError` if the message is truncated or the tag
        does not verify (tampering, wrong key, or wrong associated data).
        """
        if len(sealed) < NONCE_LENGTH + TAG_LENGTH:
            raise AeadError(f"sealed message too short: {len(sealed)} bytes")
        nonce = sealed[:NONCE_LENGTH]
        ciphertext = sealed[NONCE_LENGTH:-TAG_LENGTH]
        expected = self._tag_of(nonce, associated_data, ciphertext)
        if not constant_time_equal(expected, sealed[-TAG_LENGTH:]):
            raise AeadError("AEAD tag verification failed")
        return self._xor_keystream(nonce, ciphertext)


def aead_seal(key: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """:meth:`KeyContext.seal` under a raw ``key``."""
    return KeyContext(key).seal(plaintext, associated_data)


def aead_open(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """:meth:`KeyContext.open` under a raw ``key``; raises :class:`AeadError`."""
    return KeyContext(key).open(sealed, associated_data)
