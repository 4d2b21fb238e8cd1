"""Cryptographic substrate: PRF, MAC, AEAD, and the DRKey infrastructure.

The paper's prototype uses AES-128 in CBC-MAC mode through AES-NI (§7.1).
This reproduction substitutes keyed BLAKE2s, which is available in the
standard library, has the same 16-byte output, and preserves every
property the protocol relies on: determinism, key-dependence, and
preimage/forgery resistance.  See DESIGN.md §2 for the substitution table.
"""

from repro.crypto.aead import KeyContext, aead_open, aead_seal
from repro.crypto.drkey import DrkeyDeriver, DrkeySecret, derive_as_key, derive_host_key
from repro.crypto.keyserver import KeyServer, KeyServerDirectory
from repro.crypto.mac import constant_time_equal, mac, truncated_mac, verify_mac
from repro.crypto.prf import prf, prf_context, random_key

__all__ = [
    "prf",
    "prf_context",
    "random_key",
    "KeyContext",
    "mac",
    "truncated_mac",
    "verify_mac",
    "constant_time_equal",
    "aead_seal",
    "aead_open",
    "DrkeySecret",
    "DrkeyDeriver",
    "derive_as_key",
    "derive_host_key",
    "KeyServer",
    "KeyServerDirectory",
]
