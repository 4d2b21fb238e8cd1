"""AEAD known-answer vectors and tamper matrix.

``nonce || ciphertext || tag`` is the format sealed HopAuths cross ASes
in (Eq. 5), so two CServs running different revisions must agree on it
byte for byte.  The vectors below were captured from the per-byte
implementation this repository shipped before the one-pass rewrite
(commit 4be7923), with ``os.urandom`` patched to :data:`NONCE`.

The plaintexts are prefixes of one pattern and the cipher is a stream
cipher, so every ciphertext is a prefix of :data:`CIPHERTEXT`; only the
tag depends on the length and the associated data.
"""

from unittest import mock

import pytest

from repro.crypto.aead import NONCE_LENGTH, TAG_LENGTH, aead_open, aead_seal
from repro.errors import AeadError

KEY = bytes(range(16))
NONCE = bytes(range(0xA0, 0xAC))
LENGTHS = (0, 1, 15, 16, 17, 32, 300)
ASSOCIATED = (b"", b"hop-3")


def plaintext(length: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(length))


CIPHERTEXT = bytes.fromhex(
    "eaa810c3417678ccdbb35680e2472a83e248e713a740dc8da3c8e764a7b2f033"
    "09282c6b9186e66dc34bac15b64d4dd980fc677fa618c300cd151fef56b1e63e"
    "3385c1e2548b471277d177a923baecffbdee6dfb72a6a4d4f2d2155c9c164a99"
    "7d126e29d1d1cc617232ae323b390acabd508c3e40c64720d4ee4cddf5b3aff2"
    "85b23d868eaf7c255eb6d18c0368c4c353bfe920a59ba20a7e53ee427543c5a5"
    "496d2cfe9155f0b1d1c7f31a02043f337ac462e5e2313de03c2cd1ebb057988e"
    "2f9d6bbf4d0925fe284e8981b77563361c84c2e74a5ae5576f767fd493190127"
    "f369c5a7842dd859416355e5a0ce8cfd6d19a943b5fca8d3603c0e759339e2ac"
    "a5a80ba3ec0156d7c800946298b04d19f31fc1125899993904b2e9d212317ad8"
    "318fe5ba4feb4744a433be83"
)

TAGS = {
    (b"", 0): "39a6a0bb3768b4ac0f9776173d0eb6ee",
    (b"", 1): "2f156df390e334feb4cb917ae524094d",
    (b"", 15): "f0366d27b52d26a3f9b858cf0bd41cd7",
    (b"", 16): "7c106f5d34f35deb777009e2ad9d8ada",
    (b"", 17): "39097353c0e004059f4bf437f8c60ffc",
    (b"", 32): "a6c7b40102180729672f90e130d50200",
    (b"", 300): "00e919a712b2b2c1e564fdd9e0797690",
    (b"hop-3", 0): "6368534c11ca097c62745ff7480e7929",
    (b"hop-3", 1): "1d33be58efff229fe28e153b28520f17",
    (b"hop-3", 15): "bf4c36b6b05b284b6bff0d1b731a4982",
    (b"hop-3", 16): "1a626353256cedf6e2676c2bda20a4bc",
    (b"hop-3", 17): "5a52198e8a7a4d38e7deffd24d3fc0fe",
    (b"hop-3", 32): "c3bd40f251222dc9030532fe6fdc34ad",
    (b"hop-3", 300): "e45659a32300a646cd7de5b171b1fd84",
}


def vector(associated: bytes, length: int) -> bytes:
    return NONCE + CIPHERTEXT[:length] + bytes.fromhex(TAGS[associated, length])


CASES = [(ad, n) for ad in ASSOCIATED for n in LENGTHS]


@pytest.mark.parametrize("associated,length", CASES)
def test_seal_matches_vector(associated, length):
    with mock.patch("os.urandom", return_value=NONCE):
        sealed = aead_seal(KEY, plaintext(length), associated)
    assert sealed == vector(associated, length)


@pytest.mark.parametrize("associated,length", CASES)
def test_open_returns_plaintext(associated, length):
    assert aead_open(KEY, vector(associated, length), associated) == plaintext(length)


@pytest.mark.parametrize("associated,length", CASES)
def test_any_flipped_byte_is_rejected(associated, length):
    sealed = vector(associated, length)
    assert len(sealed) == NONCE_LENGTH + length + TAG_LENGTH
    for position in range(len(sealed)):  # nonce, ciphertext and tag
        tampered = bytearray(sealed)
        tampered[position] ^= 0x01
        with pytest.raises(AeadError):
            aead_open(KEY, bytes(tampered), associated)


@pytest.mark.parametrize("associated,length", CASES)
def test_wrong_key_data_or_length_is_rejected(associated, length):
    sealed = vector(associated, length)
    with pytest.raises(AeadError):
        aead_open(KEY[::-1], sealed, associated)
    with pytest.raises(AeadError):
        aead_open(KEY, sealed, associated + b"x")
    for cut in (1, TAG_LENGTH, len(sealed) - 1, len(sealed)):
        with pytest.raises(AeadError):
            aead_open(KEY, sealed[: len(sealed) - cut], associated)


def test_long_keys_are_compressed_like_the_prf():
    # prf() hashes keys over 32 bytes first; seal and open must agree.
    key = bytes(range(48))
    assert aead_open(key, aead_seal(key, plaintext(40), b"ad"), b"ad") == plaintext(40)
