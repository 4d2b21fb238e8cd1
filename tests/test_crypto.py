"""Unit and property tests for repro.crypto: PRF, MAC, AEAD, DRKey."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import DRKEY_VALIDITY, L_HVF, MAC_LENGTH
from repro.crypto import (
    DrkeyDeriver,
    KeyServer,
    KeyServerDirectory,
    aead_open,
    aead_seal,
    constant_time_equal,
    derive_as_key,
    derive_host_key,
    mac,
    prf,
    random_key,
    truncated_mac,
    verify_mac,
)
from repro.errors import AeadError, KeyFetchError, MacVerificationError
from repro.util.clock import SimClock


class TestPrf:
    def test_deterministic(self):
        key = b"k" * 16
        assert prf(key, b"data") == prf(key, b"data")

    def test_output_length(self):
        assert len(prf(b"k" * 16, b"data")) == MAC_LENGTH

    def test_key_separation(self):
        assert prf(b"a" * 16, b"data") != prf(b"b" * 16, b"data")

    def test_data_separation(self):
        key = b"k" * 16
        assert prf(key, b"data1") != prf(key, b"data2")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            prf(b"", b"data")

    def test_long_keys_accepted(self):
        assert len(prf(b"x" * 64, b"data")) == MAC_LENGTH

    def test_random_key_length(self):
        assert len(random_key()) == 16
        assert len(random_key(32)) == 32

    def test_random_keys_differ(self):
        assert random_key() != random_key()

    def test_random_key_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_key(0)


class TestMac:
    def test_verify_accepts_valid(self):
        key = random_key()
        tag = mac(key, b"message")
        verify_mac(key, b"message", tag)  # must not raise

    def test_verify_rejects_tampered_message(self):
        key = random_key()
        tag = mac(key, b"message")
        with pytest.raises(MacVerificationError):
            verify_mac(key, b"messagX", tag)

    def test_verify_rejects_wrong_key(self):
        tag = mac(random_key(), b"message")
        with pytest.raises(MacVerificationError):
            verify_mac(random_key(), b"message", tag)

    def test_truncated_default_is_l_hvf(self):
        assert len(truncated_mac(random_key(), b"m")) == L_HVF

    def test_truncated_is_prefix_of_full(self):
        key = random_key()
        assert mac(key, b"m")[:L_HVF] == truncated_mac(key, b"m")

    def test_verify_truncated_tag(self):
        key = random_key()
        verify_mac(key, b"m", truncated_mac(key, b"m"))

    @pytest.mark.parametrize("length", [0, 17, -1])
    def test_bad_truncation_length(self, length):
        with pytest.raises(ValueError):
            truncated_mac(random_key(), b"m", length)

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")

    @given(st.binary(min_size=1, max_size=32), st.binary(max_size=128))
    def test_mac_deterministic_property(self, key, data):
        assert mac(key, data) == mac(key, data)


class TestAead:
    def test_roundtrip(self):
        key = random_key()
        sealed = aead_seal(key, b"hop authenticator", b"assoc")
        assert aead_open(key, sealed, b"assoc") == b"hop authenticator"

    def test_wrong_key_fails(self):
        sealed = aead_seal(random_key(), b"secret")
        with pytest.raises(AeadError):
            aead_open(random_key(), sealed)

    def test_wrong_associated_data_fails(self):
        key = random_key()
        sealed = aead_seal(key, b"secret", b"ctx1")
        with pytest.raises(AeadError):
            aead_open(key, sealed, b"ctx2")

    def test_tampered_ciphertext_fails(self):
        key = random_key()
        sealed = bytearray(aead_seal(key, b"secret payload"))
        sealed[14] ^= 0xFF
        with pytest.raises(AeadError):
            aead_open(key, bytes(sealed))

    def test_truncated_message_fails(self):
        key = random_key()
        sealed = aead_seal(key, b"secret")
        with pytest.raises(AeadError):
            aead_open(key, sealed[:10])

    def test_ciphertext_hides_plaintext(self):
        key = random_key()
        sealed = aead_seal(key, b"A" * 40)
        assert b"A" * 8 not in sealed

    def test_nonce_randomizes(self):
        key = random_key()
        assert aead_seal(key, b"same") != aead_seal(key, b"same")

    @given(st.binary(max_size=256), st.binary(max_size=64))
    def test_roundtrip_property(self, plaintext, associated):
        key = b"0" * 16
        assert aead_open(key, aead_seal(key, plaintext, associated), associated) == plaintext

    def test_empty_plaintext(self):
        key = random_key()
        assert aead_open(key, aead_seal(key, b"")) == b""


class TestDrkey:
    def make_deriver(self, name=b"AS-A", start=0.0, seed=b"s" * 16):
        return DrkeyDeriver(name, SimClock(start), seed=seed)

    def test_as_key_deterministic_across_components(self):
        # Two components of the same AS built from the same seed derive
        # identical keys (router and CServ must agree).
        a1 = self.make_deriver()
        a2 = self.make_deriver()
        assert a1.as_key(b"AS-B") == a2.as_key(b"AS-B")

    def test_as_key_differs_per_remote(self):
        deriver = self.make_deriver()
        assert deriver.as_key(b"AS-B") != deriver.as_key(b"AS-C")

    def test_asymmetry(self):
        # K_{A->B} != K_{B->A}
        a = self.make_deriver(b"AS-A", seed=b"a" * 16)
        b = self.make_deriver(b"AS-B", seed=b"b" * 16)
        assert a.as_key(b"AS-B") != b.as_key(b"AS-A")

    def test_epoch_rotation_changes_keys(self):
        deriver = self.make_deriver()
        now_key = deriver.as_key(b"AS-B", when=0.0)
        next_epoch_key = deriver.as_key(b"AS-B", when=DRKEY_VALIDITY + 1)
        assert now_key != next_epoch_key

    def test_same_epoch_same_key(self):
        deriver = self.make_deriver()
        assert deriver.as_key(b"AS-B", when=100.0) == deriver.as_key(
            b"AS-B", when=DRKEY_VALIDITY - 1
        )

    def test_secret_covers(self):
        deriver = self.make_deriver()
        secret = deriver.secret_for(100.0)
        assert secret.epoch == 0
        assert deriver.secret_for(DRKEY_VALIDITY - 1) is secret
        assert deriver.secret_for(DRKEY_VALIDITY + 5).epoch == 1

    def test_host_key_depends_on_host(self):
        deriver = self.make_deriver()
        as_key = deriver.as_key(b"AS-B")
        assert derive_host_key(as_key, b"host1") != derive_host_key(as_key, b"host2")

    def test_derive_as_key_function(self):
        assert derive_as_key(b"s" * 16, b"B") == derive_as_key(b"s" * 16, b"B")
        assert derive_as_key(b"s" * 16, b"B") != derive_as_key(b"s" * 16, b"C")


class TestKeyServer:
    def test_fetch_matches_local_derivation(self):
        clock = SimClock(10.0)
        deriver = DrkeyDeriver(b"AS-A", clock)
        directory = KeyServerDirectory(clock)
        directory.register(KeyServer(deriver))
        fetched = directory.fetch_key(b"AS-A", b"AS-B")
        assert fetched.key == deriver.as_key(b"AS-B")

    def test_unknown_owner_raises(self):
        directory = KeyServerDirectory(SimClock())
        with pytest.raises(KeyFetchError):
            directory.fetch_key(b"AS-X", b"AS-B")

    def test_cache_prevents_repeat_fetches(self):
        clock = SimClock()
        deriver = DrkeyDeriver(b"AS-A", clock)
        server = KeyServer(deriver)
        directory = KeyServerDirectory(clock)
        directory.register(server)
        directory.fetch_key(b"AS-A", b"AS-B")
        directory.fetch_key(b"AS-A", b"AS-B")
        assert server.fetch_count == 1

    def test_cache_expires_with_epoch(self):
        clock = SimClock()
        deriver = DrkeyDeriver(b"AS-A", clock)
        server = KeyServer(deriver)
        directory = KeyServerDirectory(clock)
        directory.register(server)
        directory.fetch_key(b"AS-A", b"AS-B")
        clock.advance(DRKEY_VALIDITY + 1)
        directory.fetch_key(b"AS-A", b"AS-B")
        assert server.fetch_count == 2

    def test_per_requester_isolation(self):
        clock = SimClock()
        directory = KeyServerDirectory(clock)
        directory.register(KeyServer(DrkeyDeriver(b"AS-A", clock)))
        key_b = directory.fetch_key(b"AS-A", b"AS-B")
        key_c = directory.fetch_key(b"AS-A", b"AS-C")
        assert key_b.key != key_c.key
