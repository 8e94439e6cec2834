"""Tests for the pure-Python RSA implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dkim.errors import DkimKeyError
from repro.dkim.rsa import RsaPublicKey, generate_keypair

# Key generation is the slow part; share one pair across the module.
KEYPAIR = generate_keypair(1024, seed=1234)
OTHER = generate_keypair(1024, seed=99)


class TestKeyGeneration:
    def test_deterministic_for_seed(self):
        again = generate_keypair(1024, seed=1234)
        assert again.private.n == KEYPAIR.private.n
        assert again.private.d == KEYPAIR.private.d

    def test_different_seeds_differ(self):
        assert KEYPAIR.private.n != OTHER.private.n

    def test_modulus_has_requested_size(self):
        assert KEYPAIR.private.n.bit_length() == 1024

    def test_key_equation_holds(self):
        private = KEYPAIR.private
        assert private.p * private.q == private.n
        phi = (private.p - 1) * (private.q - 1)
        assert (private.e * private.d) % phi == 1

    def test_small_or_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(256)
        with pytest.raises(ValueError):
            generate_keypair(1025)


class TestSignVerify:
    def test_roundtrip(self):
        signature = KEYPAIR.private.sign(b"the quick brown fox")
        assert KEYPAIR.public.verify(b"the quick brown fox", signature)

    def test_tampered_message_fails(self):
        signature = KEYPAIR.private.sign(b"original")
        assert not KEYPAIR.public.verify(b"tampered", signature)

    def test_tampered_signature_fails(self):
        signature = bytearray(KEYPAIR.private.sign(b"message"))
        signature[10] ^= 0xFF
        assert not KEYPAIR.public.verify(b"message", bytes(signature))

    def test_wrong_key_fails(self):
        signature = KEYPAIR.private.sign(b"message")
        assert not OTHER.public.verify(b"message", signature)

    def test_wrong_length_signature_rejected(self):
        assert not KEYPAIR.public.verify(b"message", b"short")

    def test_signature_is_deterministic(self):
        # PKCS#1 v1.5 signing is deterministic (unlike PSS).
        assert KEYPAIR.private.sign(b"abc") == KEYPAIR.private.sign(b"abc")

    def test_known_answer(self):
        """A fixed key and message give the recorded signature bytes, so
        a change to how signing computes cannot change what it signs."""
        message = b"From: spf-test@example.com\r\nSubject: known answer\r\n\r\nbody\r\n"
        assert KEYPAIR.private.sign(message).hex() == (
            "a9b83391858bebdd343a521d9bd45b75dc91fefcea13203af578da9522481c2c"
            "b3aed0c21f06063c8b84dfb94a29d5a68cc9600521cacc39e68c93f37d10ebfc"
            "c273f223bedc4014705e4d08ccd783b1c529c61ef0ba15a98f18f55866055d99"
            "12bd540fcde0af411948d9d3ce33b9747df6fda30b83eba1df869e788deb11ef"
        )

    def test_empty_message(self):
        signature = KEYPAIR.private.sign(b"")
        assert KEYPAIR.public.verify(b"", signature)


class TestDer:
    def test_spki_roundtrip(self):
        der = KEYPAIR.public.to_der()
        parsed = RsaPublicKey.from_der(der)
        assert parsed == KEYPAIR.public

    def test_base64_roundtrip(self):
        assert RsaPublicKey.from_base64(KEYPAIR.public.to_base64()) == KEYPAIR.public

    def test_bad_base64_rejected(self):
        with pytest.raises(DkimKeyError):
            RsaPublicKey.from_base64("!!!notbase64!!!")

    def test_truncated_der_rejected(self):
        with pytest.raises(DkimKeyError):
            RsaPublicKey.from_der(KEYPAIR.public.to_der()[:-4])

    def test_garbage_der_rejected(self):
        with pytest.raises(DkimKeyError):
            RsaPublicKey.from_der(b"\x30\x03\x01\x01\x01")

    def test_der_starts_with_sequence(self):
        assert KEYPAIR.public.to_der()[0] == 0x30


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_sign_verify_property(message):
    signature = KEYPAIR.private.sign(message)
    assert KEYPAIR.public.verify(message, signature)
    assert not KEYPAIR.public.verify(message + b"x", signature)
