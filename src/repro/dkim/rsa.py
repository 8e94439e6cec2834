"""Pure-Python RSA for DKIM's ``rsa-sha256`` algorithm.

Implements deterministic-given-a-seed key generation (Miller–Rabin primality
over candidates from a seeded PRNG), RSASSA-PKCS1-v1_5 signing and
verification with SHA-256 (RFC 8017 section 8.2), and just enough DER to
publish keys the way DKIM does: the ``p=`` tag of a key record carries a
base64 SubjectPublicKeyInfo (RFC 6376 section 3.6.1).

Keys default to 1024 bits: fast to generate in pure Python and perfectly
adequate for a simulation (the paper's crypto strength is not under test;
its DNS observability is).
"""

from __future__ import annotations

import base64
import hashlib
import random
from dataclasses import dataclass, field
from typing import Tuple

from repro.dkim.errors import DkimKeyError

# DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 notes).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

# rsaEncryption OID 1.2.840.113549.1.1.1, DER-encoded with NULL params.
_RSA_ALGORITHM_IDENTIFIER = bytes.fromhex("300d06092a864886f70d0101010500")

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> bool:
        """RSASSA-PKCS1-v1_5 verification with SHA-256."""
        if len(signature) != self.byte_length:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(self.byte_length, "big")
        expected = _emsa_pkcs1_v15(message, self.byte_length)
        return em == expected

    def to_der(self) -> bytes:
        """SubjectPublicKeyInfo DER encoding."""
        rsa_key = _der_sequence(_der_integer(self.n) + _der_integer(self.e))
        return _der_sequence(_RSA_ALGORITHM_IDENTIFIER + _der_bit_string(rsa_key))

    def to_base64(self) -> str:
        """The ``p=`` tag value for a DKIM key record."""
        return base64.b64encode(self.to_der()).decode("ascii")

    @classmethod
    def from_der(cls, data: bytes) -> "RsaPublicKey":
        try:
            spki, rest = _der_read(data, 0x30)
            if rest:
                raise ValueError("trailing data after SPKI")
            algorithm, remainder = _der_read(spki, 0x30)
            bits, rest = _der_read(remainder, 0x03)
            if rest:
                raise ValueError("trailing data after bit string")
            if not bits or bits[0] != 0:
                raise ValueError("unsupported bit-string padding")
            rsa_key, rest = _der_read(bits[1:], 0x30)
            n_bytes, remainder = _der_read(rsa_key, 0x02)
            e_bytes, rest = _der_read(remainder, 0x02)
            if rest:
                raise ValueError("trailing data in RSA key")
            return cls(int.from_bytes(n_bytes, "big"), int.from_bytes(e_bytes, "big"))
        except ValueError as exc:
            raise DkimKeyError("bad DER public key: %s" % exc) from exc

    @classmethod
    def from_base64(cls, text: str) -> "RsaPublicKey":
        try:
            der = base64.b64decode(text.encode("ascii"), validate=True)
        except Exception as exc:
            raise DkimKeyError("bad base64 public key") from exc
        return cls.from_der(der)


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int
    # The CRT parameters, derived once per key: d mod (p-1), d mod (q-1)
    # and q^-1 mod p.
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    q_inv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "q_inv", pow(self.q, -1, self.p))

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """RSASSA-PKCS1-v1_5 signature with SHA-256."""
        em = _emsa_pkcs1_v15(message, self.byte_length)
        m = int.from_bytes(em, "big")
        # CRT: two half-size exponentiations instead of one full-size.
        m1 = pow(m % self.p, self.dp, self.p)
        m2 = pow(m % self.q, self.dq, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        s = m2 + h * self.q
        return s.to_bytes(self.byte_length, "big")

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


@dataclass(frozen=True)
class RsaKeyPair:
    private: RsaPrivateKey
    public: RsaPublicKey


def generate_keypair(bits: int = 1024, seed: int = 0, e: int = 65537) -> RsaKeyPair:
    """Generate an RSA key pair deterministically from ``seed``."""
    if bits < 512 or bits % 2:
        raise ValueError("key size must be an even number of bits >= 512")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _random_prime(rng, half)
        q = _random_prime(rng, half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        private = RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
        return RsaKeyPair(private=private, public=private.public_key())


# -- primality ---------------------------------------------------------------


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for prime in _SMALL_PRIMES:
        if n == prime:
            return True
        if n % prime == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


# -- PKCS#1 v1.5 encoding ------------------------------------------------------


def _emsa_pkcs1_v15(message: bytes, em_length: int) -> bytes:
    digest = hashlib.sha256(message).digest()
    t = _SHA256_DIGEST_INFO + digest
    if em_length < len(t) + 11:
        raise ValueError("intended encoded message length too short")
    padding = b"\xff" * (em_length - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


# -- minimal DER --------------------------------------------------------------


def _der_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    encoded = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(encoded)]) + encoded


def _der_integer(value: int) -> bytes:
    data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if data[0] & 0x80:
        data = b"\x00" + data
    return b"\x02" + _der_length(len(data)) + data


def _der_sequence(content: bytes) -> bytes:
    return b"\x30" + _der_length(len(content)) + content


def _der_bit_string(content: bytes) -> bytes:
    return b"\x03" + _der_length(len(content) + 1) + b"\x00" + content


def _der_read(data: bytes, expected_tag: int) -> Tuple[bytes, bytes]:
    """Read one TLV with ``expected_tag``; return (content, remainder)."""
    if len(data) < 2:
        raise ValueError("short DER")
    if data[0] != expected_tag:
        raise ValueError("expected tag 0x%02x, got 0x%02x" % (expected_tag, data[0]))
    length = data[1]
    offset = 2
    if length & 0x80:
        count = length & 0x7F
        if count == 0 or len(data) < 2 + count:
            raise ValueError("bad DER length")
        length = int.from_bytes(data[2 : 2 + count], "big")
        offset = 2 + count
    if len(data) < offset + length:
        raise ValueError("DER content overruns buffer")
    return data[offset : offset + length], data[offset + length :]
