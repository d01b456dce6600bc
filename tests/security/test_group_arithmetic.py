"""Oracle tests: the fast group-14 arithmetic equals the built-in ``pow``.

``g_pow``, ``legendre`` and the Schnorr commitment replace full-length
modular exponentiations; each must give exactly the value ``pow`` gives,
and signatures must stay bit-identical to the plain-``pow`` code they
replaced.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.dh import (
    GROUP14_G as G,
    GROUP14_P as P,
    GROUP14_Q as Q,
    DHPrivateKey,
    g_pow,
    legendre,
    shared_secret,
)
from repro.security.schnorr import SigningKey, _commitment, sign, verify


def _reference_r(y: int, e: int, s: int) -> int:
    return pow(G, s, P) * pow(y, Q - e, P) % P


def _reference_verify(y: int, message: bytes, signature) -> bool:
    e, s = signature
    if not (0 <= e < Q and 0 <= s < Q and 1 < y < P - 1):
        return False
    h = hashlib.sha256()
    h.update(hashlib.sha256(_reference_r(y, e, s).to_bytes(256, "big")).digest())
    h.update(hashlib.sha256(message).digest())
    return int.from_bytes(h.digest(), "big") % Q == e


group_elements = st.integers(min_value=2, max_value=P - 2)
scalars = st.integers(min_value=0, max_value=Q - 1)


class TestGPow:
    @pytest.mark.parametrize("k", [0, 1, 2, 6, 64, Q - 1, Q, Q + 1, P - 1, P, 2**2048 - 1])
    def test_edges(self, k):
        assert g_pow(k) == pow(G, k, P)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**2048 - 1))
    def test_full_length_exponents(self, k):
        assert g_pow(k) == pow(G, k, P)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**256 - 1))
    def test_short_exponents(self, k):
        assert g_pow(k) == pow(G, k, P)


class TestLegendre:
    @pytest.mark.parametrize("y", [P - 1, P - 2])
    def test_known_non_residues(self, y):
        # p = 3 mod 4 makes -1 a non-residue; 2 is a residue, so -2 is not.
        assert pow(y, Q, P) == P - 1
        assert legendre(y) == -1

    def test_multiples_of_p(self):
        assert legendre(0) == legendre(P) == 0

    @settings(max_examples=30)
    @given(group_elements)
    def test_matches_euler_criterion(self, y):
        assert legendre(y) % P == pow(y, Q, P)

    @settings(max_examples=10)
    @given(group_elements)
    def test_squares_are_residues(self, x):
        assert legendre(x * x % P) == 1


class TestSchnorrCommitment:
    @settings(max_examples=15)
    @given(group_elements, scalars, scalars)
    def test_matches_reference_for_any_key(self, y, e, s):
        # Random y is outside the subgroup about half the time.
        assert _commitment(y, e, s) == _reference_r(y, e, s)

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("message", [b"", b"m", b"grid", b"x" * 100])
    def test_verify_matches_reference(self, negate, message):
        key = SigningKey.from_seed(b"oracle")
        # p - y is a non-residue: outside the subgroup, and it still
        # verifies exactly when e is odd, since (-1)^(q-e) = 1 then.
        y = P - key.verify_key.public if negate else key.verify_key.public
        assert legendre(y) == (-1 if negate else 1)
        signature = key.sign(message)
        expected = _reference_verify(y, message, signature)
        assert verify(y, message, signature) is expected
        assert expected is (not negate or signature[0] % 2 == 1)
        bad = (signature[0], (signature[1] + 1) % Q)
        assert verify(y, message, bad) is _reference_verify(y, message, bad) is False


# (seed, message, e, sha256 of s as 256 big-endian bytes, sha256 of the
# encoded public key), computed with plain pow() before g_pow existed.
PINNED = [
    (
        b"alice",
        b"message",
        0x973D213190FE59775043243FB1FCD047B4486F7B92A6F6F7951D8F8521420218,
        "6caedf20a2f7916dba8801aa6fa41e237248bd9fdcfa5d0d7a02b3b6a85299ea",
        "14ce7c2f8433fd3fa060f0a9c5e4b9129e34f12314616ba87eec6432b8b1f2f7",
    ),
    (
        b"alice",
        b"",
        0x994ECA057486B4EEC80FBA384B85EEB1B6FCB3CE9C050676DE019B99CF1244DB,
        "0a9a878ce67fc55148c087d30d6013a9d5848b9351fc42848eddf9fad6701271",
        "14ce7c2f8433fd3fa060f0a9c5e4b9129e34f12314616ba87eec6432b8b1f2f7",
    ),
    (
        b"grid-root",
        b"repro-tls server-auth v1",
        0x28FE64CAB30EA30F7372EC1791CF4EEFA3409BD28312AA5FA2F971DC23A046B3,
        "08dca9178fd20e901c8a621703177c6fb3fe5704c79457e9ac011342a62e28de",
        "ac21d2e6f4b363f1406313904114cd42a0f41547614f6fbd155a77e7bae79dcf",
    ),
    (
        b"bob",
        bytes(range(256)),
        0xE4792877B4D4B837579237306897B5C13FD53B37F88CEB8467F420D88117C62E,
        "49e7987174c715ebf1fe219bb712cd152a4feae76a961149db3189dc771d27b5",
        "d8b2b7ec96bd4171d3a789160d319220b82918b6a0bc22034df3fa32ed550951",
    ),
]


class TestPinnedSignatures:
    @pytest.mark.parametrize("seed,message,e,s_digest,key_digest", PINNED)
    def test_signature_unchanged(self, seed, message, e, s_digest, key_digest):
        key = SigningKey.from_seed(seed)
        assert hashlib.sha256(key.verify_key.encode()).hexdigest() == key_digest
        got_e, got_s = key.sign(message)
        assert got_e == e
        assert hashlib.sha256(got_s.to_bytes(256, "big")).hexdigest() == s_digest
        assert sign(key.private, message) == (got_e, got_s)


class TestDHAgainstPow:
    EXPONENTS = [2, 3, 0x1234567890ABCDEF1234567890ABCDEF, 2**255 + 12345, Q - 1]

    @pytest.mark.parametrize("x", EXPONENTS)
    def test_public_value(self, x):
        assert DHPrivateKey(exponent=x).public == pow(G, x, P)

    def test_shared_secrets(self):
        a = DHPrivateKey(exponent=0x1234567890ABCDEF1234567890ABCDEF)
        b = DHPrivateKey(exponent=0xFEDCBA0987654321FEDCBA0987654321)
        expected = pow(pow(G, b.x, P), a.x, P).to_bytes(256, "big")
        assert a.shared(b.public) == b.shared(a.public) == expected
        assert shared_secret(a.x, b.public) == expected

    @settings(max_examples=10)
    @given(group_elements)
    def test_subgroup_check_matches_pow(self, y):
        in_subgroup = pow(y, Q, P) == 1
        try:
            shared_secret(3, y)
        except ValueError:
            assert not in_subgroup
        else:
            assert in_subgroup
