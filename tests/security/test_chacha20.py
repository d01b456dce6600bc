"""ChaCha20 against the RFC 7539 test vectors plus property tests."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.security import chacha20
from repro.security.chacha20 import (
    VECTOR_MIN_BLOCKS,
    ChaCha20,
    chacha20_block,
    chacha20_xor,
)

MAX_COUNTER = 2**32 - 1


class TestRfc7539Vectors:
    def test_block_function_vector(self):
        """RFC 7539 §2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expected

    def test_encryption_vector(self):
        """RFC 7539 §2.4.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, 1, nonce, plaintext)
        expected = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )
        assert ciphertext == expected


class TestProperties:
    @given(st.binary(min_size=0, max_size=500), st.integers(0, 2**31))
    def test_xor_round_trip(self, data, counter):
        key = bytes(range(32))
        nonce = b"\x01" * 12
        assert chacha20_xor(key, counter, nonce, chacha20_xor(key, counter, nonce, data)) == data

    @given(st.binary(min_size=1, max_size=200))
    def test_different_keys_differ(self, data):
        nonce = b"\x00" * 12
        c1 = chacha20_xor(b"\x01" * 32, 0, nonce, data)
        c2 = chacha20_xor(b"\x02" * 32, 0, nonce, data)
        assert c1 != c2

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 2**40))
    def test_stateful_wrapper_round_trip(self, data, seq):
        enc = ChaCha20(b"k" * 32)
        dec = ChaCha20(b"k" * 32)
        assert dec.process(seq, enc.process(seq, data)) == data

    def test_different_seq_gives_different_stream(self):
        c = ChaCha20(b"k" * 32)
        data = b"a" * 64
        assert c.process(0, data) != c.process(1, data)


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, b"\x00" * 12)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)

    def test_counter_out_of_range(self):
        with pytest.raises(ValueError):
            chacha20_block(b"\x00" * 32, 1 << 32, b"\x00" * 12)

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            ChaCha20(b"\x00" * 32, prefix=b"abc")


class TestVectorPath:
    """The numpy keystream against the scalar oracle, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.one_of(
            st.integers(0, (VECTOR_MIN_BLOCKS + 3) * 64), st.just(65536 + 5)
        ),
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        counter=st.integers(0, MAX_COUNTER),
        seed=st.integers(0, 2**32),
    )
    def test_vector_equals_scalar(self, size, key, nonce, counter, seed):
        np = pytest.importorskip("numpy")
        data = random.Random(seed).randbytes(size)
        # Keep the last block's counter within 32 bits; overflow is
        # rejected before either path runs (see the tests below).
        counter = min(counter, MAX_COUNTER + 1 - max(1, (size + 63) // 64))
        scalar = chacha20._xor_scalar(key, counter, nonce, data)
        assert chacha20._xor_vector(np, key, counter, nonce, data) == scalar
        assert chacha20_xor(key, counter, nonce, data) == scalar

    @pytest.mark.parametrize("nblocks", [1, VECTOR_MIN_BLOCKS, 1024])
    def test_counter_may_reach_the_last_value(self, nblocks):
        key, nonce = bytes(range(32)), b"\x07" * 12
        data = b"\xab" * (nblocks * 64)
        counter = MAX_COUNTER + 1 - nblocks
        out = chacha20_xor(key, counter, nonce, data)
        assert out[-64:] == bytes(
            a ^ b
            for a, b in zip(data[-64:], chacha20_block(key, MAX_COUNTER, nonce))
        )

    @pytest.mark.parametrize("nblocks", [2, VECTOR_MIN_BLOCKS, 1024])
    def test_counter_overflow_raises_on_both_paths(self, nblocks):
        """A record must not wrap the 32-bit counter and reuse keystream."""
        data = b"\x00" * (nblocks * 64)
        with pytest.raises(ValueError, match="counter out of range"):
            chacha20_xor(b"\x00" * 32, MAX_COUNTER + 2 - nblocks, b"\x00" * 12, data)

    def test_fallback_without_numpy_is_identical(self, monkeypatch):
        key, nonce = bytes(range(32)), bytes(range(12))
        data = random.Random(7).randbytes(65536 + 5)
        expected = chacha20_xor(key, 1, nonce, data)

        def vector_path_taken(*_args):
            raise AssertionError("vector path ran without numpy")

        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(chacha20, "_xor_vector", vector_path_taken)
        assert chacha20_xor(key, 1, nonce, data) == expected

    def test_numpy_not_imported_with_the_package(self):
        probe = (
            "import sys, repro, repro.security\n"
            "from repro.security.chacha20 import chacha20_xor\n"
            "chacha20_xor(bytes(32), 1, bytes(12), bytes(64))\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"
