"""ChaCha20 stream cipher (RFC 7539), from scratch.

Used by the TLS-like record layer (:mod:`repro.security.record`).  A
record's keystream is computed one of two ways, chosen by size alone:

* the scalar path, :func:`chacha20_block` once per 64-byte block, in
  pure Python.  It serves small records, runs when numpy is absent, and
  is the oracle the vector path is tested against;
* the vector path, every block of the record at once as one lane of a
  ``(16, nblocks)`` ``uint32`` numpy array.  numpy is imported on the
  first record that takes this path, never at module import.

Both produce the same bytes; the RFC 7539 test vectors and a
scalar-versus-vector equality property pin this in the test suite.
"""

from __future__ import annotations

import struct

__all__ = ["chacha20_block", "chacha20_xor", "ChaCha20", "VECTOR_MIN_BLOCKS"]

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

#: Records of at least this many 64-byte blocks take the vector path.
#: Measured on a 2-core Intel Xeon VM, CPython 3.11, numpy 2.4, as the
#: median of 60 interleaved runs per size: the scalar path costs ~110 us
#: per block, the vector path a near-flat ~520 us up to 16 blocks, so the
#: two cross between 4 blocks (scalar 440 us, vector 511 us) and 5
#: (546 vs 520 us).  At 64 KiB the vector path takes ~0.9 ms against
#: ~104 ms for the scalar one.
VECTOR_MIN_BLOCKS = 5


def _check(key: bytes, counter: int, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter <= _MASK:
        raise ValueError("counter out of range")


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte keystream block (RFC 7539 §2.3)."""
    _check(key, counter, nonce)
    j0, j1, j2, j3 = _CONSTANTS
    j4, j5, j6, j7, j8, j9, j10, j11 = struct.unpack("<8I", key)
    j12 = counter
    j13, j14, j15 = struct.unpack("<3I", nonce)
    x0, x1, x2, x3, x4, x5, x6, x7 = j0, j1, j2, j3, j4, j5, j6, j7
    x8, x9, x10, x11, x12, x13, x14, x15 = j8, j9, j10, j11, j12, j13, j14, j15
    for _ in range(10):
        # column round
        x0 = (x0 + x4) & _MASK
        x12 ^= x0
        x12 = ((x12 << 16) & _MASK) | (x12 >> 16)
        x8 = (x8 + x12) & _MASK
        x4 ^= x8
        x4 = ((x4 << 12) & _MASK) | (x4 >> 20)
        x0 = (x0 + x4) & _MASK
        x12 ^= x0
        x12 = ((x12 << 8) & _MASK) | (x12 >> 24)
        x8 = (x8 + x12) & _MASK
        x4 ^= x8
        x4 = ((x4 << 7) & _MASK) | (x4 >> 25)
        x1 = (x1 + x5) & _MASK
        x13 ^= x1
        x13 = ((x13 << 16) & _MASK) | (x13 >> 16)
        x9 = (x9 + x13) & _MASK
        x5 ^= x9
        x5 = ((x5 << 12) & _MASK) | (x5 >> 20)
        x1 = (x1 + x5) & _MASK
        x13 ^= x1
        x13 = ((x13 << 8) & _MASK) | (x13 >> 24)
        x9 = (x9 + x13) & _MASK
        x5 ^= x9
        x5 = ((x5 << 7) & _MASK) | (x5 >> 25)
        x2 = (x2 + x6) & _MASK
        x14 ^= x2
        x14 = ((x14 << 16) & _MASK) | (x14 >> 16)
        x10 = (x10 + x14) & _MASK
        x6 ^= x10
        x6 = ((x6 << 12) & _MASK) | (x6 >> 20)
        x2 = (x2 + x6) & _MASK
        x14 ^= x2
        x14 = ((x14 << 8) & _MASK) | (x14 >> 24)
        x10 = (x10 + x14) & _MASK
        x6 ^= x10
        x6 = ((x6 << 7) & _MASK) | (x6 >> 25)
        x3 = (x3 + x7) & _MASK
        x15 ^= x3
        x15 = ((x15 << 16) & _MASK) | (x15 >> 16)
        x11 = (x11 + x15) & _MASK
        x7 ^= x11
        x7 = ((x7 << 12) & _MASK) | (x7 >> 20)
        x3 = (x3 + x7) & _MASK
        x15 ^= x3
        x15 = ((x15 << 8) & _MASK) | (x15 >> 24)
        x11 = (x11 + x15) & _MASK
        x7 ^= x11
        x7 = ((x7 << 7) & _MASK) | (x7 >> 25)
        # diagonal round
        x0 = (x0 + x5) & _MASK
        x15 ^= x0
        x15 = ((x15 << 16) & _MASK) | (x15 >> 16)
        x10 = (x10 + x15) & _MASK
        x5 ^= x10
        x5 = ((x5 << 12) & _MASK) | (x5 >> 20)
        x0 = (x0 + x5) & _MASK
        x15 ^= x0
        x15 = ((x15 << 8) & _MASK) | (x15 >> 24)
        x10 = (x10 + x15) & _MASK
        x5 ^= x10
        x5 = ((x5 << 7) & _MASK) | (x5 >> 25)
        x1 = (x1 + x6) & _MASK
        x12 ^= x1
        x12 = ((x12 << 16) & _MASK) | (x12 >> 16)
        x11 = (x11 + x12) & _MASK
        x6 ^= x11
        x6 = ((x6 << 12) & _MASK) | (x6 >> 20)
        x1 = (x1 + x6) & _MASK
        x12 ^= x1
        x12 = ((x12 << 8) & _MASK) | (x12 >> 24)
        x11 = (x11 + x12) & _MASK
        x6 ^= x11
        x6 = ((x6 << 7) & _MASK) | (x6 >> 25)
        x2 = (x2 + x7) & _MASK
        x13 ^= x2
        x13 = ((x13 << 16) & _MASK) | (x13 >> 16)
        x8 = (x8 + x13) & _MASK
        x7 ^= x8
        x7 = ((x7 << 12) & _MASK) | (x7 >> 20)
        x2 = (x2 + x7) & _MASK
        x13 ^= x2
        x13 = ((x13 << 8) & _MASK) | (x13 >> 24)
        x8 = (x8 + x13) & _MASK
        x7 ^= x8
        x7 = ((x7 << 7) & _MASK) | (x7 >> 25)
        x3 = (x3 + x4) & _MASK
        x14 ^= x3
        x14 = ((x14 << 16) & _MASK) | (x14 >> 16)
        x9 = (x9 + x14) & _MASK
        x4 ^= x9
        x4 = ((x4 << 12) & _MASK) | (x4 >> 20)
        x3 = (x3 + x4) & _MASK
        x14 ^= x3
        x14 = ((x14 << 8) & _MASK) | (x14 >> 24)
        x9 = (x9 + x14) & _MASK
        x4 ^= x9
        x4 = ((x4 << 7) & _MASK) | (x4 >> 25)
    return struct.pack(
        "<16I",
        (x0 + j0) & _MASK, (x1 + j1) & _MASK,
        (x2 + j2) & _MASK, (x3 + j3) & _MASK,
        (x4 + j4) & _MASK, (x5 + j5) & _MASK,
        (x6 + j6) & _MASK, (x7 + j7) & _MASK,
        (x8 + j8) & _MASK, (x9 + j9) & _MASK,
        (x10 + j10) & _MASK, (x11 + j11) & _MASK,
        (x12 + j12) & _MASK, (x13 + j13) & _MASK,
        (x14 + j14) & _MASK, (x15 + j15) & _MASK,
    )


def _quarter_lanes(np, a, b, c, d, tmp) -> None:
    """Four quarter-rounds at once: row ``i`` of a, b, c, d is one of them."""
    for x, y, z, r in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
        np.add(x, y, x)
        np.bitwise_xor(z, x, z)
        np.right_shift(z, 32 - r, tmp)  # z <<<= r, in place
        np.left_shift(z, r, z)
        np.bitwise_or(z, tmp, z)


# The diagonal round is the column round on rows b, c and d rotated by
# 1, 2 and 3: one gather lines each diagonal up in a column, and its
# inverse puts the rows back.
_DIAGONALS = (0, 1, 2, 3, 5, 6, 7, 4, 10, 11, 8, 9, 15, 12, 13, 14)
_UNDIAGONALS = (0, 1, 2, 3, 7, 4, 5, 6, 10, 11, 8, 9, 13, 14, 15, 12)


def _xor_vector(np, key: bytes, counter: int, nonce: bytes, data) -> bytes:
    """XOR ``data`` with the keystream, all blocks at once as numpy lanes."""
    n = len(data)
    nblocks = (n + 63) // 64
    init = np.empty((16, nblocks), dtype=np.uint32)
    init[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    # The caller has checked that the last counter fits in 32 bits, so
    # this row cannot wrap and reuse keystream.
    init[12] = np.arange(counter, counter + nblocks, dtype=np.int64)
    init[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    x = init.copy()
    y = np.empty_like(x)
    tmp = np.empty((4, nblocks), dtype=np.uint32)
    xrows = x[0:4], x[4:8], x[8:12], x[12:16]
    yrows = y[0:4], y[4:8], y[8:12], y[12:16]
    # mode="clip" lets take() write straight into ``out``; the default
    # mode buffers it.  The indices are constants, always in range.
    for _ in range(10):
        _quarter_lanes(np, *xrows, tmp)
        np.take(x, _DIAGONALS, axis=0, out=y, mode="clip")
        _quarter_lanes(np, *yrows, tmp)
        np.take(y, _UNDIAGONALS, axis=0, out=x, mode="clip")
    np.add(x, init, out=x)
    # Block j is column j, serialised as 16 little-endian words.
    stream = x.T.astype("<u4", order="C").reshape(-1).view(np.uint8)
    return (np.frombuffer(data, dtype=np.uint8) ^ stream[:n]).tobytes()


def _xor_scalar(key: bytes, counter: int, nonce: bytes, data) -> bytes:
    """XOR ``data`` with the keystream, one :func:`chacha20_block` per block."""
    n = len(data)
    stream = b"".join(
        [chacha20_block(key, counter + i, nonce) for i in range((n + 63) // 64)]
    )
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(
        memoryview(stream)[:n], "little"
    )
    return mixed.to_bytes(n, "little")


def chacha20_xor(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with the keystream, RFC 7539 §2.4)."""
    _check(key, counter, nonce)
    nblocks = (len(data) + 63) // 64
    if counter + nblocks - 1 > _MASK:
        raise ValueError("counter out of range")
    if nblocks >= VECTOR_MIN_BLOCKS:
        # Without numpy the import is retried per record (~70 us on the
        # host above, against >= 500 us of scalar work for such a record).
        try:
            import numpy
        except ImportError:
            pass
        else:
            return _xor_vector(numpy, key, counter, nonce, data)
    return _xor_scalar(key, counter, nonce, data)


class ChaCha20:
    """Stateful encryptor: a fresh nonce per message from a 64-bit sequence.

    The 12-byte nonce is ``prefix(4) || seq(8)``; sequence numbers must not
    repeat under the same key (the record layer guarantees this).
    """

    def __init__(self, key: bytes, prefix: bytes = b"\x00" * 4):
        if len(prefix) != 4:
            raise ValueError("nonce prefix must be 4 bytes")
        if len(key) != 32:
            raise ValueError("key must be 32 bytes")
        self.key = key
        self.prefix = prefix

    def process(self, seq: int, data: bytes) -> bytes:
        nonce = self.prefix + struct.pack("!Q", seq)
        return chacha20_xor(self.key, 1, nonce, data)
