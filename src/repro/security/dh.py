"""Finite-field Diffie-Hellman over RFC 3526 MODP group 14 (2048-bit).

Used for the ephemeral key agreement in the TLS-like handshake.  The group
prime is a safe prime (p = 2q + 1 with q prime), so it doubles as the
Schnorr-signature group in :mod:`repro.security.schnorr`.

Two helpers replace full-length ``pow`` calls with exactly equivalent,
cheaper arithmetic: :func:`g_pow` (fixed-base exponentiation of the
generator over a precomputed table) and :func:`legendre` (Euler's
criterion ``y^q == (y|p)`` without the exponentiation).  Neither is
constant-time; nor is the built-in ``pow`` they replace.
"""

from __future__ import annotations

import functools
import secrets

__all__ = [
    "GROUP14_P",
    "GROUP14_G",
    "GROUP14_Q",
    "DHPrivateKey",
    "g_pow",
    "legendre",
    "shared_secret",
]

# RFC 3526, 2048-bit MODP Group (id 14).
GROUP14_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GROUP14_G = 2
#: order of the prime-order subgroup (p is a safe prime)
GROUP14_Q = (GROUP14_P - 1) // 2

# Window width of the fixed-base table.  Yao's method costs about
# ceil(2047 / w) + 2 * (2^w - 1) modular multiplications, least at w = 6
# (342 entries, ~90 KB).  Measured with CPython 3.11 on a 2-core Xeon
# VM against pow(2, k, p) at 27 ms: a 2047-bit exponent takes
# 9.0 / 8.2 / 7.2 / 7.7 / 9.8 ms for w = 4 / 5 / 6 / 7 / 8, a 256-bit one
# 1.3 / 1.4 / 1.9 / 3.0 / 5.3 ms (pow: 3.7 ms).  Building the table costs
# about one full pow, once per process.
_WINDOW = 6


@functools.cache
def _g_table() -> tuple[int, ...]:
    """``g^(2^(w*i)) mod p`` for every base-2^w digit of an exponent < q."""
    table, x = [], GROUP14_G
    for _ in range(-(-GROUP14_Q.bit_length() // _WINDOW)):
        table.append(x)
        for _ in range(_WINDOW):
            x = x * x % GROUP14_P
    return tuple(table)


def g_pow(k: int) -> int:
    """``pow(GROUP14_G, k, GROUP14_P)`` for any integer ``k``.

    Yao's fixed-base method over the table ``g^(2^(w*i))``: multiply each
    table entry into the bucket of its base-2^w digit, then combine the
    buckets so that bucket ``d`` ends up raised to ``d``.  The generator
    has order q, so the exponent is reduced mod q first.
    """
    table, p, mask = _g_table(), GROUP14_P, (1 << _WINDOW) - 1
    k %= GROUP14_Q
    buckets = [1] * (mask + 1)
    i = 0
    while k:
        d = k & mask
        if d:
            buckets[d] = buckets[d] * table[i] % p
        k >>= _WINDOW
        i += 1
    acc = run = 1
    for d in range(mask, 0, -1):
        run = run * buckets[d] % p
        acc = acc * run % p
    return acc


def legendre(y: int) -> int:
    """The Legendre symbol ``(y|p)``: 1, -1, or 0 when p divides y.

    By Euler's criterion it equals ``pow(y, GROUP14_Q, GROUP14_P)`` (with
    -1 for p - 1), at a small fraction of the cost: a Euclid-style Jacobi
    loop driven by quadratic reciprocity.
    """
    a, n, t = y % GROUP14_P, GROUP14_P, 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


class DHPrivateKey:
    """An ephemeral DH keypair.

    ``exponent_bits`` trades security margin for speed; 256 random bits is
    ample for a 2048-bit group (standard short-exponent practice).
    """

    def __init__(self, exponent: int | None = None, exponent_bits: int = 256):
        if exponent is None:
            exponent = secrets.randbits(exponent_bits) | (1 << (exponent_bits - 1))
        if not 1 < exponent < GROUP14_Q:
            raise ValueError("exponent out of range")
        self.x = exponent
        self.public = g_pow(self.x)

    def shared(self, peer_public: int) -> bytes:
        """The shared secret with a peer's public value, as bytes."""
        return shared_secret(self.x, peer_public)


def _validate_public(value: int) -> None:
    if not 1 < value < GROUP14_P - 1:
        raise ValueError("invalid DH public value")
    # Subgroup check: reject small-subgroup confinement attacks.  The
    # subgroup of order q is exactly the quadratic residues, so this is
    # pow(value, q, p) == 1 by Euler's criterion.
    if legendre(value) != 1:
        raise ValueError("DH public value not in the prime-order subgroup")


def shared_secret(private_exponent: int, peer_public: int) -> bytes:
    """g^(xy) mod p, serialized big-endian (constant 256-byte length)."""
    _validate_public(peer_public)
    z = pow(peer_public, private_exponent, GROUP14_P)
    return z.to_bytes(256, "big")
