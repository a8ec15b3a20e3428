"""Toy RSA key-encapsulation mechanism for the initial key transport.

Deliberately desk-scale and textbook (unpadded modular exponentiation,
16..2048-bit moduli) so the timing-race demos can actually factor it.
THIS IS NOT A SECURE KEM; it exists so the protocol pipeline has a
concrete, breakable phase 1. Pure channel experiments skip it: the
simulator's ``passthrough`` mode hands the key over unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .params import KeyMaterial

MIN_MODULUS_BITS = 16
MAX_MODULUS_BITS = 2048

# Tried in order at keygen until one is coprime to the Carmichael function.
_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)


class MalformedCiphertextError(ValueError):
    """Ciphertext block outside the residue range of the modulus."""


@dataclass(frozen=True)
class KemKeyPair:
    """Textbook RSA key pair; the private exponent inverts the public one
    modulo lcm(p-1, q-1), so encrypt-then-decrypt is the identity on every
    residue."""

    modulus: int
    public_exponent: int
    private_exponent: int
    bit_length: int
    p: int
    q: int


@dataclass(frozen=True)
class RsaCiphertext:
    """Key bits encrypted block-wise (each block strictly below the
    modulus), with the original key length for exact reassembly."""

    blocks: tuple
    key_bits: int


def _miller_rabin(n: int, rng: random.Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
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


def _random_prime(bits: int, rng: random.Random) -> int:
    # Top two bits set so the product of two such primes has exactly
    # bits_p + bits_q bits.
    while True:
        candidate = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        if _miller_rabin(candidate, rng):
            return candidate


def keygen(bit_length: int, rng_seed: int) -> KemKeyPair:
    """Generate a toy RSA pair with an exactly ``bit_length``-bit modulus.
    Deterministic for a given ``rng_seed``."""
    if not MIN_MODULUS_BITS <= bit_length <= MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus bit length must be in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}]")
    rng = random.Random(rng_seed)
    p_bits = (bit_length + 1) // 2
    q_bits = bit_length - p_bits
    while True:
        p = _random_prime(p_bits, rng)
        q = _random_prime(q_bits, rng)
        if p == q:
            continue
        lam = math.lcm(p - 1, q - 1)
        e = next((cand for cand in _PUBLIC_EXPONENTS
                  if cand < lam and math.gcd(cand, lam) == 1), None)
        if e is None:
            continue
        return keypair_from_primes(p, q, e)


def keypair_from_primes(p: int, q: int, e: int) -> KemKeyPair:
    """Build a pair from chosen primes (textbook exercises, test oracles)."""
    if p == q:
        raise ValueError("primes must be distinct")
    lam = math.lcm(p - 1, q - 1)
    if math.gcd(e, lam) != 1:
        raise ValueError("public exponent shares a factor with lcm(p-1, q-1)")
    n = p * q
    return KemKeyPair(modulus=n, public_exponent=e,
                      private_exponent=pow(e, -1, lam),
                      bit_length=n.bit_length(), p=p, q=q)


def _block_bytes(modulus: int) -> int:
    # Largest whole-byte block guaranteed below the modulus.
    return (modulus.bit_length() - 1) // 8


def encapsulate(pubkey: KemKeyPair, key: KeyMaterial) -> RsaCiphertext:
    """Encrypt ``key`` block-wise under the public part of ``pubkey``; the
    unpadded textbook scheme is deterministic."""
    k = _block_bytes(pubkey.modulus)
    data = key.bits
    blocks = tuple(
        pow(int.from_bytes(data[i:i + k], "big"),
            pubkey.public_exponent, pubkey.modulus)
        for i in range(0, len(data), k))
    return RsaCiphertext(blocks=blocks, key_bits=key.n_bits)


def decapsulate(privkey: KemKeyPair, ciphertext: RsaCiphertext) -> KeyMaterial:
    """Invert :func:`encapsulate`; rejects blocks outside the residue range."""
    k = _block_bytes(privkey.modulus)
    total = ciphertext.key_bits // 8
    chunks = []
    remaining = total
    for c in ciphertext.blocks:
        if not 0 <= c < privkey.modulus:
            raise MalformedCiphertextError("ciphertext block exceeds modulus")
        m = pow(c, privkey.private_exponent, privkey.modulus)
        chunk_len = min(k, remaining)
        # Tampered blocks may decrypt above the chunk range; keep the low
        # bytes so corruption surfaces as a key mismatch, not a crash.
        m &= (1 << (8 * chunk_len)) - 1
        chunks.append(m.to_bytes(chunk_len, "big"))
        remaining -= chunk_len
    if remaining != 0:
        raise MalformedCiphertextError("ciphertext block count inconsistent with key length")
    return KeyMaterial(b"".join(chunks))
