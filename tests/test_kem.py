import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from jkelab import KeyMaterial
from jkelab.kem import (MalformedCiphertextError, RsaCiphertext, decapsulate,
                        encapsulate, keygen, keypair_from_primes)


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


class TestKeygen:
    def test_textbook_primes(self):
        # extended-Euclid oracle: d = 17^-1 mod lcm(60, 52) = 413
        pair = keypair_from_primes(61, 53, 17)
        lam = math.lcm(60, 52)
        g, x, _ = egcd(17, lam)
        assert g == 1 and pair.private_exponent == x % lam == 413
        assert pair.public_exponent * pair.private_exponent % lam == 1

    def test_seeded_generation_is_deterministic(self):
        assert keygen(64, rng_seed=11) == keygen(64, rng_seed=11)
        assert keygen(64, rng_seed=11) != keygen(64, rng_seed=12)

    @pytest.mark.parametrize("bits", [16, 24, 64, 128])
    def test_modulus_has_requested_bits(self, bits):
        pair = keygen(bits, rng_seed=5)
        assert pair.modulus.bit_length() == bits == pair.bit_length
        assert pair.modulus == pair.p * pair.q
        lam = math.lcm(pair.p - 1, pair.q - 1)
        assert pair.public_exponent * pair.private_exponent % lam == 1

    def test_pairs_pinned_by_digest(self):
        # sha256 recorded before keygen delegated to keypair_from_primes
        # and the extended Euclid was replaced by pow(e, -1, lam)
        digest = hashlib.sha256()
        for bits in (16, 17, 64, 255, 512):
            for seed in range(40):
                pair = keygen(bits, rng_seed=seed)
                lam = math.lcm(pair.p - 1, pair.q - 1)
                assert pair.public_exponent * pair.private_exponent % lam == 1
                digest.update(repr((pair.modulus, pair.public_exponent,
                                    pair.private_exponent, pair.bit_length,
                                    pair.p, pair.q)).encode())
        assert digest.hexdigest() == (
            "16d80eb4d156cebaf374777d9e53c04a9e4f250a345b686bf5f8e7d359d9e511")

    @pytest.mark.parametrize("bits", [8, 15, 2049])
    def test_bit_length_range_enforced(self, bits):
        with pytest.raises(ValueError, match="bit length"):
            keygen(bits, rng_seed=0)

    def test_raw_rsa_round_trip_on_residues(self):
        pair = keygen(48, rng_seed=3)
        for m in range(1000, 1100):
            c = pow(m, pair.public_exponent, pair.modulus)
            assert pow(c, pair.private_exponent, pair.modulus) == m


class TestEncapsulation:
    def test_round_trip_through_64_bit_modulus(self):
        pair = keygen(64, rng_seed=7)
        key = KeyMaterial.random(256, seed=21)
        assert decapsulate(pair, encapsulate(pair, key)) == key

    @given(st.integers(min_value=0, max_value=2 ** 63))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, seed):
        pair = keygen(40, rng_seed=9)
        key = KeyMaterial.random(256, seed=seed)
        assert decapsulate(pair, encapsulate(pair, key)) == key

    def test_key_with_leading_zero_bytes(self):
        pair = keygen(64, rng_seed=7)
        key = KeyMaterial(b"\x00" * 16 + b"\xffada sample data")
        assert decapsulate(pair, encapsulate(pair, key)) == key

    def test_tampered_block_changes_key(self):
        pair = keygen(64, rng_seed=13)
        key = KeyMaterial.random(256, seed=1)
        ct = encapsulate(pair, key)
        blocks = list(ct.blocks)
        blocks[2] ^= 1
        tampered = decapsulate(pair, RsaCiphertext(tuple(blocks), ct.key_bits))
        assert tampered != key
        assert tampered.n_bits == key.n_bits

    def test_block_at_or_above_modulus_rejected(self):
        pair = keygen(64, rng_seed=13)
        ct = encapsulate(pair, KeyMaterial.random(256, seed=1))
        bad = RsaCiphertext((pair.modulus,) + ct.blocks[1:], ct.key_bits)
        with pytest.raises(MalformedCiphertextError, match="exceeds modulus"):
            decapsulate(pair, bad)

    def test_block_count_mismatch_rejected(self):
        pair = keygen(64, rng_seed=13)
        ct = encapsulate(pair, KeyMaterial.random(256, seed=1))
        with pytest.raises(MalformedCiphertextError, match="block count"):
            decapsulate(pair, RsaCiphertext(ct.blocks[:-1], ct.key_bits))

    def test_empty_key_rejected_at_type_level(self):
        with pytest.raises(ValueError):
            KeyMaterial(b"")
