import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jkelab import (AdcSpec, KeyMaterial, SnrPoint, ValidationError,
                    noise_var_to_snr, snr_to_noise_var, validate)


class TestValidate:
    def test_headline_point_is_valid(self, headline_params):
        assert validate(headline_params) is headline_params

    def test_idempotent(self, headline_params):
        assert validate(validate(headline_params)) == headline_params

    def test_zero_bandwidth_rejected(self, headline_params):
        bad = dataclasses.replace(headline_params, bandwidth_hz=0.0)
        with pytest.raises(ValidationError, match="bandwidth must be positive"):
            validate(bad)

    def test_negative_dynamic_range_rejected(self, headline_params):
        bad = dataclasses.replace(headline_params, dynamic_range_factor=-1.0)
        with pytest.raises(ValidationError,
                           match="dynamic range factor must be positive"):
            validate(bad)

    def test_negative_noise_rejected(self, headline_params):
        with pytest.raises(ValidationError, match="bob channel noise"):
            validate(headline_params.with_bob_noise_var(-1e-3))
        with pytest.raises(ValidationError, match="eve channel noise"):
            validate(headline_params.with_eve_noise_var(-1e-3))

    def test_zero_eve_noise_allowed(self, headline_params):
        validate(headline_params.with_eve_noise_var(0.0))

    def test_fractional_jamming_bits_rejected(self, headline_params):
        bad = dataclasses.replace(headline_params, jamming_bits_per_symbol=2.5)
        with pytest.raises(ValidationError, match="jamming bits"):
            validate(bad)

    def test_numpy_integer_jamming_bits_accepted(self, headline_params):
        good = dataclasses.replace(headline_params,
                                   jamming_bits_per_symbol=np.int64(14))
        assert validate(good) is good

    @pytest.mark.parametrize("w", [14.5, np.float64(14.0)], ids=repr)
    def test_float_jamming_bits_rejected(self, headline_params, w):
        bad = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        with pytest.raises(ValidationError, match="jamming bits"):
            validate(bad)

    @pytest.mark.parametrize("w", [True, False])
    def test_bool_jamming_bits_rejected(self, headline_params, w):
        # bool is a numbers.Integral, and was once echoed as true.
        bad = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        with pytest.raises(ValidationError, match="jamming bits"):
            validate(bad)

    def test_jamming_bits_may_exceed_eve_bits(self, headline_params):
        # a legal, Eve-hostile configuration: w > b_E
        validate(dataclasses.replace(headline_params, jamming_bits_per_symbol=30))


class TestAdcSpec:
    def test_nonpositive_jitter_rejected(self):
        with pytest.raises(ValidationError, match="aperture jitter"):
            AdcSpec(aperture_jitter_s=0.0)

    def test_explicit_bits_override(self):
        spec = AdcSpec(aperture_jitter_s=5e-15, explicit_bits=10.0)
        assert spec.effective_bits(40e6) == 10.0

    def test_derived_bits_depend_on_bandwidth(self):
        spec = AdcSpec(aperture_jitter_s=5e-15)
        assert spec.effective_bits(40e6) > spec.effective_bits(80e6)


class TestSnr:
    def test_zero_db_is_unit_noise(self):
        assert snr_to_noise_var(SnrPoint(0.0), 1.0) == pytest.approx(1.0)

    def test_32_db(self):
        # independent high-precision evaluation of 10^-3.2
        assert snr_to_noise_var(SnrPoint(32.0), 1.0) == pytest.approx(
            6.30957344480193e-4, rel=1e-12)

    def test_infinite_is_noiseless(self):
        assert snr_to_noise_var(SnrPoint.infinite(), 1.0) == 0.0
        assert noise_var_to_snr(0.0, 1.0).is_infinite

    def test_non_finite_db_rejected(self):
        with pytest.raises(ValidationError):
            SnrPoint(float("inf"))

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3100.0])
    def test_out_of_float_range_rejected(self, snr_db):
        # 10^400 overflows, 10^-400 underflows to 0, and 1 / 10^-310
        # overflows to inf
        with pytest.raises(ValidationError,
                           match=f"SNR of {snr_db!r} dB is out of range"):
            snr_to_noise_var(SnrPoint(snr_db), 1.0)

    def test_zero_variance_from_finite_snr_rejected(self):
        with pytest.raises(ValidationError, match="SNR of 300.0 dB"):
            snr_to_noise_var(SnrPoint(300.0), 1e-300)

    def test_infinite_signal_power_rejected(self):
        with pytest.raises(ValidationError, match="positive and finite"):
            snr_to_noise_var(SnrPoint(32.0), float("inf"))

    @given(st.floats(min_value=-300, max_value=300),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, snr_db, power):
        back = noise_var_to_snr(snr_to_noise_var(SnrPoint(snr_db), power), power)
        assert back.snr_db == pytest.approx(snr_db, rel=1e-12, abs=1e-12)


class TestKeyMaterial:
    def test_minimum_length_enforced(self):
        with pytest.raises(ValidationError, match="128 bits"):
            KeyMaterial(b"\x01" * 15)
        with pytest.raises(ValidationError):
            KeyMaterial(b"")

    def test_default_length(self):
        assert KeyMaterial.random(seed=1).n_bits == 256

    def test_seeded_generation_is_deterministic(self):
        assert KeyMaterial.random(seed=42) == KeyMaterial.random(seed=42)
        assert KeyMaterial.random(seed=42) != KeyMaterial.random(seed=43)

    def test_flip_bit_has_hamming_distance_one(self):
        key = KeyMaterial.random(seed=7)
        flipped = key.with_flipped_bit(13)
        diff = key.bit_array() ^ flipped.bit_array()
        assert diff.sum() == 1 and diff[13] == 1

    def test_bit_array_matches_int(self):
        key = KeyMaterial.random(seed=3)
        bits = "".join(str(b) for b in key.bit_array())
        assert int(bits, 2) == int.from_bytes(key.bits, "big")
