import numpy as np
import pytest
from scipy import stats as scipy_stats

from jkelab import KeyMaterial, ValidationError, jamming_stream


class TestGeneration:
    def test_same_seed_same_stream(self):
        seed = KeyMaterial.random(seed=5)
        a = jamming_stream(seed, 14, 5000, 2.5)
        b = jamming_stream(seed, 14, 5000, 2.5)
        assert np.array_equal(a.symbols, b.symbols)

    def test_longer_stream_extends_shorter(self):
        seed = KeyMaterial.random(seed=5)
        short = jamming_stream(seed, 8, 100, 1.0)
        long = jamming_stream(seed, 8, 200, 1.0)
        assert np.array_equal(long.symbols[:100], short.symbols)

    def test_one_bit_symbols_take_two_values(self):
        stream = jamming_stream(KeyMaterial.random(seed=1), 1, 10000, 3.0)
        assert set(np.unique(stream.symbols)) == {-3.0, 3.0}

    def test_symbols_lie_on_the_level_lattice(self):
        w, scale = 4, 2.0
        stream = jamming_stream(KeyMaterial.random(seed=2), w, 10000, scale)
        top = 2 ** w - 1
        levels = (2 * np.arange(2 ** w) - top) / top * scale
        assert set(np.unique(stream.symbols)) <= set(levels)
        assert stream.symbols.min() >= -scale and stream.symbols.max() <= scale

    def test_symbol_distribution_is_uniform(self):
        # chi-square sanity over 2^4 levels at one million samples
        w = 4
        stream = jamming_stream(KeyMaterial.random(seed=3), w, 10 ** 6, 1.0)
        _, counts = np.unique(stream.symbols, return_counts=True)
        assert len(counts) == 2 ** w
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 1e-6

    # A float width once raised a TypeError, from bytes([14.0]).
    @pytest.mark.parametrize("w", [0, -1, 33, 14.0, np.float64(14), True],
                             ids=repr)
    def test_unsupported_resolution_rejected(self, w):
        with pytest.raises(ValueError):
            jamming_stream(KeyMaterial.random(seed=1), w, 10, 1.0)

    def test_bad_length_and_scale_rejected(self):
        seed = KeyMaterial.random(seed=1)
        with pytest.raises(ValueError):
            jamming_stream(seed, 8, 0, 1.0)
        with pytest.raises(ValueError):
            jamming_stream(seed, 8, 10, 0.0)

    # Each of these once failed inside hashlib or NumPy with an unnamed
    # TypeError, or (True) gave a one-symbol stream.
    @pytest.mark.parametrize("n_symbols", [3.0, 2.5, True, "7", np.float64(4)],
                             ids=repr)
    def test_symbol_count_must_be_an_integer(self, n_symbols):
        with pytest.raises(ValidationError, match="symbol count must be an "
                                                  "integer of at least 1"):
            jamming_stream(KeyMaterial.random(seed=1), 8, n_symbols, 1.0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="positive and finite"):
            jamming_stream(KeyMaterial.random(seed=1), 8, 10, scale)

    def test_symbols_are_read_only(self):
        stream = jamming_stream(KeyMaterial.random(seed=1), 8, 10, 1.0)
        with pytest.raises(ValueError):
            stream.symbols[0] = 0.0


class TestAvalanche:
    N = 10 ** 5

    @pytest.mark.parametrize("flip_index", [0, 97, 255])
    def test_single_seed_bit_flip_gives_chance_agreement(self, flip_index):
        # a near-miss seed must not help: agreement stays at the 2^-w
        # chance level (within 3 sigma of the binomial count)
        w = 8
        seed = KeyMaterial.random(seed=11)
        base = jamming_stream(seed, w, self.N, 1.0)
        other = jamming_stream(seed.with_flipped_bit(flip_index), w, self.N, 1.0)
        matches = int(np.sum(base.symbols == other.symbols))
        p = 2.0 ** -w
        sigma = np.sqrt(self.N * p * (1 - p))
        assert abs(matches - self.N * p) <= 3 * sigma

    def test_cross_correlation_near_zero(self):
        w = 8
        seed = KeyMaterial.random(seed=12)
        base = jamming_stream(seed, w, self.N, 1.0)
        other = jamming_stream(seed.with_flipped_bit(42), w, self.N, 1.0)
        a = base.symbols - base.symbols.mean()
        b = other.symbols - other.symbols.mean()
        rho = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(rho) <= 3.0 / np.sqrt(self.N)

    def test_different_bits_per_symbol_are_domain_separated(self):
        seed = KeyMaterial.random(seed=13)
        a = jamming_stream(seed, 8, 1000, 1.0)
        b = jamming_stream(seed, 16, 1000, 1.0)
        # same seed, different symbol widths: unrelated streams
        assert not np.array_equal(np.sign(a.symbols), np.sign(b.symbols))
