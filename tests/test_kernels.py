"""The hot kernels against independent oracles."""

import numpy as np
import pytest

from jkelab.kernels import quantize_midrise, unpack_symbols


class TestQuantizeMidrise:
    def test_exact_clip_edges(self):
        # step 0.25 over [-1, 1]: levels -0.875 ... +0.875; both edges and
        # everything beyond collapse to the outermost level.
        x = np.array([-1.0, -0.875, 0.875, 1.0, 8.0, -8.0, 0.0, -1e-300])
        levels = quantize_midrise(x, 0.25, 1.0)
        assert levels.dtype == np.float64
        assert levels.tolist() == [-0.875, -0.875, 0.875, 0.875, 0.875,
                                   -0.875, 0.125, -0.125]


class TestUnpackSymbols:
    @pytest.mark.parametrize("w", [1, 2, 7, 8, 13, 14, 31, 32])
    def test_against_int_slicing_oracle(self, w):
        # independent oracle: big-endian bit slicing through Python ints
        rng = np.random.default_rng(w)
        n = 997
        raw = rng.bytes((n * w + 7) // 8)
        stream = int.from_bytes(raw, "big")
        total_bits = len(raw) * 8
        expected = [(stream >> (total_bits - (i + 1) * w)) & ((1 << w) - 1)
                    for i in range(n)]
        words = unpack_symbols(raw, n, w)
        assert words.dtype == np.int64
        assert words.tolist() == expected

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_symbols(b"\x00", 3, 8)
