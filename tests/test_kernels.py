"""The hot kernels against independent oracles."""

import math
import tracemalloc

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

    def test_input_left_unchanged(self):
        x = np.random.default_rng(3).normal(0.0, 2.0, 1000)
        before = x.copy()
        levels = quantize_midrise(x, 0.25, 1.0)
        assert np.array_equal(x, before)
        assert not np.shares_memory(levels, x)


class TestUnpackSymbols:
    @pytest.mark.parametrize("w", range(1, 33))
    def test_against_int_slicing_oracle(self, w):
        # independent oracle: big-endian bit slicing through Python ints;
        # n covers one symbol, a group of 8 / gcd(w, 8) symbols and its
        # neighbours, and a long block; raw carries surplus trailing bytes
        rng = np.random.default_rng(w)
        period = 8 // math.gcd(w, 8)
        for n in sorted({1, period - 1, period, period + 1, 997}):
            raw = rng.bytes((n * w + 7) // 8 + 3)
            stream = int.from_bytes(raw, "big")
            total_bits = len(raw) * 8
            expected = [(stream >> (total_bits - (i + 1) * w)) & ((1 << w) - 1)
                        for i in range(n)]
            words = unpack_symbols(raw, n, w)
            assert words.dtype == np.int64
            assert words.tolist() == expected, n

    @pytest.mark.parametrize("w", range(1, 33))
    def test_exact_length_read_only_stream(self, w):
        # raw ends at the last symbol's byte, so a load that ran past it
        # would fail or read foreign memory; a read-only buffer is enough
        rng = np.random.default_rng(100 + w)
        period = 8 // math.gcd(w, 8)
        for n in sorted({1, 2, period - 1, period, period + 1, 2 * period + 1,
                         997}):
            raw = rng.bytes((n * w + 7) // 8)
            assert memoryview(raw).readonly
            stream = int.from_bytes(raw, "big")
            total_bits = len(raw) * 8
            expected = [(stream >> (total_bits - (i + 1) * w)) & ((1 << w) - 1)
                        for i in range(n)]
            assert unpack_symbols(raw, n, w).tolist() == expected, n

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_symbols(b"\x00", 3, 8)

    def test_peak_memory_near_output_size(self):
        n, w = 200_000, 20
        raw = np.random.default_rng(0).bytes(n * w // 8)
        tracemalloc.start()
        try:
            words = unpack_symbols(raw, n, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * words.nbytes, peak
