import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from jkelab import (QuantizerConfig, bob_resolution, enob_from_jitter,
                    eve_resolution, quantize)
from jkelab.adc import eve_resolutions


def enob_oracle(bandwidth_hz: float, jitter_s: float) -> float:
    """Independent arbitrary-precision evaluation of the jitter-limited
    resolution formula."""
    with mp.workdps(50):
        val = -(20 * mp.log10(2 * mp.pi * mp.mpf(bandwidth_hz) * mp.mpf(jitter_s))
                + mp.mpf("1.76")) / mp.mpf("6.02")
        return float(val)


class TestEnob:
    # frozen from enob_oracle at 50 significant digits
    CASES = [
        (40e6, 5e-15, 19.311595136139215),
        (40e6, 50e-15, 15.989335999926591),
        (40e6, 500e-15, 12.667076863713966),
    ]

    @pytest.mark.parametrize("bw, jitter, expected", CASES)
    def test_frozen_values(self, bw, jitter, expected):
        assert enob_from_jitter(bw, jitter) == pytest.approx(expected, abs=1e-10)

    @given(st.floats(min_value=1e3, max_value=1e12),
           st.floats(min_value=1e-18, max_value=1e-9))
    def test_matches_oracle(self, bw, jitter):
        assert enob_from_jitter(bw, jitter) == pytest.approx(
            enob_oracle(bw, jitter), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=1e3, max_value=1e12),
           st.floats(min_value=1e-18, max_value=1e-9))
    def test_doubling_jitter_costs_one_bit(self, bw, jitter):
        # the 6.02 dB/bit structure forces exactly 20*log10(2)/6.02 per doubling
        drop = enob_from_jitter(bw, jitter) - enob_from_jitter(bw, 2 * jitter)
        assert abs(drop - 20 * math.log10(2) / 6.02) < 1e-9

    @given(st.floats(min_value=1e3, max_value=1e11),
           st.floats(min_value=1e-18, max_value=1e-10),
           st.floats(min_value=1.01, max_value=100.0))
    def test_strictly_decreasing_in_both_arguments(self, bw, jitter, factor):
        base = enob_from_jitter(bw, jitter)
        assert enob_from_jitter(bw * factor, jitter) < base
        assert enob_from_jitter(bw, jitter * factor) < base

    @pytest.mark.parametrize("bw, jitter", [(0.0, 1e-12), (-1.0, 1e-12),
                                            (40e6, 0.0), (40e6, -1e-15)])
    def test_nonpositive_inputs_rejected(self, bw, jitter):
        with pytest.raises(ValueError):
            enob_from_jitter(bw, jitter)

    # 2*pi*B*jitter underflows to 0 here, which has no logarithm.
    def test_underflowing_product_is_named(self):
        with pytest.raises(ValueError, match=r"^effective bits at bandwidth "
                           r"1e-10 Hz and aperture jitter 5e-324 s are out "
                           r"of range"):
            enob_from_jitter(1e-10, 5e-324)

    # 2*pi*B*jitter overflows to inf here, which would give -inf bits.
    @pytest.mark.parametrize("bw, jitter", [(40e6, 1e300), (1e308, 1.0)])
    def test_overflowing_product_is_named(self, bw, jitter):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"effective bits at bandwidth {bw!r} Hz and aperture jitter "
                f"{jitter!r} s are out of range: 2*pi*bandwidth*jitter is "
                "not a finite float") + "$"):
            enob_from_jitter(bw, jitter)


class TestResolutions:
    def test_zero_bits_spans_full_range(self):
        assert bob_resolution(1.0, 0.0, 2.5) == pytest.approx(5.0)

    def test_power_and_bits_tradeoff(self):
        # sqrt(P) doubles, 2^1 halves
        assert bob_resolution(4.0, 1.0, 2.5) == pytest.approx(5.0)

    def test_frozen_value(self):
        # independent arbitrary-precision evaluation of 5 / 2^12.67
        assert bob_resolution(1.0, 12.67, 2.5) == pytest.approx(
            7.67220077222796e-4, rel=1e-12)

    def test_eve_frozen_value(self):
        # 5 / 2^(19.31 - 14), same oracle
        assert eve_resolution(1.0, 19.31, 14, 2.5) == pytest.approx(
            0.126037774878457, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.1, max_value=30.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_no_jamming_collapses_to_bob(self, power, bits, l):
        assert eve_resolution(power, bits, 0, l) == bob_resolution(power, bits, l)

    def test_jamming_equal_to_bits_spans_full_range(self):
        assert eve_resolution(1.0, 14.0, 14, 2.5) == pytest.approx(5.0)

    def test_step_may_exceed_signal_range(self):
        # w > b_E: legal, coarser than the whole signal range
        assert eve_resolution(1.0, 10.0, 20, 2.5) == 5.0 * 2 ** 10


class TestQuantizerConfig:
    def test_for_signal(self):
        q = QuantizerConfig.for_signal(1.0, 12.0, 2.5)
        assert q.full_scale == 2.5
        assert q.step == pytest.approx(5.0 / 4096)

    def test_for_jammed_signal_widens_full_scale(self):
        q = QuantizerConfig.for_jammed_signal(1.0, 19.0, 14, 2.5)
        assert q.full_scale == 2.5 * 2 ** 14
        assert q.step == pytest.approx(2 * 2.5 * 2 ** 14 / 2 ** 19)

    def test_jammed_with_zero_bits_matches_plain(self):
        assert (QuantizerConfig.for_jammed_signal(1.0, 10.0, 0, 2.5)
                == QuantizerConfig.for_signal(1.0, 10.0, 2.5))

    def test_nonpositive_bits_give_a_two_level_quantizer(self):
        # 1 us of jitter at 40 MHz leaves -8.27 effective bits: the step
        # is the closed form, wider than the whole range, and every
        # sample lands on one of the two levels +-step/2.
        bits = enob_from_jitter(40e6, 1e-6)
        q = QuantizerConfig.for_signal(1.0, bits, 2.5)
        assert q.step == bob_resolution(1.0, bits, 2.5) > 2 * q.full_scale
        assert list(quantize([-9.0, -0.1, 0.0, 2.4], q)) == [
            -q.step / 2, -q.step / 2, q.step / 2, q.step / 2]


class TestQuantizerStepsAreTheClosedForms:
    """The simulator's quantizers use the analytic steps bit for bit, so a
    Monte-Carlo run and the secrecy bound see the same delta_b and delta_e.
    An independent 2*full_scale/2^bits rounds differently at about one
    point in eight of this grid."""

    # 300 log-spaced jitters from 1e-16 to 5e-10 s at three bandwidths,
    # kept where the ENOB is positive, times w = 0..32: 28,380 points.
    BANDWIDTHS = (1e6, 40e6, 2e9)
    JITTERS = [1e-16 * (5e-10 / 1e-16) ** (i / 299) for i in range(300)]

    def test_steps_equal_closed_forms_on_grid(self):
        points = mismatched = 0
        for bandwidth in self.BANDWIDTHS:
            for jitter in self.JITTERS:
                bits = enob_from_jitter(bandwidth, jitter)
                if not bits > 0:
                    continue
                if (QuantizerConfig.for_signal(1.0, bits, 2.5).step
                        != bob_resolution(1.0, bits, 2.5)):
                    mismatched += 1
                for w in range(33):
                    points += 1
                    if (QuantizerConfig.for_jammed_signal(1.0, bits, w, 2.5).step
                            != eve_resolution(1.0, bits, w, 2.5)):
                        mismatched += 1
        assert points == 28_380
        assert mismatched == 0

    def test_example_point(self):
        # B = 40 MHz, jitter 5.166166493326784e-11 s, w = 14: an independent
        # 2*full_scale/2^bits gives 1302.0239291026726 here
        bits = enob_from_jitter(40e6, 5.166166493326784e-11)
        step = QuantizerConfig.for_jammed_signal(1.0, bits, 14, 2.5).step
        assert step == eve_resolution(1.0, bits, 14, 2.5) == 1302.0239291026717


class TestQuantize:
    Q = QuantizerConfig.for_signal(1.0, 4.0, 2.5)  # step 0.3125, 16 levels

    def test_reconstruction_levels_are_fixed_points(self):
        levels = (np.arange(-8, 8) + 0.5) * self.Q.step
        assert np.array_equal(quantize(levels, self.Q), levels)

    def test_clipping_to_outermost_level(self):
        top = 7.5 * self.Q.step
        out = quantize([2 * self.Q.full_scale, 1e9, -2 * self.Q.full_scale], self.Q)
        assert out[0] == top and out[1] == top and out[2] == -top

    def test_empty_input_gives_empty_output(self):
        assert quantize([], self.Q).shape == (0,)

    @given(st.lists(st.floats(min_value=-2.5, max_value=2.5), min_size=1,
                    max_size=50),
           st.floats(min_value=0.5, max_value=20.0))
    def test_in_range_error_bounded_by_half_step(self, xs, bits):
        q = QuantizerConfig.for_signal(1.0, bits, 2.5)
        err = np.abs(quantize(xs, q) - np.asarray(xs))
        assert np.all(err <= q.step / 2 * (1 + 1e-9))

    def test_midstep_noise_variance(self):
        # Monte-Carlo oracle for the step^2/12 noise power that the
        # analytical bound relies on
        rng = np.random.default_rng(99)
        q = QuantizerConfig.for_signal(1.0, 5.0, 2.5)
        samples = rng.uniform(3 * q.step, 4 * q.step, 10 ** 6)
        err = quantize(samples, q) - samples
        assert err.var() == pytest.approx(q.step ** 2 / 12, rel=0.02)

    def test_fractional_bits_keep_error_bound(self):
        q = QuantizerConfig.for_signal(1.0, 12.667076863713966, 2.5)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-q.full_scale, q.full_scale, 10000)
        err = np.abs(quantize(xs, q) - xs)
        assert np.all(err <= q.step / 2 * (1 + 1e-9))


def per_cell_steps(power, bits, words, l):
    return [[eve_resolution(power, b, w, l) for b in bits] for w in words]


class TestEveResolutionsGrid:
    """``eve_resolutions`` checks a whole grid at once; every step and every
    error must be what the per-cell ``eve_resolution`` gives."""

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1,
                    max_size=6),
           st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=4),
           st.floats(min_value=0.1, max_value=10.0))
    def test_steps_equal_per_cell_steps(self, power, bits, words, l):
        assert repr(eve_resolutions(power, bits, words, l)) == repr(
            per_cell_steps(power, bits, words, l))

    @pytest.mark.parametrize("power, bits, words, l", [
        (1.0, [10.0, 1100.0, 1200.0], [0, 1], 2.5),  # 2^bits overflows
        (1.0, [10.0, -500.0], [0, 20, 30], 2.5),  # rows 1 and 2 only
        (1.0, [-500.0, -510.0], [0, 15], 2.5),  # row 0 before column 0
        (1.0, [10.0, -600.0], [0], 2.5),  # the square overflows
        (1.0, [10.0, -1100.0], [0], 2.5),  # 2^bits underflows to 0
        (1.0, [10.0, 600.0], [3], 2.5),  # the square underflows
        (1.0, [10.0, math.inf], [0], 2.5),  # a zero step
        (1.0, [10.0, math.nan, 20.0], [0], 2.5),  # a NaN step
        (1.0, [10.0, 20.0], [0], 1e308),  # the dynamic range is inf
        (1.0, [math.inf], [0], 1e308),  # inf / inf
    ], ids=["pow-overflow", "second-row", "row-major", "square-overflow",
            "pow-underflow", "square-underflow", "zero-step", "nan-step",
            "inf-range", "inf-over-inf"])
    def test_a_failing_grid_names_its_first_failing_step(self, power, bits,
                                                         words, l):
        with pytest.raises(ValueError) as per_cell:
            per_cell_steps(power, bits, words, l)
        assert str(per_cell.value).startswith("quantizer step at ")
        with pytest.raises(ValueError) as grid:
            eve_resolutions(power, bits, words, l)
        assert str(grid.value) == str(per_cell.value)

    def test_empty_axes_give_empty_rows(self):
        assert eve_resolutions(1.0, [], [0, 3], 2.5) == [[], []]
        assert eve_resolutions(1.0, [10.0], [], 2.5) == []

    @pytest.mark.parametrize("power, words, l, message", [
        (1.0, [0, -1], 2.5, "jamming bits per symbol must be non-negative"),
        (0.0, [0], 2.5, "signal power must be positive"),
        (1.0, [0], -1.0, "dynamic range factor must be positive"),
    ])
    def test_bad_inputs_rejected_as_per_cell(self, power, words, l, message):
        with pytest.raises(ValueError, match=message):
            eve_resolutions(power, [10.0], words, l)
