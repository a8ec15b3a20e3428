"""The secrecy bound and its threshold against a 200-bit mpmath oracle, and
invariants of the closed forms, each on the domain where it holds.

The oracle evaluates the same float inputs (signal power, noise variances
and quantizer steps) at 200 bits, so it measures the rounding of the
float formulas, not of their inputs.
"""

import dataclasses
import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from jkelab import SystemParams, config as cfg
from jkelab.params import SnrPoint, ValidationError, snr_to_noise_var
from jkelab.secrecy import (ThresholdKind, _resolutions, _threshold,
                            min_bob_snr_for_positive_rs, secrecy_rate,
                            sweep_rate_vs_snr)

from conftest import HEADLINE_POINT

# Measured: 3.6e-15 dB on the shipped fig3a columns, 2.8e-14 dB from an
# Eve SNR of -200 to 120 dB, 6.3 ULP at the paper point, and 8.4e-16 of
# B * max(|bob term|, |eve term|) over a random sample of 4,000 points.
THRESHOLD_TOLERANCE_DB = 1e-13
RATE_TOLERANCE_ULP = 16
RATE_TOLERANCE = 4e-15

# Jamming widens Eve's step; her term then rises when her SNR is below
# this and falls above it, and tends to log2(2*pi*e/12) = log2(pi*e/6).
JAMMING_BOUNDARY_DB = 10.0 * math.log10(2.0 * math.pi * math.e / 12.0 - 1.0)
EVE_TERM_FLOOR_BITS = math.log2(math.pi * math.e / 6.0)


@pytest.fixture(autouse=True)
def mp_precision():
    with mpmath.workprec(200):
        yield


def mp_eve_ratio(p, eve_noise_var, delta_e):
    p, n, d = map(mpmath.mpf, (p, eve_noise_var, delta_e))
    two_pi_e = 2 * mpmath.pi * mpmath.e
    return (p + n + d ** 2 / 12) / (n + d ** 2 / two_pi_e)


def mp_threshold_db(p, delta_b, delta_e, eve_noise_var):
    budget = mpmath.mpf(p) / (mp_eve_ratio(p, eve_noise_var, delta_e) - 1)
    return 10 * mpmath.log10(p / (budget - mpmath.mpf(delta_b) ** 2 / 12))


def mp_rate(params: SystemParams, delta_b, delta_e):
    p = mpmath.mpf(params.signal_power)
    bob_floor = mpmath.mpf(params.bob_noise_var) + mpmath.mpf(delta_b) ** 2 / 12
    bob_term = mpmath.log((p + bob_floor) / bob_floor, 2)
    eve_term = mpmath.log(mp_eve_ratio(p, params.eve_noise_var, delta_e), 2)
    return mpmath.mpf(params.bandwidth_hz) * (bob_term - eve_term)


def shipped_fig3a():
    config = cfg.load_config("fig3a")
    return (cfg.parse_system(config),
            cfg.parse_axis(config["sweep"]["eve_snr_db"], "eve_snr_db"))


def test_threshold_matches_mpmath_on_every_shipped_fig3a_column():
    # And at every 0.5 dB step of Eve's SNR from -200 to 120 dB: K - 1 is
    # formed directly, so no Eve SNR rounds it to 0.
    template, eve_axis = shipped_fig3a()
    p = template.signal_power
    delta_b, delta_e = _resolutions(template)
    for se in sorted({*eve_axis, *(k / 2 for k in range(-400, 241))}):
        noise = snr_to_noise_var(SnrPoint(se), p)
        threshold = _threshold(p, delta_b, delta_e, noise)
        assert threshold.kind == ThresholdKind.THRESHOLD
        exact = mp_threshold_db(p, delta_b, delta_e, noise)
        assert abs(threshold.snr_db - exact) < THRESHOLD_TOLERANCE_DB, se


def test_fig3a_column_at_eve_minus_200_db_agrees_with_its_crossing():
    template, _ = shipped_fig3a()
    grid = sweep_rate_vs_snr(template, [-250.0, -210.0, -200.0, -199.0],
                             [-200.0])
    (crossing,) = grid.zero_crossing_bob_snr_db
    assert crossing.kind == ThresholdKind.THRESHOLD
    assert crossing.snr_db == pytest.approx(-199.998, abs=1e-3)
    assert [row[0].positive for row in grid.cells] == [False, False, False,
                                                       True]


def test_threshold_at_a_tiny_signal_power_matches_mpmath():
    params = dataclasses.replace(SystemParams(**HEADLINE_POINT),
                                 signal_power=1e-300, eve_noise_var=1.0)
    threshold = min_bob_snr_for_positive_rs(params)
    with mpmath.workprec(1200):  # K - 1 is about 1e-300
        exact = mp_threshold_db(1e-300, *_resolutions(params), 1.0)
    assert threshold.snr_db == pytest.approx(-3000.0, abs=0.01)
    assert abs(threshold.snr_db - exact) <= 2 * math.ulp(threshold.snr_db)


@pytest.mark.parametrize("eve_noise_var", [1e10, 1e30])
def test_threshold_beyond_the_float_range_is_named(eve_noise_var):
    # The linear threshold P / (channel noise) is subnormal (1e-310) or
    # underflows to 0 (1e-330).
    params = dataclasses.replace(SystemParams(**HEADLINE_POINT),
                                 signal_power=1e-300,
                                 eve_noise_var=eve_noise_var)
    with pytest.raises(ValidationError, match="minimum bob SNR .* out of range"):
        min_bob_snr_for_positive_rs(params)


def random_points(rng: random.Random, n: int = 4000):
    """``n`` headline points with w in 0..32 and both SNRs in -60..120 dB."""
    for _ in range(n):
        yield dataclasses.replace(
            SystemParams(**HEADLINE_POINT),
            jamming_bits_per_symbol=rng.randint(0, 32),
            bob_noise_var=snr_to_noise_var(SnrPoint(rng.uniform(-60, 120)), 1.0),
            eve_noise_var=snr_to_noise_var(SnrPoint(rng.uniform(-60, 120)), 1.0))


def rate_scale(report) -> float:
    """B * max(|bob term|, |eve term|), the scale of the rate's rounding."""
    return report.bandwidth_hz * max(abs(report.bob_term_bits),
                                     abs(report.eve_term_bits))


def test_rate_matches_mpmath_over_a_random_sample():
    for params in random_points(random.Random(2022)):
        report = secrecy_rate(params)
        exact = mp_rate(params, report.delta_b, report.delta_e)
        assert (abs(report.rate_bits_per_s - exact)
                <= RATE_TOLERANCE * rate_scale(report)), params


def test_rate_matches_mpmath_at_the_paper_point():
    params = cfg.parse_system(cfg.load_config("paper-operating-point"))
    report = secrecy_rate(params)
    exact = mp_rate(params, report.delta_b, report.delta_e)
    ulps = abs(report.rate_bits_per_s - exact) / math.ulp(report.rate_bits_per_s)
    assert ulps <= RATE_TOLERANCE_ULP


def _scaled(params: SystemParams, k: int) -> SystemParams:
    """``params`` with P and both noise variances times 4^k, exactly: each
    quantizer step then scales by 2^k, and every ratio is unchanged."""
    return dataclasses.replace(
        params, signal_power=math.ldexp(params.signal_power, 2 * k),
        bob_noise_var=math.ldexp(params.bob_noise_var, 2 * k),
        eve_noise_var=math.ldexp(params.eve_noise_var, 2 * k))


@settings(max_examples=200, deadline=None)
@given(bob_snr_db=st.floats(-60.0, 120.0), eve_snr_db=st.floats(-60.0, 120.0),
       w=st.integers(0, 32), k=st.integers(-40, 40))
def test_rate_and_threshold_are_scale_invariant(bob_snr_db, eve_snr_db, w, k):
    params = dataclasses.replace(
        SystemParams(**HEADLINE_POINT), jamming_bits_per_symbol=w,
        bob_noise_var=snr_to_noise_var(SnrPoint(bob_snr_db), 1.0),
        eve_noise_var=snr_to_noise_var(SnrPoint(eve_snr_db), 1.0))
    scaled = _scaled(params, k)
    assert (repr(secrecy_rate(scaled).rate_bits_per_s)
            == repr(secrecy_rate(params).rate_bits_per_s))
    assert (repr(min_bob_snr_for_positive_rs(scaled))
            == repr(min_bob_snr_for_positive_rs(params)))


def test_rate_and_threshold_are_scale_invariant_under_any_factor():
    rng = random.Random(4)
    for params in random_points(rng):
        factor = 10.0 ** rng.uniform(-30.0, 30.0)
        scaled = dataclasses.replace(
            params, signal_power=params.signal_power * factor,
            bob_noise_var=params.bob_noise_var * factor,
            eve_noise_var=params.eve_noise_var * factor)
        report = secrecy_rate(params)
        assert (abs(secrecy_rate(scaled).rate_bits_per_s
                    - report.rate_bits_per_s)
                <= RATE_TOLERANCE * rate_scale(report)), (params, factor)
        threshold = min_bob_snr_for_positive_rs(params)
        scaled_threshold = min_bob_snr_for_positive_rs(scaled)
        assert scaled_threshold.kind == threshold.kind
        if threshold.kind == ThresholdKind.THRESHOLD:
            assert (abs(scaled_threshold.snr_db - threshold.snr_db)
                    <= THRESHOLD_TOLERANCE_DB), (params, factor)


def test_rate_is_monotone_in_each_snr():
    # Steps of 0.1 dB from -60 to 120 dB: the rate never rises with Eve's
    # SNR and never falls with Bob's, exactly, as each term's ratio is
    # formed with one noise variance only.
    axis = [snr_to_noise_var(SnrPoint(k / 10), 1.0) for k in range(-600, 1201)]
    for w in range(0, 33, 2):
        params = dataclasses.replace(SystemParams(**HEADLINE_POINT),
                                     jamming_bits_per_symbol=w)
        over_eve = [secrecy_rate(params.with_eve_noise_var(n)).rate_bits_per_s
                    for n in axis]
        assert all(b <= a for a, b in zip(over_eve, over_eve[1:])), w
        over_bob = [secrecy_rate(params.with_bob_noise_var(n)).rate_bits_per_s
                    for n in axis]
        assert all(b >= a for a, b in zip(over_bob, over_bob[1:])), w


@pytest.mark.parametrize("offset", [1e-3, 1e-6, 1e-9, 1e-11])
def test_positive_agrees_with_the_side_of_the_threshold(offset):
    # Random fig3a columns; a Bob SNR a relative ``offset`` above a
    # column's threshold is positive, and one below it is not.
    template, _ = shipped_fig3a()
    p = template.signal_power
    rng = random.Random(7)
    checked = 0
    for _ in range(2000):
        column = dataclasses.replace(
            template, jamming_bits_per_symbol=rng.randint(0, 32),
            eve_noise_var=snr_to_noise_var(SnrPoint(rng.uniform(-200, 120)), p))
        threshold = min_bob_snr_for_positive_rs(column)
        if threshold.kind == ThresholdKind.INFEASIBLE:
            continue
        for side in (1.0, -1.0):
            snr_db = threshold.snr_db + 10.0 * math.log10(1.0 + side * offset)
            cell = secrecy_rate(column.with_bob_noise_var(
                snr_to_noise_var(SnrPoint(snr_db), p)))
            assert cell.positive == (side > 0), (column, snr_db)
        checked += 1
    assert checked >= 1500


def rates_over_jamming_bits(eve_snr_db):
    params = SystemParams(**HEADLINE_POINT).with_eve_noise_var(
        snr_to_noise_var(SnrPoint(eve_snr_db), 1.0))
    return [secrecy_rate(dataclasses.replace(
        params, jamming_bits_per_symbol=w)).rate_bits_per_s
        for w in range(33)]


def test_jamming_boundary_value():
    assert JAMMING_BOUNDARY_DB == pytest.approx(-3.7336, abs=1e-4)
    assert EVE_TERM_FLOOR_BITS == pytest.approx(0.50923, abs=1e-5)


def test_jamming_lowers_the_rate_below_the_boundary():
    rates = rates_over_jamming_bits(-3.8)
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < rates[0]
    # At -10 dB: 4.197e8 bit/s without jamming, 4.049e8 at w = 32.
    rates = rates_over_jamming_bits(-10.0)
    assert rates[0] == pytest.approx(4.197e8, rel=1e-3)
    assert rates[-1] == pytest.approx(4.049e8, rel=1e-3)


def test_jamming_raises_the_rate_above_the_boundary():
    rates = rates_over_jamming_bits(-3.7)
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]


@pytest.mark.parametrize("eve_snr_db", [-10.0, -3.8, -3.7, 0.0, 80.0])
def test_eve_term_tends_to_its_floor(eve_snr_db):
    # Eve's ADC at 2 bits, so w = 32 leaves her 30 bits short.
    params = dataclasses.replace(
        SystemParams(**HEADLINE_POINT), jamming_bits_per_symbol=32,
        eve_adc=dataclasses.replace(HEADLINE_POINT["eve_adc"], explicit_bits=2.0),
        eve_noise_var=snr_to_noise_var(SnrPoint(eve_snr_db), 1.0))
    assert secrecy_rate(params).eve_term_bits == pytest.approx(
        EVE_TERM_FLOOR_BITS, abs=1e-12)
