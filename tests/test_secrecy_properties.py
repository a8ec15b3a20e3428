"""The secrecy bound and its threshold against a 200-bit mpmath oracle, and
invariants of the closed forms, each on the domain where it holds.

The oracle evaluates the same float inputs (signal power, noise variances
and quantizer steps) at 200 bits, so it measures the rounding of the
float formulas, not of their inputs.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from jkelab import SystemParams, config as cfg
from jkelab.params import SnrPoint, snr_to_noise_var
from jkelab.secrecy import (ThresholdKind, _resolutions, _threshold,
                            min_bob_snr_for_positive_rs, secrecy_rate)

from conftest import HEADLINE_POINT

# Measured: 5.0e-15 dB on the shipped fig3a columns, 6.3 ULP at the paper
# point.
THRESHOLD_TOLERANCE_DB = 1e-13
RATE_TOLERANCE_ULP = 16

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
    template, eve_axis = shipped_fig3a()
    p = template.signal_power
    delta_b, delta_e = _resolutions(template)
    for se in eve_axis:
        noise = snr_to_noise_var(SnrPoint(se), p)
        threshold = _threshold(p, delta_b, delta_e, noise)
        assert threshold.kind == ThresholdKind.THRESHOLD
        exact = mp_threshold_db(p, delta_b, delta_e, noise)
        assert abs(threshold.snr_db - exact) < THRESHOLD_TOLERANCE_DB, se


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
