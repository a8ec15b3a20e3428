"""The lean session against the straightforward arithmetic it replaced:
the same arrays, statistics, warnings and storage-attack report, bit for
bit, across jamming widths, cancellation depths and block lengths."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from jkelab import (AdcSpec, CancellationModel, KeyMaterial, SystemParams,
                    adc, eve_storage_attack, jamming_stream, run_jke_session,
                    true_jamming_stream)
from jkelab.jamming import _DOMAIN
from jkelab.session import (INSUFFICIENT_CANCELLATION, WARN_MARGIN_BITS,
                            default_jam_scale)

# --- reference: bit-matrix unpacking and full-length temporaries


def reference_unpack_symbols(raw, n_symbols, bits_per_symbol):
    total = n_symbols * bits_per_symbol
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=total)
    weights = (1 << np.arange(bits_per_symbol - 1, -1, -1)).astype(np.int64)
    return bits.reshape(n_symbols, bits_per_symbol).astype(np.int64) @ weights


def reference_quantize(samples, config):
    x = np.ascontiguousarray(samples, dtype=np.float64)
    k = np.floor(x / config.step)
    k_top = float(math.ceil(config.full_scale / config.step)) - 1.0
    np.clip(k, -(k_top + 1.0), k_top, out=k)
    return (k + 0.5) * config.step


def reference_jamming(seed, w, n_symbols, jam_scale):
    xof = hashlib.shake_256(_DOMAIN + bytes([w]) + seed.bits)
    words = reference_unpack_symbols(xof.digest((n_symbols * w + 7) // 8),
                                     n_symbols, w)
    top = float(2 ** w - 1)
    return (2.0 * words - top) / top * jam_scale


def reference_snr(clean, observed):
    err_var = float(np.var(observed - clean))
    if err_var == 0.0:
        return math.inf
    return float(np.mean(clean ** 2)) / err_var


def reference_session(params, cancel, key, n_symbols, rng_seed):
    p = params.signal_power
    w = params.jamming_bits_per_symbol
    rng = np.random.default_rng(rng_seed)
    jamming_seed = KeyMaterial(rng.bytes(32))
    jam_scale = default_jam_scale(params)
    warnings = []
    if w > 0 and cancel.residual_bits < w + WARN_MARGIN_BITS:
        warnings.append(
            f"{INSUFFICIENT_CANCELLATION}: Bob cannot cancel a {w}-bit jammer "
            f"with {cancel.depth_db:g} dB depth "
            f"({cancel.residual_bits:.2f} bits < w + {WARN_MARGIN_BITS:g})")

    bits = key.bit_array()
    idx = np.arange(n_symbols) % key.n_bits
    clean = (2.0 * bits[idx] - 1.0) * math.sqrt(p)
    jam = (reference_jamming(jamming_seed, w, n_symbols, jam_scale) if w > 0
           else np.zeros(n_symbols))
    bob_noise = rng.normal(0.0, math.sqrt(params.bob_noise_var), n_symbols)
    eve_noise = rng.normal(0.0, math.sqrt(params.eve_noise_var), n_symbols)
    bob_rx = clean + jam + bob_noise
    eve_rx = clean + jam + eve_noise
    bob_pre = bob_rx - (1.0 - cancel.residual_amplitude_factor) * jam
    bob_q = adc.QuantizerConfig.for_signal(p, params.bob_bits(),
                                           params.dynamic_range_factor)
    bob_post = reference_quantize(bob_pre, bob_q)
    eve_q = adc.QuantizerConfig.for_jammed_signal(
        p, params.eve_bits(), w, params.dynamic_range_factor)
    eve_stored = reference_quantize(eve_rx, eve_q)
    eve_post = eve_stored - jam

    votes = np.bincount(idx, weights=np.sign(bob_post), minlength=key.n_bits)
    covered = min(n_symbols, key.n_bits)
    bit_errors = int(np.sum((votes[:covered] > 0) != (bits[:covered] == 1)))
    symbol_errors = int(np.sum(np.sign(bob_post) != np.sign(clean)))
    stats = {
        "n_symbols": n_symbols,
        "signal_power_emp": float(np.mean(clean ** 2)),
        "jamming_power_emp": float(np.var(jam)),
        "residual_jamming_power": float(
            np.var(cancel.residual_amplitude_factor * jam)),
        "bob_noise_var_emp": float(np.var(bob_noise)),
        "eve_noise_var_emp": float(np.var(eve_noise)),
        "delta_b": bob_q.step,
        "delta_e": eve_q.step,
        "bob_symbol_errors": symbol_errors,
        "bob_symbol_error_rate": symbol_errors / n_symbols,
        "bob_key_bit_errors": bit_errors,
        "bob_key_bits_covered": covered,
        "bob_effective_snr": reference_snr(clean, bob_post),
        "eve_pre_attack_snr": reference_snr(clean, eve_rx),
        "eve_post_attack_snr": reference_snr(clean, eve_post),
        "eve_residual_var": float(np.var(eve_post - clean - eve_noise)),
        "insufficient_cancellation": bool(warnings),
    }
    arrays = {"clean_signal": clean, "jamming": jam, "bob_noise": bob_noise,
              "eve_noise": eve_noise, "bob_rx": bob_rx, "eve_rx": eve_rx,
              "bob_post": bob_post, "eve_stored": eve_stored,
              "eve_post": eve_post}
    return arrays, stats, tuple(warnings)


def reference_attack(arrays, jamming_symbols):
    z_prime = arrays["eve_stored"] - jamming_symbols
    residual = z_prime - arrays["clean_signal"] - arrays["eve_noise"]
    return {"n_symbols": len(z_prime),
            "residual_var": float(np.var(residual)),
            "pre_attack_snr": reference_snr(arrays["clean_signal"],
                                            arrays["eve_rx"]),
            "post_attack_snr": reference_snr(arrays["clean_signal"], z_prime)}


# --- the comparison

POINT = SystemParams(
    bandwidth_hz=40e6, jamming_bits_per_symbol=14,
    bob_adc=AdcSpec(500e-15), eve_adc=AdcSpec(5e-15),
    bob_noise_var=10 ** -3.2, eve_noise_var=10 ** -8.0)
KEY = KeyMaterial.random(seed=21)


def assert_same_float(new, ref):
    # == alone would let NaN differ and pass 0.0 for -0.0
    assert math.copysign(1.0, new) == math.copysign(1.0, ref)
    assert new == ref or (math.isnan(new) and math.isnan(ref))


@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 10_007])
@pytest.mark.parametrize("depth", [math.inf, 150.0, 60.0])
@pytest.mark.parametrize("w", [0, 1, 7, 8, 13, 14, 20, 31, 32])
def test_session_and_attack_bit_identical(w, depth, n):
    params = dataclasses.replace(POINT, jamming_bits_per_symbol=w)
    cancel = CancellationModel(depth)
    rng_seed = 1000 * w + n
    arrays, stats, warnings = reference_session(params, cancel, KEY, n,
                                                rng_seed)
    trace = run_jke_session(params, cancel, KEY, n, rng_seed)

    for name, expected in arrays.items():
        assert np.array_equal(getattr(trace, name), expected,
                              equal_nan=True), name
        assert np.array_equal(np.signbit(getattr(trace, name)),
                              np.signbit(expected)), name
    assert trace.stats.keys() == stats.keys()
    for name, expected in stats.items():
        assert type(trace.stats[name]) is type(expected), name
        if isinstance(expected, float):
            assert_same_float(trace.stats[name], expected)
        else:
            assert trace.stats[name] == expected, name
    assert trace.warnings == warnings

    if w == 0:
        return
    streams = [true_jamming_stream(trace),
               jamming_stream(trace.jamming_seed.with_flipped_bit(0), w, n,
                              trace.jam_scale)]
    for stream in streams:
        report = eve_storage_attack(trace, stream).to_dict()
        expected = reference_attack(
            arrays, reference_jamming(stream.seed, w, n, trace.jam_scale))
        assert report.keys() == expected.keys()
        for name, value in expected.items():
            if isinstance(value, float):
                assert_same_float(report[name], value)
            else:
                assert report[name] == value, name
