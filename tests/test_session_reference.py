"""The chunked session against a full-length reference built from the same
v2 streams: every array bit for bit, every statistic within 1e-12 of
``np.var``/``np.mean`` of those arrays, and the storage-attack report,
across jamming widths, cancellation depths, chunk boundaries and key
lengths that do not divide the chunk."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from jkelab import (AdcSpec, CancellationModel, KeyMaterial, SystemParams,
                    adc, eve_storage_attack, jamming, jamming_stream,
                    run_jke_session, true_jamming_stream)
from jkelab.session import (INSUFFICIENT_CANCELLATION, WARN_MARGIN_BITS,
                            default_jam_scale)

CHUNK = jamming.CHUNK_SYMBOLS

# --- reference: SP 800-185 framing from its definitions, bit-matrix
# unpacking, one full draw per noise and full-length temporaries


def left_encode(x):
    n = 1
    while x >= 256 ** n:
        n += 1
    return bytes([n]) + x.to_bytes(n, "big")


def encode_string(s):
    return left_encode(8 * len(s)) + s


def bytepad(x, w=136):
    z = left_encode(w) + x
    while len(z) % w:
        z += b"\0"
    return z


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


def reference_jamming(seed, w, n_symbols, jam_scale, chunk=CHUNK):
    prefix = (bytepad(encode_string(b"")
                      + encode_string(b"jkelab-jamming-v2" + bytes([w])))
              + encode_string(seed.bits))
    words = []
    for c, start in enumerate(range(0, n_symbols, chunk)):
        size = min(chunk, n_symbols - start)
        xof = hashlib.shake_256(prefix + left_encode(c))
        words.append(reference_unpack_symbols(xof.digest((size * w + 7) // 8),
                                              size, w))
    top = float(2 ** w - 1)
    return (2.0 * np.concatenate(words) - top) / top * jam_scale


def reference_snr(clean, observed):
    err_var = float(np.var(observed - clean))
    if err_var == 0.0:
        return math.inf
    return float(np.mean(clean ** 2)) / err_var


def reference_session(params, cancel, key, n_symbols, rng_seed, chunk=CHUNK):
    p = params.signal_power
    w = params.jamming_bits_per_symbol
    seed_child, bob_child, eve_child = np.random.SeedSequence(rng_seed).spawn(3)
    jamming_seed = KeyMaterial(np.random.default_rng(seed_child).bytes(32))
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
    jam = (reference_jamming(jamming_seed, w, n_symbols, jam_scale, chunk)
           if w > 0 else np.zeros(n_symbols))
    bob_noise = np.random.default_rng(bob_child).normal(
        0.0, math.sqrt(params.bob_noise_var), n_symbols)
    eve_noise = np.random.default_rng(eve_child).normal(
        0.0, math.sqrt(params.eve_noise_var), n_symbols)
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


def assert_close(new, ref, name):
    """The same type; an int or bool equal, a float within 1e-12."""
    assert type(new) is type(ref), name
    if isinstance(ref, float) and math.isfinite(ref):
        assert math.isclose(new, ref, rel_tol=1e-12, abs_tol=0.0), name
    else:
        assert new == ref, name


def assert_matches_reference(trace, arrays, stats, warnings):
    for name, expected in arrays.items():
        got = getattr(trace, name)
        assert got.tobytes() == expected.tobytes(), name
    assert trace.stats.keys() == stats.keys()
    for name, expected in stats.items():
        assert_close(trace.stats[name], expected, name)
    assert trace.warnings == warnings


def assert_attacks_match(trace, arrays):
    """The own stream's report, that of a separately built equal stream
    and that of a wrong-seed stream, against the reference."""
    w, n = trace.params.jamming_bits_per_symbol, len(trace)
    own = eve_storage_attack(trace, true_jamming_stream(trace))
    equal = jamming_stream(trace.jamming_seed, w, n, trace.jam_scale)
    assert eve_storage_attack(trace, equal) == own
    wrong = jamming_stream(trace.jamming_seed.with_flipped_bit(0), w, n,
                           trace.jam_scale)
    wrong_report = eve_storage_attack(trace, wrong)
    for stream, report in ((equal, own), (wrong, wrong_report)):
        expected = reference_attack(
            arrays, reference_jamming(stream.seed, w, n, trace.jam_scale))
        assert report.to_dict().keys() == expected.keys()
        for name, value in expected.items():
            assert_close(report.to_dict()[name], value, name)
    # A wrong seed only adds power.
    if n > 1:
        assert wrong_report.residual_var > own.residual_var
        assert wrong_report.post_attack_snr < own.post_attack_snr


# The name is the one this test has had since the session was made lean:
# the arrays are bit-identical, the statistics within 1e-12.
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
    assert_matches_reference(trace, arrays, stats, warnings)
    if w > 0:
        assert_attacks_match(trace, arrays)


# Key lengths of 192 and 1000 bits do not divide the chunk, so each chunk
# starts at a different key bit.
@pytest.mark.parametrize("key_bits", [192, 1000])
@pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_chunk_boundaries(n, key_bits):
    params = dataclasses.replace(POINT, jamming_bits_per_symbol=20)
    cancel = CancellationModel(60.0)
    key = KeyMaterial.random(key_bits, seed=n)
    arrays, stats, warnings = reference_session(params, cancel, key, n, 7)
    trace = run_jke_session(params, cancel, key, n, 7)
    assert_matches_reference(trace, arrays, stats, warnings)
    assert_attacks_match(trace, arrays)


# The chunk fixes the jamming's counter blocks and the merge order, but
# not the noise: chunked draws equal one full draw.
@pytest.mark.parametrize("chunk", [1000, 4096])
def test_noise_does_not_depend_on_the_chunk(monkeypatch, chunk):
    params = dataclasses.replace(POINT, jamming_bits_per_symbol=20)
    cancel = CancellationModel(60.0)
    n = 10_007
    default = run_jke_session(params, cancel, KEY, n, 3)
    monkeypatch.setattr(jamming, "CHUNK_SYMBOLS", chunk)
    trace = run_jke_session(params, cancel, KEY, n, 3)
    for name in ("bob_noise", "eve_noise"):
        assert getattr(trace, name).tobytes() == getattr(default, name).tobytes()
    arrays, stats, warnings = reference_session(params, cancel, KEY, n, 3,
                                                chunk)
    assert_matches_reference(trace, arrays, stats, warnings)
