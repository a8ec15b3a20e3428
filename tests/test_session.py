import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from jkelab import (AdcSpec, CancellationModel, KeyMaterial, SystemParams,
                    ValidationError, adc, cancellation_bits,
                    eve_storage_attack, jamming, jamming_stream, kernels,
                    run_jke_session, session, true_jamming_stream)
from jkelab.session import (WARN_MARGIN_BITS, _Moments, _moments,
                            default_jam_scale)
from jkelab.trace_rows import COLUMNS

# The bytes of one chunk-sized float64 buffer.
CHUNK_BUFFER = 8 * jamming.CHUNK_SYMBOLS

IDEAL = CancellationModel(math.inf)


def ideal_channel_point() -> SystemParams:
    # no channel noise, fine explicit quantizers on both sides
    return SystemParams(
        bandwidth_hz=40e6, jamming_bits_per_symbol=14,
        bob_adc=AdcSpec(500e-15, explicit_bits=24.0),
        eve_adc=AdcSpec(5e-15, explicit_bits=40.0),
        bob_noise_var=0.0, eve_noise_var=0.0)


class TestCancellation:
    def test_six_db_per_bit(self):
        assert cancellation_bits(93.0) == pytest.approx(15.5)
        assert cancellation_bits(84.0) == pytest.approx(14.0)
        assert cancellation_bits(0.0) == 0.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            cancellation_bits(-1.0)
        with pytest.raises(ValueError):
            CancellationModel(-3.0)

    def test_residual_power_model(self):
        model = CancellationModel(84.0)
        assert model.residual_amplitude_factor ** 2 == pytest.approx(10 ** -8.4)
        assert model.residual_bits == pytest.approx(14.0)
        assert IDEAL.residual_amplitude_factor == 0.0


@pytest.fixture
def helper(monkeypatch):
    """A session's helper thread, even where the process may run on one
    CPU only (there the two threads take turns)."""
    monkeypatch.setattr(session, "_overlaps", lambda: True)


class TestSession:
    def test_reproducible_bit_for_bit(self, headline_params):
        key = KeyMaterial.random(seed=8)
        a = run_jke_session(headline_params, IDEAL, key, 4000, rng_seed=3)
        b = run_jke_session(headline_params, IDEAL, key, 4000, rng_seed=3)
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.stats == b.stats

    def test_received_signals_are_exact_sums(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=8), 4000, rng_seed=3)
        assert np.array_equal(trace.bob_rx,
                              trace.clean_signal + trace.jamming + trace.bob_noise)
        assert np.array_equal(trace.eve_rx,
                              trace.clean_signal + trace.jamming + trace.eve_noise)

    def test_ideal_channel_recovers_signal(self):
        point = ideal_channel_point()
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                8192, rng_seed=0)
        assert trace.stats["bob_symbol_errors"] == 0
        assert trace.stats["bob_key_bit_errors"] == 0
        # recovery is exact up to the (fine) quantizer step
        assert np.max(np.abs(trace.bob_post - trace.clean_signal)) <= \
            trace.stats["delta_b"] / 2 * (1 + 1e-9)

    def test_headline_point_decodes_cleanly(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=2), 10 ** 5, rng_seed=5)
        assert trace.stats["bob_symbol_errors"] == 0
        assert trace.stats["bob_key_bit_errors"] == 0

    def test_jamming_power_dwarfs_signal(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=2), 20000, rng_seed=5)
        assert trace.stats["jamming_power_emp"] > 1e7
        assert trace.stats["eve_pre_attack_snr"] < 1e-6

    def test_insufficient_cancellation_warns(self, headline_params):
        # 84 dB of depth against a 14-bit jammer: residual near signal level
        trace = run_jke_session(headline_params, CancellationModel(84.0),
                                KeyMaterial.random(seed=2), 20000, rng_seed=5)
        assert trace.stats["insufficient_cancellation"]
        assert any("cannot cancel a 14-bit jammer" in w for w in trace.warnings)
        expected_residual = trace.stats["jamming_power_emp"] * 10 ** -8.4
        assert trace.stats["residual_jamming_power"] == pytest.approx(
            expected_residual, rel=1e-9)
        # near signal level indeed
        assert 0.5 < trace.stats["residual_jamming_power"] < 5.0

    def test_ample_cancellation_does_not_warn(self, headline_params):
        depth = 6.0 * (14 + WARN_MARGIN_BITS)
        trace = run_jke_session(headline_params, CancellationModel(depth),
                                KeyMaterial.random(seed=2), 1000, rng_seed=5)
        assert not trace.stats["insufficient_cancellation"]
        assert trace.warnings == ()

    @pytest.mark.parametrize("w", [0, 14])
    def test_sequences_are_read_only(self, headline_params, w):
        point = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                300, rng_seed=3)
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 1.0

    def test_explicit_jamming_seed_controls_stream(self, headline_params):
        key = KeyMaterial.random(seed=1)
        seed = KeyMaterial.random(seed=99)
        trace = run_jke_session(headline_params, IDEAL, key, 2000, rng_seed=3,
                                jamming_seed=seed)
        expected = jamming_stream(seed, 14, 2000, default_jam_scale(headline_params))
        assert np.array_equal(trace.jamming, expected.symbols)

    def test_zero_jamming_bits_runs_without_stream(self, headline_params):
        point = dataclasses.replace(headline_params, jamming_bits_per_symbol=0)
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                1000, rng_seed=3)
        assert np.all(trace.jamming == 0.0)

    def test_eve_never_clips_at_default_scale(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=2), 50000, rng_seed=5)
        full_scale = 2.5 * 2 ** 14
        assert np.max(np.abs(trace.eve_rx)) < full_scale
        # stored record stays within the outermost levels
        assert np.max(np.abs(trace.eve_stored)) < full_scale

    def test_invalid_inputs_rejected(self, headline_params):
        key = KeyMaterial.random(seed=1)
        with pytest.raises(ValueError):
            run_jke_session(headline_params, IDEAL, key, 0, rng_seed=1)
        bad = dataclasses.replace(headline_params, bandwidth_hz=-1.0)
        with pytest.raises(ValueError):
            run_jke_session(bad, IDEAL, key, 100, rng_seed=1)

    # Each of these once failed deep inside NumPy or hashlib, with an
    # unnamed TypeError (True ran a one-symbol session).
    @pytest.mark.parametrize("n_symbols", [2.5, 3.0, True, "7", None, -1],
                             ids=repr)
    def test_symbol_count_must_be_an_integer(self, headline_params,
                                             n_symbols):
        with pytest.raises(ValidationError, match="symbol count must be an "
                                                  "integer of at least 1"):
            run_jke_session(headline_params, IDEAL, KeyMaterial.random(seed=1),
                            n_symbols, rng_seed=1)

    # Each noise is one Generator.normal draw of its own child of the seed,
    # byte for byte, across three chunks; with zero variance that is +0.0,
    # never -0.0 (whose repr would change trace.csv).
    @pytest.mark.parametrize("noise_var", [0.0, 1e-3])
    def test_noise_is_the_generators_normal_draw(self, headline_params,
                                                noise_var):
        point = headline_params.with_bob_noise_var(
            noise_var).with_eve_noise_var(noise_var)
        n = 2 * jamming.CHUNK_SYMBOLS + 5
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                n, rng_seed=3)
        _, bob, eve = np.random.SeedSequence(3).spawn(3)
        for noise, child in ((trace.bob_noise, bob), (trace.eve_noise, eve)):
            want = np.random.default_rng(child).normal(
                0.0, math.sqrt(noise_var), n)
            assert noise.tobytes() == want.tobytes()

    # Three chunks: a helper thread fills the second and third chunks'
    # noise. It has exited after a session with its own-stream attack, a
    # foreign-stream attack's pass, a session that raises mid-pass and a
    # pass closed after its first chunk.
    def test_no_thread_outlives_a_session(self, headline_params, helper):
        n = 2 * jamming.CHUNK_SYMBOLS + 1
        key = KeyMaterial.random(seed=1)
        before = threading.active_count()
        trace = run_jke_session(headline_params, CancellationModel(60.0),
                                key, n, rng_seed=3)
        eve_storage_attack(trace, true_jamming_stream(trace))
        assert threading.active_count() == before
        eve_storage_attack(trace, jamming_stream(
            trace.jamming_seed.with_flipped_bit(0), 14, n, trace.jam_scale))
        assert threading.active_count() == before
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow") as raised:
                run_jke_session(headline_params.with_bob_noise_var(1e308),
                                IDEAL, key, n, rng_seed=3)
        # Also while the traceback, which holds the pass, is kept.
        assert raised.tb is not None
        assert threading.active_count() == before
        chunks = trace._chunks(bob=True, eve=True)
        next(chunks)
        assert threading.active_count() == before + 1  # the helper
        chunks.close()
        assert threading.active_count() == before

    # Only the noise fill runs on the helper; over three chunks, every
    # traced layer runs on the caller's thread.
    def test_traced_layers_run_on_the_callers_thread(self, headline_params,
                                                     monkeypatch, helper):
        calls = []
        for module, name in ((session, "jamming_stream"), (adc, "quantize"),
                             (kernels, "quantize_midrise"),
                             (kernels, "unpack_symbols"), (session, "_fill")):
            def record(*args, _original=getattr(module, name), _name=name,
                       **kwargs):
                calls.append((_name, threading.get_ident()))
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        run_jke_session(headline_params, CancellationModel(60.0),
                        KeyMaterial.random(seed=1),
                        2 * jamming.CHUNK_SYMBOLS + 1, rng_seed=3)
        traced = {(name, ident) for name, ident in calls if name != "_fill"}
        assert {name for name, _ in traced} == {
            "jamming_stream", "quantize", "quantize_midrise", "unpack_symbols"}
        assert {ident for _, ident in traced} == {threading.get_ident()}
        helpers = {ident for name, ident in calls if name == "_fill"}
        assert len(helpers - {threading.get_ident()}) == 1

    # Where the process may run on one CPU only, the caller draws every
    # chunk itself.
    def test_one_cpu_starts_no_helper(self, headline_params, monkeypatch):
        monkeypatch.setattr(session, "_overlaps", lambda: False)
        calls = []

        def record(*args, _fill=session._fill):
            calls.append(threading.get_ident())
            return _fill(*args)

        monkeypatch.setattr(session, "_fill", record)
        run_jke_session(headline_params, CancellationModel(60.0),
                        KeyMaterial.random(seed=1),
                        2 * jamming.CHUNK_SYMBOLS + 1, rng_seed=3)
        assert calls == [threading.get_ident()] * 3

    # Bob's noise variance alone overflows (his receiver chain clips the
    # noise): the session raises under the caller's error state, with the
    # next chunk's noise being drawn.
    def test_callers_floating_point_errors_hold(self, headline_params):
        point = headline_params.with_bob_noise_var(1e308)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                2 * jamming.CHUNK_SYMBOLS + 1, rng_seed=3)

    # The caller waits on every helper draw, so its arrays and statistics
    # do not depend on when a draw finishes.
    def test_delayed_helper_draws_change_nothing(self, headline_params,
                                                 monkeypatch, helper):
        def run():
            trace = run_jke_session(headline_params, CancellationModel(60.0),
                                    KeyMaterial.random(seed=1),
                                    3 * jamming.CHUNK_SYMBOLS + 7, rng_seed=3)
            return repr(trace.stats), [getattr(trace, name).tobytes()
                                       for name in COLUMNS]

        want = run()
        caller, delayed = threading.get_ident(), []

        def slow_fill(*args, _fill=session._fill):
            if threading.get_ident() != caller:
                delayed.append(args)
                time.sleep(0.02)
            return _fill(*args)

        monkeypatch.setattr(session, "_fill", slow_fill)
        assert run() == want
        # Three later chunks, drawn by the session and by the reads of the
        # two noises; every other read takes the noise read before it.
        assert len(delayed) == 9

    def test_invalid_jam_scale_rejected(self, headline_params):
        with pytest.raises(ValueError, match="jamming scale"):
            run_jke_session(headline_params, IDEAL,
                            KeyMaterial.random(seed=1), 5000, rng_seed=3,
                            jam_scale=0.0)

    def test_numpy_integer_symbol_count(self, headline_params):
        key = KeyMaterial.random(seed=1)
        a = run_jke_session(headline_params, IDEAL, key, np.int64(300), 3)
        b = run_jke_session(headline_params, IDEAL, key, 300, 3)
        assert np.array_equal(a.eve_post, b.eve_post)
        assert a.stats == b.stats


class TestStorageAttack:
    def test_residual_variance_matches_quantization_noise(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 10 ** 5, rng_seed=9)
        report = eve_storage_attack(trace, true_jamming_stream(trace))
        delta_e = trace.stats["delta_e"]
        assert report.residual_var == pytest.approx(delta_e ** 2 / 12, rel=0.05)

    def test_post_attack_snr_matches_analytic_noise_floor(self, headline_params):
        # the cleaned-up record is left with channel noise plus
        # quantization noise: effective SNR ~ P/(sigma_E^2 + delta_e^2/12)
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 10 ** 5, rng_seed=9)
        report = eve_storage_attack(trace, true_jamming_stream(trace))
        analytic = 1.0 / (headline_params.eve_noise_var
                          + trace.stats["delta_e"] ** 2 / 12)
        assert report.post_attack_snr == pytest.approx(analytic, rel=0.05)
        assert trace.stats["eve_post_attack_snr"] == report.post_attack_snr

    def test_post_attack_snr_capped_by_quantization(self, headline_params):
        # even a noiseless eavesdropper channel cannot beat the
        # quantization-noise bound P/(delta_e^2/12)
        point = headline_params.with_eve_noise_var(0.0)
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=4),
                                10 ** 5, rng_seed=9)
        report = eve_storage_attack(trace, true_jamming_stream(trace))
        bound = 1.0 / (trace.stats["delta_e"] ** 2 / 12)
        assert report.post_attack_snr <= bound * 1.05
        assert report.post_attack_snr > report.pre_attack_snr

    def test_ideal_eve_adc_loses_nothing(self):
        point = dataclasses.replace(ideal_channel_point(),
                                    eve_adc=AdcSpec(5e-15, explicit_bits=52.0))
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=4),
                                5000, rng_seed=9)
        report = eve_storage_attack(trace, true_jamming_stream(trace))
        assert report.residual_var < 1e-12

    def test_wrong_seed_stream_only_hurts(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 50000, rng_seed=9)
        wrong = jamming_stream(trace.jamming_seed.with_flipped_bit(0), 14,
                               len(trace), trace.jam_scale)
        report = eve_storage_attack(trace, wrong)
        true_report = eve_storage_attack(trace, true_jamming_stream(trace))
        assert report.post_attack_snr <= true_report.pre_attack_snr
        assert report.post_attack_snr < 1e-6

    def test_length_mismatch_rejected(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 1000, rng_seed=9)
        short = jamming_stream(trace.jamming_seed, 14, 999, trace.jam_scale)
        with pytest.raises(ValueError, match="length"):
            eve_storage_attack(trace, short)

    def test_true_stream_is_the_sessions_own(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 1000, rng_seed=9)
        stream = true_jamming_stream(trace)
        assert (stream.seed, stream.bits_per_symbol, stream.jam_scale,
                len(stream)) == (trace.jamming_seed, 14, trace.jam_scale, 1000)
        fresh = jamming_stream(trace.jamming_seed, 14, len(trace), trace.jam_scale)
        assert stream == fresh
        assert np.array_equal(stream.symbols, trace.jamming)

    # The report an equal stream takes from the session's statistics is
    # the full subtraction's, over 1, 2 and 3 chunks; repr tells every
    # float apart bit for bit.
    @pytest.mark.parametrize("depth", [math.inf, 150.0, 60.0])
    @pytest.mark.parametrize("w", [1, 7, 8, 13, 14, 20, 31, 32])
    def test_own_stream_report_equals_full_subtraction(self, headline_params,
                                                       w, depth):
        params = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        trace = run_jke_session(params, CancellationModel(depth),
                                KeyMaterial.random(seed=4),
                                w * jamming.CHUNK_SYMBOLS // 12 + 7,
                                rng_seed=100 * w)
        own = eve_storage_attack(trace, true_jamming_stream(trace))
        full = session._subtract(trace, true_jamming_stream(trace))
        assert repr((own.post_attack_snr, own.residual_var)) == repr(full)

    def test_one_jamming_derivation_per_session(self, headline_params,
                                                monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return jamming_stream(*args, **kwargs)

        monkeypatch.setattr("jkelab.session.jamming_stream", counted)
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 1000, rng_seed=9)
        eve_storage_attack(trace, true_jamming_stream(trace))
        assert len(calls) == 1

    # The stored record minus the stream is formed a chunk at a time.
    @pytest.mark.parametrize("n", [1 << 17, 1 << 20])
    def test_foreign_stream_attack_peaks_at_fixed_chunk_buffers(
            self, headline_params, n):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), n, rng_seed=9)
        wrong = jamming_stream(trace.jamming_seed.with_flipped_bit(0), 14, n,
                               trace.jam_scale)
        tracemalloc.start()
        try:
            eve_storage_attack(trace, wrong)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13 * CHUNK_BUFFER

    def test_stats_recomputable_from_sequences(self, headline_params):
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), 5000, rng_seed=9)
        resid = trace.eve_post - trace.clean_signal - trace.eve_noise
        assert trace.stats["eve_residual_var"] == float(np.var(resid))
        assert trace.stats["bob_symbol_errors"] == int(
            np.sum(np.sign(trace.bob_post) != np.sign(trace.clean_signal)))


def _variance_input(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "normal":
        return rng.normal(1e3, 1.0, n)
    if kind in ("inf", "-inf", "nan"):
        x = rng.normal(0.0, 1.0, n)
        x[n // 2] = float(kind)
        return x
    if kind == "negative zero":
        return np.full(n, -0.0)
    if kind == "subnormal":
        return np.where(rng.random(n) < 0.5, 5e-324, -0.0)
    assert kind == "constant"
    return np.full(n, 0.1)


class TestVariance:
    """A chunk's moments against ``float(np.var(x))``, over lengths across
    NumPy's pairwise-summation block edges: within one chunk, a session's
    variances are ``np.var``'s, bit for bit."""

    @pytest.mark.parametrize("separate_out", [False, True])
    @pytest.mark.parametrize("kind", ["normal", "inf", "-inf", "nan",
                                      "negative zero", "subnormal",
                                      "constant"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 10_007,
                                   3_000_000])
    def test_equals_numpy_var_bit_for_bit(self, n, kind, separate_out):
        x = _variance_input(kind, n)
        with np.errstate(all="ignore"):
            want = float(np.var(x))
            out = np.empty_like(x) if separate_out else x.copy()
            moments = _Moments()
            moments.add(n, [_moments(x if separate_out else out, out=out)])
            [got] = moments.variances()
        assert (repr(got), math.copysign(1.0, got)) == (
            repr(want), math.copysign(1.0, want))

    # Merged chunk by chunk, far from zero mean and with a short last chunk.
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_merged_chunks_match_numpy_var(self, offset):
        x = np.random.default_rng(5).normal(offset, 1.0, 10 * 4096 + 17)
        moments = _Moments()
        for start in range(0, len(x), 4096):
            part = x[start:start + 4096]
            moments.add(len(part), [_moments(part, np.empty(len(part))),
                                    _moments(-part, np.empty(len(part)))])
        assert moments.variances() == pytest.approx([np.var(x)] * 2,
                                                     rel=1e-12, abs=0.0)


class TestLeanTrace:
    """A trace keeps no array: a session and its attack peak at a fixed
    number of chunk buffers whatever their length, and reading a sequence
    forms it in one new full-length buffer."""

    N = 1 << 20

    @pytest.fixture
    def point(self, headline_params):
        return dataclasses.replace(headline_params, jamming_bits_per_symbol=20)

    @pytest.mark.parametrize("n", [1 << 17, 1 << 20])
    def test_session_with_attack_peaks_at_fixed_chunk_buffers(self, point, n):
        key = KeyMaterial.random(seed=1)
        run_jke_session(point, CancellationModel(60.0), key, 10, rng_seed=3)
        tracemalloc.start()
        try:
            trace = run_jke_session(point, CancellationModel(60.0), key, n,
                                    rng_seed=4)
            eve_storage_attack(trace, true_jamming_stream(trace))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 16: a chunk's arrays and temporaries, the statistics'
        # two scratch buffers, the next chunk's two noise draws, and the
        # two buffers of the chunk after that which the helper thread is
        # filling (14.03 buffers at 2**20 symbols before that helper,
        # 16.05 with it).
        assert peak < 18 * CHUNK_BUFFER
        assert kept < CHUNK_BUFFER / 8

    # Each is formed a chunk at a time in its one new buffer.
    @pytest.mark.parametrize("name", ["bob_post", "eve_stored", "eve_post"])
    def test_reading_a_quantized_array_adds_one_buffer(self, point, name):
        self.assert_read_adds_one_buffer(point, name)

    @pytest.mark.parametrize("name", ["clean_signal", "jamming", "bob_noise",
                                      "eve_noise", "bob_rx", "eve_rx"])
    def test_reading_any_other_array_adds_one_buffer(self, point, name):
        self.assert_read_adds_one_buffer(point, name)

    def assert_read_adds_one_buffer(self, point, name):
        buffer = 8 * self.N
        trace = run_jke_session(point, CancellationModel(60.0),
                                KeyMaterial.random(seed=1), self.N, rng_seed=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            read = getattr(trace, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read.nbytes == buffer and read.base is None
        assert 0.99 * buffer < peak - before < buffer + 10 * CHUNK_BUFFER

    @pytest.mark.parametrize("w", [0, 14])
    @pytest.mark.parametrize("n", [1, 1000, 40_011,
                                   2 * jamming.CHUNK_SYMBOLS + 11])
    def test_derived_arrays_are_their_formulas(self, headline_params, w, n):
        point = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        key = KeyMaterial.random(seed=1)
        trace = run_jke_session(point, IDEAL, key, n, rng_seed=3)
        clean = np.resize(session._encode_key(key, point.signal_power), n)
        bob_q = adc.QuantizerConfig.for_signal(
            point.signal_power, point.bob_bits(), point.dynamic_range_factor)
        eve_q = adc.QuantizerConfig.for_jammed_signal(
            point.signal_power, point.eve_bits(), w,
            point.dynamic_range_factor)
        eve_stored = adc.quantize((clean + trace.jamming) + trace.eve_noise,
                                  eve_q)
        want = {"clean_signal": clean,
                "bob_rx": (clean + trace.jamming) + trace.bob_noise,
                "eve_rx": (clean + trace.jamming) + trace.eve_noise,
                "bob_post": adc.quantize(
                    ((clean + trace.jamming) + trace.bob_noise)
                    - trace.jamming * 1.0, bob_q),
                "eve_stored": eve_stored,
                "eve_post": eve_stored - trace.jamming}
        for name, formula in want.items():
            got = getattr(trace, name)
            assert got is getattr(trace, name), name
            assert got.tobytes() == formula.tobytes(), name
            assert not got.flags.writeable, name

    # Bob's quantizer sees the jamming his cancellation leaves, whatever
    # the depth, over three chunks, the last one short.
    @pytest.mark.parametrize("depth", [0.0, 60.0, 150.0])
    def test_bob_post_keeps_the_residual_jamming(self, headline_params, depth):
        key = KeyMaterial.random(seed=1)
        cancel = CancellationModel(depth)
        trace = run_jke_session(headline_params, cancel, key,
                                2 * jamming.CHUNK_SYMBOLS + 11, rng_seed=3)
        bob_q = adc.QuantizerConfig.for_signal(
            headline_params.signal_power, headline_params.bob_bits(),
            headline_params.dynamic_range_factor)
        kept = 1.0 - cancel.residual_amplitude_factor
        want = adc.quantize(trace.bob_rx - trace.jamming * kept, bob_q)
        assert trace.bob_post.tobytes() == want.tobytes()
