import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from jkelab import (AdcSpec, CancellationModel, KeyMaterial, SystemParams,
                    ValidationError, adc, cancellation_bits,
                    eve_storage_attack, jamming_stream, kernels,
                    run_jke_session, session, true_jamming_stream)
from jkelab.session import WARN_MARGIN_BITS, _variance, default_jam_scale

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


class TestSession:
    def test_reproducible_bit_for_bit(self, headline_params):
        key = KeyMaterial.random(seed=8)
        a = run_jke_session(headline_params, IDEAL, key, 4000, rng_seed=3)
        b = run_jke_session(headline_params, IDEAL, key, 4000, rng_seed=3)
        for name in ("clean_signal", "jamming", "bob_noise", "eve_noise",
                     "bob_rx", "eve_rx", "bob_post", "eve_stored", "eve_post"):
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
        for name in ("clean_signal", "jamming", "bob_noise", "eve_noise",
                     "bob_rx", "eve_rx", "bob_post", "eve_stored", "eve_post"):
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
                                             monkeypatch, n_symbols):
        # The count is refused on the caller's thread, before any helper
        # thread starts.
        def no_thread(self):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with pytest.raises(ValidationError, match="symbol count must be an "
                                                  "integer of at least 1"):
            run_jke_session(headline_params, IDEAL, KeyMaterial.random(seed=1),
                            n_symbols, rng_seed=1)

    # The noise is Generator.normal's, byte for byte; with zero variance
    # that is +0.0, never -0.0 (whose repr would change trace.csv).
    @pytest.mark.parametrize("noise_var", [0.0, 1e-3])
    def test_noise_is_the_generators_normal_draw(self, headline_params,
                                                noise_var):
        point = headline_params.with_bob_noise_var(
            noise_var).with_eve_noise_var(noise_var)
        trace = run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                1000, rng_seed=3)
        rng = np.random.default_rng(3)
        rng.bytes(32)  # the jamming seed
        for noise in (trace.bob_noise, trace.eve_noise):
            want = rng.normal(0.0, math.sqrt(noise_var), 1000)
            assert noise.tobytes() == want.tobytes()

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
        assert stream.symbols is trace.jamming
        assert (stream.seed, stream.bits_per_symbol, stream.jam_scale) == (
            trace.jamming_seed, 14, trace.jam_scale)
        fresh = jamming_stream(trace.jamming_seed, 14, len(trace), trace.jam_scale)
        assert np.array_equal(stream.symbols, fresh.symbols)

    @pytest.mark.parametrize("depth", [math.inf, 150.0, 60.0])
    @pytest.mark.parametrize("w", [1, 7, 8, 13, 14, 20, 31, 32])
    def test_own_stream_report_equals_full_subtraction(self, headline_params,
                                                       w, depth):
        # A regenerated, equal array is not the session's own, so it takes
        # the full subtraction; repr tells every float apart bit for bit.
        params = dataclasses.replace(headline_params, jamming_bits_per_symbol=w)
        trace = run_jke_session(params, CancellationModel(depth),
                                KeyMaterial.random(seed=4), 10_007,
                                rng_seed=100 * w)
        regenerated = jamming_stream(trace.jamming_seed, w, len(trace),
                                     trace.jam_scale)
        assert regenerated.symbols is not trace.jamming
        own = eve_storage_attack(trace, true_jamming_stream(trace))
        full = eve_storage_attack(trace, regenerated)
        assert repr(own.to_dict()) == repr(full.to_dict())

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

    def test_foreign_stream_attack_peaks_at_one_buffer(self, headline_params):
        # The stored record minus the stream is formed twice in one buffer,
        # once for each statistic, instead of once beside a second buffer.
        n = 200_000
        trace = run_jke_session(headline_params, IDEAL,
                                KeyMaterial.random(seed=4), n, rng_seed=9)
        regenerated = jamming_stream(trace.jamming_seed, 14, n, trace.jam_scale)
        tracemalloc.start()
        try:
            eve_storage_attack(trace, regenerated)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * n <= peak < 1.25 * 8 * n

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
    """The session's in-place variance against ``float(np.var(x))``, over
    lengths across NumPy's pairwise-summation block edges."""

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
            got = _variance(x if separate_out else out, out=out)
        assert (repr(got), math.copysign(1.0, got)) == (
            repr(want), math.copysign(1.0, want))


class _ScriptedGenerator:
    """A real generator whose ``standard_normal`` (the session's noise
    draw) sleeps ``delay`` seconds before each draw, and raises ``error``
    on call ``fail_at`` (0 is Bob's noise, 1 is Eve's)."""

    def __init__(self, seed, fail_at=None, error=None, delay=0.0):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._fail_at, self._error, self._delay = fail_at, error, delay
        self._calls = 0

    def bytes(self, n):
        return self._rng.bytes(n)

    def standard_normal(self, *args, **kwargs):
        time.sleep(self._delay)
        if self._calls == self._fail_at:
            raise self._error
        self._calls += 1
        return self._rng.standard_normal(*args, **kwargs)


def _hook_statistics(monkeypatch, hook):
    """Call ``hook(i, thread, out)`` before statistic ``i`` of each
    session's shared list runs, on the thread that runs it: ``thread`` is
    "caller" or "helper", and ``out`` is the scratch buffer it passes."""
    share = session._share
    caller = threading.get_ident()

    def hooked(pool, entries, *args, **kwargs):
        def entry(i):
            def run(out):
                hook(i, "caller" if threading.get_ident() == caller
                     else "helper", out)
                return entries[i](out)
            return run
        return share(pool, [entry(i) for i in range(len(entries))], *args,
                     **kwargs)

    monkeypatch.setattr(session, "_share", hooked)


def _hold(thread, ran: dict):
    """A hook that records in ``ran`` which thread runs each statistic,
    with which scratch buffer, and holds ``thread`` for
    0.3 s in its first one, so that the other thread runs the rest."""
    def hook(i, on, out):
        ran[i] = on, out
        if on == thread and [t for t, _ in ran.values()].count(on) == 1:
            time.sleep(0.3)
    return hook


def _serial_statistics(trace) -> dict:
    """The shared statistics by plain NumPy on full-length temporaries,
    one after another, from the trace's own sequences."""
    clean, key = trace.clean_signal, trace.key
    power = float(np.mean(clean ** 2))

    def snr(observed):
        err_var = float(np.var(observed - clean))
        return math.inf if err_var == 0.0 else power / err_var

    idx = np.arange(len(trace)) % key.n_bits
    votes = np.bincount(idx, weights=np.sign(trace.bob_post),
                        minlength=key.n_bits)
    covered = min(len(trace), key.n_bits)
    bits = key.bit_array()[:covered]
    residual = trace.cancel.residual_amplitude_factor * trace.jamming
    return {
        "bob_symbol_errors": int(np.sum(np.sign(trace.bob_post)
                                        != np.sign(clean))),
        "bob_key_bit_errors": int(np.sum((votes[:covered] > 0) != (bits == 1))),
        "bob_key_bits_covered": covered,
        "signal_power_emp": power,
        "residual_jamming_power": float(np.var(residual)),
        "bob_effective_snr": snr(trace.bob_post),
        "eve_pre_attack_snr": snr(trace.eve_rx),
        "bob_noise_var_emp": float(np.var(trace.bob_noise)),
        "eve_noise_var_emp": float(np.var(trace.eve_noise)),
        "eve_post_attack_snr": snr(trace.eve_post),
        "eve_residual_var": float(np.var(trace.eve_post - clean
                                         - trace.eve_noise)),
        "jamming_power_emp": float(np.var(trace.jamming)),
    }


class TestHelperThread:
    """The session draws its noise on one helper thread, which then
    shares the session's statistics with the caller. No thread outlives
    a session, whether it returns or raises (``output.write_trace_csv``
    forks right after it), and every layer the benchmark traces runs on
    the caller's thread."""

    # Held in its first statistic, one thread leaves the other to run
    # all but at most that one. Each thread works in its own scratch
    # buffer, and the statistics are the serial ones, bit for bit. The
    # helper always starts with Eve's pre-attack error (statistic 4): it
    # forms it in place in the buffer it then works in.
    @pytest.mark.parametrize("held", ["helper", "caller"])
    def test_shared_statistics_equal_the_serial_ones(self, headline_params,
                                                     monkeypatch, held):
        ran = {}
        _hook_statistics(monkeypatch, _hold(held, ran))
        point = dataclasses.replace(headline_params, jamming_bits_per_symbol=20)
        trace = run_jke_session(point, CancellationModel(60.0),
                                KeyMaterial.random(seed=1), 300_007,
                                rng_seed=3)
        assert sorted(ran) == list(range(10))
        threads = [on for on, _ in ran.values()]
        other = "caller" if held == "helper" else "helper"
        assert threads.count(held) <= 1
        assert threads.count(other) >= 9
        assert ran[4][0] == "helper"
        buffers = {}
        for on, out in ran.values():
            assert buffers.setdefault(on, out) is out
        if len(buffers) == 2:
            assert not np.shares_memory(buffers["caller"], buffers["helper"])
        for name, want in _serial_statistics(trace).items():
            got = trace.stats[name]
            assert type(got) is type(want), name
            assert repr(got) == repr(want), name
            assert math.copysign(1.0, got) == math.copysign(1.0, want), name

    # Four sessions at once, eight threads on fewer CPUs, switching as
    # often as the interpreter allows: a lost update of the claimed count
    # would run a statistic twice, or never.
    def test_each_statistic_runs_once_under_contention(self, headline_params,
                                                       monkeypatch):
        counts = []
        share = session._share

        def counted(pool, entries, *args, **kwargs):
            ran = [0] * len(entries)
            counts.append(ran)

            def entry(i):
                def run(out):
                    ran[i] += 1
                    return entries[i](out)
                return run
            return share(pool, [entry(i) for i in range(len(entries))],
                         *args, **kwargs)

        monkeypatch.setattr(session, "_share", counted)
        traces = {}

        def run(seed):
            traces[seed] = run_jke_session(
                headline_params, CancellationModel(60.0),
                KeyMaterial.random(seed=1), 20_000, rng_seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sessions = [threading.Thread(target=run, args=(seed,))
                        for seed in range(4)]
            for thread in sessions:
                thread.start()
            for thread in sessions:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in sessions)
        assert counts == [[1] * 10] * 4
        for trace in traces.values():
            for name, want in _serial_statistics(trace).items():
                assert repr(trace.stats[name]) == repr(want), name

    # The earlier entry fails later in time, on whichever thread runs it.
    def test_first_failing_statistic_in_list_order_is_raised(
            self, headline_params, monkeypatch):
        earlier, later = RuntimeError("statistic 1"), RuntimeError("statistic 6")

        def hook(i, on, out):
            if i == 1:
                time.sleep(0.2)
                raise earlier
            if i == 6:
                raise later

        _hook_statistics(monkeypatch, hook)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            run_jke_session(headline_params, IDEAL, KeyMaterial.random(seed=1),
                            5000, rng_seed=3)
        assert raised.value is earlier
        assert threading.active_count() == before

    def test_no_thread_outlives_a_session(self, headline_params):
        before = threading.active_count()
        run_jke_session(headline_params, IDEAL, KeyMaterial.random(seed=1),
                        5000, rng_seed=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_helper_error_reaches_the_caller(self, headline_params,
                                             monkeypatch, fail_at):
        error = MemoryError("no room for the noise")
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ScriptedGenerator(seed, fail_at,
                                                            error))
        before = threading.active_count()
        with pytest.raises(MemoryError) as raised:
            run_jke_session(headline_params, IDEAL,
                            KeyMaterial.random(seed=1), 5000, rng_seed=3)
        assert raised.value is error
        assert threading.active_count() == before

    # A slow draw keeps the helper busy when the caller fails.
    def test_caller_error_joins_the_helper(self, headline_params,
                                           monkeypatch):
        def broken(samples, config):
            raise RuntimeError("quantizer failed")

        monkeypatch.setattr(adc, "quantize", broken)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ScriptedGenerator(seed, delay=0.2))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="quantizer failed"):
            run_jke_session(headline_params, IDEAL,
                            KeyMaterial.random(seed=1), 5000, rng_seed=3)
        assert threading.active_count() == before

    def test_invalid_jam_scale_joins_the_helper(self, headline_params,
                                                monkeypatch):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ScriptedGenerator(seed, delay=0.2))
        before = threading.active_count()
        with pytest.raises(ValueError, match="jamming scale"):
            run_jke_session(headline_params, IDEAL,
                            KeyMaterial.random(seed=1), 5000, rng_seed=3,
                            jam_scale=0.0)
        assert threading.active_count() == before

    def test_traced_layers_run_on_the_callers_thread(self, headline_params,
                                                     monkeypatch):
        calls = []
        for module, name in ((session, "jamming_stream"), (adc, "quantize"),
                             (kernels, "quantize_midrise"),
                             (kernels, "unpack_symbols")):
            def record(*args, _original=getattr(module, name), _name=name,
                       **kwargs):
                calls.append((_name, threading.get_ident()))
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        run_jke_session(headline_params, CancellationModel(60.0),
                        KeyMaterial.random(seed=1), 5000, rng_seed=3)
        assert {name for name, _ in calls} == {
            "jamming_stream", "quantize", "quantize_midrise", "unpack_symbols"}
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_helper_keeps_the_callers_floating_point_errors(
            self, headline_params, monkeypatch):
        # Bob's noise variance (statistic 5) alone overflows: his receiver
        # chain clips the noise. With the caller held, the helper runs it;
        # a new thread's NumPy state would warn and give inf.
        ran = {}
        _hook_statistics(monkeypatch, _hold("caller", ran))
        point = headline_params.with_bob_noise_var(1e308)
        before = threading.active_count()
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_jke_session(point, IDEAL, KeyMaterial.random(seed=1),
                                5000, rng_seed=3)
        assert ran[5][0] == "helper"
        assert threading.active_count() == before


class TestLeanTrace:
    """A finished trace keeps only the three arrays that were drawn; the
    other six are formed on first read, by the session's own arithmetic."""

    N = 200_000

    @pytest.fixture
    def point(self, headline_params):
        return dataclasses.replace(headline_params, jamming_bits_per_symbol=20)

    def test_trace_keeps_three_arrays_and_forms_two_on_read(self, point):
        buffers = 8 * self.N
        key = KeyMaterial.random(seed=1)
        run_jke_session(point, CancellationModel(60.0), key, self.N, rng_seed=3)
        tracemalloc.start()
        try:
            trace = run_jke_session(point, CancellationModel(60.0), key,
                                    self.N, rng_seed=4)
            kept, peak = tracemalloc.get_traced_memory()
            trace.bob_rx, trace.eve_rx
            read, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # jamming and both noises
        assert 3 * buffers <= kept < 3.25 * buffers
        assert 2 * buffers <= read - kept < 2.25 * buffers
        # At the session's peak: those three, eve_rx, bob_post, eve_post
        # and the caller's scratch buffer (eve_rx is the helper's). The
        # clean signal, bob_rx, Bob's pre-quantizer samples and
        # eve_stored are formed in none.
        assert peak < 7.25 * buffers

    # Each is formed block by block in its one new buffer.
    @pytest.mark.parametrize("name", ["bob_post", "eve_stored", "eve_post"])
    def test_reading_a_quantized_array_adds_one_buffer(self, point, name):
        buffers = 8 * self.N
        trace = run_jke_session(point, CancellationModel(60.0),
                                KeyMaterial.random(seed=1), self.N, rng_seed=4)
        tracemalloc.start()
        try:
            getattr(trace, name)
            read, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buffers <= read < 1.05 * buffers
        assert peak < 1.25 * buffers

    @pytest.mark.parametrize("w", [0, 14])
    @pytest.mark.parametrize("n", [1, 1000, 40_011])
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
    # the depth; 40,011 symbols span three blocks, the last one short.
    @pytest.mark.parametrize("depth", [0.0, 60.0, 150.0])
    def test_bob_post_keeps_the_residual_jamming(self, headline_params, depth):
        key = KeyMaterial.random(seed=1)
        cancel = CancellationModel(depth)
        trace = run_jke_session(headline_params, cancel, key, 40_011,
                                rng_seed=3)
        bob_q = adc.QuantizerConfig.for_signal(
            headline_params.signal_power, headline_params.bob_bits(),
            headline_params.dynamic_range_factor)
        kept = 1.0 - cancel.residual_amplitude_factor
        want = adc.quantize(trace.bob_rx - trace.jamming * kept, bob_q)
        assert trace.bob_post.tobytes() == want.tobytes()
