"""End-to-end Monte-Carlo simulation of one jamming key-exchange session.

Discrete-time real baseband at symbol rate: the long-term key is encoded
as 2-PAM symbols (with plain repetition across the block), the seeded
jamming is added, each channel gets independent Gaussian noise, the
legitimate receiver cancels the regenerated jamming down to a residual set
by its cancellation depth and quantizes at its own resolution, and the
eavesdropper quantizes the raw jammed signal at the widened dynamic range
and stores it.

The non-storage assumption is structural: the storage attack only ever
sees the quantized record, never the pre-quantization waveform.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import adc
from .jamming import JammingStream, jamming_stream
from .params import KeyMaterial, SystemParams, check_symbol_count, validate

# Cancellation headroom (bits) demanded beyond the jamming resolution
# before the residual is considered harmless; at zero headroom the residual
# lands at roughly signal level.
WARN_MARGIN_BITS = 2.0

INSUFFICIENT_CANCELLATION = "insufficient_cancellation"


def cancellation_bits(depth_db: float) -> float:
    """Bits of interference resolution removable by ``depth_db`` of
    cancellation, at the standard 6 dB per bit."""
    if not depth_db >= 0:
        raise ValueError("cancellation depth must be non-negative")
    return depth_db / 6.0


@dataclass(frozen=True)
class CancellationModel:
    """Combined analog + digital cancellation depth of the legitimate
    receiver. Known-jamming removal leaves a residual attenuated by
    ``depth_db``; ``math.inf`` models ideal cancellation."""

    depth_db: float

    def __post_init__(self):
        cancellation_bits(self.depth_db)

    @property
    def residual_bits(self) -> float:
        return cancellation_bits(self.depth_db)

    @property
    def residual_amplitude_factor(self) -> float:
        """Amplitude scaling of the surviving jamming (power factor is
        its square, 10^(-depth/10)); 0.0 at infinite depth."""
        return 10.0 ** (-self.depth_db / 20.0)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-sample record of one session plus derived statistics.

    The trace stores only what was drawn: ``jamming`` and both channel
    noises. The other six sequences are formed on first read, by the
    session's own operations, and then cached; forming one keeps no other
    array alive. They satisfy, exactly:
    ``clean_signal`` is the key's 2-PAM amplitudes repeated to the block
    length, ``bob_rx = clean_signal + jamming + bob_noise``,
    ``eve_rx = clean_signal + jamming + eve_noise``, ``bob_post`` is Bob's
    quantizer applied to ``bob_rx - jamming * (1 - a)`` for the residual
    amplitude factor ``a`` of his cancellation, ``eve_stored`` is Eve's
    quantizer applied to ``eve_rx``, and ``eve_post`` is the stored record
    minus the true jamming (the best-case storage attack). The two
    quantized sequences and ``eve_post`` are formed block by block, so a
    full-length ``bob_rx`` or ``eve_rx`` is not. ``stats`` is recomputable
    from the sequences bit-for-bit. Every sequence is read-only.
    """

    params: SystemParams
    cancel: CancellationModel
    key: KeyMaterial
    jamming_seed: KeyMaterial
    jam_scale: float
    jamming: np.ndarray
    bob_noise: np.ndarray
    eve_noise: np.ndarray
    stats: dict
    warnings: tuple

    def __len__(self) -> int:
        return len(self.jamming)

    @cached_property
    def clean_signal(self) -> np.ndarray:
        return _read_only(_repeat_key(
            _encode_key(self.key, self.params.signal_power),
            np.empty(len(self))))

    @cached_property
    def bob_rx(self) -> np.ndarray:
        return _read_only(self._received(self.bob_noise, slice(None),
                                         np.empty(len(self))))

    @cached_property
    def eve_rx(self) -> np.ndarray:
        return _read_only(self._received(self.eve_noise, slice(None),
                                         np.empty(len(self))))

    @cached_property
    def bob_post(self) -> np.ndarray:
        kept = 1.0 - self.cancel.residual_amplitude_factor
        return _read_only(_quantize_blocks(
            lambda block, buffer: _cancel(
                self._received(self.bob_noise, block, buffer),
                self.jamming[block], kept),
            _bob_quantizer(self.params), np.empty(len(self)),
            self.key.n_bits))

    @cached_property
    def eve_stored(self) -> np.ndarray:
        return _read_only(self._eve_record(np.empty(len(self))))

    @cached_property
    def eve_post(self) -> np.ndarray:
        return _read_only(self._eve_record(np.empty(len(self)),
                                           minus=self.jamming))

    def _received(self, noise: np.ndarray, block: slice,
                  out: np.ndarray) -> np.ndarray:
        """The received samples at the positions ``block``, which start on
        key bit 0: clean + jam, then + noise, in ``out``."""
        rx = _repeat_key(_encode_key(self.key, self.params.signal_power), out)
        rx += self.jamming[block]
        rx += noise[block]
        return rx

    def _eve_record(self, out: np.ndarray,
                    minus: np.ndarray | None = None) -> np.ndarray:
        """Eve's stored record, less ``minus`` if given, formed block by
        block in ``out``."""
        return _quantize_blocks(
            lambda block, buffer: self._received(self.eve_noise, block,
                                                 buffer),
            _eve_quantizer(self.params), out, self.key.n_bits, minus)


def _read_only(seq: np.ndarray) -> np.ndarray:
    seq.setflags(write=False)
    return seq


def default_jam_scale(params: SystemParams) -> float:
    """Jamming amplitude such that signal + jamming exactly fills the
    eavesdropper's widened full scale l*sqrt(P)*2^w (no clipping for
    l >= 1): the outermost jamming level sits one signal range short of
    the edge."""
    l = params.dynamic_range_factor
    p = params.signal_power
    return l * math.sqrt(p) * (2.0 ** params.jamming_bits_per_symbol - 1.0)


def _encode_key(key: KeyMaterial, signal_power: float) -> np.ndarray:
    """2-PAM amplitude +-sqrt(P) of each key bit, in key order. Symbol j
    of the block carries key bit j mod n_bits (interleaved repetition)."""
    return (2.0 * key.bit_array() - 1.0) * math.sqrt(signal_power)


def _rows(seq: np.ndarray, n_bits: int) -> tuple:
    """``seq`` as rows of ``n_bits`` symbols, so that column j holds the
    symbols of key bit j, and the partial last row."""
    full = len(seq) - len(seq) % n_bits
    return seq[:full].reshape(-1, n_bits), seq[full:]


def _repeat_key(amplitudes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.resize(amplitudes, len(out))``, the clean signal, written into
    ``out``."""
    rows, tail = _rows(out, len(amplitudes))
    rows[...] = amplitudes
    tail[...] = amplitudes[:len(tail)]
    return out


def _subtract_key(observed: np.ndarray, amplitudes: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """``observed`` minus the clean signal, element for element, in ``out``
    (which may be ``observed`` itself), through the rows of both, so the
    clean signal itself is not formed."""
    for seq, result in zip(_rows(observed, len(amplitudes)),
                           _rows(out, len(amplitudes))):
        np.subtract(seq, amplitudes[:seq.shape[-1]], out=result)
    return out


# Symbols per block of the passes that run a block at a time: forming and
# quantizing a receiver's samples, and comparing Bob's signs. A block
# needs only block-sized temporaries, and its passes stay in cache; on a
# 2-vCPU Xeon VM, blocks of 2^13 symbols were slower than whole-array
# passes and blocks of 2^14 as fast. A quantizer's block is a whole
# number of key lengths, so that each one starts on key bit 0.
_BLOCK_SYMBOLS = 1 << 14


def _quantize_blocks(form, q: adc.QuantizerConfig, out: np.ndarray,
                     n_bits: int,
                     minus: np.ndarray | None = None) -> np.ndarray:
    """``adc.quantize`` of the samples that ``form(block, buffer)`` returns
    for each block of positions (a slice that starts on key bit 0 of a
    key of ``n_bits``), less ``minus`` there if given, written there in
    ``out``. ``buffer`` is one block-sized array that every block may form
    its samples in. Quantizing is element-wise, so the blocks equal one
    call on the whole sequence, bit for bit."""
    size = max(1, _BLOCK_SYMBOLS // n_bits) * n_bits
    buffer = np.empty(min(size, len(out)))
    for start in range(0, len(out), size):
        block = slice(start, min(start + size, len(out)))
        samples = form(block, buffer[:block.stop - start])
        if minus is None:
            out[block] = adc.quantize(samples, q)
        else:
            np.subtract(adc.quantize(samples, q), minus[block],
                        out=out[block])
    return out


def _cancel(rx: np.ndarray, jam: np.ndarray, kept: float) -> np.ndarray:
    """Bob's analog-domain cancellation before his ADC, in ``rx``: the
    received samples less the ``kept`` share of the jamming that his
    cancellation removes."""
    return np.subtract(rx, np.multiply(jam, kept), out=rx)


def _bob_quantizer(params: SystemParams) -> adc.QuantizerConfig:
    return adc.QuantizerConfig.for_signal(
        params.signal_power, params.bob_bits(), params.dynamic_range_factor)


def _eve_quantizer(params: SystemParams) -> adc.QuantizerConfig:
    return adc.QuantizerConfig.for_jammed_signal(
        params.signal_power, params.eve_bits(),
        params.jamming_bits_per_symbol, params.dynamic_range_factor)


def _bob_errors(key: KeyMaterial, bit_amplitudes: np.ndarray,
                bob_post: np.ndarray, out: np.ndarray) -> tuple:
    """Symbol sign errors, then the majority vote per key bit over its
    repetition positions: returns (symbol error count, key bit error
    count, bits covered by at least one symbol). The signs of
    ``bob_post`` go to ``out``; they are compared with the key's a block
    of rows at a time, in one small boolean buffer."""
    signs = np.sign(bob_post, out=out)
    rows, tail = _rows(signs, key.n_bits)
    bit_signs = np.sign(bit_amplitudes)
    symbol_errors = np.count_nonzero(tail != bit_signs[:len(tail)])
    step = max(1, _BLOCK_SYMBOLS // key.n_bits)
    unequal = np.empty((min(step, len(rows)), key.n_bits), dtype=bool)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        symbol_errors += np.count_nonzero(
            np.not_equal(part, bit_signs, out=unequal[:len(part)]))
    # Sums of -1/0/+1 are exact in any order.
    votes = rows.sum(axis=0)
    votes[:len(tail)] += tail
    # Symbol j carries bit j mod n_bits, so exactly the first bits are covered.
    covered = min(len(bob_post), key.n_bits)
    decided = votes[:covered] > 0
    bit_errors = int(np.sum(decided != (key.bit_array()[:covered] == 1)))
    return int(symbol_errors), bit_errors, covered


def run_jke_session(params: SystemParams, cancel: CancellationModel,
                    key: KeyMaterial, n_symbols: int, rng_seed: int,
                    jamming_seed: KeyMaterial | None = None,
                    jam_scale: float | None = None) -> SimTrace:
    """Simulate one session; bit-identical for identical arguments.

    ``key`` is the long-term secret carried by the transmission;
    ``jamming_seed`` is the phase-1 shared secret seeding the jamming
    stream (derived from ``rng_seed`` when omitted).
    """
    validate(params)
    check_symbol_count(n_symbols)

    p = params.signal_power
    w = params.jamming_bits_per_symbol
    rng = np.random.default_rng(rng_seed)

    if jamming_seed is None:
        jamming_seed = KeyMaterial(rng.bytes(32))
    if jam_scale is None:
        jam_scale = default_jam_scale(params)

    warnings = []
    if w > 0 and cancel.residual_bits < w + WARN_MARGIN_BITS:
        warnings.append(
            f"{INSUFFICIENT_CANCELLATION}: Bob cannot cancel a {w}-bit jammer "
            f"with {cancel.depth_db:g} dB depth "
            f"({cancel.residual_bits:.2f} bits < w + {WARN_MARGIN_BITS:g})")

    # One helper thread draws Bob's and then Eve's noise, in submission
    # order, and then takes part of the statistics (_share). It calls
    # nothing else of the package, so every traced layer keeps running on
    # the caller's thread. Leaving the ``with`` block joins it, so no
    # thread outlives the session (output.write_trace_csv forks). Its
    # buffers too are allocated on the caller's thread, like every
    # full-length buffer: glibc gives each thread its own malloc arena,
    # and one that the helper allocated would stay in the helper's arena
    # once freed (peak RSS rose by about 20 MB at 3e6 symbols).
    bob_noise, eve_noise = np.empty(n_symbols), np.empty(n_symbols)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="jkelab-session",
                            initializer=_use_errstate,
                            initargs=(np.geterr(), np.geterrcall())) as pool:
        bob_drawn = pool.submit(_normal, rng, math.sqrt(params.bob_noise_var),
                                bob_noise)
        eve_drawn = pool.submit(_normal, rng, math.sqrt(params.eve_noise_var),
                                eve_noise)
        bit_amplitudes = _encode_key(key, p)
        if w > 0:
            jam = jamming_stream(jamming_seed, w, n_symbols, jam_scale).symbols
        else:
            jam = np.zeros(n_symbols)

        # clean + jam is formed once, for both receivers, in eve_rx's
        # buffer. Bob's chain runs while Eve's noise is still being drawn.
        # The clean signal is formed only there and for its power: the
        # errors subtract the key's amplitudes row by row (_subtract_key).
        eve_rx = _repeat_key(bit_amplitudes, np.empty(n_symbols))
        eve_rx += jam

        # Analog-domain cancellation happens before the ADC, so the
        # quantizer only spans the useful signal plus whatever residual
        # survives: (clean + jam) + bob_noise - jam * (1 - a), formed and
        # quantized block by block.
        bob_drawn.result()  # Bob's noise is drawn
        kept = 1.0 - cancel.residual_amplitude_factor
        bob_q = _bob_quantizer(params)
        bob_post = _quantize_blocks(
            lambda block, buffer: _cancel(
                np.add(eve_rx[block], bob_noise[block], out=buffer),
                jam[block], kept),
            bob_q, np.empty(n_symbols), key.n_bits)

        # eve_rx takes Eve's noise in place, block by block, and each
        # block of her stored record is quantized from it. The session
        # keeps that record only less the true jamming, as eve_post.
        eve_drawn.result()  # Eve's noise is drawn
        eve_q = _eve_quantizer(params)
        eve_post = _quantize_blocks(
            lambda block, _: np.add(eve_rx[block], eve_noise[block],
                                    out=eve_rx[block]),
            eve_q, np.empty(n_symbols), key.n_bits, minus=jam)

        # Each statistic forms its operand in the scratch buffer of the
        # thread that runs it. The helper starts with Eve's pre-attack
        # error, in place in eve_rx, whose buffer is then its scratch.
        ((symbol_errors, bit_errors, bits_covered), signal_power_emp,
         residual_jamming_power, bob_error_var, eve_pre_error_var,
         bob_noise_var, eve_noise_var, eve_post_error_var, eve_residual_var,
         jamming_power_emp) = _share(pool, [
             lambda out: _bob_errors(key, bit_amplitudes, bob_post, out),
             lambda out: float(np.mean(np.square(
                 _repeat_key(bit_amplitudes, out), out=out))),
             lambda out: _variance(np.multiply(
                 jam, cancel.residual_amplitude_factor, out=out), out=out),
             lambda out: _error_variance(bob_post, bit_amplitudes, out),
             lambda out: _error_variance(eve_rx, bit_amplitudes, out),
             lambda out: _variance(bob_noise, out=out),
             lambda out: _variance(eve_noise, out=out),
             lambda out: _error_variance(eve_post, bit_amplitudes, out),
             lambda out: _residual_variance(eve_post, bit_amplitudes,
                                            eve_noise, out),
             lambda out: _variance(jam, out=out),
         ], np.empty(n_symbols), eve_rx, first=4)
    stats = {
        "n_symbols": int(n_symbols),
        "signal_power_emp": signal_power_emp,
        "jamming_power_emp": jamming_power_emp,
        "residual_jamming_power": residual_jamming_power,
        "bob_noise_var_emp": bob_noise_var,
        "eve_noise_var_emp": eve_noise_var,
        "delta_b": bob_q.step,
        "delta_e": eve_q.step,
        "bob_symbol_errors": symbol_errors,
        "bob_symbol_error_rate": symbol_errors / n_symbols,
        "bob_key_bit_errors": bit_errors,
        "bob_key_bits_covered": bits_covered,
        "bob_effective_snr": _snr(signal_power_emp, bob_error_var),
        "eve_pre_attack_snr": _snr(signal_power_emp, eve_pre_error_var),
        "eve_post_attack_snr": _snr(signal_power_emp, eve_post_error_var),
        "eve_residual_var": eve_residual_var,
        "insufficient_cancellation": bool(warnings),
    }
    for seq in (jam, bob_noise, eve_noise):
        seq.setflags(write=False)

    return SimTrace(params=params, cancel=cancel, key=key,
                    jamming_seed=jamming_seed, jam_scale=jam_scale,
                    jamming=jam, bob_noise=bob_noise, eve_noise=eve_noise,
                    stats=stats, warnings=tuple(warnings))


def _variance(x: np.ndarray, out: np.ndarray) -> float:
    """``float(np.var(x))`` bit for bit, for a 1-D float64 ``x``, by
    NumPy's own steps, but with the squared deviations formed in ``out``
    (which may be ``x`` itself) instead of a new full-length array."""
    n = len(x)
    mean = np.add.reduce(x, keepdims=True)
    np.true_divide(mean, n, out=mean)
    np.subtract(x, mean, out=out)
    np.square(out, out=out)
    return float(np.add.reduce(out) / n)


def _error_variance(observed: np.ndarray, amplitudes: np.ndarray,
                    out: np.ndarray) -> float:
    """Variance of the error ``observed - clean``, for the clean signal of
    the key's ``amplitudes``, formed in ``out`` (which may be ``observed``
    itself)."""
    return _variance(_subtract_key(observed, amplitudes, out), out=out)


def _residual_variance(observed: np.ndarray, amplitudes: np.ndarray,
                       noise: np.ndarray, out: np.ndarray) -> float:
    """Variance of what the error ``observed - clean`` holds beyond the
    channel ``noise``, formed in ``out`` (which may be ``observed``
    itself)."""
    error = _subtract_key(observed, amplitudes, out)
    return _variance(np.subtract(error, noise, out=error), out=error)


def _snr(signal_power_emp: float, err_var: float) -> float:
    """Empirical signal power over an error variance; infinite for an
    error-free observation."""
    if err_var == 0.0:
        return math.inf
    return signal_power_emp / err_var


def _use_errstate(err: dict, call) -> None:
    """Give the helper thread the caller's NumPy floating-point error
    handling (the CLI raises on overflow): a new thread starts with
    NumPy's defaults."""
    np.seterr(**err)
    np.seterrcall(call)


def _normal(rng: np.random.Generator, scale: float,
            out: np.ndarray) -> np.ndarray:
    """``rng.normal(0.0, scale, len(out))`` bit for bit, which forms
    0.0 + scale * z from the same stream of z, drawn into ``out``."""
    rng.standard_normal(out=out)
    np.multiply(out, scale, out=out)
    return np.add(out, 0.0, out=out)


def _share(pool: ThreadPoolExecutor, entries: list, scratch: np.ndarray,
           spare: np.ndarray, first: int) -> list:
    """Each entry's result, in list order. ``pool``'s one worker starts
    with entry ``first``, which may work in place in ``spare``; then the
    caller and the worker each take the next entry that neither has taken
    yet and call it with their own scratch buffer: the caller with
    ``scratch``, the worker with ``spare``. If entries fail, the exception
    of the first failing one in list order is raised, as a serial run
    would raise it."""
    results = [None] * len(entries)
    errors = [None] * len(entries)
    claims = iter([i for i in range(len(entries)) if i != first])
    claim = threading.Lock()

    def work(out: np.ndarray, i: int | None) -> None:
        while i is not None:
            try:
                results[i] = entries[i](out)
            except BaseException as exc:
                errors[i] = exc
            with claim:
                i = next(claims, None)

    helper = pool.submit(work, spare, first)
    with claim:
        i = next(claims, None)
    work(scratch, i)
    helper.result()
    for error in errors:
        if error is not None:
            raise error
    return results


def true_jamming_stream(trace: SimTrace) -> JammingStream:
    """The session's own jamming stream (what the eavesdropper holds once
    the phase-1 secret finally falls).

    Regeneration from ``trace.jamming_seed`` is deterministic, so the
    stream's ``symbols`` are ``trace.jamming`` itself, not a second
    derivation of the SHAKE-256 stream."""
    w = trace.params.jamming_bits_per_symbol
    if w == 0:
        raise ValueError("session ran without jamming")
    return JammingStream(seed=trace.jamming_seed, bits_per_symbol=w,
                         jam_scale=trace.jam_scale, symbols=trace.jamming)


@dataclass(frozen=True)
class EveAttackReport:
    """Outcome of the quantize-store-then-cancel attack: what is left
    between the cleaned-up record and the signal the eavesdropper wanted."""

    n_symbols: int
    residual_var: float
    pre_attack_snr: float
    post_attack_snr: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def eve_storage_attack(trace: SimTrace, jamming: JammingStream) -> EveAttackReport:
    """Subtract ``jamming`` from the eavesdropper's stored record.

    With the true stream this is the best possible store-now-decrypt-later
    outcome: everything left beyond channel noise is quantization loss,
    baked in at reception time. A wrong-seed stream only adds power.

    The session has already taken the statistics of that outcome
    (``trace.eve_post``), so for the session's own array
    (``jamming.symbols is trace.jamming``, as :func:`true_jamming_stream`
    returns) the report takes its statistics from ``trace.stats``. Any
    other stream, an equal copy included, is subtracted in full by the
    same rule.
    """
    if len(jamming.symbols) != len(trace):
        raise ValueError("jamming stream length does not match the trace")
    if jamming.symbols is trace.jamming:
        post_attack_snr = trace.stats["eve_post_attack_snr"]
        residual_var = trace.stats["eve_residual_var"]
    else:
        # One buffer, and nothing cached on the trace: the stored record
        # minus the stream is formed in it block by block, once for each
        # statistic. Like the session's statistics, these never form the
        # clean signal.
        amplitudes = _encode_key(trace.key, trace.params.signal_power)
        cleaned = trace._eve_record(np.empty(len(trace)),
                                    minus=jamming.symbols)
        post_attack_snr = _snr(trace.stats["signal_power_emp"],
                               _error_variance(cleaned, amplitudes,
                                               out=cleaned))
        trace._eve_record(cleaned, minus=jamming.symbols)
        residual_var = _residual_variance(cleaned, amplitudes,
                                          trace.eve_noise, out=cleaned)
    return EveAttackReport(
        n_symbols=len(trace),
        residual_var=residual_var,
        pre_attack_snr=trace.stats["eve_pre_attack_snr"],
        post_attack_snr=post_attack_snr,
    )
