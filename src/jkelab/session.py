"""End-to-end Monte-Carlo simulation of one jamming key-exchange session.

Discrete-time real baseband at symbol rate: the long-term key is encoded
as 2-PAM symbols (with plain repetition across the block), the seeded
jamming is added, each channel gets independent Gaussian noise, the
legitimate receiver cancels the regenerated jamming down to a residual set
by its cancellation depth and quantizes at its own resolution, and the
eavesdropper quantizes the raw jammed signal at the widened dynamic range
and stores it.

A session is one pass over chunks of ``jamming.CHUNK_SYMBOLS`` symbols,
so its memory does not grow with its length. Each channel's noise comes
from its own child of the session's seed (``SeedSequence.spawn``), drawn
chunk after chunk; one full draw gives the same values. Where the
process may run on more than one CPU, a one-worker helper thread fills
the next chunk's noise, one chunk ahead, while the caller works on this
one: it runs only the two generators' ``standard_normal`` fill loops
(NumPy's C loops, which release the GIL), into buffers the caller
allocated. The caller draws the first chunk (on one CPU, every chunk),
scales each draw to its channel's variance, and runs every ufunc,
quantizer, SHAKE-256 call and traced layer, under its own ``np.errstate``.
Each generator is drawn in chunk order, so every array and statistic
depends on ``CHUNK_SYMBOLS`` alone, not on the CPU count or thread timing,
and the helper has exited once a pass ends, however it ends. Every
variance is merged from the chunks' (n, mean, M2) by Chan, Golub &
LeVeque (1979); the error counts and key votes are exact sums. A trace
keeps what regenerates the session, not its arrays.

The non-storage assumption is structural: the storage attack only ever
sees the quantized record, never the pre-quantization waveform.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import adc, jamming
from .jamming import JammingStream, jamming_stream
from .params import KeyMaterial, SystemParams, check_symbol_count, validate
from .trace_rows import COLUMNS

# Cancellation headroom (bits) demanded beyond the jamming resolution
# before the residual is considered harmless; at zero headroom the residual
# lands at roughly signal level.
WARN_MARGIN_BITS = 2.0

INSUFFICIENT_CANCELLATION = "insufficient_cancellation"

# The children of a session's seed (SeedSequence.spawn): the jamming seed
# when none is given, then Bob's and Eve's channel noise.
_SEED, _BOB_NOISE, _EVE_NOISE = range(3)


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


def _generator(rng_seed, child: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(rng_seed, spawn_key=(child,)))


def _overlaps() -> bool:
    """Whether a helper thread may run beside this one: this process may
    run on more than one CPU (assumed where the affinity call is missing).
    On one CPU the two would only take turns."""
    if not hasattr(os, "sched_getaffinity"):
        return True
    return len(os.sched_getaffinity(0)) > 1


def _fill(generators: list, buffers: list) -> list:
    """Fill each buffer with its generator's standard normal draws, by
    NumPy's C loop alone: no allocation, no ufunc."""
    for rng, buf in zip(generators, buffers):
        rng.standard_normal(out=buf)
    return buffers


def _column(name: str) -> cached_property:
    """A trace's sequence ``name``: formed a chunk at a time into one new
    array on first read, then cached, read-only."""
    def form(self) -> np.ndarray:
        out = np.empty(len(self))
        with closing(self._chunks(bob=name.startswith("bob"),
                                  eve=name.startswith("eve"))) as chunks:
            for chunk in chunks:
                part = slice(chunk.start, chunk.start + len(chunk))
                out[part] = getattr(chunk, name)
        out.setflags(write=False)
        return out
    return cached_property(form)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-sample record of one session plus derived statistics.

    The trace keeps what regenerates the session (its parameters and
    seeds), its statistics and its warnings. Each of its nine sequences is
    formed on first read, a chunk at a time by the session's own
    operations, and then cached, read-only. They satisfy, exactly:
    ``clean_signal`` is the key's 2-PAM amplitudes repeated to the block
    length; ``jamming`` is ``true_jamming_stream(trace).symbols`` (zeros
    without jamming); ``bob_noise`` and ``eve_noise`` are the normal draws
    of children 1 and 2 of ``SeedSequence(rng_seed)``;
    ``bob_rx = (clean_signal + jamming) + bob_noise``;
    ``eve_rx = (clean_signal + jamming) + eve_noise``; ``bob_post`` is Bob's
    quantizer applied to ``bob_rx - jamming * (1 - a)`` for the residual
    amplitude factor ``a`` of his cancellation; ``eve_stored`` is Eve's
    quantizer applied to ``eve_rx``; and ``eve_post = eve_stored -
    jamming`` (the best-case storage attack). ``stats`` comes from the
    same chunks.
    """

    params: SystemParams
    cancel: CancellationModel
    key: KeyMaterial
    jamming_seed: KeyMaterial
    jam_scale: float
    rng_seed: int
    n_symbols: int
    stats: dict
    warnings: tuple

    clean_signal = _column("clean_signal")
    jamming = _column("jamming")
    bob_noise = _column("bob_noise")
    eve_noise = _column("eve_noise")
    bob_rx = _column("bob_rx")
    eve_rx = _column("eve_rx")
    bob_post = _column("bob_post")
    eve_stored = _column("eve_stored")
    eve_post = _column("eve_post")

    def __len__(self) -> int:
        return self.n_symbols

    def _chunks(self, bob: bool = False, eve: bool = False):
        """Each chunk of the session in order, with Bob's and Eve's noise
        drawn if asked for. A chunk takes the sequences this trace has
        formed already as slices of them; a noise among them is not drawn.

        This thread draws the first chunk's noise. Where ``_overlaps()``, a
        one-worker pool fills each later chunk's while the chunk before it
        is worked on, by ``_fill`` into buffers allocated here; otherwise
        this thread draws them too. The draws are scaled here.
        Close the generator once done with it (``contextlib.closing``): it
        shuts the pool down and waits for a pending draw on every exit."""
        # Loaded by the first pass, so that importing this module does not
        # load concurrent.futures (and logging).
        from concurrent.futures import ThreadPoolExecutor

        params = self.params
        formed = {name: self.__dict__[name] for name in COLUMNS
                  if name in self.__dict__}
        amplitudes = _encode_key(self.key, params.signal_power)
        stream = _own_stream(self) if params.jamming_bits_per_symbol else None
        draws = [(name, _generator(self.rng_seed, child), math.sqrt(var))
                 for name, child, var, wanted in (
                     ("bob_noise", _BOB_NOISE, params.bob_noise_var, bob),
                     ("eve_noise", _EVE_NOISE, params.eve_noise_var, eve))
                 if wanted and name not in formed]
        generators = [rng for _, rng, _ in draws]
        n, step = len(self), jamming.CHUNK_SYMBOLS
        helper = bool(draws) and _overlaps()

        def buffers(start: int) -> list:
            return [np.empty(min(step, n - start)) for _ in draws]

        # Leaving the pool's block shuts it down and waits for its worker,
        # however the pass ends; a pool given nothing starts no thread.
        with ThreadPoolExecutor(1, thread_name_prefix="jkelab-noise") as pool:
            ahead = None
            for index, start in enumerate(range(0, n, step)):
                noise = (_fill(generators, buffers(start)) if ahead is None
                         else ahead.result())
                if helper and start + step < n:
                    ahead = pool.submit(_fill, generators,
                                        buffers(start + step))
                size = min(step, n - start)
                chunk = _Chunk(self, index, start, size, amplitudes, stream)
                for name, seq in formed.items():
                    chunk.__dict__[name] = seq[start:start + size]
                for (name, _, sd), buf in zip(draws, noise):
                    # Generator.normal(0.0, sd) is 0.0 + sd * x, bit for
                    # bit; the sum also turns a -0.0 into +0.0.
                    buf *= sd
                    buf += 0.0
                    chunk.__dict__[name] = buf
                yield chunk


class _Chunk:
    """Chunk ``index`` of a trace's session: ``size`` symbols from
    ``start``. ``SimTrace._chunks`` gives it its channel noises, drawn in
    order; every other sequence is formed on first read, as ``SimTrace``
    states, unless it too is given."""

    def __init__(self, trace: SimTrace, index: int, start: int, size: int,
                 amplitudes: np.ndarray, stream: JammingStream | None):
        self.trace, self.index, self.start, self.size = trace, index, start, size
        self.amplitudes, self.stream = amplitudes, stream

    def __len__(self) -> int:
        return self.size

    @cached_property
    def clean_signal(self) -> np.ndarray:
        return _repeat_key(self.amplitudes, self.start, np.empty(self.size))

    @cached_property
    def jamming(self) -> np.ndarray:
        if self.stream is None:
            return np.zeros(self.size)
        return self.stream.chunk(self.index)

    @cached_property
    def sent(self) -> np.ndarray:
        return self.clean_signal + self.jamming

    @cached_property
    def bob_rx(self) -> np.ndarray:
        return self.sent + self.bob_noise

    @cached_property
    def eve_rx(self) -> np.ndarray:
        return self.sent + self.eve_noise

    @cached_property
    def bob_post(self) -> np.ndarray:
        # Analog-domain cancellation happens before the ADC, so the
        # quantizer only spans the useful signal plus whatever residual
        # survives.
        kept = 1.0 - self.trace.cancel.residual_amplitude_factor
        return adc.quantize(self.bob_rx - self.jamming * kept,
                            _bob_quantizer(self.trace.params))

    @cached_property
    def eve_stored(self) -> np.ndarray:
        return adc.quantize(self.eve_rx, _eve_quantizer(self.trace.params))

    @cached_property
    def eve_post(self) -> np.ndarray:
        return self.eve_stored - self.jamming


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
    """``seq`` as rows of ``n_bits`` symbols and the partial last row."""
    full = len(seq) - len(seq) % n_bits
    return seq[:full].reshape(-1, n_bits), seq[full:]


def _repeat_key(amplitudes: np.ndarray, start: int,
                out: np.ndarray) -> np.ndarray:
    """The clean signal at symbols ``start`` up to ``start + len(out)``,
    in ``out``: symbol j carries ``amplitudes[j % len(amplitudes)]``."""
    phase = start % len(amplitudes)
    head = out[:len(amplitudes) - phase]
    head[...] = amplitudes[phase:phase + len(head)]
    rows, tail = _rows(out[len(head):], len(amplitudes))
    rows[...] = amplitudes
    tail[...] = amplitudes[:len(tail)]
    return out


def _fold(values: np.ndarray, start: int, totals: np.ndarray) -> None:
    """Add the value of each symbol from ``start`` on to the total of its
    key bit: ``values[j]`` to ``totals[(start + j) % len(totals)]``."""
    phase = start % len(totals)
    head = values[:len(totals) - phase]
    totals[phase:phase + len(head)] += head
    rows, tail = _rows(values[len(head):], len(totals))
    if len(rows):
        totals += rows.sum(axis=0)
    totals[:len(tail)] += tail


def _bob_quantizer(params: SystemParams) -> adc.QuantizerConfig:
    return adc.QuantizerConfig.for_signal(
        params.signal_power, params.bob_bits(), params.dynamic_range_factor)


def _eve_quantizer(params: SystemParams) -> adc.QuantizerConfig:
    return adc.QuantizerConfig.for_jammed_signal(
        params.signal_power, params.eve_bits(),
        params.jamming_bits_per_symbol, params.dynamic_range_factor)


def _moments(x: np.ndarray, out: np.ndarray) -> tuple:
    """The mean of ``x`` and its sum of squared deviations (M2), by
    ``np.var``'s own steps, so ``M2 / len(x)`` is ``np.var(x)`` bit for
    bit. The deviations are formed in ``out``, which may be ``x``."""
    mean = np.add.reduce(x) / len(x)
    deviations = np.subtract(x, mean, out=out)
    return mean, np.add.reduce(np.square(deviations, out=deviations))


class _Moments:
    """Count, means and M2 of several series, taken in a chunk at a time
    and merged by Chan, Golub & LeVeque (1979)."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, None, None

    def add(self, m: int, parts: list) -> None:
        """Take in each series' next ``m`` values as their ``_moments``."""
        mean, m2 = np.array(parts).T
        if self.n:
            n = self.n + m
            delta = mean - self.mean
            mean = self.mean + delta * (m / n)
            m2 = self.m2 + m2 + delta * delta * (self.n * m / n)
        self.n += m
        self.mean, self.m2 = mean, m2

    def variances(self) -> list:
        return (self.m2 / self.n).tolist()


def _attack_moments(chunk: _Chunk, post: np.ndarray, x: np.ndarray,
                    y: np.ndarray) -> list:
    """The moments of Eve's error once the attack left ``post``, ``post -
    clean``, and of what that error holds beyond her channel noise,
    formed in the chunk-sized buffers ``x`` and ``y``."""
    error = np.subtract(post, chunk.clean_signal, out=x)
    residual = np.subtract(error, chunk.eve_noise, out=y)
    return [_moments(error, error), _moments(residual, residual)]


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
    w = params.jamming_bits_per_symbol
    if jamming_seed is None:
        jamming_seed = KeyMaterial(_generator(rng_seed, _SEED).bytes(32))
    if jam_scale is None:
        jam_scale = default_jam_scale(params)
    if w > 0:
        jamming_stream(jamming_seed, w, n_symbols, jam_scale)  # checks them

    warnings = []
    if w > 0 and cancel.residual_bits < w + WARN_MARGIN_BITS:
        warnings.append(
            f"{INSUFFICIENT_CANCELLATION}: Bob cannot cancel a {w}-bit jammer "
            f"with {cancel.depth_db:g} dB depth "
            f"({cancel.residual_bits:.2f} bits < w + {WARN_MARGIN_BITS:g})")
    trace = SimTrace(params=params, cancel=cancel, key=key,
                     jamming_seed=jamming_seed, jam_scale=jam_scale,
                     rng_seed=rng_seed, n_symbols=n_symbols, stats={},
                     warnings=tuple(warnings))
    trace.stats.update(_statistics(trace))
    return trace


def _statistics(trace: SimTrace) -> dict:
    """The session's statistics, from one pass over its chunks: seven
    variances merged from each chunk's moments, and Bob's sign errors and
    key votes summed (sums of -1/0/+1, so exact in any order)."""
    n, key = len(trace), trace.key
    moments = _Moments()
    votes = np.zeros(key.n_bits)
    symbol_errors = 0
    scratch = np.empty((2, min(n, jamming.CHUNK_SYMBOLS)))
    with closing(trace._chunks(bob=True, eve=True)) as chunks:
        for chunk in chunks:
            x, y = scratch[:, :len(chunk)]
            clean = chunk.clean_signal
            moments.add(len(chunk), [
                _moments(chunk.jamming, x), _moments(chunk.bob_noise, x),
                _moments(chunk.eve_noise, x),
                _moments(np.subtract(chunk.bob_post, clean, out=x), x),
                _moments(np.subtract(chunk.eve_rx, clean, out=x), x),
                *_attack_moments(chunk, chunk.eve_post, x, y)])
            signs = np.sign(chunk.bob_post, out=x)
            symbol_errors += int(np.count_nonzero(signs != np.sign(clean)))
            _fold(signs, chunk.start, votes)
    (jamming_power, bob_noise_var, eve_noise_var, bob_error_var,
     eve_pre_error_var, eve_post_error_var,
     eve_residual_var) = moments.variances()
    # Symbol j carries bit j mod n_bits, so exactly the first bits are covered.
    covered = min(n, key.n_bits)
    bit_errors = int(np.count_nonzero(
        (votes[:covered] > 0) != (key.bit_array()[:covered] == 1)))
    # Every symbol's power is the same, sqrt(P)^2.
    signal_power = math.sqrt(trace.params.signal_power) ** 2
    a = trace.cancel.residual_amplitude_factor
    return {
        "n_symbols": int(n),
        "signal_power_emp": signal_power,
        "jamming_power_emp": jamming_power,
        "residual_jamming_power": a * (a * jamming_power),
        "bob_noise_var_emp": bob_noise_var,
        "eve_noise_var_emp": eve_noise_var,
        "delta_b": _bob_quantizer(trace.params).step,
        "delta_e": _eve_quantizer(trace.params).step,
        "bob_symbol_errors": symbol_errors,
        "bob_symbol_error_rate": symbol_errors / n,
        "bob_key_bit_errors": bit_errors,
        "bob_key_bits_covered": covered,
        "bob_effective_snr": _snr(signal_power, bob_error_var),
        "eve_pre_attack_snr": _snr(signal_power, eve_pre_error_var),
        "eve_post_attack_snr": _snr(signal_power, eve_post_error_var),
        "eve_residual_var": eve_residual_var,
        "insufficient_cancellation": bool(trace.warnings),
    }


def _snr(signal_power_emp: float, err_var: float) -> float:
    """Empirical signal power over an error variance; infinite for an
    error-free observation."""
    if err_var == 0.0:
        return math.inf
    return signal_power_emp / err_var


def _own_stream(trace: SimTrace) -> JammingStream:
    return JammingStream(seed=trace.jamming_seed,
                         bits_per_symbol=trace.params.jamming_bits_per_symbol,
                         jam_scale=trace.jam_scale, n_symbols=len(trace))


def true_jamming_stream(trace: SimTrace) -> JammingStream:
    """The session's own jamming stream (what the eavesdropper holds once
    the phase-1 secret finally falls), regenerated from
    ``trace.jamming_seed``; its levels are formed only when read."""
    if trace.params.jamming_bits_per_symbol == 0:
        raise ValueError("session ran without jamming")
    return _own_stream(trace)


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

    The session has already taken the statistics of that outcome, so for
    a stream equal to its own (same seed, width, scale and length) the
    report takes them from ``trace.stats`` and reads no array. Any other
    stream is subtracted a chunk at a time, by the same operations.
    """
    if len(jamming) != len(trace):
        raise ValueError("jamming stream length does not match the trace")
    if trace.params.jamming_bits_per_symbol and jamming == _own_stream(trace):
        post_attack_snr = trace.stats["eve_post_attack_snr"]
        residual_var = trace.stats["eve_residual_var"]
    else:
        post_attack_snr, residual_var = _subtract(trace, jamming)
    return EveAttackReport(
        n_symbols=len(trace),
        residual_var=residual_var,
        pre_attack_snr=trace.stats["eve_pre_attack_snr"],
        post_attack_snr=post_attack_snr,
    )


def _subtract(trace: SimTrace, jamming: JammingStream) -> tuple:
    """Eve's post-attack SNR and residual variance once ``jamming`` is
    subtracted from her stored record, a chunk at a time."""
    moments = _Moments()
    with closing(trace._chunks(eve=True)) as chunks:
        for chunk, levels in zip(chunks, jamming.chunks()):
            post = chunk.eve_stored - levels
            moments.add(len(chunk), _attack_moments(chunk, post, post,
                                                    np.empty(len(chunk))))
    post_error_var, residual_var = moments.variances()
    return _snr(trace.stats["signal_power_emp"], post_error_var), residual_var
