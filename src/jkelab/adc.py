"""Jitter-limited ADC model.

Covers the three closed forms that tie receiver hardware to the secrecy
analysis -- effective number of bits from aperture jitter, and the
quantization resolutions of the legitimate receiver and the eavesdropper --
plus the sample-level uniform quantizer the simulator runs on.

The eavesdropper cannot strip the jamming before conversion, so their ADC
must span signal + jamming: same step count, full scale widened by 2^w,
which is exactly a resolution loss of w bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI_E = 2.0 * math.pi * math.e


def enob_from_jitter(bandwidth_hz: float, aperture_jitter_s: float) -> float:
    """Achievable amplitude resolution (effective bits) of an ADC whose
    sampling instant has the given rms uncertainty, at the given signal
    bandwidth. Fractional; callers that need integer bits round themselves.
    """
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth must be positive")
    if not aperture_jitter_s > 0:
        raise ValueError("aperture jitter must be positive")
    product = 2.0 * math.pi * bandwidth_hz * aperture_jitter_s
    if not 0 < product < math.inf:
        raise ValueError(
            f"effective bits at bandwidth {bandwidth_hz!r} Hz and aperture "
            f"jitter {aperture_jitter_s!r} s are out of range: "
            "2*pi*bandwidth*jitter is not a "
            f"{'positive' if product == 0 else 'finite'} float")
    return -(20.0 * math.log10(product) + 1.76) / 6.02


def _dynamic_range(signal_power: float, dynamic_range_factor: float) -> float:
    """The range 2*l*sqrt(P) that a quantizer splits into 2^bits levels."""
    if not signal_power > 0:
        raise ValueError("signal power must be positive")
    if not dynamic_range_factor > 0:
        raise ValueError("dynamic range factor must be positive")
    return 2.0 * dynamic_range_factor * math.sqrt(signal_power)


def _valid_step(step: float) -> bool:
    """Whether ``step`` and its square (the secrecy bound's step^2 terms)
    are positive finite floats."""
    return 0 < step < math.inf and 0 < step * step < math.inf


def _checked_step(dynamic_range: float, bits: float,
                  dynamic_range_factor: float) -> float:
    """``dynamic_range`` split into 2^bits levels; a step that fails
    :func:`_valid_step` is rejected rather than rounded to 0 or inf."""
    try:
        step = dynamic_range / 2.0 ** bits
    except (OverflowError, ZeroDivisionError):  # 2^bits beyond the float range
        step = math.nan
    if not _valid_step(step):
        raise ValueError(
            f"quantizer step at {bits!r} bits and dynamic range factor "
            f"{dynamic_range_factor!r} is out of range: it or its square is "
            "not a positive finite float")
    return step


def bob_resolution(signal_power: float, bits: float,
                   dynamic_range_factor: float) -> float:
    """Quantization step of the legitimate receiver: the dynamic range
    2*l*sqrt(P) split into 2^bits levels, checked by :func:`_checked_step`."""
    return _checked_step(_dynamic_range(signal_power, dynamic_range_factor),
                         bits, dynamic_range_factor)


def _check_jamming_bits(jamming_bits_per_symbol: int) -> None:
    if not jamming_bits_per_symbol >= 0:
        raise ValueError("jamming bits per symbol must be non-negative")


def eve_resolution(signal_power: float, bits: float,
                   jamming_bits_per_symbol: int,
                   dynamic_range_factor: float) -> float:
    """Quantization step of the eavesdropper, who must span signal plus a
    w-bit jamming signal: effectively ``bits - w`` usable bits.

    ``bits - w <= 0`` is legal and yields a step at least as wide as the
    whole signal range -- devastating for the eavesdropper.
    """
    _check_jamming_bits(jamming_bits_per_symbol)
    return bob_resolution(signal_power, bits - jamming_bits_per_symbol,
                          dynamic_range_factor)


def _all_valid(rows: list) -> bool:
    """Whether every step in ``rows`` passes :func:`_valid_step`: a NaN
    step makes their sum NaN, and the check holds on every step between
    the smallest and the largest when it holds on both."""
    return not any(rows) or (not math.isnan(sum(map(sum, rows)))
                             and _valid_step(min(map(min, rows)))
                             and _valid_step(max(map(max, rows))))


def eve_resolutions(signal_power: float, bits, jamming_bits,
                    dynamic_range_factor: float) -> list:
    """:func:`eve_resolution` over a grid: a list per w of the sequence
    ``jamming_bits``, holding the step at each of the sequence ``bits``.

    The dynamic range is taken once and the steps are checked together. A
    grid that fails raises for its first failing step, row by row, as a
    loop over :func:`eve_resolution` would.
    """
    for w in jamming_bits:
        _check_jamming_bits(w)
    dynamic_range = _dynamic_range(signal_power, dynamic_range_factor)
    try:
        rows = [[dynamic_range / 2.0 ** (b - w) for b in bits]
                for w in jamming_bits]
    except (OverflowError, ZeroDivisionError):  # 2^(b - w) beyond the float range
        rows = None
    if rows is None or not _all_valid(rows):
        for w in jamming_bits:
            for b in bits:
                _checked_step(dynamic_range, b - w, dynamic_range_factor)
    return rows


@dataclass(frozen=True)
class QuantizerConfig:
    """A concrete uniform mid-rise quantizer: its step, and the half-width
    ``full_scale`` of the range [-full_scale, +full_scale] it spans.

    The two constructors take the step from :func:`bob_resolution` and
    :func:`eve_resolution`, so the simulator quantizes at exactly the
    steps the secrecy bound uses. The step may exceed the whole range
    (zero or negative effective bits); every sample then lands on one of
    the two outermost levels.
    """

    step: float
    full_scale: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("quantizer step must be positive")
        if not self.full_scale > 0:
            raise ValueError("quantizer full scale must be positive")

    @classmethod
    def for_signal(cls, signal_power: float, bits: float,
                   dynamic_range_factor: float) -> "QuantizerConfig":
        """Legitimate-receiver quantizer: full scale l*sqrt(P), step
        :func:`bob_resolution`."""
        return cls(step=bob_resolution(signal_power, bits, dynamic_range_factor),
                   full_scale=dynamic_range_factor * math.sqrt(signal_power))

    @classmethod
    def for_jammed_signal(cls, signal_power: float, bits: float,
                          jamming_bits_per_symbol: int,
                          dynamic_range_factor: float) -> "QuantizerConfig":
        """Eavesdropper quantizer: full scale widened by 2^w to span the
        jammed sum at the same step count; step :func:`eve_resolution`."""
        return cls(step=eve_resolution(signal_power, bits,
                                       jamming_bits_per_symbol,
                                       dynamic_range_factor),
                   full_scale=(dynamic_range_factor * math.sqrt(signal_power)
                               * 2.0 ** jamming_bits_per_symbol))


def quantize(samples, config: QuantizerConfig):
    """Uniform mid-rise quantization of ``samples`` with step ``config.step``
    over [-full_scale, +full_scale]; out-of-range inputs clip to the
    outermost reconstruction level. Empty input yields empty output.
    Returns a NumPy array; NumPy is imported here, not with the module,
    so the closed forms above load without it.
    """
    import numpy as np

    from . import kernels
    return kernels.quantize_midrise(np.ravel(samples), config.step,
                                    config.full_scale)
