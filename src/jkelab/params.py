"""Shared domain types: operating points, ADC specs, SNR points, key material.

Everything here is an immutable value object; validation and unit
conversion only, no physics. All units are SI (Hz, seconds) except SNRs,
which are carried in dB.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, replace

from . import adc


# The widest jamming word, in bits, that every command supports.
MAX_BITS_PER_SYMBOL = 32


class ValidationError(ValueError):
    """An operating-point invariant is violated; message names the invariant."""


@dataclass(frozen=True)
class AdcSpec:
    """One receiver's ADC: rms aperture jitter, with an optional explicit
    amplitude-resolution override.

    When ``explicit_bits`` is unset, the effective number of bits is derived
    from the jitter at the system bandwidth (fractional, no rounding).
    """

    aperture_jitter_s: float
    explicit_bits: float | None = None

    def __post_init__(self):
        if not self.aperture_jitter_s > 0:
            raise ValidationError("aperture jitter must be positive")
        if self.explicit_bits is not None and not self.explicit_bits > 0:
            raise ValidationError("explicit bit resolution must be positive")

    def effective_bits(self, bandwidth_hz: float) -> float:
        if self.explicit_bits is not None:
            return self.explicit_bits
        return adc.enob_from_jitter(bandwidth_hz, self.aperture_jitter_s)


@dataclass(frozen=True)
class SnrPoint:
    """A channel SNR in dB. ``snr_db=None`` is the distinguished infinite
    SNR (noiseless channel); it is a real state, not a sentinel float, so
    noiseless-channel semantics never touch inf/NaN arithmetic.
    """

    snr_db: float | None

    def __post_init__(self):
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValidationError(
                "finite SNR required; use SnrPoint.infinite() for a noiseless channel")

    @classmethod
    def infinite(cls) -> "SnrPoint":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.snr_db is None


def snr_to_noise_var(snr: SnrPoint, signal_power: float) -> float:
    """Noise variance realizing ``snr`` at the given signal power (0 when
    the SNR is infinite). A finite SNR whose variance is not a positive
    finite float is rejected, never rounded to 0 or inf."""
    if not 0 < signal_power < math.inf:
        raise ValidationError("signal power must be positive and finite")
    if snr.is_infinite:
        return 0.0
    try:
        noise_var = signal_power / 10.0 ** (snr.snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        noise_var = math.nan
    if not 0 < noise_var < math.inf:
        raise ValidationError(
            f"SNR of {snr.snr_db!r} dB is out of range: its noise variance "
            f"at signal power {signal_power!r} is not a positive finite float")
    return noise_var


def noise_var_to_snr(noise_var: float, signal_power: float) -> SnrPoint:
    """Inverse of :func:`snr_to_noise_var`; zero variance maps to the
    infinite point."""
    if not signal_power > 0:
        raise ValidationError("signal power must be positive")
    if noise_var < 0:
        raise ValidationError("noise variance must be non-negative")
    if noise_var == 0:
        return SnrPoint.infinite()
    return SnrPoint(10.0 * math.log10(signal_power / noise_var))


@dataclass(frozen=True)
class KeyMaterial:
    """A fixed-length key as a packed big-endian bit string (8 bits/byte).

    Used both for the initial shared secret that seeds the jamming stream
    and for the long-term key carried by the masked transmission.
    """

    bits: bytes

    MIN_BITS = 128
    DEFAULT_BITS = 256

    def __post_init__(self):
        if len(self.bits) * 8 < self.MIN_BITS:
            raise ValidationError(
                f"key must be at least {self.MIN_BITS} bits long")

    @property
    def n_bits(self) -> int:
        return len(self.bits) * 8

    @classmethod
    def random(cls, n_bits: int = DEFAULT_BITS, seed: int | None = None) -> "KeyMaterial":
        """Deterministic when seeded; tests always seed."""
        if n_bits % 8 != 0:
            raise ValidationError("key length must be a whole number of bytes")
        rng = random.Random(seed)
        return cls(rng.randbytes(n_bits // 8))

    def bit_array(self):
        """Bits as a uint8 0/1 NumPy array, most significant bit first."""
        import numpy as np
        return np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8))

    def with_flipped_bit(self, index: int) -> "KeyMaterial":
        """Copy with bit ``index`` (MSB-first order) inverted; Hamming
        distance 1 from self."""
        if not 0 <= index < self.n_bits:
            raise IndexError("bit index out of range")
        buf = bytearray(self.bits)
        buf[index // 8] ^= 0x80 >> (index % 8)
        return KeyMaterial(bytes(buf))


@dataclass(frozen=True)
class SystemParams:
    """Full operating point of the jamming key exchange.

    ``signal_power`` is a normalized unit; all SNRs and quantizer
    resolutions are relative to it. ``eve_noise_var = 0`` models
    a noiseless eavesdropper channel. The jamming resolution is allowed to
    exceed Eve's effective bits (a legal, Eve-hostile configuration).
    """

    bandwidth_hz: float
    jamming_bits_per_symbol: int
    bob_adc: AdcSpec
    eve_adc: AdcSpec
    bob_noise_var: float
    eve_noise_var: float
    signal_power: float = 1.0
    dynamic_range_factor: float = 2.5

    def bob_bits(self) -> float:
        return self.bob_adc.effective_bits(self.bandwidth_hz)

    def eve_bits(self) -> float:
        return self.eve_adc.effective_bits(self.bandwidth_hz)

    def with_bob_noise_var(self, noise_var: float) -> "SystemParams":
        return replace(self, bob_noise_var=noise_var)

    def with_eve_noise_var(self, noise_var: float) -> "SystemParams":
        return replace(self, eve_noise_var=noise_var)


def check_jamming_bits(w, name: str = "jamming bits per symbol"):
    """``w`` itself, if every command supports it as a jamming word width:
    an integer in [0, MAX_BITS_PER_SYMBOL]."""
    # NumPy's integer types are numbers.Integral, and so is bool.
    if (isinstance(w, bool) or not isinstance(w, numbers.Integral)
            or not 0 <= w <= MAX_BITS_PER_SYMBOL):
        raise ValidationError(f"{name} must be an integer in "
                              f"[0, {MAX_BITS_PER_SYMBOL}], got {w!r}")
    return w


def check_symbol_count(n_symbols):
    """``n_symbols`` itself, if it can be a session's or a jamming
    stream's length: an integer of at least 1."""
    if (isinstance(n_symbols, bool)
            or not isinstance(n_symbols, numbers.Integral) or n_symbols < 1):
        raise ValidationError("symbol count must be an integer of at least "
                              f"1, got {n_symbols!r}")
    return n_symbols


def validate(params: SystemParams) -> SystemParams:
    """Check every operating-point invariant; raise on the first violation,
    naming it. Idempotent: returns ``params`` unchanged on success."""
    if not 0 < params.bandwidth_hz < math.inf:
        raise ValidationError("bandwidth must be positive and finite")
    if not 0 < params.signal_power < math.inf:
        raise ValidationError("signal power must be positive and finite")
    if not 0 < params.dynamic_range_factor < math.inf:
        raise ValidationError("dynamic range factor must be positive and finite")
    check_jamming_bits(params.jamming_bits_per_symbol)
    if not params.bob_noise_var >= 0:
        raise ValidationError("bob channel noise variance must be non-negative")
    if not params.eve_noise_var >= 0:
        raise ValidationError("eve channel noise variance must be non-negative")
    return params
