"""Seeded pseudo-random jamming generation.

Symbols are w-bit words drawn from a SHAKE-256 extendable-output stream
keyed by the shared initial secret, mapped onto 2^w uniform amplitude
levels. Regeneration from the same (seed, w, length) is bit-identical,
which is exactly what lets the legitimate receiver cancel the jamming and
denies the eavesdropper anything from a near-miss seed: one flipped seed
bit decorrelates the whole stream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import KeyMaterial, check_jamming_bits, check_symbol_count

_DOMAIN = b"jkelab-jamming-v1"


@dataclass(frozen=True, eq=False)
class JammingStream:
    """A fully materialized jamming signal plus everything needed to
    regenerate it."""

    seed: KeyMaterial
    bits_per_symbol: int
    jam_scale: float
    symbols: np.ndarray  # float64 levels in [-jam_scale, +jam_scale]


def jamming_stream(seed: KeyMaterial, bits_per_symbol: int, n_symbols: int,
                   jam_scale: float) -> JammingStream:
    """Generate ``n_symbols`` jamming symbols of ``bits_per_symbol`` bits
    each, uniform over 2^w levels spanning [-jam_scale, +jam_scale]."""
    w = check_jamming_bits(bits_per_symbol, "bits per symbol")
    if w < 1:
        raise ValueError("bits per symbol must be at least 1")
    check_symbol_count(n_symbols)
    if not 0 < jam_scale < math.inf:
        raise ValueError("jamming scale must be positive and finite")

    xof = hashlib.shake_256(_DOMAIN + bytes([w]) + seed.bits)
    raw = xof.digest((n_symbols * w + 7) // 8)
    words = kernels.unpack_symbols(raw, n_symbols, w)
    top = float(2 ** w - 1)
    symbols = np.multiply(words, 2.0)
    symbols -= top
    symbols /= top
    symbols *= jam_scale
    symbols.setflags(write=False)
    return JammingStream(seed=seed, bits_per_symbol=w, jam_scale=jam_scale,
                         symbols=symbols)
