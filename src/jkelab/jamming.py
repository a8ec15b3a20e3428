"""Seeded pseudo-random jamming generation.

Symbols are w-bit words drawn from SHAKE-256 in counter mode, keyed by the
shared initial secret, and mapped onto 2^w uniform amplitude levels. Chunk
c of a stream (symbols c*CHUNK_SYMBOLS up to the next chunk) is its own
SHAKE-256 output. Its input is framed as NIST SP 800-185 frames cSHAKE's:
``bytepad(encode_string("") || encode_string(S), 136)`` with the
customization string S = the ``jkelab-jamming-v2`` domain and the byte w,
then ``encode_string(seed) || left_encode(c)``. It is hashed with plain
SHAKE-256 padding, which hashlib offers; cSHAKE's own padding differs.

Regeneration from the same (seed, w, length) is bit-identical, which is
exactly what lets the legitimate receiver cancel the jamming and denies
the eavesdropper anything from a near-miss seed: one flipped seed bit
decorrelates the whole stream. A chunk's words do not depend on the
stream's length, so a longer stream extends a shorter one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .params import KeyMaterial, check_jamming_bits, check_symbol_count

_DOMAIN = b"jkelab-jamming-v2"
_RATE = 136  # SHAKE-256's rate in bytes, bytepad's width

# Symbols per chunk: of the jamming's counter blocks, and of every pass a
# session makes (its noise draws, its receivers and its statistics, whose
# merge order follows the chunks). A session's results depend on it.
CHUNK_SYMBOLS = 1 << 16


def _left_encode(x: int) -> bytes:
    """SP 800-185 left_encode: the byte count of ``x``, then ``x`` big-endian."""
    body = x.to_bytes(max(1, (x.bit_length() + 7) // 8), "big")
    return bytes([len(body)]) + body


def _encode_string(s: bytes) -> bytes:
    return _left_encode(8 * len(s)) + s


def _bytepad(x: bytes) -> bytes:
    padded = _left_encode(_RATE) + x
    return padded + bytes(-len(padded) % _RATE)


@dataclass(frozen=True)
class JammingStream:
    """A jamming signal as everything that regenerates it. Two streams are
    equal when those are. Its levels are formed a chunk at a time; the
    whole signal, ``symbols``, only on first read."""

    seed: KeyMaterial
    bits_per_symbol: int
    jam_scale: float
    n_symbols: int

    def __len__(self) -> int:
        return self.n_symbols

    @cached_property
    def _absorbed(self):
        """The XOF with everything but the counter absorbed."""
        w = self.bits_per_symbol
        return hashlib.shake_256(
            _bytepad(_encode_string(b"") + _encode_string(_DOMAIN + bytes([w])))
            + _encode_string(self.seed.bits))

    def chunk(self, index: int) -> np.ndarray:
        """The float64 levels, in [-jam_scale, +jam_scale], of chunk
        ``index``: symbols ``index * CHUNK_SYMBOLS`` up to the next chunk or
        the end of the stream."""
        w = self.bits_per_symbol
        size = min(CHUNK_SYMBOLS, self.n_symbols - index * CHUNK_SYMBOLS)
        xof = self._absorbed.copy()
        xof.update(_left_encode(index))
        words = kernels.unpack_symbols(xof.digest((size * w + 7) // 8), size, w)
        top = float(2 ** w - 1)
        levels = np.multiply(words, 2.0)
        levels -= top
        levels /= top
        levels *= self.jam_scale
        return levels

    def chunks(self):
        """Each chunk's levels, in order."""
        return map(self.chunk, range(-(-self.n_symbols // CHUNK_SYMBOLS)))

    @cached_property
    def symbols(self) -> np.ndarray:
        """The whole signal, read-only."""
        out = np.empty(self.n_symbols)
        for index, levels in enumerate(self.chunks()):
            out[index * CHUNK_SYMBOLS:][:len(levels)] = levels
        out.setflags(write=False)
        return out


def jamming_stream(seed: KeyMaterial, bits_per_symbol: int, n_symbols: int,
                   jam_scale: float) -> JammingStream:
    """The stream of ``n_symbols`` jamming symbols of ``bits_per_symbol``
    bits each, uniform over 2^w levels spanning [-jam_scale, +jam_scale]."""
    w = check_jamming_bits(bits_per_symbol, "bits per symbol")
    if w < 1:
        raise ValueError("bits per symbol must be at least 1")
    check_symbol_count(n_symbols)
    if not 0 < jam_scale < math.inf:
        raise ValueError("jamming scale must be positive and finite")
    return JammingStream(seed=seed, bits_per_symbol=w, jam_scale=jam_scale,
                         n_symbols=n_symbols)
