"""The Monte-Carlo hot kernels: mid-rise quantization of both receivers and
unpacking of the SHAKE-256 jamming bit stream, in plain NumPy.

They stay in their own module, apart from ``adc`` and ``jamming``, so that
callers look them up as ``kernels.<name>`` and a profiler can wrap that
one attribute.
"""

import math

import numpy as np


def quantize_midrise(samples, step, full_scale):
    """Uniform mid-rise quantization with symmetric clipping.

    Reconstruction levels sit at ``(k + 0.5) * step``; inputs beyond
    ``[-full_scale, +full_scale]`` collapse to the outermost level.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    k = np.floor(x / step)
    k_top = float(math.ceil(full_scale / step)) - 1.0
    np.clip(k, -(k_top + 1.0), k_top, out=k)
    return (k + 0.5) * step


def unpack_symbols(raw, n_symbols, bits_per_symbol):
    """Split a big-endian bit stream into ``n_symbols`` unsigned integers.

    ``raw`` must hold at least ``n_symbols * bits_per_symbol`` bits.
    """
    total = n_symbols * bits_per_symbol
    if len(raw) * 8 < total:
        raise ValueError("bit stream too short for requested symbol count")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=total)
    weights = (1 << np.arange(bits_per_symbol - 1, -1, -1)).astype(np.int64)
    return bits.reshape(n_symbols, bits_per_symbol).astype(np.int64) @ weights
