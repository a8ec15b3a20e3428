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
    ``samples`` is never written to.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    levels = np.divide(x, step)
    np.floor(levels, out=levels)
    k_top = float(math.ceil(full_scale / step)) - 1.0
    np.clip(levels, -(k_top + 1.0), k_top, out=levels)
    levels += 0.5
    levels *= step
    return levels


# Bytes spanned by a symbol slot -> the width of the one load that reads it.
_LOAD_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def unpack_symbols(raw, n_symbols, bits_per_symbol):
    """Split a big-endian bit stream into ``n_symbols`` unsigned integers.

    ``raw`` must hold at least ``n_symbols * bits_per_symbol`` bits.
    Every ``8 / gcd(w, 8)`` symbols of ``w`` bits fill whole bytes, so
    each symbol slot of such a group sits at a fixed byte offset and bit
    shift within the group: its column is one strided big-endian load of
    1, 2, 4 or 8 bytes (offset + w is at most 39 bits), then one shift
    and one mask, straight into the int64 result. The last rows of a
    column, whose load would run past ``raw``, read a zero-padded copy of
    its last bytes instead.
    """
    w = bits_per_symbol
    if len(raw) * 8 < n_symbols * w:
        raise ValueError("bit stream too short for requested symbol count")
    data = np.frombuffer(raw, dtype=np.uint8)
    period = 8 // math.gcd(w, 8)
    group_bytes = w * period // 8
    words = np.empty(n_symbols, dtype=np.int64)
    for slot in range(min(period, n_symbols)):
        column = words[slot::period]
        first, offset = divmod(slot * w, 8)
        width = _LOAD_BYTES[(offset + w + 7) // 8]
        inside = min(len(column),
                     max(0, (len(data) - first - width) // group_bytes + 1))
        parts = [(column[:inside], data[first:])]
        if inside < len(column):
            tail = data[first + inside * group_bytes:]
            parts.append((column[inside:],
                          np.concatenate((tail, np.zeros(width, np.uint8)))))
        for part, buffer in parts:
            loaded = np.ndarray(len(part), f">u{width}", buffer,
                                strides=(group_bytes,))
            np.right_shift(loaded, 8 * width - offset - w, out=part,
                           casting="unsafe")
            if offset:
                part &= (1 << w) - 1
    return words
