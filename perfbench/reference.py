"""Fixed reference tasks that time the machine between a round's parts.

The measuring machine is a shared VM whose speed drifts by up to 2x over
tens of seconds while the guest sees almost no steal time. A round's wall
time alone therefore says as much about the neighbours as about jkelab.
A reference task is interleaved with each round's timed parts. It does
the same kind of work as the workload (pure-Python float math and
formatting, or NumPy passes over large arrays) but never touches jkelab,
so it stays the same from commit to commit. The ratio of round time to
reference time cancels most of the drift; see README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

_perf = time.perf_counter
# Sizes that make each task take about 0.1 s on the measuring machine.
PYTHON_ROWS = 6000
NUMPY_VALUES = 1_000_000


@dataclass(frozen=True)
class _Point:
    signal: float
    bob_noise: float
    eve_noise: float


class PythonReference:
    """Per-row parameter copies and float math, CSV rows of ``repr`` floats
    and an indented JSON dump, in the interpreter: the kind of work the
    secrecy engine, the CLI commands and the writers do."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.table = rng.standard_normal((PYTHON_ROWS, 5)).tolist()

    def __call__(self) -> float:
        start = _perf()
        buf = io.StringIO()
        writer = csv.writer(buf)
        cells = []
        base = _Point(1.0, 1e-2, 1e-3)
        for index, row in enumerate(self.table):
            a, b, c, d, e = row
            point = replace(base, bob_noise=1e-2 * (1.0 + a * a), eve_noise=1e-3 * (1.0 + b * b))
            snr_db = 10.0 * math.log10(point.signal / point.bob_noise)
            rate = (math.log2(1.0 + 10.0 ** (snr_db / 10.0))
                    - math.log2(1.0 + point.signal / point.eve_noise))
            writer.writerow([str(index), repr(a), repr(b), repr(c), repr(d),
                             repr(e), repr(rate)])
            if index % 2 == 0:
                cells.append({"snr_db": snr_db, "rate": rate, "positive": rate > 0.0})
        json.dumps({"cells": cells}, indent=1)
        return _perf() - start


class NumpyReference:
    """Gaussian draws, bit-weight dot products, mid-rise quantisation and
    reductions over arrays of float64 values: the kind of work a large
    session does."""

    def __call__(self) -> float:
        start = _perf()
        n = NUMPY_VALUES
        rng = np.random.default_rng(12345)
        signal = rng.standard_normal(n)
        noise = rng.normal(0.0, 0.1, n)
        bits = rng.integers(0, 2, size=(n, 8), dtype=np.uint8)
        symbols = bits @ (1 << np.arange(8, dtype=np.int64))
        received = signal + noise + symbols * 1e-3
        levels = np.clip(np.floor(received / 0.05) + 0.5, -64, 63) * 0.05
        residual = received - levels
        float(residual @ residual)
        return _perf() - start
