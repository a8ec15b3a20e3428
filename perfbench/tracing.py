"""Span recording around jkelab's layer boundaries, from outside the package.

The benchmark never edits ``src/``. Instead, :meth:`Tracer.installed`
replaces each public function listed in :data:`LAYERS` at the module
attribute its caller looks up (``jkelab.session.jamming_stream``, not
``jkelab.jamming.jamming_stream``, because ``session`` imported the name)
and restores the originals on exit. Each call becomes a span: name,
start, end and parent, kept in flat arrays and written out once the run
ends. A name that no longer exists is reported as absent, with zero
calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_perf = time.perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(args, kwargs, result):
    return {"bytes": float(Path(result).stat().st_size)}


def _symbols(args, kwargs, result):
    return {"symbols": float(_arg(args, kwargs, 3, "n_symbols"))}


def _rate_cells(args, kwargs, result):
    return {"cells": float(len(_arg(args, kwargs, 1, "bob_snr_db"))
                           * len(_arg(args, kwargs, 2, "eve_snr_db")))}


def _threshold_cells(args, kwargs, result):
    return {"cells": float(len(_arg(args, kwargs, 1, "jamming_bits"))
                           * len(_arg(args, kwargs, 2, "eve_jitter_s")))}


# Computed kernel traffic (HPC convention: array sizes, cache misses
# ignored). quantize_midrise reads and writes one float64 per sample and
# does ~6 operations on it (divide, floor, two clip compares, add,
# multiply). unpack_symbols reads w bits and writes one int64 per symbol;
# its dot product with the bit weights is w multiplies and w adds.
def _quantize_traffic(args, kwargs, result):
    n = float(np.size(_arg(args, kwargs, 0, "samples")))
    return {"bytes": 16.0 * n, "ops": 6.0 * n}


def _unpack_traffic(args, kwargs, result):
    n = float(_arg(args, kwargs, 1, "n_symbols"))
    w = float(_arg(args, kwargs, 2, "bits_per_symbol"))
    return {"bytes": n * w / 8.0 + 8.0 * n, "ops": 2.0 * w * n}


class _KemPairing:
    """Counts decapsulations that return the key last encapsulated."""

    def __init__(self):
        self.last_key = None

    def encapsulate(self, args, kwargs, result):
        self.last_key = _arg(args, kwargs, 1, "key")
        return {}

    def decapsulate(self, args, kwargs, result):
        ok = self.last_key is not None and result == self.last_key
        self.last_key = None
        return {"ok": 1.0 if ok else 0.0}


# (span name, [(module, attribute), ...], counter hook or None).
# A hook sees (args, kwargs, result) and returns counters to add up.
LAYERS = (
    ("cli.main", [("jkelab.cli", "main")], None),
    ("cli.analyze", [("jkelab.cli", "cmd_analyze")], None),
    ("cli.sweep", [("jkelab.cli", "cmd_sweep")], None),
    ("cli.simulate", [("jkelab.cli", "cmd_simulate")], None),
    ("cli.race", [("jkelab.cli", "cmd_race")], None),
    ("config", [("jkelab.config", name) for name in
                ("load_config", "parse_system", "parse_axis",
                 "system_to_dict")], None),
    ("kem.keygen", [("jkelab.kem", "keygen")], None),
    ("kem.encapsulate", [("jkelab.kem", "encapsulate")], "kem.encapsulate"),
    ("kem.decapsulate", [("jkelab.kem", "decapsulate")], "kem.decapsulate"),
    ("session.run_jke_session", [("jkelab.cli", "run_jke_session"),
                                 ("jkelab.session", "run_jke_session")],
     _symbols),
    ("session.true_jamming_stream", [("jkelab.cli", "true_jamming_stream"),
                                     ("jkelab.session", "true_jamming_stream")],
     None),
    ("session.eve_storage_attack", [("jkelab.cli", "eve_storage_attack"),
                                    ("jkelab.session", "eve_storage_attack")],
     None),
    ("jamming.jamming_stream", [("jkelab.session", "jamming_stream")], None),
    ("kernels.unpack_symbols", [("jkelab.kernels", "unpack_symbols")],
     _unpack_traffic),
    ("kernels.quantize_midrise", [("jkelab.kernels", "quantize_midrise")],
     _quantize_traffic),
    ("adc.quantize", [("jkelab.adc", "quantize")], None),
    ("secrecy.sweep_rate_vs_snr", [("jkelab.cli", "sweep_rate_vs_snr")],
     _rate_cells),
    ("secrecy.sweep_min_bob_snr", [("jkelab.cli", "sweep_min_bob_snr")],
     _threshold_cells),
    ("secrecy.secrecy_rate", [("jkelab.cli", "secrecy_rate"),
                              ("jkelab.secrecy", "secrecy_rate")], None),
    ("secrecy.min_bob_snr_for_positive_rs",
     [("jkelab.secrecy", "min_bob_snr_for_positive_rs")], None),
    ("output.write_trace_csv", [("jkelab.output", "write_trace_csv")],
     _file_bytes),
    ("output.write_rate_grid_csv", [("jkelab.output", "write_rate_grid_csv")],
     _file_bytes),
    ("output.write_rate_contour_csv",
     [("jkelab.output", "write_rate_contour_csv")], _file_bytes),
    ("output.write_threshold_grid_csv",
     [("jkelab.output", "write_threshold_grid_csv")], _file_bytes),
    ("output.grid_to_dict", [("jkelab.output", "rate_grid_to_dict"),
                             ("jkelab.output", "threshold_grid_to_dict")], None),
    ("output.write_json", [("jkelab.output", "write_json")], _file_bytes),
    ("output.dump_json_str", [("jkelab.output", "dump_json_str")], None),
    ("race", [("jkelab.race", name) for name in
              ("race_verdict", "get_preset", "year_for_jitter")], None),
)

KERNELS = ("kernels.unpack_symbols", "kernels.quantize_midrise")
FILE_WRITERS = tuple(name for name, _, hook in LAYERS if hook is _file_bytes)
ROOT = "round"


class Tracer:
    """In-memory span store. One thread, so a plain stack gives parents."""

    def __init__(self):
        self.names = [ROOT] + [name for name, _, _ in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.counters = {}
        self.absent = set()
        self._stack = [-1]
        self._kem = _KemPairing()

    def _open(self, name_id):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def round(self):
        """Root span around one traced round of a workload."""
        idx = self._open(0)
        t0 = _perf()
        try:
            yield
        finally:
            self._close(idx, t0, _perf())

    def _count(self, name, values):
        for key, value in values.items():
            self.counters[(name, key)] = self.counters.get((name, key), 0.0) + value

    def _wrap(self, name, fn, hook):
        name_id = self._ids[name]
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(name_id)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx, t0, _perf())
            if hook is not None:
                self._count(name, hook(args, kwargs, result))
            return result

        return traced

    def _hook(self, hook):
        if hook == "kem.encapsulate":
            return self._kem.encapsulate
        if hook == "kem.decapsulate":
            return self._kem.decapsulate
        return hook

    @contextmanager
    def installed(self):
        """Wrap every present layer function; restore them all on exit."""
        saved = []
        try:
            for name, targets, hook in LAYERS:
                found = False
                for module_name, attr in targets:
                    try:
                        module = importlib.import_module(module_name)
                        fn = getattr(module, attr)
                    except (ImportError, AttributeError):
                        continue
                    found = True
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, self._hook(hook)))
                if not found:
                    self.absent.add(name)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        return start, end, parent, name

    def save(self, path) -> None:
        start, end, parent, name = self.arrays()
        np.savez(path, start=start, end=end, parent=parent, name=name,
                 names=np.array(self.names))

    def layer_metrics(self) -> dict:
        """Per-layer metrics normalised per traced round:
        ``<layer>.calls``, ``<layer>.s`` (busy) and ``<layer>.self_s`` (busy
        minus the time its child spans cover), plus the counters."""
        start, end, parent, name = self.arrays()
        dur = end - start
        n = len(dur)
        child_time = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                                 minlength=n)[:n] if n else np.zeros(0)
        self_time = dur - child_time
        # A span nested in one of the same name (recursion) is not busy
        # time on its own.
        nested = np.zeros(n, dtype=bool)
        has_parent = parent >= 0
        nested[has_parent] = name[parent[has_parent]] == name[has_parent]
        rounds = max(int(np.sum(name == 0)), 1)
        out = {"rounds": rounds}
        for i, layer in enumerate(self.names[1:], start=1):
            mask = name == i
            out[f"{layer}.calls"] = float(np.sum(mask)) / rounds
            out[f"{layer}.s"] = float(np.sum(dur[mask & ~nested])) / rounds
            out[f"{layer}.self_s"] = float(np.sum(self_time[mask])) / rounds
            if layer in KERNELS:
                calls = int(np.sum(mask))
                nbytes = self.counters.get((layer, "bytes"), 0.0)
                ops = self.counters.get((layer, "ops"), 0.0)
                median = float(np.median(dur[mask])) if calls else 0.0
                busy = float(np.sum(dur[mask]))
                out[f"{layer}.median_call_s"] = median
                out[f"{layer}.computed_bytes_per_call"] = nbytes / calls if calls else 0.0
                out[f"{layer}.computed_ops_per_call"] = ops / calls if calls else 0.0
                out[f"{layer}.computed_gb_per_s"] = nbytes / busy / 1e9 if busy else 0.0
        out["session.symbols"] = self.counters.get(
            ("session.run_jke_session", "symbols"), 0.0) / rounds
        decaps = out["kem.decapsulate.calls"] * rounds
        out["kem.roundtrip_ok_ratio"] = (
            self.counters.get(("kem.decapsulate", "ok"), 0.0) / decaps
            if decaps else 0.0)
        cells = sum(self.counters.get((layer, "cells"), 0.0)
                    for layer in ("secrecy.sweep_rate_vs_snr",
                                  "secrecy.sweep_min_bob_snr"))
        sweep_s = (out["secrecy.sweep_rate_vs_snr.s"]
                   + out["secrecy.sweep_min_bob_snr.s"]) * rounds
        out["secrecy.cells"] = cells / rounds
        out["secrecy.us_per_cell"] = sweep_s / cells * 1e6 if cells else 0.0
        written = sum(self.counters.get((layer, "bytes"), 0.0)
                      for layer in FILE_WRITERS)
        writer_s = sum(out[f"{layer}.s"] for layer in FILE_WRITERS) * rounds
        out["output.mb_written"] = written / 1e6 / rounds
        out["output.mb_per_s"] = written / 1e6 / writer_s if writer_s else 0.0
        # Share of the root spans' time spent inside a jkelab layer.
        roots = name == 0
        top = has_parent & roots[np.where(has_parent, parent, 0)]
        root_time = float(np.sum(dur[roots]))
        out["trace.covered_share"] = (float(np.sum(dur[top])) / root_time
                                      if root_time else 0.0)
        out["trace.spans"] = float(n) / rounds
        return out
