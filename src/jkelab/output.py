"""File emission: plot-ready CSV for grids and traces, JSON for scalar
reports and grids. Serialization is canonical (sorted keys, repr-roundtrip
floats) so identical inputs always produce byte-identical files.

CSV byte contract: one header row, then one row per record; cells are
comma-separated and every line ends in CRLF; float cells are Python
``repr`` (the shortest string that round-trips the float64 exactly);
``None`` is an empty cell; booleans are lowercase ``true``/``false``.

JSON byte contract: a file is ``json.dumps(payload, indent=2,
sort_keys=True)`` plus a newline, and a sweep grid is written as that of
``grid_to_dict(grid)``, with ``Infinity``, ``-Infinity`` and ``NaN`` for
non-finite floats. A grid's cells skip ``json.dumps``: each is filled into
a ``%`` template. A rate grid's cells are ``RateCells``, a report per row
and per column plus the rates, so the values a cell takes from its row
(bandwidth, Bob's term, delta_b) or its column (Eve's term, delta_e) are
formatted once per row or column. Per cell, in the JSON as in the CSV, only
the rate is formatted, and ``positive`` is ``secrecy.positive_rate(rate)``.
A threshold grid's cells are ``ThresholdCells``, the SNRs with None where
a cell is infeasible: each threshold cell is one ``repr`` of its SNR, and
an infeasible cell is a constant string.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from . import trace_rows
from .secrecy import (RateSweepGrid, ThresholdKind, ThresholdSweepGrid,
                      positive_rate)

if TYPE_CHECKING:  # session loads NumPy; only write_trace_csv needs it
    from .session import SimTrace

# Rows formatted and written per file write, by the grid writers as by
# the trace's.
_BATCH_ROWS = trace_rows.BATCH_ROWS


def dump_json_str(payload) -> str:
    """``payload``, or a sweep grid, as JSON text (the contract above)."""
    return "".join(_grid_json(payload))


def write_json(path, payload) -> Path:
    """Write ``dump_json_str(payload)``, a grid a row of cells at a time."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_grid_json(payload))
    return path


def _write_csv(path, header, lines) -> Path:
    """Write ``header`` and then ``lines``, each ending in CRLF,
    ``_BATCH_ROWS`` at a time."""
    path = Path(path)
    lines = iter(lines)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        # Every line is non-empty, so an empty batch means the lines ran out.
        while batch := "".join(islice(lines, _BATCH_ROWS)):
            fh.write(batch)
    return path


def _blank_none(value) -> str:
    return "" if value is None else repr(value)


def write_record_csv(record: dict, path) -> Path:
    """``record`` as one header of its sorted keys and one row of cells."""
    keys = sorted(record)
    cells = ["true" if v is True else "false" if v is False else _blank_none(v)
             for v in map(record.get, keys)]
    return _write_csv(path, keys, [",".join(cells) + "\r\n"])


def _rate_csv_lines(grid: RateSweepGrid):
    """Each cell's CSV line: a column's values are formatted once, and a
    row's once into that row's line template, which takes the rate."""
    cells = grid.cells
    columns = [(repr(se), repr(eve.eve_term_bits), repr(eve.delta_e))
               for se, eve in zip(grid.eve_snr_db, cells.eve_reports)]
    for bob_snr, bob, rates in zip(grid.bob_snr_db, cells.bob_reports,
                                   cells.rates):
        template = "%s,%%s,%%r,%s,%%s,%s,%%s,%%s\r\n" % (
            repr(bob_snr), repr(bob.bob_term_bits), repr(bob.delta_b))
        for (se, eve_term, delta_e), rate in zip(columns, rates):
            yield template % (se, rate, eve_term, delta_e,
                              "true" if positive_rate(rate) else "false")


def write_rate_grid_csv(grid: RateSweepGrid, path) -> Path:
    """One row per cell, legitimate-SNR index outer."""
    return _write_csv(path, ("bob_snr_db", "eve_snr_db", "rate_bits_per_s",
                             "bob_term_bits", "eve_term_bits", "delta_b",
                             "delta_e", "positive"), _rate_csv_lines(grid))


def write_rate_contour_csv(grid: RateSweepGrid, path) -> Path:
    """The zero-rate crossing per eavesdropper-SNR column, as its threshold
    kind and SNR (an empty cell for a kind without one)."""
    lines = ("%r,%s,%s\r\n" % (se, crossing.kind.value,
                                _blank_none(crossing.snr_db))
             for se, crossing
             in zip(grid.eve_snr_db, grid.zero_crossing_bob_snr_db))
    return _write_csv(path, ("eve_snr_db", "kind", "min_bob_snr_db"), lines)


# The kind a threshold grid's cell is written with: a float SNR is a
# threshold, None is infeasible.
_THRESHOLD_TEXT = ThresholdKind.THRESHOLD.value
_INFEASIBLE_TEXT = ThresholdKind.INFEASIBLE.value


def _threshold_csv_lines(grid: ThresholdSweepGrid):
    """Each cell's CSV line from its row's two line templates, one per
    kind: a threshold cell formats its SNR, an infeasible one nothing."""
    jitters = [repr(jitter) for jitter in grid.eve_jitter_s]
    for w, snrs in zip(grid.jamming_bits, grid.cells.snr_db):
        threshold = "%d,%%s,%s,%%r\r\n" % (w, _THRESHOLD_TEXT)
        infeasible = "%d,%%s,%s,\r\n" % (w, _INFEASIBLE_TEXT)
        for jitter, snr in zip(jitters, snrs):
            yield (infeasible % jitter if snr is None
                   else threshold % (jitter, snr))


def write_threshold_grid_csv(grid: ThresholdSweepGrid, path) -> Path:
    """One row per cell, jamming-bits index outer; each SNR is formatted
    straight from ``grid.cells.snr_db``."""
    return _write_csv(path, ("jamming_bits_per_symbol", "eve_jitter_s",
                             "kind", "min_bob_snr_db"),
                      _threshold_csv_lines(grid))


def grid_to_dict(grid: RateSweepGrid | ThresholdSweepGrid) -> dict:
    """A sweep grid as JSON-ready data: each axis and the other fields as
    lists, each cell and each zero crossing through its ``to_dict()``."""
    out = {field.name: list(getattr(grid, field.name)) for field in fields(grid)
           if field.name != "cells"}
    out["cells"] = [[cell.to_dict() for cell in row] for row in grid.cells]
    if isinstance(grid, RateSweepGrid):
        out["zero_crossing_bob_snr_db"] = [
            crossing.to_dict() for crossing in grid.zero_crossing_bob_snr_db]
    return out


# Both names stay bound: callers (and profilers) look up the one for
# their grid kind.
rate_grid_to_dict = threshold_grid_to_dict = grid_to_dict

_INF = float("inf")


def _json_scalar(value) -> str:
    """A number, bool or None as ``json.dumps`` writes it."""
    if type(value) is float and -_INF < value < _INF:
        return repr(value)
    return "null" if value is None else json.dumps(value)


# One cell of a grid's JSON, keys sorted, at the depth json.dumps(indent=2)
# puts it: the grid object, then its "cells" list, then a row list.
_RATE_ROW = ('{\n        "bandwidth_hz": %s,\n        "bob_term_bits": %s,'
             '\n        "delta_b": %s,\n')
_RATE_COLUMN = '        "delta_e": %s,\n        "eve_term_bits": %s,\n'
_RATE_CELL = '%s%s        "positive": %s,\n        "rate_bits_per_s": %s\n      }'
_THRESHOLD_CELL = '{\n        "kind": %s,\n        "snr_db": %s\n      }'
_INFEASIBLE_JSON = _THRESHOLD_CELL % (json.dumps(_INFEASIBLE_TEXT), "null")
_THRESHOLD_JSON = _THRESHOLD_CELL % (json.dumps(_THRESHOLD_TEXT), "%s")


def _json_row(cells: list) -> str:
    """A row of formatted cells as json.dumps(indent=2) writes that list."""
    return "[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]"


def _rate_rows_json(grid: RateSweepGrid):
    cells = grid.cells
    columns = [_RATE_COLUMN % (_json_scalar(eve.delta_e),
                               _json_scalar(eve.eve_term_bits))
               for eve in cells.eve_reports]
    for bob, rates in zip(cells.bob_reports, cells.rates):
        row = _RATE_ROW % (_json_scalar(bob.bandwidth_hz),
                           _json_scalar(bob.bob_term_bits),
                           _json_scalar(bob.delta_b))
        yield _json_row([_RATE_CELL % (
            row, column, "true" if positive_rate(rate) else "false",
            _json_scalar(rate)) for column, rate in zip(columns, rates)])


def _threshold_rows_json(grid: ThresholdSweepGrid):
    return (_json_row([_INFEASIBLE_JSON if snr is None
                       else _THRESHOLD_JSON % _json_scalar(snr)
                       for snr in snrs]) for snrs in grid.cells.snr_db)


def _grid_json(payload):
    """``payload``'s JSON text in pieces: a sweep grid's other fields through
    ``to_dict`` and ``json.dumps``, then a piece per row of its cells."""
    if isinstance(payload, RateSweepGrid):
        to_dict, rows = rate_grid_to_dict, _rate_rows_json(payload)
    elif isinstance(payload, ThresholdSweepGrid):
        to_dict, rows = threshold_grid_to_dict, _threshold_rows_json(payload)
    else:
        yield json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return
    text = json.dumps(to_dict(replace(payload, cells=())), indent=2,
                      sort_keys=True) + "\n"
    head, _, tail = text.partition('"cells": []')
    opening = head + '"cells": [\n    '
    for row in rows:
        yield opening + row
        opening = ",\n    "
    # A grid without rows keeps its empty "cells" list.
    yield "\n  ]" + tail if opening == ",\n    " else text


def _trace_processes() -> int:
    """How many processes may format a trace: one per CPU this process may
    run on, or one where the affinity call is missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def write_trace_csv(trace: SimTrace, path) -> Path:
    """Columnar per-symbol dump of a session.

    The rows are split into N contiguous ranges, with N the processes
    ``_trace_processes`` allows (at most one per batch of ``_BATCH_ROWS``).
    This process formats the first range. Each other range goes to a child
    interpreter that runs ``trace_rows`` as a script: it reads the range's
    float64 columns from a temporary file and writes its rows to another,
    both unlinked and in the output's directory. This process then appends
    the children's rows in order, so the bytes do not depend on N. A child
    that exits non-zero is an ``OSError``. Every child has exited before
    this returns or raises. The rows go to ``.<name>.<pid>.partial`` beside
    ``path``, which becomes ``path`` only once every child has exited 0; a
    failed write removes it and leaves ``path`` as it was. The trace's
    derived columns are formed here, and the row count is the columns'.
    """
    # Only here, so importing the CLI loads no more modules.
    import shutil
    import subprocess
    import tempfile

    columns = [getattr(trace, name) for name in trace_rows.COLUMNS]
    n = len(columns[0])
    procs = max(1, min(_trace_processes(), -(-n // _BATCH_ROWS)))
    bounds = [n * k // procs for k in range(procs + 1)]
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with ExitStack() as stack:
            fh = stack.enter_context(partial.open("wb"))
            children = []  # (child, the file it writes its rows to), in order
            for start, stop in zip(bounds[1:], bounds[2:]):
                rows = stack.enter_context(
                    tempfile.TemporaryFile(dir=path.parent))
                with tempfile.TemporaryFile(dir=path.parent) as given:
                    for col in columns:
                        given.write(col[start:stop])
                    given.seek(0)
                    child = subprocess.Popen(
                        [sys.executable, "-I", "-S", trace_rows.__file__,
                         str(start), str(stop - start)], stdin=given,
                        stdout=rows)
                # The stack runs its callbacks last first: leaving it kills
                # each child and then waits on it, whether this returns or
                # raises.
                stack.callback(child.wait)
                stack.callback(child.kill)
                children.append((child, rows))
            fh.write(trace_rows.HEADER)
            trace_rows.write_rows(fh, [col[:bounds[1]] for col in columns], 0)
            for child, rows in children:
                if child.wait():
                    raise OSError(f"a trace writer process exited with "
                                  f"status {child.returncode}")
                rows.seek(0)
                shutil.copyfileobj(rows, fh)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path
