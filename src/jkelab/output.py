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
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .secrecy import (RateSweepGrid, ThresholdKind, ThresholdSweepGrid,
                      positive_rate)

if TYPE_CHECKING:  # session loads NumPy; only write_trace_csv needs it
    from .session import SimTrace

# Rows formatted and written per file write: large enough to amortise the
# per-write cost, small enough that a long trace never sits in memory.
_BATCH_ROWS = 1024


def dump_json_str(payload) -> str:
    """``payload``, or a sweep grid, as JSON text (the contract above)."""
    return "".join(_grid_json(payload))


def write_json(path, payload) -> Path:
    """Write ``dump_json_str(payload)``, a grid a row of cells at a time."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_grid_json(payload))
    return path


def _write_csv(path, header, template: str, rows) -> Path:
    """Write ``header`` and then each row tuple of ``rows`` through the
    ``%`` line ``template`` (which ends in CRLF), ``_BATCH_ROWS`` at a time."""
    path = Path(path)
    rows = iter(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        # Every line is non-empty, so an empty batch means the rows ran out.
        while batch := "".join([template % row
                                for row in islice(rows, _BATCH_ROWS)]):
            fh.write(batch)
    return path


def _blank_none(value) -> str:
    return "" if value is None else repr(value)


def _rate_csv_rows(grid: RateSweepGrid):
    """Each cell's CSV row: the row's and the column's values formatted once,
    the rate per cell."""
    cells = grid.cells
    columns = [(repr(se), repr(eve.eve_term_bits), repr(eve.delta_e))
               for se, eve in zip(grid.eve_snr_db, cells.eve_reports)]
    for bob_snr, bob, rates in zip(grid.bob_snr_db, cells.bob_reports,
                                   cells.rates):
        sb, bob_term, delta_b = (repr(bob_snr), repr(bob.bob_term_bits),
                                 repr(bob.delta_b))
        for (se, eve_term, delta_e), rate in zip(columns, rates):
            yield (sb, se, rate, bob_term, eve_term, delta_b, delta_e,
                   "true" if positive_rate(rate) else "false")


def write_rate_grid_csv(grid: RateSweepGrid, path) -> Path:
    """One row per cell, legitimate-SNR index outer."""
    return _write_csv(path, ("bob_snr_db", "eve_snr_db", "rate_bits_per_s",
                             "bob_term_bits", "eve_term_bits", "delta_b",
                             "delta_e", "positive"),
                      "%s,%s,%r,%s,%s,%s,%s,%s\r\n", _rate_csv_rows(grid))


def write_rate_contour_csv(grid: RateSweepGrid, path) -> Path:
    """The zero-rate crossing per eavesdropper-SNR column (empty cell when
    the rate never turns positive on the grid)."""
    rows = ((se, _blank_none(crossing)) for se, crossing
            in zip(grid.eve_snr_db, grid.zero_crossing_bob_snr_db))
    return _write_csv(path, ("eve_snr_db", "bob_snr_db_zero_crossing"),
                      "%r,%s\r\n", rows)


# Read once per cell: a dict lookup, not the Enum's ``value`` descriptor.
_KIND_TEXT = {kind: kind.value for kind in ThresholdKind}


def write_threshold_grid_csv(grid: ThresholdSweepGrid, path) -> Path:
    jitters = [repr(jitter) for jitter in grid.eve_jitter_s]
    rows = ((w, jitter, _KIND_TEXT[cell.kind], _blank_none(cell.snr_db))
            for w, row in zip(map("%d".__mod__, grid.jamming_bits), grid.cells)
            for jitter, cell in zip(jitters, row))
    return _write_csv(path, ("jamming_bits_per_symbol", "eve_jitter_s",
                             "kind", "min_bob_snr_db"),
                      "%s,%s,%s,%s\r\n", rows)


def grid_to_dict(grid: RateSweepGrid | ThresholdSweepGrid) -> dict:
    """A sweep grid as JSON-ready data: each axis and the other fields as
    lists, each cell through its ``to_dict()``."""
    out = {field.name: list(getattr(grid, field.name)) for field in fields(grid)
           if field.name != "cells"}
    out["cells"] = [[cell.to_dict() for cell in row] for row in grid.cells]
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
_KIND_JSON = {kind: json.dumps(text) for kind, text in _KIND_TEXT.items()}


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
    return (_json_row([_THRESHOLD_CELL % (_KIND_JSON[cell.kind],
                                          _json_scalar(cell.snr_db))
                       for cell in row]) for row in grid.cells)


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


_TRACE_COLUMNS = ("clean_signal", "jamming", "bob_noise", "eve_noise",
                  "bob_rx", "eve_rx", "bob_post", "eve_stored", "eve_post")


def _trace_rows(columns, n: int):
    # tolist() converts a whole slice to Python floats at C speed, so %r
    # formats exactly what repr(float(x)) would.
    for start in range(0, n, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n)
        yield from zip(range(start, stop),
                       *[col[start:stop].tolist() for col in columns])


def write_trace_csv(trace: SimTrace, path) -> Path:
    """Columnar per-symbol dump of a session."""
    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    return _write_csv(path, ("index",) + _TRACE_COLUMNS,
                      "%d" + ",%r" * len(_TRACE_COLUMNS) + "\r\n",
                      _trace_rows(columns, len(trace)))
