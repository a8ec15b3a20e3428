"""File emission: plot-ready CSV for grids and traces, JSON for scalar
reports. Serialization is canonical (sorted keys, repr-roundtrip floats)
so identical inputs always produce byte-identical files.

CSV byte contract: one header row, then one row per record; cells are
comma-separated and every line ends in CRLF; float cells are Python
``repr`` (the shortest string that round-trips the float64 exactly);
``None`` is an empty cell; booleans are lowercase ``true``/``false``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .secrecy import RateSweepGrid, ThresholdSweepGrid

if TYPE_CHECKING:  # session loads NumPy; only write_trace_csv needs it
    from .session import SimTrace

# Rows formatted and written per file write: large enough to amortise the
# per-write cost, small enough that a long trace never sits in memory.
_BATCH_ROWS = 1024


def dump_json_str(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(dump_json_str(payload), encoding="utf-8")
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


def write_rate_grid_csv(grid: RateSweepGrid, path) -> Path:
    """One row per cell, legitimate-SNR index outer."""
    rows = ((sb, se, cell.rate_bits_per_s, cell.bob_term_bits,
             cell.eve_term_bits, cell.delta_b, cell.delta_e,
             "true" if cell.positive else "false")
            for sb, row in zip(grid.bob_snr_db, grid.cells)
            for se, cell in zip(grid.eve_snr_db, row))
    return _write_csv(path, ("bob_snr_db", "eve_snr_db", "rate_bits_per_s",
                             "bob_term_bits", "eve_term_bits", "delta_b",
                             "delta_e", "positive"),
                      "%r,%r,%r,%r,%r,%r,%r,%s\r\n", rows)


def write_rate_contour_csv(grid: RateSweepGrid, path) -> Path:
    """The zero-rate crossing per eavesdropper-SNR column (empty cell when
    the rate never turns positive on the grid)."""
    rows = ((se, _blank_none(crossing)) for se, crossing
            in zip(grid.eve_snr_db, grid.zero_crossing_bob_snr_db))
    return _write_csv(path, ("eve_snr_db", "bob_snr_db_zero_crossing"),
                      "%r,%s\r\n", rows)


def write_threshold_grid_csv(grid: ThresholdSweepGrid, path) -> Path:
    rows = ((w, jitter, cell.kind.value, _blank_none(cell.snr_db))
            for w, row in zip(grid.jamming_bits, grid.cells)
            for jitter, cell in zip(grid.eve_jitter_s, row))
    return _write_csv(path, ("jamming_bits_per_symbol", "eve_jitter_s",
                             "kind", "min_bob_snr_db"),
                      "%d,%r,%s,%s\r\n", rows)


def grid_to_dict(grid: RateSweepGrid | ThresholdSweepGrid) -> dict:
    """A sweep grid as JSON-ready data: each axis and the other fields as
    lists, each cell through its ``to_dict()``."""
    out = {field.name: list(getattr(grid, field.name)) for field in fields(grid)}
    out["cells"] = [[cell.to_dict() for cell in row] for row in grid.cells]
    return out


# Both names stay bound: callers (and profilers) look up the one for
# their grid kind.
rate_grid_to_dict = threshold_grid_to_dict = grid_to_dict


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
