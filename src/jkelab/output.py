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
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .secrecy import (RateSweepGrid, ThresholdKind, ThresholdSweepGrid,
                      positive_rate)

if TYPE_CHECKING:  # session loads NumPy; only write_trace_csv needs it
    from .session import SimTrace

# Rows formatted and written per file write: large enough to amortise the
# per-write cost, small enough that a long trace never sits in memory. A
# trace's writer processes are dealt its rows in batches of this size.
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


_TRACE_COLUMNS = ("clean_signal", "jamming", "bob_noise", "eve_noise",
                  "bob_rx", "eve_rx", "bob_post", "eve_stored", "eve_post")


def _trace_processes() -> int:
    """How many processes may format a trace: one per CPU this process may
    run on, or one where ``os.fork`` or the affinity call is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _trace_batch(columns, template: str, start: int) -> bytes:
    """Rows ``start`` up to ``start + _BATCH_ROWS`` of the trace csv."""
    stop = start + _BATCH_ROWS
    # tolist() converts a whole slice to Python floats at C speed, so %r
    # formats exactly what repr(float(x)) would. The last batch is short,
    # and zip stops with its columns.
    rows = zip(range(start, stop),
               *[col[start:stop].tolist() for col in columns])
    return "".join([template % row for row in rows]).encode()


def _read_exactly(pipe, size: int) -> bytes:
    data = pipe.read(size)
    if len(data) != size:
        raise OSError("a trace writer process stopped before its last row")
    return data


def write_trace_csv(trace: SimTrace, path) -> Path:
    """Columnar per-symbol dump of a session.

    The rows are formatted ``_BATCH_ROWS`` at a time, batch k in process
    k mod N, with N the processes ``_trace_processes`` allows (at most one
    per batch). The forked children send their batches, each after its
    8-byte length, through a pipe apiece, and this process writes its own
    batches and theirs in file order, so the bytes do not depend on N. A
    failed child or a short pipe is an ``OSError``; every child is reaped
    before this returns or raises. The trace's derived columns are formed
    here, before any child is forked, and the row count is the columns'.
    """
    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    template = "%d" + ",%r" * len(columns) + "\r\n"
    starts = range(0, len(columns[0]), _BATCH_ROWS)
    procs = min(_trace_processes(), len(starts))
    path = Path(path)
    pipes = []  # (pid, read end) of each child, child k dealt batches k::procs
    try:
        with path.open("wb") as fh:
            fh.write((",".join(("index",) + _TRACE_COLUMNS) + "\r\n").encode())
            for worker in range(1, procs):
                pipes.append(_fork_trace_writer(
                    pipes, columns, template, starts[worker::procs]))
            for k, start in enumerate(starts):
                if k % procs == 0:
                    fh.write(_trace_batch(columns, template, start))
                else:
                    pipe = pipes[k % procs - 1][1]
                    size = int.from_bytes(_read_exactly(pipe, 8), "little")
                    fh.write(_read_exactly(pipe, size))
    finally:
        # Closed before waiting: a child blocked on a full pipe then fails
        # its write and exits instead of waiting on a reader that is gone.
        for _, pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in pipes]
    if any(codes):
        raise OSError(f"a trace writer process exited with status "
                      f"{next(filter(None, codes))}")
    return path


def _fork_trace_writer(pipes, columns, template: str, starts):
    """Fork a child that formats the batches at ``starts`` into a new pipe;
    the child's pid and the pipe's read end, as a file."""
    import fcntl  # only here, so importing the CLI loads no more modules

    read_fd, write_fd = os.pipe()
    # A pipe that holds a few batches lets the child run ahead of the
    # parent's reads instead of waiting on them.
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        try:
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
        except OSError:
            pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child leaves only through os._exit: it flushes no buffer it
        # inherited, runs no atexit hook and never returns to the caller.
        status = 1
        try:
            # The earlier children's read ends: the parent's close alone
            # then ends each pipe, and a child blocked on one fails at once.
            for _, pipe in pipes:
                pipe.close()
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for start in starts:
                    batch = _trace_batch(columns, template, start)
                    out.write(len(batch).to_bytes(8, "little"))
                    out.write(batch)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
