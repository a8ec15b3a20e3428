"""The batched CSV writers against the row-by-row ``csv.writer`` loop they
replaced: same bytes on every input, bounded memory on long traces."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from jkelab import (CancellationModel, KeyMaterial, SnrThreshold,
                    SystemParams, ThresholdKind, output, run_jke_session,
                    sweep_min_bob_snr, sweep_rate_vs_snr)
from jkelab.output import _BATCH_ROWS, _TRACE_COLUMNS
from jkelab.secrecy import ThresholdSweepGrid

from conftest import HEADLINE_POINT

# --- reference: the csv.writer + per-cell formatting the writers replaced


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def reference_trace_csv(trace, path):
    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    return _reference_csv(
        path, ("index",) + _TRACE_COLUMNS,
        ([str(idx)] + [_fmt(float(col[idx])) for col in columns]
         for idx in range(len(trace))))


def reference_rate_grid_csv(grid, path):
    return _reference_csv(
        path, ["bob_snr_db", "eve_snr_db", "rate_bits_per_s", "bob_term_bits",
               "eve_term_bits", "delta_b", "delta_e", "positive"],
        ([_fmt(sb), _fmt(se), _fmt(cell.rate_bits_per_s),
          _fmt(cell.bob_term_bits), _fmt(cell.eve_term_bits),
          _fmt(cell.delta_b), _fmt(cell.delta_e), str(cell.positive).lower()]
         for i, sb in enumerate(grid.bob_snr_db)
         for j, se in enumerate(grid.eve_snr_db)
         for cell in [grid.cells[i][j]]))


def reference_rate_contour_csv(grid, path):
    return _reference_csv(
        path, ["eve_snr_db", "bob_snr_db_zero_crossing"],
        ([_fmt(se), "" if crossing is None else _fmt(crossing)]
         for se, crossing in zip(grid.eve_snr_db,
                                 grid.zero_crossing_bob_snr_db)))


def reference_threshold_grid_csv(grid, path):
    return _reference_csv(
        path, ["jamming_bits_per_symbol", "eve_jitter_s", "kind",
               "min_bob_snr_db"],
        ([str(w), _fmt(jitter), cell.kind.value,
          "" if cell.snr_db is None else _fmt(cell.snr_db)]
         for i, w in enumerate(grid.jamming_bits)
         for j, jitter in enumerate(grid.eve_jitter_s)
         for cell in [grid.cells[i][j]]))


def assert_same_bytes(new_writer, reference_writer, obj, tmp_path):
    new_path = new_writer(obj, tmp_path / "new.csv")
    assert new_path == tmp_path / "new.csv"
    ref_path = reference_writer(obj, tmp_path / "ref.csv")
    assert new_path.read_bytes() == ref_path.read_bytes()


# --- inputs

EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-05,
               1e+16, 3.0, -2.0, 0.1, -1.2345678901234567e-300]


@pytest.fixture(scope="module")
def base_trace():
    params = SystemParams(**HEADLINE_POINT)
    return run_jke_session(params, CancellationModel(math.inf),
                           KeyMaterial(bytes(32)), 2 * _BATCH_ROWS + 1, 3)


def edge_trace(base, n):
    """The first ``n`` symbols of ``base`` with the edge floats written into
    every column at staggered positions."""
    columns = {}
    for k, name in enumerate(_TRACE_COLUMNS):
        col = np.array(getattr(base, name)[:n], dtype=np.float64)
        for m, value in enumerate(EDGE_FLOATS):
            col[(m * 37 + k) % n] = value
        columns[name] = col
    return dataclasses.replace(base, **columns)


@pytest.mark.parametrize("n", [1, _BATCH_ROWS - 1, _BATCH_ROWS,
                               _BATCH_ROWS + 1, 2 * _BATCH_ROWS + 1])
def test_trace_csv_matches_reference(base_trace, n, tmp_path):
    trace = edge_trace(base_trace, n)
    assert len(trace) == n
    assert_same_bytes(output.write_trace_csv, reference_trace_csv, trace,
                      tmp_path)


@pytest.fixture(scope="module")
def rate_grid():
    # The bob axis stops below the 40 dB and 80 dB columns' crossings, so
    # those columns have none; the -5 dB column turns positive on its first
    # cell and the 10 dB column between cells.
    grid = sweep_rate_vs_snr(SystemParams(**HEADLINE_POINT),
                             [-10.0, -2.5, 0.0, 7.0, 20.0],
                             [-30.0, -5.0, 10.0, 40.0, 80.0])
    positives = {cell.positive for row in grid.cells for cell in row}
    assert positives == {True, False}
    assert None in grid.zero_crossing_bob_snr_db
    assert sum(c is not None for c in grid.zero_crossing_bob_snr_db) >= 2
    return grid


def test_rate_grid_csv_matches_reference(rate_grid, tmp_path):
    assert_same_bytes(output.write_rate_grid_csv, reference_rate_grid_csv,
                      rate_grid, tmp_path)


def test_rate_contour_csv_matches_reference(rate_grid, tmp_path):
    assert_same_bytes(output.write_rate_contour_csv,
                      reference_rate_contour_csv, rate_grid, tmp_path)


def test_threshold_grid_csv_matches_reference_on_sweep(tmp_path):
    grid = sweep_min_bob_snr(SystemParams(**HEADLINE_POINT), [0, 1, 14, 30],
                             [1e-15, 5e-13, 5e-10])
    kinds = {cell.kind for row in grid.cells for cell in row}
    assert kinds == {ThresholdKind.THRESHOLD, ThresholdKind.INFEASIBLE}
    assert_same_bytes(output.write_threshold_grid_csv,
                      reference_threshold_grid_csv, grid, tmp_path)


def test_threshold_grid_csv_matches_reference_all_kinds(tmp_path):
    # ALWAYS_POSITIVE needs unphysical parameters, so the grid is built by hand.
    grid = ThresholdSweepGrid(
        (0, 7, 40), (1e-15, 2.5e-13),
        ((SnrThreshold(ThresholdKind.ALWAYS_POSITIVE),
          SnrThreshold(ThresholdKind.INFEASIBLE)),
         (SnrThreshold(ThresholdKind.THRESHOLD, -0.0),
          SnrThreshold(ThresholdKind.THRESHOLD, 1e+16)),
         (SnrThreshold(ThresholdKind.THRESHOLD, 12.5),
          SnrThreshold(ThresholdKind.INFEASIBLE))))
    assert_same_bytes(output.write_threshold_grid_csv,
                      reference_threshold_grid_csv, grid, tmp_path)


def test_trace_csv_memory_is_bounded(base_trace, tmp_path):
    # Batched writing keeps a few batches of formatted rows alive; building
    # the whole 200k-row file in memory would take tens of MB.
    n = 200_000
    rng = np.random.default_rng(0)
    trace = dataclasses.replace(
        base_trace, **{name: rng.standard_normal(n) for name in _TRACE_COLUMNS})
    tracemalloc.start()
    try:
        output.write_trace_csv(trace, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
