"""The batched CSV writers against the row-by-row ``csv.writer`` loop they
replaced: same bytes on every input, bounded memory on long traces."""

import contextlib
import csv
import dataclasses
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from jkelab import (CancellationModel, KeyMaterial, SystemParams,
                    ThresholdKind, output, run_jke_session, sweep_min_bob_snr,
                    sweep_rate_vs_snr)
from jkelab.output import _BATCH_ROWS
from jkelab.secrecy import ThresholdCells, ThresholdSweepGrid
from jkelab.trace_rows import COLUMNS as _TRACE_COLUMNS

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
        path, ["eve_snr_db", "kind", "min_bob_snr_db"],
        ([_fmt(se), crossing.kind.value,
          "" if crossing.snr_db is None else _fmt(crossing.snr_db)]
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


class TraceColumns(types.SimpleNamespace):
    """The nine columns ``write_trace_csv`` reads, as plain attributes."""

    def __len__(self):
        return len(self.jamming)


def edge_trace(base, n):
    """``n`` symbols of ``base``, repeated past its end, with the edge floats
    written into every column at staggered positions."""
    columns = {}
    for k, name in enumerate(_TRACE_COLUMNS):
        col = np.resize(np.asarray(getattr(base, name), dtype=np.float64), n)
        for m, value in enumerate(EDGE_FLOATS):
            col[(m * 37 + k) % n] = value
        columns[name] = col
    return TraceColumns(**columns)


# Enough batches that each of two or three processes formats several.
LONG = 24 * _BATCH_ROWS + 5


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """A writer that waits on a child forever fails the test instead."""
    def expire(signum, frame):
        # pytest.fail, not an OSError the test's pytest.raises would take
        pytest.fail(f"still waiting after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def no_fork(*args, **kwargs):
    raise AssertionError("the trace writer forked")


# The id is the row count, with the process count after it when not 1.
@pytest.mark.parametrize("n, processes", [
    pytest.param(n, processes,
                 id=str(n) if processes == 1 else f"{n}-{processes}procs")
    for processes in (1, 2, 3)
    for n in (1, _BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1,
              2 * _BATCH_ROWS + 1, LONG)])
def test_trace_csv_matches_reference(base_trace, n, processes, monkeypatch,
                                     tmp_path):
    # The writer's children are spawned: a writer that forks fails here.
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(output, "_trace_processes", lambda: processes)
    trace = edge_trace(base_trace, n)
    assert len(trace) == n
    assert_same_bytes(output.write_trace_csv, reference_trace_csv, trace,
                      tmp_path)
    assert_no_children()


def test_trace_csv_with_a_live_thread_warns_nothing(base_trace, monkeypatch,
                                                    tmp_path):
    # From Python 3.12, os.fork in a process with a second thread alive
    # warns (DeprecationWarning). Spawning the children does not.
    monkeypatch.setattr(output, "_trace_processes", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output.write_trace_csv(edge_trace(base_trace, 2 * _BATCH_ROWS + 1),
                                   tmp_path / "trace.csv")
    finally:
        release.set()
        thread.join()
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


def test_trace_rows_check_runs_without_numpy():
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("check_trace_rows.py"))],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def child_script(monkeypatch, tmp_path, body: str):
    """Run the writer's children as a script of ``body``, not ``trace_rows``."""
    script = tmp_path / "child.py"
    script.write_text(body)
    monkeypatch.setattr(output.trace_rows, "__file__", str(script))


def test_trace_csv_write_failure_reaps_children(base_trace, monkeypatch,
                                                tmp_path):
    # Every write to /dev/full fails, the first batch's included, while
    # both children are formatting their rows. The rows go to the partial
    # file first, so that is the name that leads there.
    if not os.path.exists("/dev/full"):
        pytest.skip("needs a device whose writes fail")
    partial = tmp_path / f".trace.csv.{os.getpid()}.partial"
    partial.symlink_to("/dev/full")
    monkeypatch.setattr(output, "_trace_processes", lambda: 3)
    with deadline(60), pytest.raises(OSError):
        output.write_trace_csv(edge_trace(base_trace, LONG),
                               tmp_path / "trace.csv")
    assert_no_children()
    assert list(tmp_path.iterdir()) == []


# A failed write leaves the file that was there and no partial file,
# whether a child fails or this process is interrupted.
@pytest.mark.parametrize("failure", ["child", "interrupt"])
def test_trace_csv_failed_write_leaves_no_file(base_trace, monkeypatch,
                                               tmp_path, failure):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace.csv").write_text("earlier")
    if failure == "child":
        child_script(monkeypatch, tmp_path, "import sys\nsys.exit(3)\n")
        raised = OSError
    else:
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(output.trace_rows, "write_rows", interrupted)
        raised = KeyboardInterrupt
    monkeypatch.setattr(output, "_trace_processes", lambda: 2)
    with deadline(60), pytest.raises(raised):
        output.write_trace_csv(edge_trace(base_trace, LONG), out / "trace.csv")
    assert_no_children()
    assert [p.name for p in out.iterdir()] == ["trace.csv"]
    assert (out / "trace.csv").read_text() == "earlier"


def test_trace_csv_failed_child_raises(base_trace, monkeypatch, tmp_path):
    # The first child fails while the second still runs: it is killed.
    first = LONG // 3
    child_script(monkeypatch, tmp_path, f"""import sys, time
if int(sys.argv[1]) != {first}:
    time.sleep(600)
raise RuntimeError("formatting failed")
""")
    monkeypatch.setattr(output, "_trace_processes", lambda: 3)
    with deadline(60), pytest.raises(OSError, match="exited with status 1"):
        output.write_trace_csv(edge_trace(base_trace, LONG),
                               tmp_path / "trace.csv")
    assert_no_children()


def test_trace_csv_child_exit_status_is_checked(base_trace, monkeypatch,
                                                tmp_path):
    # The child writes its rows and then exits with status 7.
    child_script(monkeypatch, tmp_path, f"""import runpy, sys
runpy.run_path({output.trace_rows.__file__!r}, run_name="__main__")
sys.stdout.flush()
sys.exit(7)
""")
    monkeypatch.setattr(output, "_trace_processes", lambda: 2)
    with deadline(60), pytest.raises(OSError, match="exited with status 7"):
        output.write_trace_csv(edge_trace(base_trace, 2 * _BATCH_ROWS + 1),
                               tmp_path / "trace.csv")
    assert_no_children()


def test_trace_csv_spawn_failure_reaps_started_children(base_trace,
                                                        monkeypatch, tmp_path):
    # The first child starts, the second cannot: the first is reaped.
    popen = subprocess.Popen
    started = []

    def second_fails(*args, **kwargs):
        if started:
            raise OSError("no more processes")
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", second_fails)
    monkeypatch.setattr(output, "_trace_processes", lambda: 3)
    with deadline(60), pytest.raises(OSError, match="no more processes"):
        output.write_trace_csv(edge_trace(base_trace, LONG),
                               tmp_path / "trace.csv")
    assert started[0].returncode is not None
    assert_no_children()


@pytest.fixture(scope="module")
def rate_grid():
    # The -200 dB column's crossing lies near -200 dB and the -30 dB
    # column's also below the bob axis, the 10 dB column's on it, and the
    # 40 dB and 80 dB columns' above it.
    grid = sweep_rate_vs_snr(SystemParams(**HEADLINE_POINT),
                             [-10.0, -2.5, 0.0, 7.0, 20.0],
                             [-200.0, -30.0, 10.0, 40.0, 80.0])
    positives = {cell.positive for row in grid.cells for cell in row}
    assert positives == {True, False}
    crossings = grid.zero_crossing_bob_snr_db
    assert {c.kind for c in crossings} == {ThresholdKind.THRESHOLD}
    assert crossings[0].snr_db == pytest.approx(-199.99829429948338, abs=1e-12)
    assert crossings[0].snr_db < crossings[1].snr_db < -10.0
    assert -10.0 < crossings[2].snr_db < 20.0
    assert 20.0 < crossings[3].snr_db < crossings[4].snr_db
    return grid


def test_rate_grid_csv_matches_reference(rate_grid, tmp_path):
    assert_same_bytes(output.write_rate_grid_csv, reference_rate_grid_csv,
                      rate_grid, tmp_path)


def test_rate_contour_csv_matches_reference(rate_grid, tmp_path):
    assert_same_bytes(output.write_rate_contour_csv,
                      reference_rate_contour_csv, rate_grid, tmp_path)


def test_rate_contour_csv_matches_reference_when_infeasible(tmp_path):
    # A 2-bit Bob ADC is too coarse for any Bob SNR at Eve SNR 80 dB.
    params = dataclasses.replace(
        SystemParams(**HEADLINE_POINT),
        bob_adc=dataclasses.replace(HEADLINE_POINT["bob_adc"], explicit_bits=2.0))
    grid = sweep_rate_vs_snr(params, [0.0, 10.0], [-10.0, 80.0])
    assert [c.kind for c in grid.zero_crossing_bob_snr_db] == [
        ThresholdKind.THRESHOLD, ThresholdKind.INFEASIBLE]
    assert_same_bytes(output.write_rate_contour_csv,
                      reference_rate_contour_csv, grid, tmp_path)


def test_threshold_grid_csv_matches_reference_on_sweep(tmp_path):
    grid = sweep_min_bob_snr(SystemParams(**HEADLINE_POINT), [0, 1, 14, 30],
                             [1e-15, 5e-13, 5e-10])
    kinds = {cell.kind for row in grid.cells for cell in row}
    assert kinds == {ThresholdKind.THRESHOLD, ThresholdKind.INFEASIBLE}
    assert_same_bytes(output.write_threshold_grid_csv,
                      reference_threshold_grid_csv, grid, tmp_path)


def test_threshold_grid_csv_matches_reference_all_kinds(tmp_path):
    # Built by hand: SNRs whose spelling is easy to get wrong beside
    # infeasible cells.
    grid = ThresholdSweepGrid(
        (0, 7, 40), (1e-15, 2.5e-13),
        ThresholdCells(((-199.99829429948338, None), (-0.0, 1e+16),
                        (12.5, None))))
    assert_same_bytes(output.write_threshold_grid_csv,
                      reference_threshold_grid_csv, grid, tmp_path)


def test_trace_csv_memory_is_bounded(tmp_path):
    # Batched writing keeps a few batches of formatted rows alive; building
    # the whole 200k-row file in memory would take tens of MB.
    n = 200_000
    rng = np.random.default_rng(0)
    trace = TraceColumns(
        **{name: rng.standard_normal(n) for name in _TRACE_COLUMNS})
    tracemalloc.start()
    try:
        output.write_trace_csv(trace, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
