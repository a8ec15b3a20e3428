"""Check the trace writer without NumPy, on any Python from 3.10 on:

    python tests/check_trace_rows.py

With a second thread alive, it feeds ``array("d")`` columns to
``python -I -S trace_rows.py`` and to ``output.write_trace_csv`` at 1, 2
and 3 processes, and compares their rows with ``repr`` of each value. It
fails on any row that differs, on any warning raised meanwhile (from
Python 3.12, ``os.fork`` with a second thread alive warns), and if NumPy
was imported. It prints the Python version and "ok" when all hold.
"""

import subprocess
import sys
import tempfile
import threading
import types
import warnings
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jkelab import output, trace_rows  # noqa: E402

EDGE_FLOATS = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
               1e-05, 1e+16, 3.0, -2.0, 0.1, -1.2345678901234567e-300]
N = 3 * trace_rows.BATCH_ROWS + 5


def columns() -> dict:
    """Nine columns of ``N`` floats: the edge floats, then thirds and
    sevenths, staggered from column to column."""
    out = {}
    for k, name in enumerate(trace_rows.COLUMNS):
        values = [(i - k) / 3.0 + i / 7e9 for i in range(N)]
        values[k:k + len(EDGE_FLOATS)] = EDGE_FLOATS
        out[name] = array("d", values)
    return out


def reference_rows(cols: dict, start: int, stop: int) -> bytes:
    return "".join(
        ",".join([str(i)] + [repr(cols[name][i]) for name in trace_rows.COLUMNS])
        + "\r\n" for i in range(start, stop)).encode()


def main() -> int:
    cols = columns()
    failures = []
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start, stop = 1000, N - 7
            given = b"".join(bytes(cols[name][start:stop])
                             for name in trace_rows.COLUMNS)
            done = subprocess.run(
                [sys.executable, "-I", "-S", trace_rows.__file__, str(start),
                 str(stop - start)], input=given, capture_output=True)
            if done.returncode or done.stdout != reference_rows(cols, start, stop):
                failures.append(f"trace_rows.py: status {done.returncode}, "
                                f"{done.stderr.decode()!r}")
            trace = types.SimpleNamespace(**cols)
            expected = trace_rows.HEADER + reference_rows(cols, 0, N)
            with tempfile.TemporaryDirectory() as tmp:
                for processes in (1, 2, 3):
                    output._trace_processes = lambda: processes
                    path = output.write_trace_csv(trace, Path(tmp, "trace.csv"))
                    if path.read_bytes() != expected:
                        failures.append(f"write_trace_csv at {processes} "
                                        f"processes: rows differ")
    finally:
        release.set()
        thread.join()
    failures += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    if "numpy" in sys.modules:
        failures.append("numpy was imported")
    print(sys.version.split()[0], "; ".join(failures) or "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
