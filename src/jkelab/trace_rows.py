"""The rows of a session's ``trace.csv``: the one copy of their format.

This module imports nothing but ``sys``, so a child interpreter formats
rows without jkelab or NumPy::

    python -I -S trace_rows.py START COUNT < columns > rows

Its standard input holds the nine columns of rows ``START`` up to
``START + COUNT``, one after another, each ``COUNT`` native float64 values.
Its standard output gets those rows, formatted as ``write_rows`` formats
them.
"""

import sys

COLUMNS = ("clean_signal", "jamming", "bob_noise", "eve_noise",
           "bob_rx", "eve_rx", "bob_post", "eve_stored", "eve_post")
HEADER = (",".join(("index",) + COLUMNS) + "\r\n").encode()

# Rows formatted and written per file write: large enough to amortise the
# per-write cost, small enough that a long trace never sits in memory.
BATCH_ROWS = 1024

_ROW = "%d" + ",%r" * len(COLUMNS) + "\r\n"


def write_rows(out, columns, start: int) -> None:
    """Write the rows of ``columns`` to the binary file ``out``, numbered
    from ``start``, ``BATCH_ROWS`` at a time. Each column is a sequence of
    floats whose slices have ``tolist()``: NumPy arrays, ``array("d")`` and
    ``memoryview`` casts alike."""
    for lo in range(0, len(columns[0]), BATCH_ROWS):
        hi = lo + BATCH_ROWS
        # tolist() converts a whole slice to Python floats at C speed, so %r
        # formats exactly what repr(float(x)) would. The last batch is
        # short, and zip stops with its columns.
        rows = zip(range(start + lo, start + hi),
                   *[col[lo:hi].tolist() for col in columns])
        out.write("".join([_ROW % row for row in rows]).encode())


if __name__ == "__main__":
    start, count = int(sys.argv[1]), int(sys.argv[2])
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    write_rows(sys.stdout.buffer,
               [values[k * count:(k + 1) * count] for k in range(len(COLUMNS))],
               start)
