"""Pinned outputs of the analytic commands, and the byte contracts of the
grid writers.

Runs ``analyze``, ``sweep`` and ``race`` on the shipped configs and
compares the sha256 of every output file, and of stdout with the output
directory masked, with digests recorded before the sweeps were rewritten
to evaluate each log term once per axis point. The sweeps' grid and
crossing files were re-recorded when both log terms moved to log1p, with
the eavesdropper's K - 1 formed directly. A mismatch names the file.

The floats come from ``math`` (libm's log1p, log2, log10 and pow) and
``repr``, so the digests hold for the platform they were recorded on:
glibc 2.36 on x86-64 with FMA, Python 3.11. ``simulate`` is left out: its
statistics pass through NumPy reductions, which other NumPy versions may
round differently.

A rate grid's cells are ``RateCells`` factors, and its writers format
each row's and each column's values once from them; the plain forms they
replaced, ``json.dumps`` of ``grid_to_dict(grid)`` and one ``%`` line per
cell, are kept below as their oracles, and every grid, swept or built from
factors by hand, must come out byte-equal to them.
"""

import hashlib
import json
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies as st

from jkelab import config as cfg, output
from jkelab.cli import EXIT_OK, main
from jkelab.secrecy import (RateCells, RateSweepGrid, SecrecyReport,
                            SnrThreshold, ThresholdKind, ThresholdSweepGrid,
                            sweep_min_bob_snr, sweep_rate_vs_snr)

RECORDED = {
    ("analyze", "paper-operating-point", "json"): {
        "stdout":
            "9095206b7e74451948df413bb528769a374feea7394bcae9684950ad7a452bfc",
        "config.json":
            "f5a644fa3ff25db233a020267ff9cfa54183f810d2c922418867842e5a0a1bc2",
        "report.json":
            "09d7ffc73d4c12c5dd97aca73c78e50e44d61bc049656d14a8e77c2dfa7a5b1e",
    },
    ("analyze", "paper-operating-point", "csv"): {
        "stdout":
            "9095206b7e74451948df413bb528769a374feea7394bcae9684950ad7a452bfc",
        "config.json":
            "f5a644fa3ff25db233a020267ff9cfa54183f810d2c922418867842e5a0a1bc2",
        "report.csv":
            "a1fd1a07c07feac609b01edcbcf16449b9bc9ac8c5c423bb06ddb95137c09a53",
    },
    ("sweep", "fig3a", "csv"): {
        "stdout":
            "daabfb95ae925857b306558c214e6751e7fb26fdf52bfd7dce29d1660503bd62",
        "config.json":
            "68a76c1ebed1ff5fe2d340b3b234ef7ef0dc57713f7d97b5b243bfd402820a7b",
        "grid.csv":
            "a4442774a3f2804165f55633e5722205b22c0e308c46d3eaba64bedbd35b2014",
        "sweep.json":
            "1d72d13c55c10a5cdc346bbd17843178bef4e5e5ddf18c2e23836d16be348534",
        "zero_crossing.csv":
            "6bda924ace9d36979b420763955437689f13d739dd3c34062efea87060facf63",
    },
    ("sweep", "fig3a", "json"): {
        "stdout":
            "daabfb95ae925857b306558c214e6751e7fb26fdf52bfd7dce29d1660503bd62",
        "config.json":
            "68a76c1ebed1ff5fe2d340b3b234ef7ef0dc57713f7d97b5b243bfd402820a7b",
        "grid.json":
            "1422ff8ec47978845648f8de8755e976fe7aa33b3e30cca80c73cebbd3ce0a69",
        "sweep.json":
            "1d72d13c55c10a5cdc346bbd17843178bef4e5e5ddf18c2e23836d16be348534",
    },
    ("sweep", "fig3b", "csv"): {
        "stdout":
            "4e00961a8a18172da2163915f60223d467758a952aef62b585980a06e3b334e2",
        "config.json":
            "d31525a3eaacf725acf893353059766ed4f85e8eb963e10c37c7d98e1bf810e7",
        "grid.csv":
            "30b043b555bcfae66c7d9af75eff26abc3380d9d3f8bad5a3671818be8954c8b",
        "sweep.json":
            "70ed3523ca7451be58d8d3ad5732951c18ab8963a6b340ae84373b7bc51e7f72",
    },
    ("sweep", "fig3b", "json"): {
        "stdout":
            "4e00961a8a18172da2163915f60223d467758a952aef62b585980a06e3b334e2",
        "config.json":
            "d31525a3eaacf725acf893353059766ed4f85e8eb963e10c37c7d98e1bf810e7",
        "grid.json":
            "4cf99ad248a4edb127a2069fbf241b24453a6721bd2011c3d833a19da1a52b9c",
        "sweep.json":
            "70ed3523ca7451be58d8d3ad5732951c18ab8963a6b340ae84373b7bc51e7f72",
    },
    ("race", "race-default", None): {
        "stdout":
            "f82c265b322b8afd4840f71787379347f6e64ffdfca5f05d8e4b738e30343ae2",
        "config.json":
            "b68bdacf46366477daf76b8d1c3d89965eed163206ea4b3c629e30c410cfb725",
        "race.json":
            "ec415ec584cc42067606f6c7434ddbc8bd3f87878b3665637723de7808e513ab",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, config, fmt", sorted(RECORDED, key=str),
                         ids=str)
def test_outputs_match_recorded_digests(tmp_path, capsys, command, config,
                                        fmt):
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    assert main(argv + (["--format", fmt] if fmt else [])) == EXIT_OK
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    found = {"stdout": sha256(stdout.encode())}
    found |= {path.name: sha256(path.read_bytes()) for path in out.iterdir()}
    expected = RECORDED[command, config, fmt]
    differing = sorted(name for name in expected.keys() | found.keys()
                       if expected.get(name) != found.get(name))
    assert not differing, f"differs from the recorded digest: {differing}"


def oracle_json(grid) -> str:
    return json.dumps(output.grid_to_dict(grid), indent=2, sort_keys=True) + "\n"


def oracle_csv(header, template, rows) -> bytes:
    lines = [",".join(header) + "\r\n"] + [template % row for row in rows]
    return "".join(lines).encode()


def oracle_rate_csv(grid) -> bytes:
    return oracle_csv(
        ("bob_snr_db", "eve_snr_db", "rate_bits_per_s", "bob_term_bits",
         "eve_term_bits", "delta_b", "delta_e", "positive"),
        "%r,%r,%r,%r,%r,%r,%r,%s\r\n",
        ((sb, se, cell.rate_bits_per_s, cell.bob_term_bits, cell.eve_term_bits,
          cell.delta_b, cell.delta_e, "true" if cell.positive else "false")
         for sb, row in zip(grid.bob_snr_db, grid.cells)
         for se, cell in zip(grid.eve_snr_db, row)))


def threshold_cells(cell) -> tuple:
    return cell.kind.value, "" if cell.snr_db is None else repr(cell.snr_db)


def oracle_contour_csv(grid) -> bytes:
    return oracle_csv(
        ("eve_snr_db", "kind", "min_bob_snr_db"), "%r,%s,%s\r\n",
        ((se, *threshold_cells(crossing)) for se, crossing
         in zip(grid.eve_snr_db, grid.zero_crossing_bob_snr_db)))


def oracle_threshold_csv(grid) -> bytes:
    return oracle_csv(
        ("jamming_bits_per_symbol", "eve_jitter_s", "kind", "min_bob_snr_db"),
        "%d,%r,%s,%s\r\n",
        ((w, jitter, *threshold_cells(cell))
         for w, row in zip(grid.jamming_bits, grid.cells)
         for jitter, cell in zip(grid.eve_jitter_s, row)))


def assert_written_as_oracles(grid, tmp_path):
    assert output.dump_json_str(grid) == oracle_json(grid)
    path = output.write_json(tmp_path / "grid.json", grid)
    assert path.read_bytes() == oracle_json(grid).encode()
    if isinstance(grid, RateSweepGrid):
        path = output.write_rate_grid_csv(grid, tmp_path / "grid.csv")
        assert path.read_bytes() == oracle_rate_csv(grid)
        path = output.write_rate_contour_csv(grid, tmp_path / "contour.csv")
        assert path.read_bytes() == oracle_contour_csv(grid)
    else:
        path = output.write_threshold_grid_csv(grid, tmp_path / "grid.csv")
        assert path.read_bytes() == oracle_threshold_csv(grid)


# Floats whose repr and JSON spelling are easy to get wrong; each is one
# object, so a grid drawn from them shares objects between its row reports,
# column reports and rates at random.
SPECIAL = (0.0, -0.0, 5e-324, 1e16, 1e+16 + 2.0, -1.5e-7, 123.456,
           float("inf"), float("-inf"), float("nan"))

# Thresholds of every kind, and with SNRs that are easy to misspell; a
# threshold grid's cells and a rate grid's zero crossings come from these.
THRESHOLDS = tuple(SnrThreshold(*kind) for kind in (
    (ThresholdKind.THRESHOLD, 12.5),
    (ThresholdKind.THRESHOLD, -199.99829429948338),
    (ThresholdKind.INFEASIBLE, None), (ThresholdKind.THRESHOLD, float("inf")),
    (ThresholdKind.THRESHOLD, -0.0), (ThresholdKind.THRESHOLD, float("nan")),
    (ThresholdKind.THRESHOLD, 5e-324), (ThresholdKind.THRESHOLD, 1e16),
    (ThresholdKind.THRESHOLD, float("-inf"))))


def _fresh(value: float) -> float:
    """An equal float that is not the same object."""
    return float(repr(value))


def _generated_rate_grid():
    template = cfg.parse_system(cfg.load_config("fig3a"))
    return sweep_rate_vs_snr(template, [0.0, 7.5, 30.0, 60.0],
                             [-0.0, 5.0, 40.0, 75.5, 80.0])


def _generated_threshold_grid():
    template = cfg.parse_system(cfg.load_config("fig3b"))
    return sweep_min_bob_snr(template, [0, 1, 8, 14, 20, 32],
                             [1e-15, 5e-15, 5e-14, 5e-13, 1e-9])


def _unshared(grid: RateSweepGrid) -> RateSweepGrid:
    """``grid`` with every float of its reports and rates a fresh object."""
    def reports(originals):
        return tuple(SecrecyReport(*map(_fresh, astuple(report)))
                     for report in originals)

    cells = grid.cells
    return replace(grid, cells=RateCells(
        reports(cells.bob_reports), reports(cells.eve_reports),
        tuple(tuple(map(_fresh, rates)) for rates in cells.rates)))


def _special(k: int) -> float:
    return SPECIAL[k % len(SPECIAL)]


def _special_rate_grid():
    """Every special value in every written field, shuffled, and crossings
    of every threshold kind."""
    n = len(SPECIAL)
    bob_reports = tuple(SecrecyReport(*[_special(i + 3 * k) for k in range(6)])
                        for i in range(n))
    eve_reports = tuple(SecrecyReport(*[_special(7 * j + k) for k in range(6)])
                        for j in range(n))
    rates = tuple(tuple(_special(7 * i + 3 * j) for j in range(n))
                  for i in range(n))
    return RateSweepGrid(SPECIAL, SPECIAL[3:] + SPECIAL[:3],
                         RateCells(bob_reports, eve_reports, rates),
                         tuple(THRESHOLDS[j % len(THRESHOLDS)] for j in range(n)))


def _special_threshold_grid():
    cells = tuple(tuple(THRESHOLDS[(i + 2 * j) % len(THRESHOLDS)]
                        for j in range(5)) for i in range(3))
    return ThresholdSweepGrid((0, 14, 32), (5e-324, 1e-15, 1e-15 * 3, 1e16, 2.0),
                              cells)


CONTRACT_GRIDS = {
    "rate-generated": _generated_rate_grid,
    "rate-unshared": lambda: _unshared(_generated_rate_grid()),
    "rate-special-values": _special_rate_grid,
    "rate-empty": lambda: RateSweepGrid((), (), RateCells((), (), ()), ()),
    "rate-rows-without-columns": lambda: RateSweepGrid(
        (1.0, 2.0, 3.0), (), RateCells(
            _special_rate_grid().cells.bob_reports[:3], (), ((), (), ())), ()),
    "threshold-generated": _generated_threshold_grid,
    "threshold-special-values": _special_threshold_grid,
    "threshold-empty-row": lambda: ThresholdSweepGrid(
        (1, 2), (1e-15,), ((), _special_threshold_grid().cells[0][:1])),
}


@pytest.mark.parametrize("name", CONTRACT_GRIDS)
def test_grid_writers_match_their_oracles(tmp_path, name):
    assert_written_as_oracles(CONTRACT_GRIDS[name](), tmp_path)


def test_contract_grids_hold_every_threshold_kind():
    # The generated fig3b grid holds both kinds, and so do the hand-built
    # grids.
    def kinds(grid):
        return {cell.kind for row in grid.cells for cell in row}
    assert kinds(_generated_threshold_grid()) == {ThresholdKind.THRESHOLD,
                                                  ThresholdKind.INFEASIBLE}
    assert kinds(_special_threshold_grid()) == set(ThresholdKind)
    assert {crossing.kind for crossing
            in _special_rate_grid().zero_crossing_bob_snr_db} == set(ThresholdKind)


@st.composite
def rate_grids(draw):
    """A rate grid whose axes and factors come from ``SPECIAL``, so its row
    reports, column reports and rates share some float objects and not
    others."""
    n_rows, n_columns = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    value = st.sampled_from(SPECIAL)

    def values(n):
        return tuple(draw(value) for _ in range(n))

    def reports(n):
        return tuple(SecrecyReport(*values(6)) for _ in range(n))

    cells = RateCells(reports(n_rows), reports(n_columns),
                      tuple(values(n_columns) for _ in range(n_rows)))
    return RateSweepGrid(values(n_rows), values(n_columns), cells,
                         tuple(draw(st.sampled_from(THRESHOLDS))
                               for _ in range(n_columns)))


@settings(max_examples=60, deadline=None)
@given(grid=rate_grids())
def test_drawn_rate_grids_match_their_oracles(tmp_path_factory, grid):
    assert_written_as_oracles(grid, tmp_path_factory.mktemp("grid"))
