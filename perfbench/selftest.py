"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

It is not named ``test_*.py`` so that the repository's own test run does
not pick it up; pass it to pytest explicitly.
"""

import contextlib
import io
import json
import subprocess
import sys
from argparse import Namespace
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jkelab.output  # noqa: E402
import jkelab.session  # noqa: E402
import run  # noqa: E402
from workloads import TINY, SweepGrid, SessionLarge, Tally, relative_round  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    args = Namespace(workload=workload, seed=5, seconds=0.0, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.run_one(args, SPEC, TINY[workload]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    result = _result(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_round_is_timed_against_the_median_reference():
    assert relative_round(4.0, [0.5, 2.0, 9.0]) == pytest.approx(2.0)
    # A machine twice as slow doubles every time and leaves the figure alone.
    assert relative_round(8.0, [1.0, 4.0, 18.0]) == pytest.approx(2.0)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.fixture
def patched(monkeypatch):
    """Replace a jkelab function by a corrupting wrapper around it."""
    def patch(module, name, corrupt):
        original = getattr(module, name)

        def corrupted(*args, **kwargs):
            return corrupt(original(*args, **kwargs), *args)

        monkeypatch.setattr(module, name, corrupted)
    return patch


def test_one_altered_sweep_cell_is_counted_as_failed(patched, tmp_path):
    workload = SweepGrid(7, TINY["sweep-grid"], tmp_path)
    target = workload.checked["fig3a"][0] + 2  # header line, 1-based

    def alter_cell(path, grid, _):
        lines = Path(path).read_text().splitlines(keepends=True)
        fields = lines[target - 1].split(",")
        fields[2] = repr(float(fields[2]) * (1 + 1e-9))
        lines[target - 1] = ",".join(fields)
        Path(path).write_text("".join(lines))
        return path

    patched(jkelab.output, "write_rate_grid_csv", alter_cell)
    tally = Tally()
    workload.round(0, tally, nullcontext)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.messages[0].startswith("sweep fig3a --format csv: AssertionError")


def test_a_dropped_json_cell_is_counted_as_failed(patched, tmp_path):
    workload = SweepGrid(7, TINY["sweep-grid"], tmp_path)

    def drop_cell(payload, grid):
        payload["cells"][0] = payload["cells"][0][1:]
        return payload

    patched(jkelab.output, "threshold_grid_to_dict", drop_cell)
    tally = Tally()
    workload.round(0, tally, nullcontext)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.messages[0].startswith("sweep fig3b --format json")


def test_a_wrong_storage_attack_is_counted_as_failed(patched):
    workload = SessionLarge(7, TINY["session-large"], Path("."))

    def inflate(report, trace, jamming):
        return type(report)(report.n_symbols, report.residual_var * 1.1,
                            report.pre_attack_snr, report.post_attack_snr)

    patched(jkelab.session, "eve_storage_attack", inflate)
    tally = Tally()
    assert workload.round(0, tally, nullcontext) is not None
    assert (tally.attempted, tally.failed) == (3, 3)
    assert "residual_var" in tally.messages[0]


def test_without_sources_the_benchmark_exits_non_zero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "sweep-grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
