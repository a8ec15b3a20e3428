"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: the next round starts
only after the previous one, and its checks, finished. A round returns
its wall time split in two parts (``main_s`` and ``side_s``, defined per
workload in README.md); checks run after the timed part, outside any
tracing, and every failed check, exception or non-zero exit code marks
its operation as failed. A round calls ``pace()`` between its timed
parts, before the first and after the last; an untraced run times a
reference task there.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import random
import re
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from jkelab import adc, kem, output, session
from jkelab import config as cfg
from jkelab.params import AdcSpec, KeyMaterial, SnrPoint, snr_to_noise_var
from jkelab.secrecy import min_bob_snr_for_positive_rs, secrecy_rate
from reference import NumpyReference, PythonReference

_perf = time.perf_counter

# Sizes of the measured runs and of the self-test / warm-up runs.
FULL = {
    "cli-shipped": {},
    "session-large": {"n_symbols": 3_000_000},
    "sweep-grid": {"fig3a": (150, 200), "fig3b": (20, 500), "checked_cells": 16},
}
TINY = {
    "cli-shipped": {},
    "session-large": {"n_symbols": 20_000},
    "sweep-grid": {"fig3a": (6, 8), "fig3b": (3, 10), "checked_cells": 4},
}

REL_TOL = 1e-12
PAPER_DURATION_S = 11.52e-3


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {errors[0]}")


def _nothing():
    pass


def _call(fn, *args):
    """(result, error message or None); the call's own failure is data."""
    try:
        return fn(*args), None
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failed
        return None, f"{type(exc).__name__}: {exc}"


def _cli(argv):
    # Looked up at call time, so a traced round sees the wrapped main.
    cli = importlib.import_module("jkelab.cli")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return code


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _rate_scale(report) -> float:
    """The rate is a difference of two log terms times the bandwidth, so
    its rounding error scales with the larger term, not with the rate."""
    return report.bandwidth_hz * max(abs(report.bob_term_bits), abs(report.eve_term_bits))


def _hashes(directory: Path) -> dict:
    # Streamed, so that checking a 16 MB trace does not raise peak RSS.
    digests = {}
    for path in sorted(directory.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        digests[path.name] = digest.hexdigest()
    return digests


class CliShipped:
    """Rounds of the five shipped-config commands through ``jkelab.cli.main``."""

    COMMANDS = (("analyze", "paper-operating-point"), ("sweep", "fig3a"),
                ("sweep", "fig3b"), ("simulate", "simulate-default"),
                ("race", "race-default"))
    REFERENCE = PythonReference

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.workdir = workdir
        self.sim_seed = random.Random(seed).randrange(2 ** 31)
        self.expected = {}
        self.rounds = 0
        self.sizes = {"simulate_seed": self.sim_seed}

    def warmup(self, tally: Tally) -> None:
        # The first round also fixes the expected outputs.
        self.round(0, tally, nullcontext)

    def round(self, index: int, tally: Tally, traced, pace=_nothing) -> dict:
        base = self.workdir / f"cli-{self.rounds}"
        self.rounds += 1
        runs = []
        with traced():
            for command, config in self.COMMANDS:
                out = base / f"{command}-{config}"
                argv = [command, "--config", config, "--out", str(out)]
                if command == "simulate":
                    argv += ["--seed", str(self.sim_seed)]
                pace()
                start = _perf()
                _, error = _call(_cli, argv)
                runs.append((command, config, out, error, _perf() - start))
            pace()
        round_s = sum(t for *_, t in runs)
        for command, config, out, error, _ in runs:
            errors = [error] if error else []
            if not errors:
                _, check_error = _call(self._check, command, config, out)
                if check_error:
                    errors.append(check_error)
            tally.record(f"{command} {config}", errors)
        shutil.rmtree(base, ignore_errors=True)
        simulate_s = sum(t for c, _, _, _, t in runs if c == "simulate")
        return {"round_s": round_s, "main_s": simulate_s,
                "side_s": round_s - simulate_s}

    def named(self, medians: dict) -> dict:
        return {"simulate_s": (medians["main_s"], "s"),
                "analytic_cmds_s": (medians["side_s"], "s")}

    def _check(self, command: str, config: str, out: Path) -> None:
        if command == "analyze":
            report = json.loads((out / "report.json").read_text())
            duration = report["timing"]["duration_s"]
            if not abs(duration / PAPER_DURATION_S - 1.0) <= 0.05:
                raise AssertionError(f"duration {duration} s is not 11.52 ms +-5%")
        if command == "simulate":
            stats = json.loads((out / "stats.json").read_text())
            if stats["kem"]["roundtrip_ok"] is not True:
                raise AssertionError("KEM round trip failed")
            if stats["cancellation_db"] == "inf" and stats["session"]["bob_key_bit_errors"] != 0:
                raise AssertionError("key-bit errors at infinite cancellation")
        digests = _hashes(out)
        expected = self.expected.setdefault(config, digests)
        if digests != expected:
            raise AssertionError("outputs differ from the first round")


class SessionLarge:
    """The library Monte-Carlo pipeline, no trace file: per case a KEM round
    trip, one large session, the storage attack and the stats as JSON. A
    round runs the three cases, so every round does the same work."""

    # (jamming bits, cancellation dB): only 60 dB is short of w + 2 bits.
    CASES = ((8, math.inf), (14, 150.0), (20, 60.0))
    REFERENCE = NumpyReference

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.n_symbols = sizes["n_symbols"]
        start = seed % len(self.CASES)
        self.cases = self.CASES[start:] + self.CASES[:start]
        self.base = cfg.parse_system(cfg.load_config("paper-operating-point"))
        self.sizes = {"n_symbols": self.n_symbols,
                      "cases": [[w, str(d)] for w, d in self.cases]}

    def warmup(self, tally: Tally) -> None:
        # One pipeline at full size and the widest jamming stream, so that
        # the first timed round does not pay for first touches of the
        # large arrays.
        w, depth = max(self.cases)
        result, error = _call(self._operation, 0, 0, w, depth)
        tally.record(f"warm-up session w={w} cancel={depth:g}dB",
                     [error] if error else self._check(*result[2:]))

    def round(self, index: int, tally: Tally, traced, pace=_nothing) -> dict | None:
        done, crashed = [], False
        with traced():
            for case, (w, depth) in enumerate(self.cases):
                label = f"session w={w} cancel={depth:g}dB"
                pace()
                try:
                    done.append((label, self._operation(index, case, w, depth, pace)))
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    tally.record(label, [f"{type(exc).__name__}: {exc}"])
                    crashed = True
                    break
            pace()
        for label, result in done:
            tally.record(label, self._check(*result[2:]))
        if crashed:
            return None
        round_s = sum(result[0] for _, result in done)
        main_s = sum(result[1] for _, result in done)
        return {"round_s": round_s, "main_s": main_s, "side_s": round_s - main_s}

    def _operation(self, index: int, case: int, w: int, depth: float,
                   pace=_nothing) -> tuple:
        """One pipeline: (wall s, session s, then what the checks need).
        ``pace()`` runs untimed between the session and the attack."""
        params = replace(self.base, jamming_bits_per_symbol=w)
        rng = np.random.default_rng([self.seed, index, case])
        k_ab = KeyMaterial(rng.bytes(32))
        k_l = KeyMaterial(rng.bytes(32))
        kem_seed, session_seed = (int(v) for v in rng.integers(0, 2 ** 31, 2))
        t0 = _perf()
        pair = kem.keygen(64, kem_seed)
        k_rx = kem.decapsulate(pair, kem.encapsulate(pair, k_ab))
        t1 = _perf()
        trace = session.run_jke_session(
            params, session.CancellationModel(depth), k_l,
            self.n_symbols, session_seed, jamming_seed=k_rx)
        t2 = _perf()
        pace()
        t3 = _perf()
        attack = session.eve_storage_attack(trace, session.true_jamming_stream(trace))
        text = output.dump_json_str({
            "session": trace.stats, "storage_attack": attack.to_dict(),
            "warnings": list(trace.warnings)})
        t4 = _perf()
        return (t2 - t0 + t4 - t3, t2 - t1, params, depth, k_rx == k_ab, trace.stats,
                trace.warnings, attack, text)

    def _check(self, params, depth, kem_ok, stats, warnings, attack, text) -> list:
        errors = []
        if not kem_ok:
            errors.append("KEM round trip failed")
        delta_e = adc.eve_resolution(params.signal_power, params.eve_bits(),
                                     params.jamming_bits_per_symbol,
                                     params.dynamic_range_factor)
        ratio = attack.residual_var / (delta_e ** 2 / 12.0)
        if not abs(ratio - 1.0) <= 0.05:
            errors.append(f"residual_var is {ratio:.4f} x delta_e^2/12")
        if bool(warnings) != (depth == 60.0) or stats["insufficient_cancellation"] != bool(warnings):
            errors.append(f"cancellation warning {list(warnings)} at {depth} dB")
        if math.isinf(depth) and stats["bob_key_bit_errors"] != 0:
            errors.append("key-bit errors at infinite cancellation")
        if json.loads(text)["session"]["n_symbols"] != self.n_symbols:
            errors.append("stats JSON does not round-trip")
        return errors

    def named(self, medians: dict) -> dict:
        symbols = self.n_symbols * len(self.cases)
        return {"msym_per_s": (symbols / 1e6 / medians["round_s"], "Msym/s")}


_JSON_RATE = re.compile(r'"rate_bits_per_s": ([^,\s]+)')
_JSON_THRESHOLD = re.compile(r'"kind": "(\w+)",\s*"snr_db": ([^,\s}]+)')


class SweepGrid:
    """Large generated sweeps through ``jkelab.cli.main``, each once as CSV
    and once as JSON."""

    RUNS = (("fig3a", "csv"), ("fig3a", "json"), ("fig3b", "csv"), ("fig3b", "json"))
    REFERENCE = PythonReference

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.seed = seed
        self.rounds = 0
        n_bob, n_eve = sizes["fig3a"]
        n_w, n_jitter = sizes["fig3b"]
        # The seed jitters the axis endpoints; point counts stay fixed.
        bob_block, self.bob_axis = _linear_axis(rng.uniform(0, 1), 60 + rng.uniform(-1, 1), n_bob)
        eve_block, self.eve_axis = _linear_axis(rng.uniform(0, 1), 80 + rng.uniform(-1, 1), n_eve)
        lo, hi = 1e-15 * (1 + 0.2 * rng.random()), 500e-15 * (1 + 0.2 * rng.random())
        ratio = (hi / lo) ** (1.0 / (n_jitter - 1))
        self.jitter_axis = [lo * ratio ** i for i in range(n_jitter)]
        self.w_axis = list(range(1, n_w + 1))
        fig3a = cfg.load_config("fig3a")
        fig3a["sweep"] = {"which": "fig3a", "bob_snr_db": bob_block, "eve_snr_db": eve_block}
        fig3b = cfg.load_config("fig3b")
        fig3b["sweep"] = {"which": "fig3b",
                          "jamming_bits": {"min": 1, "max": n_w, "step": 1},
                          "eve_jitter_s": {"min": lo, "max": hi, "points": n_jitter,
                                           "spacing": "log"}}
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        self.templates = {}
        for name, conf in (("fig3a", fig3a), ("fig3b", fig3b)):
            path = workdir / f"sweep-{name}-{n_bob}x{n_eve}-{n_w}x{n_jitter}.json"
            path.write_text(json.dumps(conf), encoding="utf-8")
            self.configs[name] = path
            self.templates[name] = cfg.parse_system(conf)
        self.cells = {"fig3a": n_bob * n_eve, "fig3b": n_w * n_jitter}
        k = sizes["checked_cells"]
        self.checked = {name: sorted(rng.sample(range(n), min(k, n)))
                        for name, n in self.cells.items()}
        self.sizes = {"fig3a": [n_bob, n_eve], "fig3b": [n_w, n_jitter],
                      "checked_cells": k}

    def warmup(self, tally: Tally) -> None:
        self.round(0, tally, nullcontext)

    def round(self, index: int, tally: Tally, traced, pace=_nothing) -> dict:
        base = self.workdir / f"sweep-{self.rounds}"
        self.rounds += 1
        runs = []
        with traced():
            for which, fmt in self.RUNS:
                out = base / f"{which}-{fmt}"
                argv = ["sweep", "--config", str(self.configs[which]),
                        "--out", str(out), "--format", fmt]
                pace()
                start = _perf()
                _, error = _call(_cli, argv)
                runs.append((which, fmt, out, error, _perf() - start))
            pace()
        round_s = sum(t for *_, t in runs)
        for which, fmt, out, error, _ in runs:
            errors = [error] if error else []
            if not errors:
                check = getattr(self, f"_check_{which}_{fmt}")
                _, check_error = _call(check, out)
                if check_error:
                    errors.append(check_error)
            tally.record(f"sweep {which} --format {fmt}", errors)
        shutil.rmtree(base, ignore_errors=True)
        csv_s = sum(t for _, fmt, _, _, t in runs if fmt == "csv")
        return {"round_s": round_s, "main_s": csv_s, "side_s": round_s - csv_s}

    def named(self, medians: dict) -> dict:
        cells = sum(self.cells.values())
        return {"csv_cells_per_s": (cells / medians["main_s"], "cells/s"),
                "json_cells_per_s": (cells / medians["side_s"], "cells/s")}

    def _rows(self, path: Path, wanted) -> tuple:
        """(data row count, {row index: fields}) in one streaming pass."""
        wanted, picked, count = set(wanted), {}, 0
        with path.open("r", encoding="utf-8") as fh:
            next(fh)
            for count, line in enumerate(fh, start=1):
                if count - 1 in wanted:
                    picked[count - 1] = line.rstrip("\r\n").split(",")
        return count, picked

    def _expected_rate(self, i: int, j: int, row):
        sb, se = float(row[0]), float(row[1])
        if not (math.isclose(sb, self.bob_axis[i], rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(se, self.eve_axis[j], rel_tol=1e-9, abs_tol=1e-9)):
            raise AssertionError(f"cell ({i}, {j}) is at ({sb}, {se}) dB")
        template = self.templates["fig3a"]
        p = template.signal_power
        return secrecy_rate(template.with_bob_noise_var(snr_to_noise_var(SnrPoint(sb), p))
                            .with_eve_noise_var(snr_to_noise_var(SnrPoint(se), p)))

    def _check_count(self, which: str, count: int) -> None:
        if count != self.cells[which]:
            raise AssertionError(f"{count} cells written, {self.cells[which]} expected")

    def _check_fig3a_csv(self, out: Path) -> None:
        n_eve = len(self.eve_axis)
        count, rows = self._rows(out / "grid.csv", self.checked["fig3a"])
        self._check_count("fig3a", count)
        for cell, row in rows.items():
            want = self._expected_rate(cell // n_eve, cell % n_eve, row)
            got = [float(v) for v in row[2:7]]
            expected = (want.rate_bits_per_s, want.bob_term_bits, want.eve_term_bits,
                        want.delta_b, want.delta_e)
            scales = (_rate_scale(want), 0.0, 0.0, 0.0, 0.0)
            same = all(_close(g, e, s) for g, e, s in zip(got, expected, scales))
            if not same or row[7] != str(want.positive).lower():
                raise AssertionError(f"fig3a cell {cell} is {row[2:]}, expected {want}")
        contour_rows, _ = self._rows(out / "zero_crossing.csv", ())
        if contour_rows != n_eve:
            raise AssertionError(f"{contour_rows} zero-crossing rows, {n_eve} expected")

    def _check_fig3a_json(self, out: Path) -> None:
        n_eve = len(self.eve_axis)
        text = (out / "grid.json").read_text(encoding="utf-8")
        values = [m.group(1) for m in _JSON_RATE.finditer(text)]
        self._check_count("fig3a", len(values))
        for cell in self.checked["fig3a"]:
            i, j = divmod(cell, n_eve)
            want = self._expected_rate(i, j, (self.bob_axis[i], self.eve_axis[j]))
            if not _close(float(values[cell]), want.rate_bits_per_s, _rate_scale(want)):
                raise AssertionError(f"fig3a cell {cell} rate is {values[cell]}, "
                                     f"expected {want.rate_bits_per_s!r}")

    def _expected_threshold(self, cell: int, jitter: float):
        i, j = divmod(cell, len(self.jitter_axis))
        if not math.isclose(jitter, self.jitter_axis[j], rel_tol=1e-9):
            raise AssertionError(f"cell {cell} is at jitter {jitter}")
        point = replace(self.templates["fig3b"].with_eve_noise_var(0.0),
                        jamming_bits_per_symbol=self.w_axis[i],
                        eve_adc=AdcSpec(aperture_jitter_s=jitter))
        return min_bob_snr_for_positive_rs(point)

    @staticmethod
    def _same_threshold(kind: str, snr, want) -> bool:
        if kind != want.kind.value or (snr is None) != (want.snr_db is None):
            return False
        return snr is None or _close(snr, want.snr_db)

    def _check_fig3b_csv(self, out: Path) -> None:
        count, rows = self._rows(out / "grid.csv", self.checked["fig3b"])
        self._check_count("fig3b", count)
        for cell, row in rows.items():
            want = self._expected_threshold(cell, float(row[1]))
            snr = float(row[3]) if row[3] else None
            if int(row[0]) != self.w_axis[cell // len(self.jitter_axis)] or \
                    not self._same_threshold(row[2], snr, want):
                raise AssertionError(f"fig3b cell {cell} is {row}, expected {want}")

    def _check_fig3b_json(self, out: Path) -> None:
        text = (out / "grid.json").read_text(encoding="utf-8")
        cells = _JSON_THRESHOLD.findall(text)
        self._check_count("fig3b", len(cells))
        for cell in self.checked["fig3b"]:
            kind, snr = cells[cell]
            want = self._expected_threshold(cell, self.jitter_axis[cell % len(self.jitter_axis)])
            if not self._same_threshold(kind, None if snr == "null" else float(snr), want):
                raise AssertionError(f"fig3b cell {cell} is {kind} {snr}, expected {want}")


def _linear_axis(lo: float, hi: float, points: int) -> tuple:
    """A min/max/step axis block with exactly ``points`` values, and the
    values the config parser derives from it."""
    step = (hi - lo) / (points - 1)
    block = {"min": lo, "max": lo + step * (points - 0.5), "step": step}
    return block, [lo + i * step for i in range(points)]


WORKLOADS = {"cli-shipped": CliShipped, "session-large": SessionLarge,
             "sweep-grid": SweepGrid}


def relative_round(round_s: float, refs: list) -> float:
    """A round's time in reference-task units: its wall time over the
    median of the reference times interleaved with it."""
    return round_s / statistics.median(refs)


def run_workload(name: str, seed: int, seconds: float, tracer, sizes: dict,
                 workdir: Path, between=_nothing) -> dict:
    """Warm up, then run rounds until ``seconds`` have passed (at least
    one), calling ``between()`` after each. Without a tracer, the workload's
    reference task runs wherever a round paces itself, and ``round_rel``
    samples each round's time relative to it. With a tracer,
    every round runs twice in a row, untraced then traced, so the pair
    gives the tracing overhead."""
    tally = Tally()
    workload = WORKLOADS[name](seed, sizes, workdir)
    workload.warmup(tally)
    samples = {"round_s": [], "main_s": [], "side_s": []}
    refs, pace = [], _nothing
    if tracer is None:
        samples.update(round_rel=[], ref_s=[])
        reference = workload.REFERENCE()
        reference()  # its own warm-up

        def pace():
            refs.append(reference())

    @contextmanager
    def traced():
        with tracer.installed(), tracer.round():
            yield

    overhead = []
    start = _perf()
    index = 0
    while index == 0 or _perf() - start < seconds:
        refs.clear()
        plain = workload.round(index, tally, nullcontext, pace)
        if plain is not None:
            for key, value in plain.items():
                samples[key].append(value)
            if refs:
                samples["round_rel"].append(relative_round(plain["round_s"], refs))
                samples["ref_s"].extend(refs)
        if tracer is not None:
            with_spans = workload.round(index, tally, traced)
            if plain is not None and with_spans is not None:
                overhead.append(with_spans["round_s"] / plain["round_s"] - 1.0)
        between()
        index += 1
    return {"tally": tally, "samples": samples, "overhead": overhead,
            "workload": workload}
