"""Batch front-end: analyze one operating point, run grid sweeps, run
Monte-Carlo sessions, evaluate timing-race scenarios.

Every command writes its outputs plus the effective config into --out, so
re-running from that directory's config reproduces the outputs
byte-identically. One function, ``_write_outputs``, writes every command's
files: into a hidden stage inside --out first, then renamed into place
together, so a failed write leaves --out as it was. Exit codes: 0 success,
1 validation error, 2 I/O error, 3 infeasible / no positive secrecy.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from pathlib import Path

from . import config as cfg
from . import kem, output, race
from .params import KeyMaterial, SystemParams, ValidationError
from .secrecy import (NoPositiveSecrecyError, jke_duration, secrecy_rate,
                      sweep_min_bob_snr, sweep_rate_vs_snr)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3


def _load(args) -> tuple:
    """The config named by ``--config`` and its valid operating point."""
    config = cfg.load_config(args.config)
    return config, cfg.parse_system(config)


def _write_outputs(args, writers: dict) -> Path:
    """Write a command's files into ``--out``, all of them or none.

    ``writers`` maps each file name to a callable that writes that file at
    the path it is given. ``--out`` is created if absent. Each writer writes
    into a hidden stage directory inside it, ``.jkelab.<pid>.partial``; once
    every one has written, each file is renamed over its name in ``--out``
    and the stage is removed. If a writer raises, the stage and the
    directories made here are removed and the exception propagates, so a
    file already in ``--out`` stays as it was. Only the renames are not all
    or nothing: one that fails (say, onto a name that is an existing
    directory) leaves the files renamed before it in place.
    """
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    stage = out / f".jkelab.{os.getpid()}.partial"
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage.mkdir()
        try:
            for name, write in writers.items():
                write(stage / name)
            for name in writers:
                os.replace(stage / name, out / name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    return out


def _exchange(config: dict, params: SystemParams) -> tuple:
    """The secrecy report at ``params``, the exchange timing for the
    config's ``key_bits`` and ``efficiency``, and the reason there is no
    timing (``None`` when there is one)."""
    key_bits, efficiency = cfg.parse_exchange(config)
    report = secrecy_rate(params)
    try:
        return report, jke_duration(report, key_bits, efficiency), None
    except NoPositiveSecrecyError as exc:
        return report, None, str(exc)


def cmd_analyze(args) -> int:
    config, params = _load(args)
    report, timing, timing_error = _exchange(config, params)

    payload = {
        "system": cfg.system_to_dict(params),
        "secrecy": report.to_dict(),
        "timing": None if timing is None else timing.to_dict(),
        "timing_error": timing_error,
    }
    writers = {"config.json": lambda path: output.write_json(path, config)}
    if args.format == "csv":
        record = payload["secrecy"] | {
            "duration_s": None if timing is None else timing.duration_s}
        writers["report.csv"] = lambda path: output.write_record_csv(record, path)
    else:
        writers["report.json"] = lambda path: output.write_json(path, payload)
    out = _write_outputs(args, writers)
    if timing is None:
        print(f"secrecy rate {report.rate_bits_per_s:.6g} bit/s: {timing_error}")
        return EXIT_INFEASIBLE
    print(f"secrecy rate {report.rate_bits_per_s:.6g} bit/s, "
          f"{timing.key_bits}-bit key in {timing.duration_s * 1e3:.4g} ms "
          f"-> {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, params = _load(args)
    which, axes = cfg.parse_sweep(config, args.which)
    if which == "fig3a":
        grid = sweep_rate_vs_snr(params, axes["bob_snr_db"], axes["eve_snr_db"])
    else:
        grid = sweep_min_bob_snr(params, axes["jamming_bits"],
                                 axes["eve_jitter_s"])

    # Only a grid that was built leaves an output directory.
    config.setdefault("sweep", {})["which"] = which
    writers = {"config.json": lambda path: output.write_json(path, config)}
    if args.format == "csv" and which == "fig3a":
        writers["grid.csv"] = lambda path: output.write_rate_grid_csv(grid, path)
        writers["zero_crossing.csv"] = \
            lambda path: output.write_rate_contour_csv(grid, path)
    elif args.format == "csv":
        writers["grid.csv"] = \
            lambda path: output.write_threshold_grid_csv(grid, path)
    else:
        writers["grid.json"] = lambda path: output.write_json(path, grid)
    sweep = {"which": which, "system": cfg.system_to_dict(params), "axes": axes}
    writers["sweep.json"] = lambda path: output.write_json(path, sweep)
    out = _write_outputs(args, writers)
    print(f"swept {which}: {math.prod(map(len, axes.values()))} cells -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # Only this command runs the Monte-Carlo session, so only it loads NumPy.
    import numpy as np

    from .session import (CancellationModel, eve_storage_attack,
                          run_jke_session, true_jamming_stream)

    config, params = _load(args)
    sim = cfg.parse_simulate(config, args.seed)
    seed = sim["seed"]
    depth = sim["cancellation_db"]

    # Fold the effective seed back in so a rerun from the written config
    # reproduces the outputs byte-identically.
    config.setdefault("simulate", {})["seed"] = seed

    # Deterministic per-stage seeds from the one user seed.
    stage = np.random.SeedSequence(seed).spawn(4)
    k_ab = KeyMaterial(np.random.default_rng(stage[0]).bytes(32))
    kem_info, k_ab_rx = {"mode": sim["kem"]["mode"]}, k_ab
    if kem_info["mode"] == "toy-rsa":
        pair = kem.keygen(sim["kem"]["bit_length"],
                          int(stage[1].generate_state(1)[0]))
        ciphertext = kem.encapsulate(pair, k_ab)
        k_ab_rx = kem.decapsulate(pair, ciphertext)
        kem_info |= {"modulus_bits": pair.bit_length,
                     "public_exponent": pair.public_exponent,
                     "blocks": len(ciphertext.blocks),
                     "roundtrip_ok": k_ab_rx == k_ab}
    k_l = KeyMaterial(np.random.default_rng(stage[2]).bytes(sim["key_bits"] // 8))

    # A sample power beyond the float range (signal power 1e300 at w = 14)
    # is a named error, not a NumPy warning and an inf statistic.
    try:
        with np.errstate(over="raise", invalid="raise"):
            # float("inf") for the config's "inf", the float itself otherwise
            trace = run_jke_session(
                params, CancellationModel(float(depth)), k_l, sim["n_symbols"],
                int(stage[3].generate_state(1)[0]), jamming_seed=k_ab_rx,
                jam_scale=sim["jam_scale"])
            attack = (eve_storage_attack(trace, true_jamming_stream(trace))
                      if params.jamming_bits_per_symbol > 0 else None)
    except FloatingPointError as exc:
        raise ValidationError(
            f"simulated sample powers at signal power {params.signal_power!r} "
            f"are out of range: {exc}") from exc
    stats = {
        "session": trace.stats,
        "kem": kem_info,
        "warnings": list(trace.warnings),
        "cancellation_db": depth,
        "seed": seed,
    }
    if attack is not None:
        stats["storage_attack"] = attack.to_dict()
    _check_finite(stats)
    # Only a session that passed every check leaves an output directory.
    out = _write_outputs(args, {
        "config.json": lambda path: output.write_json(path, config),
        "stats.json": lambda path: output.write_json(path, stats),
        "trace.csv": lambda path: output.write_trace_csv(trace, path)})
    print(f"simulated {sim['n_symbols']} symbols (seed {seed}) -> {out}")
    return EXIT_OK


def _check_finite(stats: dict, prefix: str = "") -> None:
    """Reject a float in ``stats`` that standard JSON cannot hold (an
    error variance of 0 makes an effective SNR inf), naming the statistic."""
    for key, value in stats.items():
        if isinstance(value, dict):
            _check_finite(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(
                f"simulated statistic {prefix}{key} is out of range: it is "
                f"{value!r}, not a finite float")


def cmd_race(args) -> int:
    config, params = _load(args)
    attacker, trend = cfg.parse_race(config)
    report, timing, timing_error = _exchange(config, params)
    payload = {"system": cfg.system_to_dict(params),
               "secrecy": report.to_dict()}
    if timing is None:
        payload["error"] = timing_error
    else:
        scenario = race.race_verdict(timing.duration_s, attacker)
        payload |= {
            "timing": timing.to_dict(),
            "race": scenario.to_dict(),
            "eve_adc_trend": _trend_annotation(trend, params),
            "caveats": [race.TREND_CAVEAT],
        }

    # Only a race that was decided, or found undecidable, leaves an output
    # directory.
    _write_outputs(args, {
        "config.json": lambda path: output.write_json(path, config),
        "race.json": lambda path: output.write_json(path, payload)})
    if timing is None:
        print(f"race undecidable: {timing_error}")
        return EXIT_INFEASIBLE
    print(f"t_j = {timing.duration_s:.6g} s vs attacker "
          f"{attacker.name} ({attacker.t_qc_s if attacker.t_qc_s is not None else 'unknown'} s)"
          f" -> {scenario.verdict.value}")
    return EXIT_OK


def _trend_annotation(trend: race.JitterTrend, params: SystemParams) -> dict:
    """When does the assumed eavesdropper ADC become commercially plausible
    under the jitter trend?"""
    target = params.eve_adc.aperture_jitter_s
    info = vars(trend) | {"assumed_eve_jitter_s": target}
    if target >= trend.reference_jitter_s:
        info |= {"plausible_year": trend.reference_year,
                 "annotation": "already within the state of the art"}
    else:
        year = race.year_for_jitter(trend, target)
        info |= {"plausible_year": year,
                 "annotation": f"plausible around {math.ceil(year)}"}
    return info


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jkelab",
        description=("Analyze, sweep, simulate, and race a hybrid "
                     "public-key + jamming key-exchange system."))
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, func, default_format, help_text in (
            ("analyze", cmd_analyze, "json",
             "secrecy rate and exchange duration at one operating point"),
            ("sweep", cmd_sweep, "csv",
             "grid sweeps (secrecy-rate map or minimum-SNR thresholds)"),
            ("simulate", cmd_simulate, None,
             "Monte-Carlo session with storage attack"),
            ("race", cmd_race, None,
             "exchange duration vs attacker time model")):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or a shipped config name "
                            f"({', '.join(cfg.shipped_config_names())})")
        p.add_argument("--out", default="jkelab-out",
                       help="output directory (created if absent)")
        if default_format:
            p.add_argument("--format", choices=("csv", "json"),
                           default=default_format,
                           help="output format for the primary artifact")
        p.set_defaults(func=func)
    commands["sweep"].add_argument("--which", choices=cfg.SWEEP_AXES,
                                   help="sweep kind (overrides the config)")
    commands["simulate"].add_argument("--seed", type=int,
                                      help="override the config's RNG seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
