"""Batch front-end: analyze one operating point, run grid sweeps, run
Monte-Carlo sessions, evaluate timing-race scenarios.

Every command writes its outputs plus the effective config into --out, so
re-running from that directory's config reproduces the outputs
byte-identically. Exit codes: 0 success, 1 validation error, 2 I/O error,
3 infeasible / no positive secrecy.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfg
from . import kem, output, race
from .params import KeyMaterial, SystemParams, ValidationError, validate
from .secrecy import (NoPositiveSecrecyError, jke_duration, secrecy_rate,
                      sweep_min_bob_snr, sweep_rate_vs_snr)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3

# Sweep kinds: "fig3a" maps a (bob SNR x eve SNR) grid of secrecy rates,
# "fig3b" maps minimum-bob-SNR thresholds over (jamming bits x eve jitter)
# with a noiseless eavesdropper.
SWEEP_KINDS = ("fig3a", "fig3b")

# Default axes are plot-scale estimates, fully overridable in the config.
_DEFAULT_AXES = {
    "fig3a": {"bob_snr_db": {"min": 0.0, "max": 60.0, "step": 2.0},
              "eve_snr_db": {"min": 0.0, "max": 80.0, "step": 2.0}},
    "fig3b": {"jamming_bits": {"min": 1, "max": 20, "step": 1},
              "eve_jitter_s": {"min": 1e-15, "max": 500e-15, "points": 25,
                               "spacing": "log"}},
}


def _validate_for_analysis(params: SystemParams) -> None:
    # Zero bandwidth is tolerated by the analytics as the degenerate
    # zero-rate point; everything else must hold.
    if params.bandwidth_hz == 0:
        validate(replace(params, bandwidth_hz=1.0))
    else:
        validate(params)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _exchange(config: dict, params: SystemParams) -> tuple:
    """The secrecy report at ``params``, the exchange timing for the
    config's ``key_bits`` and ``efficiency``, and the reason there is no
    timing (``None`` when there is one)."""
    key_bits = cfg.require_integer(config.get("key_bits", 256), "key_bits")
    efficiency = cfg.require_number(config.get("efficiency", 0.001),
                                    "efficiency")
    report = secrecy_rate(params)
    try:
        return report, jke_duration(report, key_bits, efficiency), None
    except NoPositiveSecrecyError as exc:
        return report, None, str(exc)


def cmd_analyze(args) -> int:
    config = cfg.load_config(args.config)
    params = cfg.parse_system(config)
    _validate_for_analysis(params)
    report, timing, timing_error = _exchange(config, params)

    payload = {
        "system": cfg.system_to_dict(params),
        "secrecy": report.to_dict(),
        "timing": None if timing is None else timing.to_dict(),
        "timing_error": timing_error,
    }
    out = _outdir(args)
    output.write_json(out / "config.json", config)
    if args.format == "csv":
        _write_flat_csv(out / "report.csv", payload["secrecy"]
                        | {"duration_s": timing.duration_s if timing else ""})
    else:
        output.write_json(out / "report.json", payload)
    if timing is None:
        print(f"secrecy rate {report.rate_bits_per_s:.6g} bit/s: {timing_error}")
        return EXIT_INFEASIBLE
    print(f"secrecy rate {report.rate_bits_per_s:.6g} bit/s, "
          f"{timing.key_bits}-bit key in {timing.duration_s * 1e3:.4g} ms "
          f"-> {out}")
    return EXIT_OK


def _write_flat_csv(path: Path, payload: dict) -> None:
    keys = sorted(payload)
    lines = [",".join(keys),
             ",".join(repr(payload[k]) if isinstance(payload[k], float)
                      else str(payload[k]) for k in keys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_sweep(args) -> int:
    config = cfg.load_config(args.config)
    params = cfg.parse_system(config)
    validate(params)
    sweep_block = cfg.require_object(config.get("sweep", {}), "sweep")
    which = args.which or sweep_block.get("which")
    if which not in SWEEP_KINDS:
        raise ValidationError(
            f"sweep kind must be one of {', '.join(SWEEP_KINDS)} "
            "(set sweep.which in the config or pass --which)")

    out = _outdir(args)
    config.setdefault("sweep", {})["which"] = which
    output.write_json(out / "config.json", config)
    axes = {name: cfg.parse_axis(sweep_block.get(name, default),
                                 f"sweep.{name}")
            for name, default in _DEFAULT_AXES[which].items()}
    if which == "fig3a":
        grid = sweep_rate_vs_snr(params, axes["bob_snr_db"], axes["eve_snr_db"])
        if args.format == "json":
            output.write_json(out / "grid.json", output.rate_grid_to_dict(grid))
        else:
            output.write_rate_grid_csv(grid, out / "grid.csv")
            output.write_rate_contour_csv(grid, out / "zero_crossing.csv")
    else:
        axes["jamming_bits"] = [cfg.require_integer(w, "sweep.jamming_bits")
                                for w in axes["jamming_bits"]]
        grid = sweep_min_bob_snr(params, axes["jamming_bits"],
                                 axes["eve_jitter_s"])
        if args.format == "json":
            output.write_json(out / "grid.json",
                              output.threshold_grid_to_dict(grid))
        else:
            output.write_threshold_grid_csv(grid, out / "grid.csv")
    output.write_json(out / "sweep.json", {
        "which": which, "system": cfg.system_to_dict(params), "axes": axes})
    print(f"swept {which}: {math.prod(map(len, axes.values()))} cells -> {out}")
    return EXIT_OK


def _parse_kem_block(block: dict):
    mode = cfg.require_object(block, "simulate.kem").get("mode", "toy-rsa")
    if mode == "toy-rsa":
        return mode, cfg.require_integer(block.get("bit_length", 64),
                                         "simulate.kem.bit_length")
    if mode == "passthrough":
        return mode, None
    raise ValidationError("simulate.kem.mode must be 'toy-rsa' or 'passthrough'")


def cmd_simulate(args) -> int:
    # Only this command runs the Monte-Carlo session, so only it loads NumPy.
    import numpy as np

    from .session import (CancellationModel, eve_storage_attack,
                          run_jke_session, true_jamming_stream)

    config = cfg.load_config(args.config)
    params = cfg.parse_system(config)
    validate(params)
    sim = cfg.require_object(config.get("simulate", {}), "simulate")
    n_symbols = cfg.require_integer(sim.get("n_symbols", 100_000),
                                    "simulate.n_symbols")
    seed = (args.seed if args.seed is not None
            else cfg.require_integer(sim.get("seed", 0), "simulate.seed"))
    depth = sim.get("cancellation_db", "inf")
    if depth != "inf":
        depth = cfg.require_number(depth, "simulate.cancellation_db")
    cancel = CancellationModel(math.inf if depth == "inf" else depth)
    kem_mode, kem_bits = _parse_kem_block(sim.get("kem", {}))
    key_bits = cfg.require_integer(
        sim.get("key_bits", config.get("key_bits", 256)), "key_bits")
    if key_bits % 8:
        raise ValidationError(
            f"key_bits must be a multiple of 8, got {key_bits}")
    jam_scale = sim.get("jam_scale")
    if jam_scale is not None:
        jam_scale = cfg.require_number(jam_scale, "simulate.jam_scale")

    # Fold the effective seed back in so a rerun from the written config
    # reproduces the outputs byte-identically.
    config.setdefault("simulate", {})["seed"] = seed
    out = _outdir(args)
    output.write_json(out / "config.json", config)

    # Deterministic per-stage seeds from the one user seed.
    stage = np.random.SeedSequence(seed).spawn(4)
    k_ab = KeyMaterial(np.random.default_rng(stage[0]).bytes(32))
    kem_info = {"mode": kem_mode}
    if kem_mode == "toy-rsa":
        pair = kem.keygen(kem_bits, int(stage[1].generate_state(1)[0]))
        ciphertext = kem.encapsulate(pair, k_ab)
        k_ab_rx = kem.decapsulate(pair, ciphertext)
        kem_info |= {"modulus_bits": pair.bit_length,
                     "public_exponent": pair.public_exponent,
                     "blocks": len(ciphertext.blocks),
                     "roundtrip_ok": k_ab_rx == k_ab}
    else:
        k_ab_rx = kem.passthrough_decapsulate(kem.passthrough_encapsulate(k_ab))
    k_l = KeyMaterial(np.random.default_rng(stage[2]).bytes(key_bits // 8))

    trace = run_jke_session(params, cancel, k_l, n_symbols,
                            int(stage[3].generate_state(1)[0]),
                            jamming_seed=k_ab_rx, jam_scale=jam_scale)
    stats = {
        "session": trace.stats,
        "kem": kem_info,
        "warnings": list(trace.warnings),
        "cancellation_db": depth,
        "seed": seed,
    }
    if params.jamming_bits_per_symbol > 0:
        attack = eve_storage_attack(trace, true_jamming_stream(trace))
        stats["storage_attack"] = attack.to_dict()
    output.write_json(out / "stats.json", stats)
    output.write_trace_csv(trace, out / "trace.csv")
    print(f"simulated {n_symbols} symbols (seed {seed}) -> {out}")
    return EXIT_OK


def cmd_race(args) -> int:
    config = cfg.load_config(args.config)
    params = cfg.parse_system(config)
    validate(params)
    race_block = cfg.require_object(config.get("race", {}), "race")
    attacker = _parse_attacker(race_block.get("attacker", {}))
    trend = _parse_trend(race_block.get("trend"))
    report, timing, timing_error = _exchange(config, params)

    out = _outdir(args)
    output.write_json(out / "config.json", config)
    if timing is None:
        output.write_json(out / "race.json", {
            "system": cfg.system_to_dict(params),
            "error": timing_error,
            "secrecy": report.to_dict(),
        })
        print(f"race undecidable: {timing_error}")
        return EXIT_INFEASIBLE

    scenario = race.race_verdict(timing.duration_s, attacker)
    payload = {
        "system": cfg.system_to_dict(params),
        "secrecy": report.to_dict(),
        "timing": timing.to_dict(),
        "race": scenario.to_dict(),
        "eve_adc_trend": _trend_annotation(trend, params),
        "caveats": [race.TREND_CAVEAT],
    }
    output.write_json(out / "race.json", payload)
    print(f"t_j = {timing.duration_s:.6g} s vs attacker "
          f"{attacker.name} ({attacker.t_qc_s if attacker.t_qc_s is not None else 'unknown'} s)"
          f" -> {scenario.verdict.value}")
    return EXIT_OK


def _parse_attacker(block: dict) -> race.AttackerTimeModel:
    cfg.require_object(block, "race.attacker")
    if "preset" in block:
        try:
            return race.get_preset(
                cfg.require_string(block["preset"], "race.attacker.preset"),
                cores=cfg.require_integer(block.get("cores", 1),
                                          "race.attacker.cores"))
        except KeyError as exc:
            raise ValidationError(str(exc)) from exc
    if "t_qc_s" in block or "name" in block:
        return race.AttackerTimeModel(
            name=cfg.require_string(block.get("name", "custom"),
                                    "race.attacker.name"),
            t_qc_s=None if block.get("t_qc_s") is None else cfg.require_number(
                block["t_qc_s"], "race.attacker.t_qc_s"),
            note=cfg.require_string(block.get("note", ""),
                                    "race.attacker.note"))
    raise ValidationError(
        "race.attacker must name a preset or define a custom time model")


def _parse_trend(block) -> race.JitterTrend:
    if block is None:
        return race.DEFAULT_TREND
    cfg.require_object(block, "race.trend")
    return race.JitterTrend(**{
        key: cfg.require_number(block.get(key, default), f"race.trend.{key}")
        for key, default in vars(race.DEFAULT_TREND).items()})


def _trend_annotation(trend: race.JitterTrend, params: SystemParams) -> dict:
    """When does the assumed eavesdropper ADC become commercially plausible
    under the jitter trend?"""
    target = params.eve_adc.aperture_jitter_s
    info = {
        "reference_year": trend.reference_year,
        "reference_jitter_s": trend.reference_jitter_s,
        "doubling_period_years": trend.doubling_period_years,
        "assumed_eve_jitter_s": target,
    }
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

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or a shipped config name "
                            f"({', '.join(cfg.shipped_config_names())})")
        p.add_argument("--out", default="jkelab-out",
                       help="output directory (created if absent)")

    def output_format(p, default):
        p.add_argument("--format", choices=("csv", "json"), default=default,
                       help="output format for the primary artifact")

    p_analyze = sub.add_parser("analyze",
                               help="secrecy rate and exchange duration at "
                                    "one operating point")
    common(p_analyze)
    output_format(p_analyze, "json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="grid sweeps (secrecy-rate map "
                                           "or minimum-SNR thresholds)")
    common(p_sweep)
    output_format(p_sweep, "csv")
    p_sweep.add_argument("--which", choices=SWEEP_KINDS, default=None,
                         help="sweep kind (overrides the config)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo session with "
                                            "storage attack")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config's RNG seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_race = sub.add_parser("race", help="exchange duration vs attacker "
                                         "time model")
    common(p_race)
    p_race.set_defaults(func=cmd_race)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
