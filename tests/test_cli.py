import csv
import json
import tracemalloc

import pytest

from jkelab.config import load_config
from jkelab.cli import (EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VALIDATION,
                        main)

HEADLINE_SYSTEM = {
    "bandwidth_hz": 40e6,
    "signal_power": 1.0,
    "jamming_bits_per_symbol": 14,
    "dynamic_range_factor": 2.5,
    "bob_adc": {"aperture_jitter_s": 500e-15},
    "eve_adc": {"aperture_jitter_s": 5e-15},
    "bob_channel": {"snr_db": 32.0},
    "eve_channel": {"snr_db": 80.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestAnalyze:
    def test_shipped_operating_point_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", "--config", "paper-operating-point",
                     "--out", str(out)]) == EXIT_OK
        report = read_json(out / "report.json")
        assert report["timing"]["duration_s"] == pytest.approx(11.52e-3,
                                                               rel=5e-3)
        assert report["secrecy"]["positive"]
        assert (out / "config.json").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["analyze", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_directory_as_config_is_io_error(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["analyze", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_invalid_system_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM
                                      | {"dynamic_range_factor": -1.0}})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_zero_bandwidth_is_validation_error(self, tmp_path, capsys):
        # The bound is evaluated at a positive bandwidth; zero is not an
        # operating point, for analyze as for every other command.
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM
                                      | {"bandwidth_hz": 0.0}})
        out = tmp_path / "o"
        assert main(["analyze", "--config", cfg,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: bandwidth must be positive and finite\n")
        assert not out.exists()

    def test_negative_secrecy_exit_code(self, tmp_path):
        system = HEADLINE_SYSTEM | {
            "jamming_bits_per_symbol": 0,
            "eve_adc": {"aperture_jitter_s": 500e-15},
            "eve_channel": {"snr_db": 32.0},
        }
        cfg = write_config(tmp_path, {"system": system})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--config", cfg, "--out", str(out1)])
        main(["analyze", "--config", str(out1 / "config.json"),
              "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM})
        out = tmp_path / "o"
        assert main(["analyze", "--config", cfg, "--out", str(out),
                     "--format", "csv"]) == EXIT_OK
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and "rate_bits_per_s" in lines[0]

    def test_csv_format_follows_the_csv_contract(self, tmp_path):
        # CRLF line ends, lowercase booleans, and an empty duration_s cell
        # when there is no positive secrecy (no jamming here).
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM | {"jamming_bits_per_symbol": 0}})
        out = tmp_path / "o"
        assert main(["analyze", "--config", cfg, "--out", str(out),
                     "--format", "csv"]) == EXIT_INFEASIBLE
        header, row, end = (out / "report.csv").read_bytes().split(b"\r\n")
        assert b"\n" not in header + row and end == b""
        record = dict(zip(header.decode().split(","), row.decode().split(",")))
        assert record["positive"] == "false" and record["duration_s"] == ""
        assert float(record["rate_bits_per_s"]) < 0

    def test_system_echo(self, tmp_path):
        # explicit_bits is echoed only where it is set, and each channel
        # as its noise variance with the SNR alongside, whichever the
        # config gave.
        system = HEADLINE_SYSTEM | {
            "eve_adc": {"aperture_jitter_s": 5e-15, "explicit_bits": 18.5},
            "bob_channel": {"noise_var": 1e-3},
            "eve_channel": {"snr_db": "inf"}}
        cfg = write_config(tmp_path, {"system": system})
        out = tmp_path / "o"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
        echo = read_json(out / "report.json")["system"]
        assert json.dumps(echo, sort_keys=True) == json.dumps({
            "bandwidth_hz": 40e6,
            "signal_power": 1.0,
            "jamming_bits_per_symbol": 14,
            "dynamic_range_factor": 2.5,
            "bob_adc": {"aperture_jitter_s": 500e-15},
            "eve_adc": {"aperture_jitter_s": 5e-15, "explicit_bits": 18.5},
            "bob_channel": {"noise_var": 1e-3, "snr_db": 30.0},
            "eve_channel": {"noise_var": 0.0, "snr_db": "inf"},
        }, sort_keys=True)


class TestSweep:
    def test_one_point_log_axis_is_its_min(self, tmp_path):
        path = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "sweep": SWEEP_BLOCK | {"eve_snr_db": {
                "min": 70.0, "max": 80.0, "points": 1, "spacing": "log"}}})
        out = tmp_path / "s"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "sweep.json")["axes"]["eve_snr_db"] == [70.0]

    def test_single_cell_matches_analyze(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "sweep": {"which": "fig3a",
                      "bob_snr_db": {"values": [32.0]},
                      "eve_snr_db": {"values": [80.0]}}})
        out_s, out_a = tmp_path / "s", tmp_path / "a"
        assert main(["sweep", "--config", cfg, "--out", str(out_s)]) == EXIT_OK
        main(["analyze", "--config", cfg, "--out", str(out_a)])
        with (out_s / "grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        rate_sweep = float(rows[0]["rate_bits_per_s"])
        rate_point = read_json(out_a / "report.json")["secrecy"]["rate_bits_per_s"]
        assert rate_sweep == pytest.approx(rate_point, rel=1e-12)

    def test_threshold_sweep_monotone_in_jamming_bits(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM | {"eve_channel": {"noise_var": 0.0}},
            "sweep": {"which": "fig3b",
                      "jamming_bits": {"min": 4, "max": 16, "step": 2},
                      "eve_jitter_s": {"values": [5e-15]}}})
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with (out / "grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        thresholds = [float(r["min_bob_snr_db"]) for r in rows
                      if r["kind"] == "threshold"]
        assert thresholds and all(b <= a for a, b in
                                  zip(thresholds, thresholds[1:]))

    def test_which_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM})
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--which", "fig3b"]) == EXIT_OK
        assert read_json(out / "sweep.json")["which"] == "fig3b"

    def test_missing_kind_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM})
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "s")]) == EXIT_VALIDATION

    def test_rate_sweep_emits_contour_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "sweep": {"which": "fig3a",
                      "bob_snr_db": {"min": 20.0, "max": 40.0, "step": 5.0},
                      "eve_snr_db": {"values": [60.0, 80.0]}}})
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "zero_crossing.csv").exists()
        sidecar = read_json(out / "sweep.json")
        assert sidecar["system"]["bandwidth_hz"] == 40e6
        assert sidecar["axes"]["bob_snr_db"] == [20.0, 25.0, 30.0, 35.0, 40.0]

    def test_json_format_grid(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "sweep": {"which": "fig3a",
                      "bob_snr_db": {"values": [30.0, 32.0]},
                      "eve_snr_db": {"values": [80.0]}}})
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        grid = read_json(out / "grid.json")
        assert len(grid["cells"]) == 2 and len(grid["cells"][0]) == 1

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "sweep": {"which": "fig3b",
                      "jamming_bits": {"values": [10, 14]},
                      "eve_jitter_s": {"values": [5e-15, 50e-15]}}})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", str(out1 / "config.json"),
              "--out", str(out2)])
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_sweep_writes_nothing(self, tmp_path, capsys, fmt):
        # 3084 dB is the first Eve SNR on the axis whose noise variance is
        # not a positive finite float.
        config = load_config("fig3a")
        config["sweep"]["eve_snr_db"] = {"min": 0, "max": 4000, "step": 2}
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, config),
                     "--out", str(out), "--format", fmt]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "error: SNR of 3084.0 dB is out of range")
        assert not out.exists()


SIM_BLOCK = {
    "n_symbols": 2000,
    "seed": 77,
    "cancellation_db": "inf",
    "key_bits": 256,
    "kem": {"mode": "toy-rsa", "bit_length": 64},
}


class TestSimulate:
    def test_runs_and_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                      "simulate": SIM_BLOCK})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stats = read_json(out / "stats.json")
        assert stats["kem"]["roundtrip_ok"] is True
        assert stats["session"]["n_symbols"] == 2000
        assert "storage_attack" in stats
        assert (out / "trace.csv").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                      "simulate": SIM_BLOCK})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "stats.json").read_bytes() == \
            (out2 / "stats.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()

    def test_seed_flag_overrides_and_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                      "simulate": SIM_BLOCK})
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "5"])
        assert read_json(out1 / "config.json")["simulate"]["seed"] == 5
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "stats.json").read_bytes() != \
            (out2 / "stats.json").read_bytes()
        # rerun from the recorded config reproduces the override run
        main(["simulate", "--config", str(out1 / "config.json"),
              "--out", str(out3)])
        assert (out1 / "stats.json").read_bytes() == \
            (out3 / "stats.json").read_bytes()

    def test_ideal_channel_zero_errors(self, tmp_path):
        system = HEADLINE_SYSTEM | {
            "bob_adc": {"aperture_jitter_s": 500e-15, "explicit_bits": 24},
            "eve_adc": {"aperture_jitter_s": 5e-15, "explicit_bits": 40},
            "bob_channel": {"noise_var": 0.0},
            "eve_channel": {"noise_var": 0.0},
        }
        cfg = write_config(tmp_path, {
            "system": system,
            "simulate": SIM_BLOCK | {"kem": {"mode": "passthrough"}}})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stats = read_json(out / "stats.json")
        assert stats["session"]["bob_symbol_errors"] == 0
        assert stats["session"]["bob_key_bit_errors"] == 0
        assert stats["kem"] == {"mode": "passthrough"}

    def test_insufficient_cancellation_flagged(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "simulate": SIM_BLOCK | {"cancellation_db": 84.0}})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stats = read_json(out / "stats.json")
        assert stats["session"]["insufficient_cancellation"] is True
        assert any("cannot cancel" in w for w in stats["warnings"])

    def test_nonpositive_bob_bits_match_analyze(self, tmp_path):
        # 1 us of jitter leaves Bob -8.27 effective bits at 40 MHz: the
        # bound has no positive secrecy, and the simulator quantizes at
        # the bound's own step.
        config = load_config("simulate-default")
        config["system"]["bob_adc"]["aperture_jitter_s"] = 1e-6
        config["simulate"]["n_symbols"] = 1000
        path = write_config(tmp_path, config)
        out_s, out_a = tmp_path / "s", tmp_path / "a"
        assert main(["simulate", "--config", path, "--out", str(out_s)]) == EXIT_OK
        assert main(["analyze", "--config", path,
                     "--out", str(out_a)]) == EXIT_INFEASIBLE
        assert (read_json(out_s / "stats.json")["session"]["delta_b"]
                == read_json(out_a / "report.json")["secrecy"]["delta_b"])

    def test_key_bits_default_to_the_root(self, tmp_path):
        simulate = {k: v for k, v in SIM_BLOCK.items() if k != "key_bits"}
        path = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                       "key_bits": 128, "simulate": simulate})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "stats.json")["session"]["bob_key_bits_covered"] == 128

    @pytest.mark.parametrize("block, argv, message", [
        ({"n_symbols": 0}, [], "simulate.n_symbols must be at least 2, got 0"),
        ({"n_symbols": 1}, [], "simulate.n_symbols must be at least 2, got 1"),
        ({"seed": -1}, [], "simulate.seed must be at least 0, got -1"),
        ({}, ["--seed", "-1"], "simulate.seed must be at least 0, got -1"),
        ({"jam_scale": 0.0}, [], "simulate.jam_scale must be positive, got 0.0"),
        ({"jam_scale": -2.0}, [], "simulate.jam_scale must be positive, got -2.0"),
        ({"kem": {"bit_length": 8}}, [],
         "simulate.kem.bit_length must be in [16, 2048], got 8"),
        ({"cancellation_db": -10}, [],
         "simulate.cancellation_db must be at least 0.0, got -10"),
        ({"key_bits": 64}, [],
         "key_bits must be in [128, 10000000] for simulate, got 64"),
        ({"key_bits": 1e200}, [],
         f"key_bits must be in [128, 10000000] for simulate, got {int(1e200)}"),
    ], ids=["n-symbols-0", "n-symbols-1", "seed-negative",
            "seed-flag-negative", "jam-scale-0", "jam-scale-negative",
            "kem-bits-8", "cancellation-negative", "key-bits-64",
            "key-bits-1e200"])
    def test_bad_value_named_before_any_output(self, tmp_path, capsys, block,
                                               argv, message):
        path = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                       "simulate": SIM_BLOCK | block})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]
                    + argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("system, message", [
        ({"jamming_bits_per_symbol": 0, "eve_channel": {"noise_var": 0.0}},
         "simulated statistic session.eve_pre_attack_snr is out of range: "
         "it is inf, not a finite float"),
        ({"signal_power": 1e300},
         "simulated sample powers at signal power 1e+300 are out of range"),
    ], ids=["unjammed-noiseless-eve", "signal-power-overflow"])
    def test_failed_session_writes_nothing(self, tmp_path, capsys, system,
                                           message):
        config = load_config("simulate-default")
        config["system"] |= system
        config["simulate"]["n_symbols"] = 1000
        out = tmp_path / "sim"
        assert main(["simulate", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


class TestRace:
    def test_headline_point_vs_quantum_preset(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "race": {"attacker": {"preset": "quantum-rsa2048-8h"}}})
        out = tmp_path / "race"
        assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = read_json(out / "race.json")
        assert payload["race"]["verdict"] == "everlasting"
        assert payload["eve_adc_trend"]["annotation"] == "plausible around 2040"
        assert payload["caveats"]

    def test_hypothetical_fast_attacker_breaks(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "race": {"attacker": {"name": "instant", "t_qc_s": 1e-3}}})
        out = tmp_path / "race"
        assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "race.json")["race"]["verdict"] == "broken"

    def test_unknown_preset_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "race": {"attacker": {"preset": "no-such-attacker"}}})
        assert main(["race", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION

    def test_no_positive_secrecy_is_infeasible_exit(self, tmp_path):
        system = HEADLINE_SYSTEM | {
            "jamming_bits_per_symbol": 0,
            "eve_adc": {"aperture_jitter_s": 500e-15},
            "eve_channel": {"snr_db": 32.0},
        }
        cfg = write_config(tmp_path, {
            "system": system,
            "race": {"attacker": {"preset": "quantum-rsa2048-8h"}}})
        out = tmp_path / "race"
        assert main(["race", "--config", cfg,
                     "--out", str(out)]) == EXIT_INFEASIBLE
        assert "error" in read_json(out / "race.json")

    def test_default_trend_block_changes_no_byte(self, tmp_path):
        race_json = []
        for trend in ({}, {"trend": {"reference_year": 2024,
                                     "reference_jitter_s": 50e-15,
                                     "doubling_period_years": 4.57}}):
            cfg = write_config(tmp_path, {
                "system": HEADLINE_SYSTEM,
                "race": {"attacker": {"preset": "quantum-rsa2048-8h"}} | trend})
            out = tmp_path / f"race{len(race_json)}"
            assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
            race_json.append((out / "race.json").read_bytes())
        assert race_json[0] == race_json[1]

    def test_failed_trend_writes_nothing(self, tmp_path, capsys):
        config = load_config("race-default")
        config["race"]["trend"]["doubling_period_years"] = 1e308
        out = tmp_path / "race"
        assert main(["race", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: the jitter trend reaches 5e-15 s in no finite year\n")
        assert not out.exists()

    def test_classical_preset_with_cores(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM,
            "race": {"attacker": {"preset": "classical-rsa829",
                                  "cores": 1000000}}})
        out = tmp_path / "race"
        assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = read_json(out / "race.json")
        assert payload["race"]["verdict"] == "everlasting"
        assert payload["race"]["attacker"]["t_qc_s"] == pytest.approx(
            23.6682 * 3600, rel=1e-6)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "3"], ["sweep", "--seed", "3"],
        ["race", "--seed", "3"], ["simulate", "--format", "json"],
        ["race", "--format", "json"]], ids=lambda argv: argv[0] + argv[1])
    def test_flag_the_command_ignores_is_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit):
            main(argv[:1] + ["--config", "race-default",
                             "--out", str(tmp_path / "o")] + argv[1:])
        assert not (tmp_path / "o").exists()


class TestConfigValidation:
    @pytest.mark.parametrize("patch, message", [
        ({"system": []}, "system must be an object"),
        ({"system": HEADLINE_SYSTEM | {"bandwidth_hz": 1e400}},
         "bandwidth must be positive and finite"),
        ({"system": HEADLINE_SYSTEM | {"jamming_bits_per_symbol": 14.7}},
         "system.jamming_bits_per_symbol must be an integer"),
        ({"simulate": SIM_BLOCK | {"n_symbols": 2.5}},
         "simulate.n_symbols must be an integer"),
    ], ids=["system-list", "bandwidth-inf", "jamming-bits-fraction",
            "n-symbols-fraction"])
    def test_named_validation_error(self, tmp_path, capsys, patch, message):
        # json.dumps writes inf as Infinity; spell it 1e400, which a JSON
        # parser reads as inf
        payload = {"system": HEADLINE_SYSTEM, "simulate": SIM_BLOCK} | patch
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace("Infinity", "1e400"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "sim")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_integral_floats_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": HEADLINE_SYSTEM | {"jamming_bits_per_symbol": 14.0},
            "simulate": SIM_BLOCK | {"n_symbols": 300.0}})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "stats.json")["session"]["n_symbols"] == 300


def _patched(payload, path, value):
    """``payload`` with the value at the dotted ``path`` replaced."""
    payload = json.loads(json.dumps(payload))
    *parents, key = path.split(".")
    block = payload
    for name in parents:
        block = block.setdefault(name, {})
    block[key] = value
    return payload


RACE_BLOCK = {"attacker": {"name": "custom", "t_qc_s": 3600.0},
              "trend": {"reference_year": 2024, "reference_jitter_s": 50e-15,
                        "doubling_period_years": 4.57}}
SWEEP_BLOCK = {"which": "fig3a",
               "bob_snr_db": {"values": [30.0, 32.0]},
               "eve_snr_db": {"min": 70.0, "max": 80.0, "step": 5.0}}
INF = float("inf")
# Both log terms are a few bits, but times 1e308 Hz their difference
# overflows: Eve's term exceeds Bob's by about 9 bits at the headline SNRs.
OVERFLOW_SYSTEM = HEADLINE_SYSTEM | {
    "bandwidth_hz": 1e308,
    "bob_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 12},
    "eve_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 24}}


class TestConfigNumbers:
    """Every numeric config value is a finite JSON number; anything else is
    a named validation error, never a traceback, a coercion or a
    non-finite output."""

    @pytest.mark.parametrize("command, path, value, message", [
        ("analyze", "efficiency", None, "efficiency must be a number, got None"),
        ("analyze", "efficiency", [0.001], "efficiency must be a number"),
        ("analyze", "efficiency", {}, "efficiency must be a number"),
        ("analyze", "efficiency", True, "efficiency must be a number, got True"),
        ("analyze", "system.signal_power", None,
         "system.signal_power must be a number"),
        ("analyze", "system.bob_channel.snr_db", [32.0],
         "system.bob_channel.snr_db must be a number"),
        ("analyze", "system.bob_channel.snr_db", "32",
         "system.bob_channel.snr_db must be a number, got '32'"),
        ("analyze", "system.eve_channel", {"noise_var": INF},
         "system.eve_channel.noise_var must be finite"),
        ("analyze", "system.bob_adc.aperture_jitter_s", INF,
         "system.bob_adc.aperture_jitter_s must be finite"),
        ("analyze", "system.bob_adc.explicit_bits", {},
         "system.bob_adc.explicit_bits must be a number"),
        ("simulate", "simulate.cancellation_db", None,
         "simulate.cancellation_db must be a number"),
        ("simulate", "simulate.cancellation_db", True,
         "simulate.cancellation_db must be a number, got True"),
        ("simulate", "simulate.cancellation_db", INF,
         "simulate.cancellation_db must be finite"),
        ("simulate", "simulate.jam_scale", INF,
         "simulate.jam_scale must be finite"),
        ("race", "race.attacker.t_qc_s", [], "race.attacker.t_qc_s must be a number"),
        ("race", "race.attacker.t_qc_s", INF, "race.attacker.t_qc_s must be finite"),
        ("race", "race.trend.reference_year", None,
         "race.trend.reference_year must be a number"),
        ("race", "race.trend.doubling_period_years", INF,
         "race.trend.doubling_period_years must be finite"),
        ("sweep", "sweep.bob_snr_db.values", [None],
         "sweep.bob_snr_db.values must be a number, got None"),
        ("sweep", "sweep.bob_snr_db.values", 3,
         "sweep.bob_snr_db.values must be a list"),
        ("sweep", "sweep.eve_snr_db.spacing", "lin",
         "sweep.eve_snr_db.spacing must be 'linear' or 'log', got 'lin'"),
        ("simulate", "simulate.key_bits", 138,
         "key_bits must be a multiple of 8, got 138"),
        ("analyze", "system.bob_channel.snr_db", 4000.0,
         "SNR of 4000.0 dB is out of range"),
        ("analyze", "system.bob_channel.snr_db", -4000.0,
         "SNR of -4000.0 dB is out of range"),
        ("analyze", "system.bob_channel.snr_db", -3100.0,
         "SNR of -3100.0 dB is out of range"),
        ("sweep", "sweep.bob_snr_db.values", [4000.0],
         "SNR of 4000.0 dB is out of range"),
        ("sweep", "sweep.bob_snr_db.values", [-4000.0],
         "SNR of -4000.0 dB is out of range"),
        ("race", "race.attacker.name", None,
         "race.attacker.name must be a string, got None"),
        ("race", "race.attacker.note", ["x"],
         "race.attacker.note must be a string, got ['x']"),
        ("race", "race.attacker.preset", [],
         "race.attacker.preset must be a string, got []"),
        ("simulate", "simulate.n_symbols", 10 ** 400,
         "simulate.n_symbols must be within the float range"),
        ("analyze", "system.jamming_bits_per_symbol", -10 ** 400,
         "system.jamming_bits_per_symbol must be within the float range"),
        ("analyze", "efficiency", 10 ** 400, "efficiency must be finite"),
        ("analyze", "system.bob_channel", {"noise_var": 1e-320},
         "system.bob_channel.noise_var of 1e-320 is out of range"),
        ("analyze", "system.eve_channel", {"noise_var": 1e-320},
         "system.eve_channel.noise_var of 1e-320 is out of range"),
        ("analyze", "system.bandwidth_hz", 1e-300, "quantizer step at"),
        ("analyze", "system.bandwidth_hz", 1e200, "quantizer step at"),
        ("race", "system.dynamic_range_factor", 1e200,
         "dynamic range factor 1e+200 is out of range"),
        ("analyze", "system.eve_adc.aperture_jitter_s", 5e-324,
         "quantizer step at"),
        ("race", "system.bob_adc.aperture_jitter_s", 1e300,
         "effective bits at bandwidth 40000000.0 Hz and aperture jitter "
         "1e+300 s are out of range: 2*pi*bandwidth*jitter is not a finite "
         "float"),
        ("analyze", "system.jamming_bits_per_symbol", 1100,
         "jamming bits per symbol must be an integer in [0, 32], got 1100"),
        ("race", "system.jamming_bits_per_symbol", 1e16,
         "jamming bits per symbol must be an integer in [0, 32]"),
        ("simulate", "system.jamming_bits_per_symbol", 40,
         "jamming bits per symbol must be an integer in [0, 32], got 40"),
        ("race", "race.trend.reference_jitter_s", 1e300, "in no finite year"),
        ("analyze", "system.bob_adc.explicit_bits", 1100,
         "quantizer step at 1100.0 bits and dynamic range factor 2.5 is "
         "out of range"),
        ("sweep", "sweep", {"which": "fig3b", "jamming_bits": {"values": [2000]}},
         "sweep.jamming_bits must be an integer in [0, 32], got 2000"),
        ("sweep", "sweep", {"which": "fig3b", "jamming_bits": {"values": [40]}},
         "sweep.jamming_bits must be an integer in [0, 32], got 40"),
        ("analyze", "efficiency", 5e-324,
         "exchange duration of 256 key bits at efficiency 5e-324 is out of range"),
        ("race", "efficiency", 5e-324,
         "exchange duration of 256 key bits at efficiency 5e-324 is out of range"),
        ("sweep", "sweep.eve_snr_db.max", 60.0,
         "sweep.eve_snr_db: max must be >= min"),
        ("sweep", "sweep.eve_snr_db.step", 0.0,
         "sweep.eve_snr_db: step must be positive"),
        ("sweep", "sweep.eve_snr_db",
         {"min": 70.0, "max": 80.0, "points": 0, "spacing": "log"},
         "sweep.eve_snr_db: log axis needs points >= 1 and min > 0"),
        ("sweep", "sweep.eve_snr_db",
         {"min": 0.0, "max": 80.0, "points": 3, "spacing": "log"},
         "sweep.eve_snr_db: log axis needs points >= 1 and min > 0"),
        ("analyze", "system.bob_channel", {"snr_db": 32.0, "noise_var": 1e-3},
         "system.bob_channel must set exactly one of 'snr_db' or 'noise_var'"),
        ("analyze", "system.eve_channel", {},
         "system.eve_channel must set exactly one of 'snr_db' or 'noise_var'"),
        ("race", "race.attacker", {"cores": 2},
         "race.attacker must name a preset or define a custom time model"),
        ("race", "race.attacker", {"preset": "classical-rsa829", "cores": 0},
         "race.attacker.cores must be at least 1, got 0"),
        ("race", "race.attacker",
         {"preset": "quantum-rsa2048-8h", "t_qc_s": 1e-9},
         "unknown config key race.attacker.t_qc_s"),
        ("race", "race.attacker",
         {"preset": "classical-rsa829", "note": "farm"},
         "unknown config key race.attacker.note"),
        ("race", "race.attacker", {"name": "fast", "t_qc_s": 1.0, "cores": 4},
         "unknown config key race.attacker.cores"),
        ("race", "race.attacker", {"preset": "quantum-rsa2048-8h", "cores": 64},
         "race.attacker.cores: attacker preset 'quantum-rsa2048-8h' has a "
         "fixed time, so it takes no core count, got 64"),
        ("analyze", "system", OVERFLOW_SYSTEM,
         "secrecy rate at bandwidth 1e+308 Hz with log terms"),
        ("simulate", "system.signal_power", 1e300,
         "simulated sample powers at signal power 1e+300 are out of range"),
        ("sweep", "system", OVERFLOW_SYSTEM,
         "secrecy rate at bandwidth 1e+308 Hz with log terms"),
        ("sweep", "sweep.eve_snr_db", {"values": [-3080.0]},
         "minimum bob SNR at eve noise variance 1e+308 is out of range"),
        ("simulate", "simulate.n_symbols", 0,
         "simulate.n_symbols must be at least 2, got 0"),
        ("simulate", "simulate.seed", -1, "simulate.seed must be at least 0"),
        ("simulate", "simulate.jam_scale", 0.0,
         "simulate.jam_scale must be positive, got 0.0"),
    ], ids=["efficiency-null", "efficiency-list", "efficiency-object",
            "efficiency-true", "signal-power-null", "snr-db-list",
            "snr-db-string", "noise-var-inf", "jitter-inf",
            "explicit-bits-object", "cancellation-null", "cancellation-true",
            "cancellation-inf", "jam-scale-inf", "t-qc-list", "t-qc-inf",
            "reference-year-null", "doubling-period-inf", "values-null",
            "values-number", "spacing-unknown", "key-bits-not-bytes",
            "snr-db-overflow", "snr-db-underflow", "snr-db-subnormal",
            "sweep-snr-overflow", "sweep-snr-underflow", "attacker-name-null",
            "attacker-note-list", "attacker-preset-list",
            "n-symbols-beyond-float", "jamming-bits-beyond-float",
            "efficiency-beyond-float", "bob-noise-var-subnormal",
            "eve-noise-var-subnormal", "bandwidth-tiny", "bandwidth-huge",
            "dynamic-range-huge", "eve-jitter-subnormal", "bob-jitter-huge",
            "jamming-bits-1100", "jamming-bits-1e16", "jamming-bits-40",
            "trend-jitter-huge", "explicit-bits-1100", "fig3b-axis-2000",
            "fig3b-axis-40", "analyze-duration-overflow",
            "race-duration-overflow", "axis-max-below-min", "axis-step-zero",
            "log-axis-no-points", "log-axis-min-zero", "channel-both",
            "channel-neither", "attacker-no-model", "attacker-cores-0",
            "attacker-preset-and-t-qc", "attacker-preset-and-note",
            "attacker-custom-and-cores", "attacker-fixed-time-cores",
            "analyze-rate-overflow", "simulate-power-overflow",
            "sweep-rate-overflow", "sweep-threshold-underflow", "n-symbols-0", "seed-negative",
            "jam-scale-0"])
    def test_named_validation_error(self, tmp_path, capsys, command, path,
                                    value, message):
        payload = _patched({"system": HEADLINE_SYSTEM,
                            "simulate": SIM_BLOCK | {"n_symbols": 500},
                            "race": RACE_BLOCK, "sweep": SWEEP_BLOCK},
                           path, value)
        config = tmp_path / "config.json"
        # json.dumps writes inf as Infinity; 1e400 is how a JSON file
        # spells a number that overflows to inf
        config.write_text(json.dumps(payload).replace("Infinity", "1e400"),
                          encoding="utf-8")
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_sweep_rate_writes_no_grid(self, tmp_path, capsys, fmt):
        # At 1e308 Hz the rates at the corners of fig3a's axes overflow.
        config = load_config("fig3a")
        config["system"] |= {
            "bandwidth_hz": 1e308,
            "bob_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 12},
            "eve_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 20}}
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, config),
                     "--out", str(out), "--format", fmt]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: secrecy rate at bandwidth 1e+308 Hz")
        assert "not a finite float" in err
        assert not list(out.glob("grid.*"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_subnormal_fig3b_jitter_names_the_step(self, tmp_path, capsys,
                                                   fmt):
        # At 5e-324 s Eve's ENOB is about 1046 bits, so 2^(bits - w)
        # overflows on the whole jitter column. The sweep checks its steps
        # together, and names the first failing one (w = 1) as the per-cell
        # adc.eve_resolution does.
        config = load_config("fig3b")
        config["sweep"]["eve_jitter_s"] = {"values": [5e-324, 1e-15]}
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, config),
                     "--out", str(out), "--format", fmt]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: quantizer step at 1044.906895295435 bits and dynamic "
            "range factor 2.5 is out of range: it or its square is not a "
            "positive finite float\n")
        assert not out.exists()

    # 2*pi*B*jitter underflows to 0 for Eve, which had no logarithm: the
    # bare "math domain error" named neither value.
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_underflowing_enob_product_names_its_values(self, tmp_path, capsys,
                                                       command):
        system = HEADLINE_SYSTEM | {"bandwidth_hz": 1e-10,
                                    "eve_adc": {"aperture_jitter_s": 5e-324}}
        cfg = write_config(tmp_path, {"system": system, "simulate": SIM_BLOCK})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == \
            EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: effective bits at bandwidth 1e-10 Hz and aperture jitter "
            "5e-324 s are out of range: 2*pi*bandwidth*jitter is not a "
            "positive float\n")
        assert not out.exists()

    def test_documented_non_numbers_accepted(self, tmp_path):
        system = HEADLINE_SYSTEM | {
            "bob_adc": {"aperture_jitter_s": 500e-15, "explicit_bits": None},
            "eve_channel": {"snr_db": "inf"}}
        race_block = RACE_BLOCK | {"attacker": {"name": "unknown",
                                                "t_qc_s": None}}
        cfg = write_config(tmp_path, {"system": system, "race": race_block})
        out = tmp_path / "race"
        assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "race.json")["race"]["verdict"] == "unknown"


FULL_PAYLOAD = {"system": HEADLINE_SYSTEM, "simulate": SIM_BLOCK | {"n_symbols": 500},
                "race": RACE_BLOCK, "sweep": SWEEP_BLOCK}


class TestOneOperatingPoint:
    """Every command refuses the same operating points, with the same
    message, before it creates ``--out``."""

    @pytest.mark.parametrize("path, value, message", [
        ("system.bandwidth_hz", 0.0, "bandwidth must be positive and finite"),
        ("system.dynamic_range_factor", -1.0,
         "dynamic range factor must be positive and finite"),
        ("system.jamming_bits_per_symbol", 33,
         "jamming bits per symbol must be an integer in [0, 32], got 33"),
        ("system.bob_channel", {"noise_var": -1e-3},
         "bob channel noise variance must be non-negative"),
    ], ids=["bandwidth-0", "dynamic-range-negative", "jamming-bits-33",
            "noise-var-negative"])
    def test_every_command_refuses(self, tmp_path, capsys, path, value,
                                   message):
        cfg = write_config(tmp_path, _patched(FULL_PAYLOAD, path, value))
        for command in ("analyze", "race", "sweep", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", cfg,
                         "--out", str(out)]) == EXIT_VALIDATION, command
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not out.exists(), command


class TestBudgets:
    """A sweep grid or a session beyond its size budget is a named error,
    raised before anything of that size is allocated."""

    @pytest.mark.parametrize("command, path, value, message", [
        ("sweep", "sweep.eve_snr_db", {"min": 0, "max": 1, "step": 1e-12},
         "sweep.eve_snr_db: more than 1000000 points at step 1e-12"),
        ("sweep", "sweep.eve_snr_db",
         {"min": 1.0, "max": 2.0, "points": 10 ** 9, "spacing": "log"},
         "sweep.eve_snr_db: 1000000000 points, more than 1000000"),
        ("sweep", "sweep", {"which": "fig3a",
                            "bob_snr_db": {"min": 0, "max": 1, "step": 1e-4},
                            "eve_snr_db": {"min": 0, "max": 1, "step": 1e-3}},
         "sweep.bob_snr_db x sweep.eve_snr_db: 10011001 cells, more than 1000000"),
        ("simulate", "simulate.n_symbols", 10 ** 12,
         "simulate.n_symbols must be at most 10000000, got 1000000000000"),
    ], ids=["linear-axis", "log-axis", "grid", "symbols"])
    def test_rejected_before_allocating(self, tmp_path, capsys, command, path,
                                        value, message):
        import jkelab.session  # noqa: F401  loads NumPy before measuring
        path = write_config(tmp_path, _patched(FULL_PAYLOAD, path, value))
        tracemalloc.start()
        try:
            code = main([command, "--config", path, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert peak < 10 * 2 ** 20


class TestUnknownKeys:
    """A key no table lists is an error naming the dotted key and the
    closest listed one, in every block, never a silently used default."""

    @pytest.mark.parametrize("command, path, suggestion", [
        ("race", "efficency", "efficiency"),
        ("analyze", "system.dynamic_range_factr", "system.dynamic_range_factor"),
        ("analyze", "system.eve_adc.aperture_jiter_s",
         "system.eve_adc.aperture_jitter_s"),
        ("analyze", "system.bob_channel.snr_bd", "system.bob_channel.snr_db"),
        ("sweep", "sweep.eve_snr_db.setp", "sweep.eve_snr_db.step"),
        ("sweep", "sweep.bob_snr", "sweep.bob_snr_db"),
        ("simulate", "simulate.n_symbol", "simulate.n_symbols"),
        ("simulate", "simulate.kem.bit_lenght", "simulate.kem.bit_length"),
        ("race", "race.atacker", "race.attacker"),
        ("race", "race.attacker.t_qc", "race.attacker.t_qc_s"),
        ("race", "race.trend.doubling_period", "race.trend.doubling_period_years"),
    ], ids=["root", "system", "adc", "channel", "axis", "sweep", "simulate",
            "kem", "race", "attacker", "trend"])
    def test_misspelled_key_is_named(self, tmp_path, capsys, command, path,
                                     suggestion):
        cfg = write_config(tmp_path, _patched(FULL_PAYLOAD, path, 1000))
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key {path}")
        assert f"did you mean {suggestion}?" in err
        assert "Traceback" not in err

    def test_misspelled_efficiency_is_not_the_default(self, tmp_path):
        # At efficiency 1e-6 the exchange takes about 11.5 s, so a 1 s
        # attacker wins; reading the default 1e-3 instead would say
        # "everlasting".
        race_block = RACE_BLOCK | {"attacker": {"name": "fast", "t_qc_s": 1.0}}
        out = tmp_path / "race"
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                      "race": race_block, "efficiency": 1e-6})
        assert main(["race", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert read_json(out / "race.json")["race"]["verdict"] == "broken"
        cfg = write_config(tmp_path, {"system": HEADLINE_SYSTEM,
                                      "race": race_block, "efficency": 1e-6})
        assert main(["race", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


class TestUnreadableConfig:
    @pytest.mark.parametrize("content", [
        b'{"key_bits": ' + b"9" * 5000 + b"}", b'{"system": "\xe9"}',
        b"[" * 100_000 + b"]" * 100_000],
        ids=["5000-digit-integer", "not-utf-8", "nested-too-deep"])
    def test_named_with_its_path(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["analyze", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON")
        assert "Traceback" not in err
