"""Any single-leaf edit of a shipped config ends in a documented exit
code, never a traceback, and every JSON file the run writes is standard
JSON (no ``Infinity`` or ``NaN``); the echoed ``config.json`` is held to
that whenever the config it read is. A run that exits with a validation
error leaves no output directory.

The leaves edited are those of the shipped config and every key path the
``config.py`` tables list for the blocks the command reads, so a key no
shipped config spells (``explicit_bits``, ``noise_var``, the trend keys)
is drawn too; setting one adds it, and any block it sits in.

``analyze`` and ``race`` run on ``paper-operating-point`` and
``race-default``, ``sweep`` on ``fig3a`` and ``fig3b`` in both formats, and
``simulate`` on ``simulate-default`` at 1000 symbols. One drawn value can
ask for a million-cell sweep or ten million symbols, so the sweep and
simulate tests lower ``config.MAX_SWEEP_CELLS`` and ``config.MAX_SYMBOLS``:
such a value then meets the same named budget error, only sooner.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from jkelab import config as cfg
from jkelab.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

CONFIGS = ("paper-operating-point", "race-default")

# Each block below the root, as its path and its table in the schema.
BLOCKS = {("system",): cfg.SYSTEM,
          ("system", "bob_adc"): cfg.ADC, ("system", "eve_adc"): cfg.ADC,
          ("system", "bob_channel"): cfg.CHANNEL,
          ("system", "eve_channel"): cfg.CHANNEL,
          ("sweep",): cfg.SWEEP,
          **{("sweep", axis): cfg.VALUES_AXIS | cfg.LINEAR_AXIS | cfg.LOG_AXIS
             for axes in cfg.SWEEP_AXES.values() for axis in axes},
          ("simulate",): cfg.SIMULATE, ("simulate", "kem"): cfg.KEM,
          ("race",): cfg.RACE,
          ("race", "attacker"): cfg.PRESET_ATTACKER | cfg.CUSTOM_ATTACKER,
          ("race", "trend"): cfg.TREND}


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _paths(config: dict, *blocks: str) -> list:
    """The leaves of ``config``, then each further key path the root table
    and the tables of the blocks under ``blocks`` list."""
    schema = [(key,) for key in cfg.ROOT] + [
        path + (key,) for path, table in BLOCKS.items() if path[0] in blocks
        for key in table]
    return list(dict.fromkeys([*_leaves(config), *schema]))


LEAVES = [(name, path) for name in CONFIGS
          for path in _paths(cfg.load_config(name), "system", "race")]

# Values at the edges of the float range and of the jamming word, drawn
# as often as all other JSON values together.
EXTREMES = (0, -1, 0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e200, 1e300,
            1.7976931348623157e308, -1e300, 33, 40, 1100, 2000, 10 ** 16,
            10 ** 400, -10 ** 400, "inf")
# Python's json reads and writes NaN and Infinity; integers stay well
# inside the 4300-digit limit of int-to-str conversion.
JSON_SCALARS = (st.none() | st.booleans() | st.floats()
                | st.integers(-10 ** 400, 10 ** 400) | st.integers(-2000, 2000)
                | st.text(max_size=8) | st.sampled_from(("-inf", "nan")))
JSON_VALUES = st.sampled_from(EXTREMES) | st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _strict_json(text: str):
    """``text`` parsed as standard JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")
    return json.loads(text, parse_constant=reject)


def _is_strict_json(text: str) -> bool:
    try:
        _strict_json(text)
    except ValueError:
        return False
    return True


def _replaced(config: dict, path: tuple, value) -> dict:
    config = json.loads(json.dumps(config))
    block = config
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    return config


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leaf=st.sampled_from(LEAVES), value=JSON_VALUES)
# An exchange duration that overflowed once reached race.json as Infinity.
@example(leaf=("race-default", ("efficiency",)), value=5e-324)
# A trend that never reaches Eve's jitter once left a lone config.json.
@example(leaf=("race-default", ("race", "trend", "doubling_period_years")),
         value=1e308)
def test_single_leaf_edit_exits_cleanly(leaf, value):
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        text = json.dumps(_replaced(cfg.load_config(name), path, value))
        config.write_text(text, encoding="utf-8")
        for command in ("analyze", "race"):
            out = Path(tmp) / command
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(config),
                             "--out", str(out)])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE)
            assert code != EXIT_VALIDATION or not out.exists()
        # config.json echoes the config, so it is standard only if that is.
        echo_strict = _is_strict_json(text)
        for written in Path(tmp).glob("*/*.json"):
            if echo_strict or written.name != "config.json":
                _strict_json(written.read_text(encoding="utf-8"))


def _run(config: dict, runs, tmp: str) -> None:
    """Each of ``runs``, ``(output directory, argv)``, on ``config``: it
    must exit 0, 1, 2 or 3, leave no output directory when it exits 1, and
    every JSON file it writes must be standard JSON, ``config.json``
    whenever ``config`` is."""
    path = Path(tmp) / "config.json"
    text = json.dumps(config)
    path.write_text(text, encoding="utf-8")
    for out, argv in runs:
        out = Path(tmp) / out
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv + ["--config", str(path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_INFEASIBLE)
        assert code != EXIT_VALIDATION or not out.exists()
    # config.json echoes the config, so it is standard only if that is.
    echo_strict = _is_strict_json(text)
    for written in Path(tmp).glob("*/*.json"):
        if echo_strict or written.name != "config.json":
            _strict_json(written.read_text(encoding="utf-8"))


SWEEP_LEAVES = [(name, path) for name in ("fig3a", "fig3b")
                for path in _paths(cfg.load_config(name), "system", "sweep")]


def _simulate_default() -> dict:
    config = cfg.load_config("simulate-default")
    config["simulate"]["n_symbols"] = 1000
    return config


SIMULATE_LEAVES = _paths(_simulate_default(), "system", "simulate")
# The same lowered budgets for every example: sized so the shipped
# sweeps (1271 and 500 cells) and 1000 symbols fit.
SMALL_BUDGETS = {"MAX_SWEEP_CELLS": 4000, "MAX_SYMBOLS": 4000}
FUZZ_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


def _lower_budgets(monkeypatch) -> None:
    for name, value in SMALL_BUDGETS.items():
        monkeypatch.setattr(cfg, name, value)


@FUZZ_SETTINGS
@given(leaf=st.sampled_from(SWEEP_LEAVES), value=JSON_VALUES)
# A rate that overflowed once reached grid.json as Infinity.
@example(leaf=("fig3a", ("system",)), value=cfg.load_config("fig3a")["system"] | {
    "bandwidth_hz": 1e308,
    "bob_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 12},
    "eve_adc": {"aperture_jitter_s": 1e-15, "explicit_bits": 20}})
# An SNR whose noise variance is out of range (3084 dB) once left a lone
# config.json; the axis stops short of 4000 dB to stay within the budget.
@example(leaf=("fig3a", ("sweep", "eve_snr_db")),
         value={"min": 3000, "max": 3100, "step": 2})
def test_sweep_single_leaf_edit_exits_cleanly(monkeypatch, leaf, value):
    _lower_budgets(monkeypatch)
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        _run(_replaced(cfg.load_config(name), path, value),
             [(fmt, ["sweep", "--format", fmt]) for fmt in ("csv", "json")],
             tmp)


@FUZZ_SETTINGS
@given(path=st.sampled_from(SIMULATE_LEAVES), value=JSON_VALUES)
# Each was once reported without its key, after config.json was written.
@example(path=("simulate", "n_symbols"), value=0)
@example(path=("simulate", "seed"), value=-1)
@example(path=("simulate", "jam_scale"), value=0.0)
# A key this long once reached NumPy's byte generator and overflowed.
@example(path=("simulate", "key_bits"), value=1e200)
# The jamming power once overflowed to Infinity in stats.json.
@example(path=("system", "signal_power"), value=1e300)
def test_simulate_single_leaf_edit_exits_cleanly(monkeypatch, path, value):
    _lower_budgets(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        _run(_replaced(_simulate_default(), path, value),
             [("simulate", ["simulate"])], tmp)
