"""Any single-leaf edit of a shipped analyze/race config ends in a
documented exit code, never a traceback, and every JSON file the run
writes is standard JSON (no ``Infinity`` or ``NaN``); the echoed
``config.json`` is held to that whenever the config it read is.

Only ``analyze`` and ``race`` run. Sweep axes and ``n_symbols`` are now
bounded (``config.MAX_SWEEP_CELLS``, ``config.MAX_SYMBOLS``), but one
drawn value can still ask for a million-cell sweep or ten million
symbols, too slow for a tier-1 example.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from jkelab import config as cfg
from jkelab.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main

CONFIGS = ("paper-operating-point", "race-default")


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


LEAVES = [(name, path) for name in CONFIGS
          for path in _leaves(cfg.load_config(name))]

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
        block = block[key]
    block[path[-1]] = value
    return config


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leaf=st.sampled_from(LEAVES), value=JSON_VALUES)
# An exchange duration that overflowed once reached race.json as Infinity.
@example(leaf=("race-default", ("efficiency",)), value=5e-324)
def test_single_leaf_edit_exits_cleanly(leaf, value):
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        text = json.dumps(_replaced(cfg.load_config(name), path, value))
        config.write_text(text, encoding="utf-8")
        for command in ("analyze", "race"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(config),
                             "--out", str(Path(tmp) / command)])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE)
        # config.json echoes the config, so it is standard only if that is.
        echo_strict = _is_strict_json(text)
        for written in Path(tmp).glob("*/*.json"):
            if echo_strict or written.name != "config.json":
                _strict_json(written.read_text(encoding="utf-8"))
