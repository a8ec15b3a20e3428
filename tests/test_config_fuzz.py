"""Any single-leaf edit of a shipped analyze/race config ends in a
documented exit code, never a traceback.

Only ``analyze`` and ``race`` run: sweep axes and ``n_symbols`` have no
allocation budget yet, so a drawn value there could allocate without
bound.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

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
def test_single_leaf_edit_exits_cleanly(leaf, value):
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(_replaced(cfg.load_config(name), path, value)),
                          encoding="utf-8")
        for command in ("analyze", "race"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(config),
                             "--out", str(Path(tmp) / command)])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE)
