"""The analytic commands run without NumPy, and a valid config without
difflib (which only words an unknown-key error); the package still
exports every name, the Monte-Carlo ones loaded on first access."""

import subprocess
import sys
from pathlib import Path

import jkelab

SRC = Path(jkelab.__file__).resolve().parent.parent

ANALYTIC_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from jkelab.cli import main
out = sys.argv[2]
for argv in (["analyze", "--config", "paper-operating-point"],
             ["sweep", "--config", "fig3a"], ["sweep", "--config", "fig3b"],
             ["race", "--config", "race-default"]):
    assert main(argv + ["--out", f"{out}/{argv[0]}-{argv[-1]}"]) == 0
print(sorted({"numpy", "difflib"} & set(sys.modules)))
"""


def test_analytic_commands_never_import_numpy(tmp_path):
    done = subprocess.run([sys.executable, "-c", ANALYTIC_RUN, str(SRC),
                           str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from jkelab import *", namespace)
    listing = dir(jkelab)
    for name in jkelab.__all__:
        assert getattr(jkelab, name) is namespace[name]
        assert name in listing
