"""Pinned outputs of the analytic commands.

Runs ``analyze``, ``sweep`` and ``race`` on the shipped configs and
compares the sha256 of every output file, and of stdout with the output
directory masked, with digests recorded before the sweeps were rewritten
to evaluate each log term once per axis point. A mismatch names the file.

The floats come from ``math`` (libm's log2, log10 and pow) and ``repr``, so
the digests hold for the platform they were recorded on: glibc 2.36 on
x86-64 with FMA, Python 3.11. ``simulate`` is left out: its statistics
pass through NumPy reductions, which other NumPy versions may round
differently.
"""

import hashlib

import pytest

from jkelab.cli import EXIT_OK, main

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
            "f1e58d9bd4b9ac3a89b9766ae57e8ed6daf64057e559ae327c568680d3a793e4",
    },
    ("sweep", "fig3a", "csv"): {
        "stdout":
            "daabfb95ae925857b306558c214e6751e7fb26fdf52bfd7dce29d1660503bd62",
        "config.json":
            "68a76c1ebed1ff5fe2d340b3b234ef7ef0dc57713f7d97b5b243bfd402820a7b",
        "grid.csv":
            "410a97b6e035a042ca902601bc95922ee436a56fa060bc0f652cea6255c51689",
        "sweep.json":
            "1d72d13c55c10a5cdc346bbd17843178bef4e5e5ddf18c2e23836d16be348534",
        "zero_crossing.csv":
            "a1ccf23e46d1b2ce7492782274c8afd8ec671d5d18fee02a2b4a12a0a8cb6ed7",
    },
    ("sweep", "fig3a", "json"): {
        "stdout":
            "daabfb95ae925857b306558c214e6751e7fb26fdf52bfd7dce29d1660503bd62",
        "config.json":
            "68a76c1ebed1ff5fe2d340b3b234ef7ef0dc57713f7d97b5b243bfd402820a7b",
        "grid.json":
            "6b7b830fe4328c95a21e4acfa8e749dab34b79ef9c2d66720adb7876778d3333",
        "sweep.json":
            "1d72d13c55c10a5cdc346bbd17843178bef4e5e5ddf18c2e23836d16be348534",
    },
    ("sweep", "fig3b", "csv"): {
        "stdout":
            "4e00961a8a18172da2163915f60223d467758a952aef62b585980a06e3b334e2",
        "config.json":
            "d31525a3eaacf725acf893353059766ed4f85e8eb963e10c37c7d98e1bf810e7",
        "grid.csv":
            "ff9172c3f9f4ba2f7ab5cb981ec428515adf3ac9d69a317a36af4bd0ae796d0f",
        "sweep.json":
            "70ed3523ca7451be58d8d3ad5732951c18ab8963a6b340ae84373b7bc51e7f72",
    },
    ("sweep", "fig3b", "json"): {
        "stdout":
            "4e00961a8a18172da2163915f60223d467758a952aef62b585980a06e3b334e2",
        "config.json":
            "d31525a3eaacf725acf893353059766ed4f85e8eb963e10c37c7d98e1bf810e7",
        "grid.json":
            "a60edb4bfbbf32d004be68f3a3e3bd1866d47ffd6eda7bb4070f96098dd6fb47",
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
