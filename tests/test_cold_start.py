"""Which modules a fresh process loads: numpy only for the calls that sum a series."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules that only the series sums need
HEAVY = ("numpy", "mubose._kernels_py")

#: subcommands that sum no series, each in CSV and in JSON
SERIES_FREE = [
    ["pq-compare", "--p", "0.9", "--q", "0.7", "--order", "3"],
    ["coeffs", "--order", "6", "--mu", "0.2"],
    ["taylor-diagnose", "--order", "3", "--mu", "0.1", "-k", "300", "--s-max", "12"],
]

SCRIPT = """
import contextlib, io, json, sys
import mubose.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(mubose.cli.main(argv))
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def fresh(code, *args):
    """Run ``code`` in a new interpreter on this checkout's sources; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def run_commands(commands):
    return fresh(SCRIPT, json.dumps(commands), *HEAVY)


def test_series_free_subcommands_skip_numpy():
    commands = [argv + ["--format", fmt] for argv in SERIES_FREE for fmt in ("csv", "json")]
    got = run_commands(commands)
    assert got == {"codes": [0] * len(commands), "loaded": []}


def test_bare_import_skips_numpy():
    got = fresh("import json, sys, mubose; "
                "print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))", *HEAVY)
    assert got == []


@pytest.mark.parametrize("argv", [
    ["figure", "fig1", "--k-steps", "3"],
    ["intercept", "--mu", "0.1", "--order", "2"],
])
def test_series_subcommands_load_the_kernels(argv):
    assert run_commands([argv]) == {"codes": [0], "loaded": list(HEAVY)}


def test_public_names_resolve():
    import mubose

    assert set(mubose.__all__) <= set(dir(mubose))
    for name in mubose.__all__:
        assert getattr(mubose, name) is not None, name
    namespace = {}
    exec("from mubose import *", namespace)
    assert set(mubose.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        mubose.no_such_name  # noqa: B018
