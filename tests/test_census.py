"""The package holds what the command line runs: every function under
src/stochem that no CLI command executes must handle an error path listed
here.  A test-only helper belongs in tests/oracles.py instead."""

import os
import subprocess
import sys
from pathlib import Path

import stochem

# function -> the error path it handles, which no census command provokes
ERROR_PATHS = {
    "experiments.ensemble.failed": "an ensemble replica that fails mid-run "
                                   "or raises outside a step",
}


def test_cli_runs_every_package_function_but_error_paths():
    # a fresh interpreter, so that a spectral plan another test cached
    # cannot hide the function that builds it from the census
    src = str(Path(stochem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(Path(__file__).with_name(
        "census.py"))], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True)
    listed = [line.strip() for line in done.stdout.splitlines()[1:]]
    assert listed == sorted(ERROR_PATHS)
