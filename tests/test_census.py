"""The package holds what the command line runs: every function under
src/stochem that no CLI command executes must handle an error path listed
here, and every dataclass field that no package code reads must have a
reader listed here.  A test-only helper belongs in tests/oracles.py
instead."""

import os
import subprocess
import sys
from pathlib import Path

import stochem

# function -> the error path it handles, which no census command provokes
ERROR_PATHS = {
    "experiments.ensemble.failed": "an ensemble replica that fails mid-run "
                                   "or raises outside a step",
    "dynamics.SimulationError.__reduce__": "a replica that fails in a forked "
                                           "ensemble worker, which pickles "
                                           "the error",
}

# field -> who reads it, outside the package
OUTSIDE_READERS = {
    "dynamics.StepReport.noise_hs_sq": "bench/tracer.py fails a noise "
                                       "workload whose transport_hs_sq span "
                                       "sees no calls; it goes with that span",
}


def test_cli_runs_every_package_function_but_error_paths():
    # a fresh interpreter, so that a spectral plan another test cached
    # cannot hide the function that builds it from the census
    src = str(Path(stochem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(Path(__file__).with_name(
        "census.py"))], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True)
    sections = []   # one list of names under each header line
    for line in done.stdout.splitlines():
        if line.startswith("  "):
            sections[-1].append(line.strip())
        else:
            sections.append([])
    # the third section lists the numpy submodules that stochem.cli defers
    # and that a command executed anyway: none may be
    assert sections == [sorted(ERROR_PATHS), sorted(OUTSIDE_READERS), []]
