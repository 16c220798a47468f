"""Census of the package code that the command line runs.

Runs every CLI command in-process on an 8x8 config, with a profile hook on
this thread and on any worker thread, and prints every function defined
under ``src/stochem`` that none of the commands executed, one per line as
``module.qualified.name``.  Lambdas and comprehensions are not counted.
The commands are ``check-params``; ``run`` with snapshots and the
saturating law; the four experiments; ``snapshot-info``; and one failing
config each for exit codes 2 and 3.

    PYTHONPATH=src python tests/census.py

A function only tests call belongs in ``tests/oracles.py``; what is left
should be code that handles an error none of the commands provokes.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import stochem
from stochem.cli import main

CONFIG = """\
[grid]
nx = 8
ny = 8
[noise]
amplitude = 0.02
[time]
t_end = 0.01
sample_every = 2
[experiment]
levels = 3
replicas = 2
[output]
formats = csv,snapshot
snapshot_every = 1
"""

# (command line after ``stochem``, config text or None, expected exit code);
# {cfg} and {out} are filled in with paths in a scratch directory
COMMANDS = [
    ("check-params --config {cfg}", CONFIG, 0),
    ("run --config {cfg} --out {out}",
     CONFIG + "[physics]\nf_name = saturating\n", 0),
    ("experiment twin --config {cfg} --out {out}", CONFIG, 0),
    ("experiment convergence --config {cfg} --out {out}", CONFIG, 0),
    ("experiment stratonovich --config {cfg} --out {out}", CONFIG, 0),
    ("experiment ensemble --config {cfg} --out {out}", CONFIG, 0),
    ("snapshot-info {out}/final.cns", None, 0),
    # a constraint violation, refused with the config
    ("check-params --config {cfg}", CONFIG + "[physics]\ndelta = -1\n", 2),
    # a first step above the advective bound
    ("run --allow-inadmissible --config {cfg} --out {out}",
     CONFIG + "[ic]\nu_amplitude = 80\n", 3),
]


def package_functions() -> dict:
    """(file, first line, name) -> dotted name, for every function and
    method in the package's source files."""
    found = {}

    def walk(code, path: str, prefix: str) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_OPTIMIZED:   # not a class body
                found[(path, const.co_firstlineno, const.co_name)] = name
            walk(const, path, name)

    for source in sorted(Path(stochem.__file__).parent.glob("*.py")):
        path = os.path.realpath(source)
        walk(compile(source.read_text(encoding="utf-8"), path, "exec"), path,
             source.stem)
    return found


def run_commands(scratch: Path) -> set:
    """Run COMMANDS and return the code objects that were called."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    out = scratch / "out"
    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for index, (line, text, expected) in enumerate(COMMANDS):
            cfg = scratch / f"census{index}.ini"
            if text is not None:
                cfg.write_text(text, encoding="utf-8")
            argv = line.format(cfg=cfg, out=out).split()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            if code != expected:
                raise RuntimeError(f"stochem {line} exited {code}, "
                                   f"expected {expected}")
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return called


def unexecuted() -> list[str]:
    """Dotted names of the package functions no command executed."""
    with tempfile.TemporaryDirectory() as scratch:
        called = run_commands(Path(scratch))
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name) for code in called}
    return sorted(name for key, name in package_functions().items()
                  if key not in ran)


if __name__ == "__main__":
    names = unexecuted()
    print(f"{len(names)} package functions no CLI command executed:")
    for name in names:
        print(f"  {name}")
