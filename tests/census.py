"""Census of the package code and data that the command line uses.

Runs every CLI command in-process on an 8x8 config, with a profile hook on
this thread and on any worker thread and a read hook on every package
dataclass.  It prints every function defined under ``src/stochem`` that
none of the commands executed, one per line as ``module.qualified.name``,
then every dataclass field that no package code read, as
``module.Class.field``, and last every numpy submodule that
``stochem.cli`` bound unexecuted (``stochem.cli.DEFERRED``) but that the
import or a command executed, as ``numpy.name``.  Lambdas and
comprehensions are not counted, nor are reads from the generated
``__init__``, ``__eq__``, ``__repr__`` and ``__hash__``, from
``__post_init__`` or from ``dataclasses.replace``.  The commands are
``check-params``; ``run`` with snapshots, the saturating law and no
potential; the four experiments; ``snapshot-info``; and one failing config
each for exit codes 2 and 3.  The census runs with one BLAS thread, so the
ensemble forks where it can; what a forked worker runs is not seen.

    PYTHONPATH=src python tests/census.py

A function or a field only tests use belongs in ``tests/oracles.py``; what
is left should be code that handles an error none of the commands
provokes, or data that a test or the benchmark reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import sys
import tempfile
import threading
import types
import warnings
from pathlib import Path

# one BLAS thread whatever the caller set, as in the benchmark's children:
# the process then holds a single thread, so the ensemble takes its forking
# path (see fork_safe)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import stochem
from stochem.cli import DEFERRED, main

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
     CONFIG + "[physics]\nf_name = saturating\nphi_kind = zero\n", 0),
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

# methods whose reads of a field do not make it used
NOT_READS = {"__init__", "__post_init__", "__eq__", "__repr__", "__hash__"}


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


def package_fields() -> dict:
    """(class, field name) -> dotted name, for every field of every
    dataclass defined in the package's modules."""
    found = {}
    for source in sorted(Path(stochem.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"stochem.{source.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                for f in dataclasses.fields(cls):
                    found[(cls, f.name)] = (f"{source.stem}.{cls.__qualname__}"
                                            f".{f.name}")
    return found


@contextlib.contextmanager
def field_reads(fields, reads: set):
    """Add (class, field name, reading code object) to ``reads`` for every
    read of a field in ``fields`` while the context is open."""
    saved = []
    for cls in {cls for cls, _ in fields}:
        names = {name for owner, name in fields if owner is cls}

        def hook(self, name, cls=cls, names=names,
                 original=cls.__getattribute__):
            if name in names:
                reads.add((cls, name, sys._getframe(1).f_code))
            return original(self, name)

        saved.append((cls, vars(cls).get("__getattribute__")))
        cls.__getattribute__ = hook
    try:
        yield
    finally:
        for cls, own in saved:
            if own is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = own


def run_commands(scratch: Path, fields) -> tuple[set, set]:
    """Run COMMANDS; return the code objects that were called and the
    (class, field name, reading code object) of every field read."""
    called, reads = set(), set()

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
                    warnings.catch_warnings(), field_reads(fields, reads):
                warnings.simplefilter("ignore")
                code = main(argv)
            if code != expected:
                raise RuntimeError(f"stochem {line} exited {code}, "
                                   f"expected {expected}")
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return called, reads


def census() -> tuple[list[str], list[str], list[str]]:
    """Dotted names of the package functions no command executed, of the
    dataclass fields no package code read and of the deferred numpy
    submodules that were executed."""
    fields = package_fields()
    with tempfile.TemporaryDirectory() as scratch:
        called, reads = run_commands(Path(scratch), fields)
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name) for code in called}
    package = os.path.dirname(os.path.realpath(stochem.__file__))
    read = {(cls, name) for cls, name, code in reads
            if code.co_name not in NOT_READS
            and os.path.dirname(os.path.realpath(code.co_filename)) == package}
    return (sorted(name for key, name in package_functions().items()
                   if key not in ran),
            sorted(name for key, name in fields.items() if key not in read),
            # LazyLoader turns a module into a plain one when it executes it
            sorted(name for name in DEFERRED
                   if type(sys.modules[name]) is types.ModuleType))


if __name__ == "__main__":
    functions, fields, executed = census()
    print(f"{len(functions)} package functions no CLI command executed:")
    for name in functions:
        print(f"  {name}")
    print(f"{len(fields)} dataclass fields no package code read:")
    for name in fields:
        print(f"  {name}")
    print(f"{len(executed)} deferred numpy submodules a CLI command executed:")
    for name in executed:
        print(f"  {name}")
