"""Memory timeline of one CLI command, step by step.

Runs ``stochem.cli.main`` in-process with ``dynamics.step`` wrapped, and
after every step prints one line: the step number (counted over the whole
command, so an ensemble's replicas follow each other), the resident set
size now, the peak resident set size so far (``ru_maxrss``) and the minor
page faults of that step (``ru_minflt``).  Line 0 is the state on entry to
the first step, after imports and set-up.  A heap that the step's
temporaries make glibc trim and regrow shows as a climbing ``ru_maxrss``
and as page faults every few steps.

    PYTHONPATH=src python tests/heapline.py run --config CONFIG.ini
    PYTHONPATH=src python tests/heapline.py --workload plume256 [--seed N]

The second form writes the config of a benchmark workload (from
``bench/workloads.py``) to a temporary directory, with the outputs there
too.  The current resident size is read from ``/proc/self/statm``, so the
script runs on Linux only.  One BLAS thread is used, as in the benchmark.
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from stochem import dynamics
from stochem.cli import main

MIB = 1024.0 * 1024.0
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE / MIB


def watch_steps():
    """Wrap dynamics.step so that each step prints its line; returns the
    printer, which labels a line given a label."""
    inner = dynamics.step
    count = 0
    last_flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def line(label=None) -> None:
        nonlocal last_flt
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"{count if label is None else label:>6} {rss_mib():10.2f} "
              f"{usage.ru_maxrss / 1024.0:12.2f} "
              f"{usage.ru_minflt - last_flt:10d}", flush=True)
        last_flt = usage.ru_minflt

    def step(*args, **kwargs):
        nonlocal count
        if count == 0:
            line()
        result = inner(*args, **kwargs)
        count += 1
        line()
        return result

    dynamics.step = step
    print(f"{'step':>6} {'rss_MiB':>10} {'maxrss_MiB':>12} {'minflt':>10}")
    return line


def workload_argv(args: list[str], scratch: Path) -> list[str]:
    """The CLI arguments of ``--workload NAME [--seed N]``, its config
    written under ``scratch``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS
    name = args[1]
    seed = int(args[3]) if len(args) > 3 and args[2] == "--seed" else 1
    workload = WORKLOADS[name]
    config = scratch / f"{name}.ini"
    config.write_text(workload.config(seed, scratch / "out"))
    return workload.argv(config)


if __name__ == "__main__":
    argv = sys.argv[1:]
    with tempfile.TemporaryDirectory() as scratch:
        if argv[:1] == ["--workload"]:
            argv = workload_argv(argv, Path(scratch))
        line = watch_steps()
        status = main(argv)
        line("end")
    sys.exit(status)
