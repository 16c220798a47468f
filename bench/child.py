"""One benchmark child: runs a workload once through ``stochem.cli.main``.

    python3 bench/child.py --workload NAME --config INI --result JSON [--trace]

Imports stochem from the ``src`` directory next to this one, never from an
installed copy.  Untraced, it only wraps the integration call the CLI makes
(``cli.run`` or ``cli.ensemble``) to time the first step and the step loop.
With ``--trace`` every target in ``tracer.TARGETS`` is wrapped and the spans
go into the result file.  The result file is written after the CLI returns;
the child exits with the CLI's status.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _time_boundary(cli, attr: str, marks: dict) -> None:
    inner = getattr(cli, attr)

    def timed(*args, **kwargs):
        marks["compute_start"] = time.monotonic()
        try:
            return inner(*args, **kwargs)
        finally:
            marks["compute_end"] = time.monotonic()

    setattr(cli, attr, timed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stochem.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported stochem from {cli.__file__}, not {SRC}")

    import numpy
    import scipy
    result = {"import_s": import_s, "numpy": numpy.__version__,
              "scipy": scipy.__version__, "python": sys.version.split()[0]}
    marks: dict = {}
    boundary = "ensemble" if workload.ensemble else "run"
    if args.trace:
        from tracer import Tracer
        with Tracer() as tracer:
            status = cli.main(workload.argv(Path(args.config)))
            result["main_end_ns"] = time.perf_counter_ns()
        tracer.require_calls(workload.idle_spans())
        result["span_names"] = tracer.names
        result["spans"] = tracer.spans
    else:
        _time_boundary(cli, boundary, marks)
        status = cli.main(workload.argv(Path(args.config)))
    result.update(marks)
    result["status"] = status
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
