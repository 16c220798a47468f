"""Regenerate reference.json: the final output row of every workload variant.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each variant once through the same child as the benchmark and stores
its final row.  Only rerun this for a deliberate change of the program's
results, and say why in CHANGES.md: the benchmark fails any run whose final
row leaves these values by more than run.REFERENCE_RTOL.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, WORK, check_outputs, final_row, run_child
from workloads import VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    path = BENCH / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work = WORK / "reference"
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            rows = {}
            for variant in range(VARIANTS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                outdir = work / "out"
                config = work / "config.ini"
                config.write_text(workload.config(variant, outdir))
                res = run_child(workload, config, outdir, trace=False)
                problems = res["problems"] or check_outputs(workload, outdir,
                                                            {})
                if problems:
                    print(f"{name} variant {variant}: {problems}",
                          file=sys.stderr)
                    return 1
                rows[str(variant)] = final_row(workload, outdir)
                print(f"{name} variant {variant}: {rows[str(variant)]}")
            table[name] = rows
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
