"""stochem benchmark: runs one workload as fresh CLI child processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stochem is imported from ``src``.
Children run one at a time, single-threaded, each a full ``stochem run`` or
``stochem experiment ensemble`` on the config generated from the workload
name and seed, until ``--seconds`` have been spent (at least ``MIN_CHILDREN``
times).  Every child's outputs are checked; a child whose checks fail counts
as a failed operation.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over children) with ``--trace 0``, the per-layer metrics
from traced children with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import COUNTS, PER_LAYER, summarize
from workloads import VARIANTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MiB")]
MIN_CHILDREN = 3          # untraced children per run, whatever --seconds says
MIN_TRACED = 2            # traced children per traced run, to compare counts
CHILD_TIMEOUT_S = 120
DIV_RESIDUAL_TOL = 1e-11  # |div u|_inf after projection: round-off at 256^2
REFERENCE_RTOL = 1e-9     # final row against reference.json
REFERENCE_ATOL = 1e-15
DIAGNOSTICS_HEADER = ["step", "t", "mass_n", "min_n", "max_c", "l2_u", "h1_c",
                      "entropy", "energy_residual", "clip_count",
                      "div_residual"]
ENSEMBLE_COLUMNS = ("mass_n", "min_n", "max_c", "l2_u", "h1_c", "entropy")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STOCHEM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def final_row(workload, outdir: Path) -> dict:
    """The last output row as the reference file stores it."""
    if workload.ensemble:
        with open(outdir / "ensemble_stats.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        keys = ["t"] + [f"{c}_mean" for c in ENSEMBLE_COLUMNS]
    else:
        with open(outdir / "diagnostics.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        keys = [c for c in DIAGNOSTICS_HEADER if c != "div_residual"]
    return {k: float(last[k]) for k in keys}


def check_outputs(workload, outdir: Path, reference: dict) -> list[str]:
    """Invariant and reference checks on one child's outputs."""
    problems = []
    if workload.ensemble:
        with open(outdir / "ensemble_stats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected_rows = workload.steps // workload.sample_every + 1
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} ensemble rows, expected "
                            f"{expected_rows}")
        for row in rows:
            if float(row["min_n_mean"]) < 0.0:
                problems.append(f"t={row['t']}: mean min_n < 0")
            div = float(row["div_residual_max"])
            if not (math.isfinite(div) and div <= DIV_RESIDUAL_TOL):
                problems.append(f"t={row['t']}: div_residual_max {div!r}")
    else:
        with open(outdir / "diagnostics.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if reader.fieldnames != DIAGNOSTICS_HEADER:
            problems.append(f"diagnostics header {reader.fieldnames}")
            return problems
        for row in rows:
            if float(row["min_n"]) < 0.0:
                problems.append(f"step {row['step']}: min_n < 0")
            div = float(row["div_residual"])
            if not (math.isfinite(div) and div <= DIV_RESIDUAL_TOL):
                problems.append(f"step {row['step']}: div_residual {div!r}")
        if int(rows[-1]["step"]) != workload.steps:
            problems.append(f"last step {rows[-1]['step']}, expected "
                            f"{workload.steps}")
    got = final_row(workload, outdir)
    for key, want in reference.items():
        if not math.isclose(got[key], want, rel_tol=REFERENCE_RTOL,
                            abs_tol=REFERENCE_ATOL):
            problems.append(f"final {key} = {got[key]!r}, reference {want!r}")
    return problems


def output_digest(workload, outdir: Path) -> str:
    h = hashlib.sha256()
    for name in workload.outputs:
        h.update(name.encode() + b"\0")
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def run_child(workload, config: Path, outdir: Path, trace: bool) -> dict:
    """Run one child and return its measurements; 'problems' lists failures."""
    shutil.rmtree(outdir, ignore_errors=True)
    result_path = outdir.parent / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload",
           workload.name, "--config", str(config), "--result",
           str(result_path)] + (["--trace"] if trace else [])
    with open(outdir.parent / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        # a blocking wait sees the exit at once; wait(timeout) polls
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            status = proc.wait()
        finally:
            timer.cancel()
        end = time.monotonic()
    if end - start >= CHILD_TIMEOUT_S:
        return {"problems": [f"killed after {CHILD_TIMEOUT_S} s"]}
    if status != 0:
        tail = (outdir.parent / "child.log").read_text()[-2000:]
        return {"problems": [f"exit status {status}: {tail}"]}
    res = json.loads(result_path.read_text())
    out = {"problems": [], "wall_s": end - start, "child": res}
    if not trace:
        out["setup_s"] = res["compute_start"] - start
        out["steps_per_s"] = (workload.replica_steps
                              / (res["compute_end"] - res["compute_start"]))
        out["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    return out


def environment(child: dict) -> dict:
    """Machine and library versions; best effort where /proc or /sys lack."""
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": child.get("python"), "numpy": child.get("numpy"),
           "scipy": child.get("scipy")}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stochem" / "cli.py").is_file():
        print(f"error: no stochem sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference[workload.name][str(variant)]

    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        return bench(workload, args, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def bench(workload, args, reference: dict, work: Path) -> int:
    work.mkdir(parents=True)
    outdir = work / "out"
    config = work / "config.ini"
    config.write_text(workload.config(args.seed, outdir))
    # compile bytecode and warm the file cache; users do not pay this per run
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, "
                    f"{str(SRC)!r}); import stochem.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)

    plain, traced = [], []
    attempted = failed = 0
    digest = counts = None
    durations = []
    start = time.monotonic()
    while True:
        enough = len(plain) >= MIN_CHILDREN and (
            not args.trace or len(traced) >= MIN_TRACED)
        next_s = statistics.median(durations) if durations else 0.0
        if enough and time.monotonic() - start + next_s > args.seconds:
            break
        # a traced run alternates untraced and traced children
        trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        res = run_child(workload, config, outdir, trace)
        durations.append(time.monotonic() - t0)
        attempted += 1
        problems = res["problems"]
        if not problems:
            try:
                problems = check_outputs(workload, outdir, reference)
                d = output_digest(workload, outdir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
        if not problems:
            digest = digest or d
            if d != digest:
                problems.append(f"output digest {d} differs from {digest}")
        if not problems and trace:
            try:
                res["layers"] = summarize(
                    res["child"]["span_names"], res["child"]["spans"],
                    res["child"]["main_end_ns"], res["child"]["import_s"],
                    sum(f.stat().st_size for f in outdir.iterdir()))
            except ValueError as exc:
                problems.append(f"trace: {exc}")
            else:
                c = {k: res["layers"][k] for k in COUNTS}
                counts = counts or c
                if c != counts:
                    problems.append(f"counts differ between traced runs: "
                                    f"{c} vs {counts}")
        if problems:
            failed += 1
            print(f"FAILED child {attempted}: " + "; ".join(problems),
                  file=sys.stderr)
            if failed > 2:
                break
            continue
        (traced if trace else plain).append(res)

    env = environment(plain[0]["child"] if plain else {})
    print("environment: " + json.dumps(env, sort_keys=True))
    field_kib = (workload.nx + 1) * workload.nx * 8 / 1024
    l3 = env.get("L3", "")
    fits = l3.endswith("K") and field_kib < int(l3[:-1])
    print(f"largest array {field_kib:.0f} KiB, last-level cache "
          f"{l3 or 'unknown'}: "
          + ("every array fits in it" if fits else "arrays may not fit in it")
          + "; spectral bytes moved are computed from array sizes, "
          "not measured")
    print(f"workload {workload.name} seed {args.seed} (variant "
          f"{args.seed % VARIANTS}); output sha256 {digest}")

    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            values = [r[name] for r in plain]
            if values:
                metrics[name] = {"value": statistics.median(values),
                                 "unit": unit}
                print(f"{name:<14} {metrics[name]['value']:.6g} {unit:<4} "
                      f"median, {spread(values)}")
    elif plain and traced:
        layers = [r["layers"] for r in traced]
        untraced_sps = statistics.median(r["steps_per_s"] for r in plain)
        traced_sps = statistics.median(lay["steps_per_s"] for lay in layers)
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_pct":
                value = 100.0 * (untraced_sps - traced_sps) / untraced_sps
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<50} {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
