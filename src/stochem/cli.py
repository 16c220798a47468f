"""Configuration, orchestration, and persistence.

Config files are INI-style with '#' comments; every key is optional and
falls back to a documented default, unknown keys and non-finite numbers are
rejected, and error messages name the offending key and the violated
constraint.

Persistence formats:
* diagnostics CSV with the fixed header
  step,t,mass_n,min_n,max_c,l2_u,h1_c,entropy,energy_residual,clip_count,div_residual
  and shortest round-trip decimal formatting;
* binary state snapshots: magic "CNS1", little-endian u32 nx, ny, f64 lx,
  ly, t, then the n, c, u_x, u_y arrays row-major as little-endian f64.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import struct
import sys
from pathlib import Path

# The package makes no BLAS calls, but BLAS starts its threads when numpy is
# imported, and ensemble chunks fork only from a process with one thread
# (see experiments.fork_safe).  So the stochem command asks for one BLAS
# thread, unless a count is set or numpy was imported before this module.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

from .diagnostics import DiagnosticsRow, check_conditions
from .dynamics import (CONSUMPTION_LAWS, SimParams, SimulationError, State,
                       run)
from .experiments import (ENSEMBLE_COLUMNS, ExperimentError, convergence_dt,
                          ensemble, stratonovich_consistency, twin_run)
from .grid import (Grid, GridError, ScalarField, VectorField,
                   cell_center_axes, make_grid, norm,
                   stream_function_curl, zeros_vector)
from .noise import make_transport_sigma, make_velocity_noise
from .operators import helmholtz_project

MASS_DRIFT_TOL = 1e-12
MAX_PRINCIPLE_TOL = 1e-10

SNAPSHOT_MAGIC = b"CNS1"


class ConfigError(ValueError):
    pass


# (type, default, constraint description, predicate) per section/key
_SCHEMA = {
    "grid": {
        "nx": (int, 64, "must be an integer >= 4", lambda v: v >= 4),
        "ny": (int, 64, "must be an integer >= 4", lambda v: v >= 4),
        "lx": (float, 1.0, "must be > 0", lambda v: v > 0),
        "ly": (float, 1.0, "must be > 0", lambda v: v > 0),
    },
    "physics": {
        "eta": (float, 1.0, "must be > 0 (fluid viscosity)", lambda v: v > 0),
        "mu": (float, 1.0, "must be > 0 (oxygen diffusivity)", lambda v: v > 0),
        "delta": (float, 1.0, "must be > 0 (cell diffusivity)", lambda v: v > 0),
        "chi": (float, 1.0, "must be >= 0 with a finite square (chemotactic "
                "constant)", lambda v: v >= 0 and math.isfinite(v * v)),
        "gamma": (float, 0.1, "must be >= 0 with a finite square (transport "
                  "noise intensity)", lambda v: v >= 0 and math.isfinite(v * v)),
        "f_name": (str, "linear", "must name a consumption law: "
                   + ", ".join(sorted(CONSUMPTION_LAWS)),
                   lambda v: v in CONSUMPTION_LAWS),
        "phi_kind": (str, "linear_y", "must be 'linear_y', 'linear_x' or 'zero'",
                     lambda v: v in ("linear_y", "linear_x", "zero")),
        "phi_scale": (float, 1.0, "any finite number", math.isfinite),
    },
    "noise": {
        "k_modes": (int, 4, "must be >= 1", lambda v: v >= 1),
        "amplitude": (float, 0.01, "must be >= 0", lambda v: v >= 0),
        "mode_decay_exponent": (float, 2.0, "must be finite", math.isfinite),
        "multiplicative_gain": (float, 0.0, "must be in [0, 1]",
                                lambda v: 0.0 <= v <= 1.0),
        "sigma_cutoff_width": (int, 1, "must be >= 1", lambda v: v >= 1),
    },
    "time": {
        "t_end": (float, 0.5, "must be >= 0", lambda v: v >= 0),
        "dt": (float, 1e-3, "must be > 0", lambda v: v > 0),
        "sample_every": (int, 10, "must be >= 1", lambda v: v >= 1),
        "seed": (int, 1234, "must be in [0, 2^64), the range of the noise "
                 "key", lambda v: 0 <= v < 2 ** 64),
    },
    "ic": {
        "n_recipe": (str, "gaussian_blob", "must be 'uniform' or 'gaussian_blob'",
                     lambda v: v in ("uniform", "gaussian_blob")),
        "n_value": (float, 1.0, "must be >= 0", lambda v: v >= 0),
        "n_base": (float, 0.05, "must be >= 0", lambda v: v >= 0),
        "n_amplitude": (float, 1.0, "must be >= 0", lambda v: v >= 0),
        "n_sigma": (float, 0.12, "must be > 0 with 2 n_sigma^2 a finite "
                    "positive float", lambda v: v > 0 and 0.0 < 2.0 * v * v
                    < math.inf),
        "n_center_x": (float, 0.5, "relative position in [0, 1]",
                       lambda v: 0.0 <= v <= 1.0),
        "n_center_y": (float, 0.5, "relative position in [0, 1]",
                       lambda v: 0.0 <= v <= 1.0),
        "c_recipe": (str, "linear_gradient",
                     "must be 'uniform', 'linear_gradient' or 'cosine_mode'",
                     lambda v: v in ("uniform", "linear_gradient", "cosine_mode")),
        "c_value": (float, 0.3, "must be >= 0", lambda v: v >= 0),
        "c_min": (float, 0.05, "must be >= 0", lambda v: v >= 0),
        "c_max": (float, 0.3, "must be >= 0", lambda v: v >= 0),
        "c_base": (float, 0.2, "must be >= 0", lambda v: v >= 0),
        "c_amplitude": (float, 0.1, "must be >= 0", lambda v: v >= 0),
        "c_mode_kx": (int, 1, "must be >= 0", lambda v: v >= 0),
        "c_mode_ky": (int, 0, "must be >= 0", lambda v: v >= 0),
        "u_recipe": (str, "taylor_vortex_pair",
                     "must be 'zero' or 'taylor_vortex_pair'",
                     lambda v: v in ("zero", "taylor_vortex_pair")),
        "u_amplitude": (float, 0.1, "must be >= 0", lambda v: v >= 0),
    },
    "output": {
        "directory": (str, "out", "must be a path without a NUL character",
                      lambda v: "\0" not in v),
        "snapshot_every": (int, 0, "must be >= 0 (0 disables)", lambda v: v >= 0),
        "formats": (str, "csv", "comma list drawn from {csv, snapshot}",
                    lambda v: set(_formats(v)) <= {"csv", "snapshot"}),
    },
    "experiment": {
        "perturbation": (float, 1e-6, "must be in [0, 1), so that the "
                         "perturbed scalars keep their sign",
                         lambda v: 0.0 <= v < 1.0),
        "levels": (int, 4, "must be >= 3", lambda v: v >= 3),
        "replicas": (int, 8, "must be >= 1", lambda v: v >= 1),
    },
}


def parse_config(text: str) -> dict[str, dict]:
    """Parse and validate an INI document against the full schema; returns
    {section: {key: parsed value}}."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    values = {section: {key: spec[1] for key, spec in keys.items()}
              for section, keys in _SCHEMA.items()}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
            values[section][key] = _parse_value(section, key, raw)
    _cross_validate(values)
    return values


def _parse_value(section: str, key: str, raw: str):
    """The text of one schema key as its type, within its constraint."""
    typ, _default, constraint, pred = _SCHEMA[section][key]
    try:
        val = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                          f"as {typ.__name__}") from exc
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} = {val}: must be finite")
    if not pred(val):
        raise ConfigError(f"[{section}] {key} = {val}: {constraint}")
    return val


def _cross_validate(cfg: dict[str, dict]) -> None:
    ic = cfg["ic"]
    if ic["c_recipe"] == "linear_gradient" and ic["c_max"] < ic["c_min"]:
        raise ConfigError("[ic] c_max: must be >= c_min for linear_gradient")
    if ic["c_recipe"] == "cosine_mode" and ic["c_amplitude"] > ic["c_base"]:
        raise ConfigError("[ic] c_amplitude: must be <= c_base so the "
                          "oxygen stays nonnegative")
    g = cfg["grid"]
    try:
        make_grid(g["nx"], g["ny"], g["lx"], g["ly"])
    except GridError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    w = cfg["noise"]["sigma_cutoff_width"]
    if w >= min(g["nx"], g["ny"]) / 4:
        raise ConfigError(f"[noise] sigma_cutoff_width = {w}: must be < "
                          f"min(nx, ny)/4")
    k, resolved = cfg["noise"]["k_modes"], (g["nx"] - 1) * (g["ny"] - 1)
    if k > resolved:
        raise ConfigError(f"[noise] k_modes = {k}: must be <= (nx - 1)(ny - 1)"
                          f" = {resolved}, the stream modes the grid resolves")
    decay = cfg["noise"]["mode_decay_exponent"]
    try:   # the largest mode weight, k^-decay, must be a float
        float(k) ** -decay
    except OverflowError:
        raise ConfigError(f"[noise] mode_decay_exponent = {decay}: the mode "
                          f"weight k_modes^-exponent overflows") from None
    every = cfg["output"]["snapshot_every"]
    if every > 0 and "snapshot" not in _formats(cfg["output"]["formats"]):
        raise ConfigError(f"[output] snapshot_every = {every}: must be 0 "
                          f"unless formats includes snapshot")
    dt = cfg["time"]["dt"]
    steps = cfg["time"]["t_end"] / dt
    if not steps <= sys.maxsize:   # also catches an overflow to inf
        raise ConfigError(f"[time] dt = {dt}: t_end / dt = {steps:g}, must "
                          f"be at most {sys.maxsize}")


def _formats(text: str) -> list[str]:
    """The names in an ``[output] formats`` comma list."""
    return [p.strip() for p in text.split(",") if p.strip()]


def load_config(path: str | Path) -> dict[str, dict]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _build_initial_velocity(grid: Grid, recipe: str, amplitude: float) -> VectorField:
    if recipe == "zero" or amplitude == 0.0:
        return zeros_vector(grid)
    # counter-rotating vortex pair: stream-function mode (2, 1)
    v = stream_function_curl(grid, 2, 1)
    peak = norm(v, "Linf")
    if peak > 0.0:
        v.u_x *= amplitude / peak
        v.u_y *= amplitude / peak
    return helmholtz_project(v)


def build_params(cfg: dict[str, dict]) -> SimParams:
    """Resolve a validated config's grid, physics and noise into
    coefficients.  Each config potential varies along one axis at most, so
    its face gradient along that axis is the gradient of its 1-D profile on
    the cell centres, and the other is zero; each is broadcast over the
    grid, the zero from a single entry, which buoyancy multiplies fastest."""
    g = cfg["grid"]
    grid = make_grid(g["nx"], g["ny"], g["lx"], g["ly"])
    ph = cfg["physics"]

    profiles = [np.zeros(1), np.zeros(1)]
    axis = {"linear_x": 0, "linear_y": 1}.get(ph["phi_kind"])
    if axis is not None:
        s = ph["phi_scale"] * cell_center_axes(grid)[axis]
        face = profiles[axis] = np.zeros(len(s) + 1)   # zero on the walls
        with np.errstate(over="ignore"):   # SimParams rejects it
            inner = np.subtract(s[1:], s[:-1], out=face[1:-1])
            inner /= (grid.dx, grid.dy)[axis]
    phi_grad = (np.broadcast_to(profiles[0][:, None], (grid.nx + 1, grid.ny)),
                np.broadcast_to(profiles[1], (grid.nx, grid.ny + 1)))

    nz = cfg["noise"]
    vnoise = make_velocity_noise(grid, nz["k_modes"], nz["amplitude"],
                                 nz["mode_decay_exponent"],
                                 nz["multiplicative_gain"])
    sigma = make_transport_sigma(grid, nz["sigma_cutoff_width"])
    try:
        return SimParams(eta=ph["eta"], mu=ph["mu"], delta=ph["delta"],
                         chi=ph["chi"], gamma=ph["gamma"], phi_grad=phi_grad,
                         f=CONSUMPTION_LAWS[ph["f_name"]], vnoise=vnoise,
                         sigma=sigma)
    except ValueError as exc:   # the schema checks every other coefficient
        raise ConfigError(f"[physics] phi_scale = {ph['phi_scale']!r}: "
                          f"{exc}") from exc


def oxygen_height(ic: dict) -> float:
    """The supremum over the domain of the selected ``[ic]`` oxygen recipe,
    read from that recipe's keys alone."""
    if ic["c_recipe"] == "uniform":
        height = ic["c_value"]
    elif ic["c_recipe"] == "linear_gradient":
        height = ic["c_max"]   # at least c_min, as the config checks
    else:
        height = ic["c_base"] + ic["c_amplitude"]
    if not math.isfinite(height):
        raise ConfigError("[ic] c recipe produced a non-finite value")
    return height


def build_simulation(cfg: dict[str, dict]) -> tuple[SimParams, State]:
    """Resolve a validated config into coefficients and an initial state."""
    params = build_params(cfg)
    grid = params.grid
    x, y = cell_center_axes(grid)
    x = x[:, None]   # each recipe broadcasts its 1-D axes over the grid
    ic = cfg["ic"]
    # a recipe that overflows is silent here: the finite check below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        if ic["n_recipe"] == "uniform":
            n0 = ScalarField(grid, np.full((grid.nx, grid.ny), ic["n_value"]))
        else:
            cx, cy = ic["n_center_x"] * grid.lx, ic["n_center_y"] * grid.ly
            s2 = 2.0 * ic["n_sigma"] ** 2
            n0 = ScalarField(grid, ic["n_base"] + ic["n_amplitude"]
                             * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / s2))
        if ic["c_recipe"] == "uniform":
            c0 = ScalarField(grid, np.full((grid.nx, grid.ny), ic["c_value"]))
        elif ic["c_recipe"] == "linear_gradient":
            c0 = ScalarField(grid, np.tile(
                ic["c_min"] + (ic["c_max"] - ic["c_min"]) * y / grid.ly,
                (grid.nx, 1)))
        else:
            c0 = ScalarField(grid, ic["c_base"] + ic["c_amplitude"]
                             * np.cos(ic["c_mode_kx"] * np.pi * x / grid.lx)
                             * np.cos(ic["c_mode_ky"] * np.pi * y / grid.ly))
        u0 = _build_initial_velocity(grid, ic["u_recipe"], ic["u_amplitude"])
    for name, values in (("n", n0.values), ("c", c0.values), ("u", u0.u_x),
                         ("u", u0.u_y)):
        if not np.isfinite(values).all():
            raise ConfigError(f"[ic] {name} recipe produced a non-finite "
                              f"value")
    if float(n0.values.min()) < 0.0:
        raise ConfigError("[ic] n recipe produced negative density")
    if float(c0.values.min()) < 0.0:
        raise ConfigError("[ic] c recipe produced negative oxygen")
    return params, State(u=u0, c=c0, n=n0, t=0.0)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_diagnostics_csv(rows: list[DiagnosticsRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DiagnosticsRow.COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, c))
                              for c in DiagnosticsRow.COLUMNS) + "\n")


def write_snapshot(state: State, path: str | Path) -> None:
    g = state.n.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", g.nx, g.ny))
        fh.write(struct.pack("<ddd", g.lx, g.ly, state.t))
        for arr in (state.n.values, state.c.values, state.u.u_x, state.u.u_y):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class SnapshotError(ValueError):
    pass


def read_snapshot(path: str | Path) -> State:
    blob = Path(path).read_bytes()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 4 + 8 + 24:
        raise SnapshotError(f"{path}: truncated header")
    nx, ny = struct.unpack_from("<II", blob, 4)
    lx, ly, t = struct.unpack_from("<ddd", blob, 12)
    counts = (nx * ny, nx * ny, (nx + 1) * ny, nx * (ny + 1))
    expected = 36 + 8 * sum(counts)
    if len(blob) != expected:
        raise SnapshotError(f"{path}: size {len(blob)} != expected {expected}")
    try:
        grid = make_grid(nx, ny, lx, ly)
    except GridError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    off = 36
    arrays = []
    shapes = ((nx, ny), (nx, ny), (nx + 1, ny), (nx, ny + 1))
    for cnt, shape in zip(counts, shapes):
        arrays.append(np.frombuffer(blob, dtype="<f8", count=cnt,
                                    offset=off).reshape(shape).copy())
        off += 8 * cnt
    n, c, ux, uy = arrays
    return State(u=VectorField(grid, ux, uy), c=ScalarField(grid, c),
                 n=ScalarField(grid, n), t=t)


def _config(args) -> dict[str, dict]:
    cfg = load_config(args.config)
    if args.seed is not None:   # the flag keeps the key's rule
        cfg["time"]["seed"] = _parse_value("time", "seed", args.seed)
    return cfg


def cmd_check_params(args) -> int:
    params, initial = build_simulation(load_config(args.config))
    report = check_conditions(params, norm(initial.c, "Linf"))
    for line in report.lines():
        print(line)
    print("admissible" if report.all_ok else "NOT admissible")
    return 0 if report.all_ok else 1


def cmd_run(args) -> int:
    cfg = _config(args)
    params, initial = build_simulation(cfg)
    report = check_conditions(params, norm(initial.c, "Linf"))
    if not report.all_ok and not args.allow_inadmissible:
        print("refusing to run: admissibility conditions fail "
              "(use --allow-inadmissible to override)", file=sys.stderr)
        for line in report.lines():
            print(line, file=sys.stderr)
        return 2

    outdir = Path(args.out or cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    t = cfg["time"]
    formats = _formats(cfg["output"]["formats"])
    snap_every = cfg["output"]["snapshot_every"]
    sample_count = [0]

    def on_sample(state, rows):
        if snap_every > 0 and sample_count[0] % snap_every == 0:
            write_snapshot(state, outdir / f"snapshot_{rows[0].step:08d}.cns")
        sample_count[0] += 1

    # the run gets the only reference, so it can free the initial state
    # once it has stepped past it
    handed_over = [initial]
    del initial
    final, rows = run(handed_over.pop(), params, t["t_end"], t["dt"],
                      seed=t["seed"], sample_every=t["sample_every"],
                      on_sample=on_sample)

    if "csv" in formats:
        write_diagnostics_csv(rows, outdir / "diagnostics.csv")
    if "snapshot" in formats:
        write_snapshot(final, outdir / "final.cns")

    first, last = rows[0], rows[-1]
    print(",".join(DiagnosticsRow.COLUMNS))
    print(",".join(_fmt(getattr(last, c)) for c in DiagnosticsRow.COLUMNS))

    mass_drift = abs(last.mass_n - first.mass_n) / max(abs(first.mass_n), 1e-300)
    max_c_over = (max(r.max_c for r in rows)
                  - first.max_c * (1.0 + MAX_PRINCIPLE_TOL))
    status = 0
    if mass_drift > MASS_DRIFT_TOL:
        print(f"GATE FAILURE: relative mass drift {mass_drift:g} exceeds "
              f"{MASS_DRIFT_TOL:g}", file=sys.stderr)
        status = 1
    if max_c_over > 0.0:
        print(f"GATE FAILURE: oxygen maximum exceeded its initial bound by "
              f"{max_c_over:g}", file=sys.stderr)
        status = 1
    return status


def _write_report(report, path: Path) -> None:
    """A study report's dataclass fields, in order, as a JSON object."""
    payload = {f.name: np.asarray(getattr(report, f.name)).tolist()
               for f in dataclasses.fields(report)}
    path.write_text(json.dumps(payload, indent=2, allow_nan=False),
                    encoding="utf-8", newline="\n")


def cmd_experiment(args) -> int:
    cfg = _config(args)
    if args.which == "stratonovich":
        # the study steps a bump of the initial oxygen's height alone
        params, scale = build_params(cfg), oxygen_height(cfg["ic"])
    else:
        params, initial = build_simulation(cfg)
    outdir = Path(args.out or cfg["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    t = cfg["time"]
    ex = cfg["experiment"]
    seed = t["seed"]

    if args.which == "twin":
        rep = twin_run(params, initial, seed, ex["perturbation"],
                       t["t_end"], t["dt"], sample_every=t["sample_every"])
        with open(outdir / "twin.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("t,separation\n")
            for ti, yi in zip(rep.times, rep.separation):
                fh.write(f"{_fmt(ti)},{_fmt(yi)}\n")
        print(f"fitted growth rate: {rep.growth_rate!r}")
        print(f"max separation: {float(rep.separation.max())!r}")
        return 0

    if args.which == "convergence":
        rep = convergence_dt(params, initial, seed, t["dt"], ex["levels"],
                             t["t_end"])
        _write_report(rep, outdir / "convergence.json")
        print(f"fitted strong-order slope: {rep.slope:.4f}")
        return 0

    if args.which == "stratonovich":
        rep = stratonovich_consistency(params, scale, seed, t["dt"],
                                       ex["levels"], t["t_end"],
                                       n_replicas=ex["replicas"])
        _write_report(rep, outdir / "stratonovich.json")
        print(f"finest-level drift gap: {float(rep.gap[-1])!r} "
              f"(reference {rep.reference_gap!r})")
        return 0

    # argparse's choices leave only the ensemble here
    stats = ensemble(params, initial, seed, ex["replicas"], t["t_end"],
                     t["dt"], sample_every=t["sample_every"])
    with open(outdir / "ensemble_stats.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        header = ["t"] + [f"{c}_{s}" for c in ENSEMBLE_COLUMNS
                          for s in ("mean", "var", "max", "ci95")]
        fh.write(",".join(header) + "\n")
        for i in range(len(stats.times)):
            cells = [_fmt(stats.times[i])]
            for c in ENSEMBLE_COLUMNS:
                cells += [_fmt(stats.mean[c][i]), _fmt(stats.variance[c][i]),
                          _fmt(stats.maximum[c][i]), _fmt(stats.ci95[c][i])]
            fh.write(",".join(cells) + "\n")
    print(f"replicas: {stats.n_replicas}; "
          f"sup entropy across replicas: {stats.sup_over_replicas('entropy')!r}")
    return 0


def cmd_snapshot_info(args) -> int:
    state = read_snapshot(args.path)
    g = state.n.grid
    print(f"grid: {g.nx} x {g.ny} on [0,{g.lx}] x [0,{g.ly}]")
    print(f"t = {state.t!r}")
    print(f"mass(n) = {float(np.sum(state.n.values)) * g.cell_volume!r}")
    print(f"min n = {float(state.n.values.min())!r}, "
          f"max c = {float(state.c.values.max())!r}")
    print(f"|u|_inf = {norm(state.u, 'Linf')!r}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stochem",
                                 description="stochastic chemotaxis-fluid simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", required=True, help="path to an INI config")

    def common(p):
        config(p)
        p.add_argument("--seed", default=None,
                       help="override [time] seed, under its rule")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("run", help="integrate and write diagnostics")
    common(p)
    p.add_argument("--allow-inadmissible", action="store_true",
                   help="run even when the admissibility gate fails")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check-params", help="evaluate the admissibility gate")
    config(p)
    p.set_defaults(func=cmd_check_params)

    p = sub.add_parser("experiment", help="run a scripted study")
    p.add_argument("which", choices=("twin", "convergence", "stratonovich",
                                     "ensemble"))
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("snapshot-info", help="describe a snapshot file")
    p.add_argument("path")
    p.set_defaults(func=cmd_snapshot_info)
    return ap


def main(argv=None) -> int:
    """Exit codes: 0 success; 1 failed post-run invariant gate (or, for
    check-params, an inadmissible config); 2 bad config or snapshot, a file
    that cannot be read or an output directory that cannot be made, a run
    refused by the admissibility gate, an experiment set-up the study
    rejects, or an ensemble chunk that raised outside a step or whose
    worker process exited without its rows; 3 the integration failed
    mid-run, in a run, an experiment or one ensemble replica (the message
    names the replica and the step)."""
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # a config, snapshot or output path
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: step {exc.step_index}: {exc.__cause__ or exc}",
              file=sys.stderr)
        return 3
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.__cause__, SimulationError) else 2


if __name__ == "__main__":
    sys.exit(main())
