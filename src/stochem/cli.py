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
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRow, DiagnosticsSeries, check_conditions
from .dynamics import (CONSUMPTION_LAWS, SimParams, SimulationError, State,
                       make_params, run)
from .experiments import (EnsembleSpec, ExperimentError, convergence_dt,
                          ensemble, interior_bump, stratonovich_consistency,
                          twin_run)
from .grid import (Grid, ScalarField, VectorField, cell_centers, make_grid,
                   norm, zeros_scalar, zeros_vector)
from .noise import make_transport_sigma, make_velocity_noise
from .operators import helmholtz_project

MASS_DRIFT_TOL = 1e-12
MAX_PRINCIPLE_TOL = 1e-10

SNAPSHOT_MAGIC = b"CNS1"


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


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
        "chi": (float, 1.0, "must be >= 0 (chemotactic constant)", lambda v: v >= 0),
        "gamma": (float, 0.1, "must be >= 0 (transport noise intensity)",
                  lambda v: v >= 0),
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
        "seed": (int, 1234, "any integer", lambda v: True),
    },
    "ic": {
        "n_recipe": (str, "gaussian_blob", "must be 'uniform' or 'gaussian_blob'",
                     lambda v: v in ("uniform", "gaussian_blob")),
        "n_value": (float, 1.0, "must be >= 0", lambda v: v >= 0),
        "n_base": (float, 0.05, "must be >= 0", lambda v: v >= 0),
        "n_amplitude": (float, 1.0, "must be >= 0", lambda v: v >= 0),
        "n_sigma": (float, 0.12, "must be > 0", lambda v: v > 0),
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
        "directory": (str, "out", "any path", lambda v: True),
        "snapshot_every": (int, 0, "must be >= 0 (0 disables)", lambda v: v >= 0),
        "formats": (str, "csv", "comma list drawn from {csv, snapshot}",
                    lambda v: all(p.strip() in ("csv", "snapshot")
                                  for p in v.split(",") if p.strip())),
    },
    "experiment": {
        "perturbation": (float, 1e-6, "must be >= 0", lambda v: v >= 0),
        "levels": (int, 4, "must be >= 3", lambda v: v >= 3),
        "replicas": (int, 8, "must be >= 1", lambda v: v >= 1),
    },
}


@dataclass
class RunConfig:
    values: dict  # {section: {key: parsed value}}

    def __getitem__(self, section_key: tuple[str, str]):
        section, key = section_key
        return self.values[section][key]


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI document against the full schema."""
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
            typ, _default, constraint, pred = _SCHEMA[section][key]
            try:
                val = typ(raw) if typ is not bool else _parse_bool(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                                  f"as {typ.__name__}") from exc
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"[{section}] {key} = {val}: must be finite")
            if not pred(val):
                raise ConfigError(f"[{section}] {key} = {val}: {constraint}")
            values[section][key] = val
    cfg = RunConfig(values)
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: RunConfig) -> None:
    ic = cfg.values["ic"]
    if ic["c_recipe"] == "linear_gradient" and ic["c_max"] < ic["c_min"]:
        raise ConfigError("[ic] c_max: must be >= c_min for linear_gradient")
    if ic["c_recipe"] == "cosine_mode" and ic["c_amplitude"] > ic["c_base"]:
        raise ConfigError("[ic] c_amplitude: must be <= c_base so the "
                          "oxygen stays nonnegative")
    g = cfg.values["grid"]
    w = cfg.values["noise"]["sigma_cutoff_width"]
    if w >= min(g["nx"], g["ny"]) / 4:
        raise ConfigError(f"[noise] sigma_cutoff_width = {w}: must be < "
                          f"min(nx, ny)/4")


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _build_initial_velocity(grid: Grid, recipe: str, amplitude: float) -> VectorField:
    if recipe == "zero" or amplitude == 0.0:
        return zeros_vector(grid)
    # counter-rotating vortex pair from a node stream function; the discrete
    # curl is exactly divergence-free and has zero wall-normal faces
    xn = np.arange(grid.nx + 1) * grid.dx
    yn = np.arange(grid.ny + 1) * grid.dy
    psi = np.outer(np.sin(2.0 * np.pi * xn / grid.lx),
                   np.sin(np.pi * yn / grid.ly))
    v = VectorField(grid,
                    (psi[:, 1:] - psi[:, :-1]) / grid.dy,
                    -(psi[1:, :] - psi[:-1, :]) / grid.dx)
    peak = norm(v, "Linf")
    if peak > 0.0:
        v.u_x *= amplitude / peak
        v.u_y *= amplitude / peak
    return helmholtz_project(v)


def build_simulation(cfg: RunConfig) -> tuple[SimParams, State]:
    """Resolve a validated config into coefficients and an initial state."""
    g = cfg.values["grid"]
    grid = make_grid(g["nx"], g["ny"], g["lx"], g["ly"])
    ph = cfg.values["physics"]

    x, y = cell_centers(grid)
    if ph["phi_kind"] == "linear_y":
        phi = ScalarField(grid, ph["phi_scale"] * y)
    elif ph["phi_kind"] == "linear_x":
        phi = ScalarField(grid, ph["phi_scale"] * x)
    else:
        phi = zeros_scalar(grid)

    nz = cfg.values["noise"]
    vnoise = make_velocity_noise(grid, nz["k_modes"], nz["amplitude"],
                                 nz["mode_decay_exponent"],
                                 nz["multiplicative_gain"])
    sigma = make_transport_sigma(grid, nz["sigma_cutoff_width"])
    law = CONSUMPTION_LAWS[ph["f_name"]]()
    law.validate(c_max=max(cfg.values["ic"]["c_max"],
                           cfg.values["ic"]["c_value"],
                           cfg.values["ic"]["c_base"], 1.0))
    params = make_params(grid, eta=ph["eta"], mu=ph["mu"], delta=ph["delta"],
                         chi=ph["chi"], gamma=ph["gamma"], phi=phi, f=law,
                         vnoise=vnoise, sigma=sigma)

    ic = cfg.values["ic"]
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
        c0 = ScalarField(grid, ic["c_min"]
                         + (ic["c_max"] - ic["c_min"]) * y / grid.ly)
    else:
        c0 = ScalarField(grid, ic["c_base"] + ic["c_amplitude"]
                         * np.cos(ic["c_mode_kx"] * np.pi * x / grid.lx)
                         * np.cos(ic["c_mode_ky"] * np.pi * y / grid.ly))
    u0 = _build_initial_velocity(grid, ic["u_recipe"], ic["u_amplitude"])
    if float(n0.values.min()) < 0.0:
        raise ConfigError("[ic] n recipe produced negative density")
    if float(c0.values.min()) < 0.0:
        raise ConfigError("[ic] c recipe produced negative oxygen")
    return params, State(u=u0, c=c0, n=n0, t=0.0)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_diagnostics_csv(series: DiagnosticsSeries, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DiagnosticsRow.COLUMNS) + "\n")
        for row in series:
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
    grid = make_grid(nx, ny, lx, ly)
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


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("STOCHEM_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _prepare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.values["time"]["seed"] = args.seed
    params, initial = build_simulation(cfg)
    return cfg, params, initial


def cmd_check_params(args) -> int:
    cfg, params, initial = _prepare(args)
    report = check_conditions(params, norm(initial.c, "Linf"))
    for line in report.lines():
        print(line)
    print("admissible" if report.all_ok else "NOT admissible")
    return 0 if report.all_ok else 1


def cmd_run(args) -> int:
    cfg, params, initial = _prepare(args)
    report = check_conditions(params, norm(initial.c, "Linf"))
    if not report.all_ok and not args.allow_inadmissible:
        print("refusing to run: admissibility conditions fail "
              "(use --allow-inadmissible to override)", file=sys.stderr)
        for line in report.lines():
            print(line, file=sys.stderr)
        return 2

    outdir = Path(args.out or cfg[("output", "directory")])
    outdir.mkdir(parents=True, exist_ok=True)
    t = cfg.values["time"]
    formats = [p.strip() for p in cfg[("output", "formats")].split(",") if p.strip()]
    snap_every = cfg[("output", "snapshot_every")]
    sample_count = [0]

    def on_sample(state, row):
        if "snapshot" in formats and snap_every > 0 \
                and sample_count[0] % snap_every == 0:
            write_snapshot(state, outdir / f"snapshot_{row.step:08d}.cns")
        sample_count[0] += 1

    final, series = run(initial, params, t["t_end"], t["dt"], seed=t["seed"],
                        sample_every=t["sample_every"], on_sample=on_sample)

    if "csv" in formats:
        write_diagnostics_csv(series, outdir / "diagnostics.csv")
    if "snapshot" in formats:
        write_snapshot(final, outdir / "final.cns")

    rows = series.rows
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


def cmd_experiment(args) -> int:
    cfg, params, initial = _prepare(args)
    outdir = Path(args.out or cfg[("output", "directory")])
    outdir.mkdir(parents=True, exist_ok=True)
    t = cfg.values["time"]
    ex = cfg.values["experiment"]
    seed = t["seed"]

    if args.which == "twin":
        rep = twin_run(params, initial, seed, ex["perturbation"],
                       t["t_end"], t["dt"], sample_every=t["sample_every"])
        with open(outdir / "twin.csv", "w", encoding="utf-8") as fh:
            fh.write("t,separation\n")
            for ti, yi in zip(rep.times, rep.separation):
                fh.write(f"{_fmt(ti)},{_fmt(yi)}\n")
        print(f"fitted growth rate: {rep.growth_rate!r}")
        print(f"max separation: {rep.separation.max()!r}")
        return 0

    if args.which == "convergence":
        dts = [t["dt"] * 2 ** k for k in range(ex["levels"] - 1, -1, -1)]
        rep = convergence_dt(params, initial, seed, dts, t["t_end"])
        payload = {"dt_levels": list(rep.dt_levels), "errors": list(rep.errors),
                   "slope": rep.slope}
        (outdir / "convergence.json").write_text(json.dumps(payload, indent=2))
        print(f"fitted strong-order slope: {rep.slope:.4f}")
        return 0

    if args.which == "stratonovich":
        c0 = interior_bump(params.grid, params.sigma, scale=max(
            cfg[("ic", "c_max")], cfg[("ic", "c_value")]))
        frozen = State(u=zeros_vector(params.grid), c=c0,
                       n=zeros_scalar(params.grid), t=0.0)
        dts = [t["dt"] * 2 ** k for k in range(ex["levels"] - 1, -1, -1)]
        rep = stratonovich_consistency(params, frozen, seed, dts, t["t_end"],
                                       n_replicas=ex["replicas"])
        payload = {"dt_levels": list(rep.dt_levels),
                   "drift_corrected": list(rep.drift_corrected),
                   "drift_naive": list(rep.drift_naive),
                   "gap": list(rep.gap),
                   "reference_gap": rep.reference_gap}
        (outdir / "stratonovich.json").write_text(json.dumps(payload, indent=2))
        print(f"finest-level drift gap: {rep.gap[-1]!r} "
              f"(reference {rep.reference_gap!r})")
        return 0

    if args.which == "ensemble":
        spec = EnsembleSpec(n_replicas=ex["replicas"], base_seed=seed,
                            params=params, initial=initial, t_end=t["t_end"],
                            dt=t["dt"], sample_every=t["sample_every"])
        stats = ensemble(spec, threads=_thread_count(args))
        with open(outdir / "ensemble_stats.csv", "w", encoding="utf-8") as fh:
            cols = spec.columns
            header = ["t"] + [f"{c}_{s}" for c in cols
                              for s in ("mean", "var", "max", "ci95")]
            fh.write(",".join(header) + "\n")
            for i in range(len(stats.times)):
                cells = [_fmt(stats.times[i])]
                for c in cols:
                    cells += [_fmt(stats.mean[c][i]), _fmt(stats.variance[c][i]),
                              _fmt(stats.maximum[c][i]), _fmt(stats.ci95[c][i])]
                fh.write(",".join(cells) + "\n")
        print(f"replicas: {stats.n_replicas}; "
              f"sup entropy across replicas: {stats.sup_over_replicas('entropy')!r}")
        return 0

    raise SystemExit(f"unknown experiment {args.which!r}")


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

    def common(p):
        p.add_argument("--config", required=True, help="path to an INI config")
        p.add_argument("--seed", type=int, default=None,
                       help="override [time] seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("run", help="integrate and write diagnostics")
    common(p)
    p.add_argument("--allow-inadmissible", action="store_true",
                   help="run even when the admissibility gate fails")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check-params", help="evaluate the admissibility gate")
    common(p)
    p.set_defaults(func=cmd_check_params)

    p = sub.add_parser("experiment", help="run a scripted study")
    p.add_argument("which", choices=("twin", "convergence", "stratonovich",
                                     "ensemble"))
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="ensemble worker threads (default STOCHEM_THREADS or 1)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("snapshot-info", help="describe a snapshot file")
    p.add_argument("path")
    p.set_defaults(func=cmd_snapshot_info)
    return ap


def main(argv=None) -> int:
    """Exit codes: 0 success; 1 failed post-run invariant gate (or, for
    check-params, an inadmissible config); 2 bad config or snapshot, a run
    refused by the admissibility gate, or an experiment set-up the study
    rejects; 3 the integration failed mid-run, in a run, an experiment or
    one ensemble replica (the message names the replica and the step)."""
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
