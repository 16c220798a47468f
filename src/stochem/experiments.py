"""Scripted numerical studies probing the theorem-level claims.

* twin_run drives two trajectories through the identical Brownian path and
  tracks the separation functional Y(t) = |du|_L2^2 + |dc|_H1^2 + |dn|_L2^2;
  with zero perturbation the trajectories are bitwise equal, which is the
  discrete reading of pathwise uniqueness.
* convergence_dt refines the step under one shared Brownian path (coarse
  increments are exact sums of fine ones) and fits the strong order.
* stratonovich_consistency measures the drift of the interior oxygen energy
  for the corrected scheme against a naive uncorrected one.  The reported
  number is the drift in the semimartingale sense: the martingale part of
  each step (both the dbeta term and the quadratic-variation fluctuation
  around its compensator) is subtracted exactly using the realized
  increments, leaving the predictable defect the correction is supposed to
  cancel.
* ensemble runs independent replicas and aggregates diagnostics columns with
  Welford statistics.

Every study steps through dynamics.march on dynamics.time_grid, or, for the
oxygen-only transport test, through the oxygen phase functions of step.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (SimParams, State, march, oxygen_correction,
                       oxygen_drift, oxygen_kick, seeded_increments,
                       time_grid)
from .grid import ScalarField, cell_centers, norm
from .noise import merge_increments, transport_noise_modes


class ExperimentError(RuntimeError):
    pass


@dataclass
class TwinReport:
    times: np.ndarray
    separation: np.ndarray          # Y(t) per sample
    growth_rate: float              # least-squares slope of ln Y(t)
    envelope_rate: float            # smallest G with Y(t) <= Y(0) exp(G t)

    def bounded_by_exponential(self) -> bool:
        if self.separation[0] == 0.0:
            return bool(np.all(self.separation == 0.0))
        caps = self.separation[0] * np.exp(self.envelope_rate * self.times)
        return bool(np.all(self.separation <= caps * (1.0 + 1e-9) + 1e-300))


def _separation(a: State, b: State) -> float:
    """Uniqueness functional |du|_L2^2 + |dc|_H1^2 + |dn|_L2^2."""
    g = a.u.grid
    vol = g.cell_volume
    du_sq = (np.sum((a.u.u_x - b.u.u_x) ** 2)
             + np.sum((a.u.u_y - b.u.u_y) ** 2)) * vol
    dc = ScalarField(g, a.c.values - b.c.values)
    dc_sq = np.sum(dc.values ** 2) * vol + norm(dc, "H1_semi") ** 2
    dn_sq = np.sum((a.n.values - b.n.values) ** 2) * vol
    return float(du_sq + dc_sq + dn_sq)


def perturbed_copy(state: State, amplitude: float) -> State:
    """Relative smooth bump on the two scalar unknowns, velocity untouched."""
    out = state.copy()
    if amplitude == 0.0:
        return out
    g = state.n.grid
    x, y = cell_centers(g)
    bump = np.sin(2.0 * np.pi * x / g.lx) * np.sin(2.0 * np.pi * y / g.ly)
    out.n.values *= 1.0 + amplitude * bump
    out.c.values *= 1.0 + amplitude * bump
    return out


def twin_run(params: SimParams, initial: State, seed: int,
             perturbation_amplitude: float, t_end: float, dt: float,
             sample_every: int = 1) -> TwinReport:
    """Two runs, one Brownian path, perturbed scalars; Y(t) per sample."""
    dts = time_grid(t_end - initial.t, dt)
    draw = seeded_increments(seed, 0, params.vnoise.n_modes)
    other = perturbed_copy(initial, perturbation_amplitude)
    times = [0.0]
    ys = [_separation(initial, other)]
    for (index, a, _), (_, b, _) in zip(march(initial, params, dts, draw),
                                        march(other, params, dts, draw)):
        if index % sample_every == 0:
            times.append(a.t - initial.t)
            ys.append(_separation(a, b))
    times = np.asarray(times)
    ys = np.asarray(ys)
    pos = ys > 0.0
    if np.count_nonzero(pos) >= 2:
        slope = float(np.polyfit(times[pos], np.log(ys[pos]), 1)[0])
    else:
        slope = 0.0
    later = pos & (times > 0.0)
    if ys[0] > 0.0 and later.any():
        envelope = float(np.max(np.log(ys[later] / ys[0]) / times[later]))
    else:
        envelope = 0.0
    return TwinReport(times=times, separation=ys, growth_rate=slope,
                      envelope_rate=envelope)


@dataclass
class ConvergenceReport:
    dt_levels: np.ndarray           # coarser levels, descending
    errors: np.ndarray              # final-state distance to the finest level
    slope: float


def _state_distance(a: State, b: State) -> float:
    g = a.u.grid
    s = (np.sum((a.u.u_x - b.u.u_x) ** 2) + np.sum((a.u.u_y - b.u.u_y) ** 2)
         + np.sum((a.c.values - b.c.values) ** 2)
         + np.sum((a.n.values - b.n.values) ** 2))
    return float(np.sqrt(s * g.cell_volume))


def convergence_dt(params: SimParams, initial: State, seed: int,
                   dt_levels: list[float], t_end: float,
                   replica: int = 0) -> ConvergenceReport:
    """Shared-path step refinement; the fitted log-log slope is the strong order.

    Levels must be nested by halving and t_end a multiple of the finest;
    increments are drawn once at the finest level and summed for the coarser
    ones, so every level integrates the same Brownian path.
    """
    if len(dt_levels) < 3:
        raise ExperimentError(f"need >= 3 nested dt levels, got {len(dt_levels)}")
    dts = sorted((float(d) for d in dt_levels), reverse=True)
    dt_fine = dts[-1]
    ratios = []
    for d in dts:
        r = d / dt_fine
        if abs(r - round(r)) > 1e-9 or round(r) < 1:
            raise ExperimentError(f"dt level {d} is not an integer multiple "
                                  f"of the finest {dt_fine}")
        r = int(round(r))
        if r & (r - 1):
            raise ExperimentError(f"dt levels must be nested by halving; "
                                  f"{d} / {dt_fine} = {r} is not a power of 2")
        ratios.append(r)
    n_fine = t_end / dt_fine
    if abs(n_fine - round(n_fine)) > 1e-9:
        raise ExperimentError(f"t_end={t_end} is not a multiple of the finest dt")
    n_fine = int(round(n_fine))

    draw = seeded_increments(seed, replica, params.vnoise.n_modes)
    fine = [draw(s, dt_fine) for s in range(n_fine)]
    finals: list[State] = []
    for d, r in zip(dts, ratios):
        def coarse(index: int, _dt: float, r: int = r):
            return merge_increments(fine[index * r:(index + 1) * r])
        state = initial
        for _, state, _ in march(initial, params, time_grid(t_end, d), coarse):
            pass
        finals.append(state)
    reference = finals[-1]
    errors = np.array([_state_distance(s, reference) for s in finals[:-1]])
    if np.any(errors <= 0.0):
        raise ExperimentError("degenerate refinement: a coarse level matches "
                              "the finest exactly")
    slope = float(np.polyfit(np.log(np.asarray(dts[:-1])), np.log(errors), 1)[0])
    return ConvergenceReport(dt_levels=np.asarray(dts[:-1]), errors=errors,
                             slope=slope)


@dataclass
class StratonovichReport:
    dt_levels: np.ndarray
    drift_corrected: np.ndarray     # per level, replica-averaged, per unit time
    drift_naive: np.ndarray
    gap: np.ndarray                 # naive minus corrected, per level
    reference_gap: float            # gamma^2 |grad c0|_L2^2
    identical: bool                 # corrected and naive states bitwise equal


def _masked_l2sq(values: np.ndarray, mask: np.ndarray, vol: float) -> float:
    return float(np.sum(values[mask] ** 2)) * vol


def stratonovich_consistency(params: SimParams, initial: State, seed: int,
                             dt_levels: list[float], t_end: float,
                             n_replicas: int = 16) -> StratonovichReport:
    """Pure transport test: step's oxygen phases with and without the correction.

    Velocity and density stay frozen at their initial values (zero in the CLI
    study), so the oxygen evolves by implicit diffusion plus the explicit
    transport increment.  For each level the predictable drift of the
    interior |c|^2 is accumulated step by step (deterministic change plus
    the quadratic-variation compensator of the noise kick) and averaged over
    replicas.
    """
    if len(dt_levels) < 1:
        raise ExperimentError("need at least one dt level")
    dts = sorted((float(d) for d in dt_levels), reverse=True)
    g = initial.c.grid
    mask = params.sigma.interior_mask
    vol = g.cell_volume

    def drift_one(corrected: bool, dt: float,
                  replica: int) -> tuple[float, ScalarField]:
        # predictable (compensated) drift of the masked |c|^2: per step the
        # mean over the increment of |c_new|^2 is |m|^2 + dt sum_k |A_k|^2
        # with m the deterministic part and A_k the noise amplitudes, so the
        # martingale fluctuation never enters the measurement
        draw = seeded_increments(seed, replica, params.vnoise.n_modes)
        c = initial.c
        acc = 0.0
        for index, dt_step in enumerate(time_grid(t_end, dt)):
            frozen = State(u=initial.u, c=c, n=initial.n, t=initial.t)
            c_mid, _ = oxygen_drift(frozen, initial.n, params, dt_step)
            mean_part = c_mid.values
            c_new = c_mid.values + oxygen_kick(c_mid, params,
                                               draw(index, dt_step))
            if corrected:
                corr = oxygen_correction(c_mid, params, dt_step)
                mean_part = c_mid.values + corr
                c_new += corr
            hs_masked = sum(float(np.sum(m[mask] ** 2)) for m in
                            transport_noise_modes(c_mid, params.sigma)) * vol
            acc += (_masked_l2sq(mean_part, mask, vol)
                    + params.gamma ** 2 * dt_step * hs_masked
                    - _masked_l2sq(c.values, mask, vol))
            c = ScalarField(g, c_new)
        return acc / t_end, c

    drift_a = np.zeros(len(dts))
    drift_b = np.zeros(len(dts))
    final_a = final_b = None
    for li, d in enumerate(dts):
        acc_a = acc_b = 0.0
        for r in range(n_replicas):
            da, fa = drift_one(True, d, r)
            db, fb = drift_one(False, d, r)
            acc_a += da
            acc_b += db
            if li == len(dts) - 1 and r == 0:
                final_a, final_b = fa, fb
        drift_a[li] = acc_a / n_replicas
        drift_b[li] = acc_b / n_replicas
    identical = bool(np.array_equal(final_a.values, final_b.values))
    ref = params.gamma ** 2 * norm(initial.c, "H1_semi") ** 2
    return StratonovichReport(dt_levels=np.asarray(dts),
                              drift_corrected=drift_a, drift_naive=drift_b,
                              gap=drift_b - drift_a, reference_gap=ref,
                              identical=identical)


def interior_bump(grid, sigma, scale: float = 1.0,
                  margin_cells: int | None = None) -> ScalarField:
    """Smooth nonnegative profile supported strictly inside the q = Id region.

    Used by the pure-transport test so the oxygen stays clear of the cutoff
    ring, where the discrete noise operator tapers; the default margin leaves
    room for diffusive spreading over the measurement window.
    """
    if margin_cells is None:
        margin_cells = max(2 * sigma.cutoff_width + 1,
                           min(grid.nx, grid.ny) // 5)

    def window(coord: np.ndarray, length: float, h: float) -> np.ndarray:
        m = margin_cells * h
        span = length - 2.0 * m
        t = (coord - m) / span
        inside = (t > 0.0) & (t < 1.0)
        return np.where(inside, np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 2, 0.0)

    x, y = cell_centers(grid)
    vals = scale * window(x, grid.lx, grid.dx) * window(y, grid.ly, grid.dy)
    return ScalarField(grid, vals)


DEFAULT_ENSEMBLE_COLUMNS = ("mass_n", "min_n", "max_c", "l2_u", "h1_c",
                            "entropy", "energy_residual", "clip_count",
                            "div_residual")


@dataclass
class EnsembleSpec:
    n_replicas: int
    base_seed: int
    params: SimParams
    initial: State
    t_end: float
    dt: float
    sample_every: int = 1
    columns: tuple[str, ...] = DEFAULT_ENSEMBLE_COLUMNS


@dataclass
class EnsembleStats:
    times: np.ndarray
    steps: np.ndarray
    n_replicas: int
    mean: dict[str, np.ndarray]
    variance: dict[str, np.ndarray]
    maximum: dict[str, np.ndarray]
    ci95: dict[str, np.ndarray]

    def sup_over_replicas(self, column: str) -> float:
        return float(np.max(self.maximum[column]))


def ensemble(spec: EnsembleSpec, threads: int = 1) -> EnsembleStats:
    """Independent replicas, deterministic per-replica streams, Welford folds.

    Any replica failure aborts the whole aggregation and names the replica.
    """
    from .dynamics import run  # local import keeps module load cheap

    if spec.n_replicas < 1:
        raise ExperimentError("need at least one replica")

    def one(rep: int):
        return run(spec.initial, spec.params, spec.t_end, spec.dt,
                   seed=spec.base_seed, sample_every=spec.sample_every,
                   replica=rep)[1]

    results: list = [None] * spec.n_replicas
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {rep: pool.submit(one, rep) for rep in range(spec.n_replicas)}
        for rep, fut in futures.items():
            try:
                results[rep] = fut.result()
            except Exception as exc:
                raise ExperimentError(
                    f"replica {rep} (base seed {spec.base_seed}) failed: {exc}"
                ) from exc
    else:
        for rep in range(spec.n_replicas):
            try:
                results[rep] = one(rep)
            except Exception as exc:
                raise ExperimentError(
                    f"replica {rep} (base seed {spec.base_seed}) failed: {exc}"
                ) from exc

    n_rows = len(results[0])
    for rep, series in enumerate(results):
        if len(series) != n_rows:
            raise ExperimentError(f"replica {rep} produced {len(series)} rows, "
                                  f"expected {n_rows}")

    times = results[0].column("t")
    steps = results[0].column("step")
    mean, m2, mx = {}, {}, {}
    for col in spec.columns:
        mean[col] = np.zeros(n_rows)
        m2[col] = np.zeros(n_rows)
        mx[col] = np.full(n_rows, -np.inf)
    count = 0
    for series in results:
        count += 1
        for col in spec.columns:
            x = series.column(col).astype(float)
            delta = x - mean[col]
            mean[col] += delta / count
            m2[col] += delta * (x - mean[col])
            np.maximum(mx[col], x, out=mx[col])
    variance = {col: (m2[col] / (count - 1) if count > 1 else np.zeros(n_rows))
                for col in spec.columns}
    ci95 = {col: 1.96 * np.sqrt(variance[col] / count) for col in spec.columns}
    return EnsembleStats(times=times, steps=steps, n_replicas=count,
                         mean=mean, variance=variance, maximum=mx, ci95=ci95)
