"""Scripted numerical studies probing the theorem-level claims.

* twin_run drives two trajectories, the two lanes of one batched march,
  through the identical Brownian path and tracks the separation functional
  Y(t) = |du|_L2^2 + |dc|_H1^2 + |dn|_L2^2; with zero perturbation the
  trajectories are bitwise equal, which is the discrete reading of pathwise
  uniqueness.
* convergence_dt refines the step dt * 2**k, k = levels - 1 .. 0, under one
  shared Brownian path (coarse increments are exact sums of fine ones) and
  fits the strong order.
* stratonovich_consistency measures the drift of the interior oxygen energy
  for the corrected scheme against a naive uncorrected one.  The reported
  number is the drift in the semimartingale sense: the martingale part of
  each step (both the dbeta term and the quadratic-variation fluctuation
  around its compensator) is subtracted exactly using the realized
  increments, leaving the predictable defect the correction is supposed to
  cancel.  Its levels are the same dt * 2**k ladder.
* ensemble runs independent replicas as the lanes of batched runs, in chunks
  of at most BATCH_CELLS cells, and aggregates diagnostics columns with
  Welford statistics.  Where the process may fork (the fork start method
  and one OS thread, as in the stochem command, which asks for one BLAS
  thread) a small ensemble splits further, towards one chunk per usable
  CPU, and the chunks run in up to that many processes: the calling one and
  forked workers.  Elsewhere the fewest chunks run on one worker thread
  each, up to the usable CPUs.  The calling process's ru_maxrss leaves the
  workers out.

Each study takes scalars (a step, a level count, a replica count) and builds
its own schedule from them.  Every study but the oxygen-only transport test
steps through dynamics.march on dynamics.time_grid; that one steps the
oxygen alone with the stepper's diffusion solve at mu and oxygen_noise.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _spectral, noise as noise_mod
from .diagnostics import DiagnosticsRow, column
from .dynamics import (CFL_SAFETY, SimParams, SimulationError, State,
                       ito_rate, march, oxygen_noise, require_finite,
                       seeded_increments, stack_states, time_grid)
from .grid import LaneError, ScalarField, cell_center_axes, norm
from .noise import merge_increments


class ExperimentError(RuntimeError):
    pass


def dt_ladder(dt: float, levels: int, t_end: float) -> list[float]:
    """The step levels dt * 2**k, k = levels - 1 down to 0, of a study over
    [0, t_end]; every level, the coarsest too, must take one full step."""
    if t_end <= 0.0:
        raise ExperimentError(f"t_end must be positive, got {t_end}")
    try:   # checked before the ladder is built: levels may be huge
        coarsest = math.ldexp(dt, levels - 1)
    except OverflowError:
        coarsest = math.inf
    if coarsest > t_end:
        raise ExperimentError(f"the coarsest level dt = {coarsest:g} exceeds "
                              f"t_end = {t_end:g}; use fewer levels or a "
                              f"smaller dt")
    return [dt * 2 ** k for k in range(levels - 1, -1, -1)]


@dataclass
class TwinReport:
    times: np.ndarray
    separation: np.ndarray          # Y(t) per sample
    growth_rate: float              # least-squares slope of ln Y(t)


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
    x, y = cell_center_axes(g)
    bump = (np.sin(2.0 * np.pi * x[:, None] / g.lx)
            * np.sin(2.0 * np.pi * y / g.ly))
    out.n.values *= 1.0 + amplitude * bump
    out.c.values *= 1.0 + amplitude * bump
    return out


def twin_run(params: SimParams, initial: State, seed: int,
             perturbation_amplitude: float, t_end: float, dt: float,
             sample_every: int = 1) -> TwinReport:
    """Two lanes of one batched march, one Brownian path, perturbed scalars;
    Y(t) per sample, and at the last step as in run.  The increments carry
    no lane axis, so each step's draw drives both lanes.  A perturbed copy
    or a Y(t) that is not finite raises ExperimentError."""
    dts = time_grid(t_end - initial.t, dt)
    draw = seeded_increments(seed, 0, params.vnoise.n_modes)
    times = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        other = perturbed_copy(initial, perturbation_amplitude)
        if not all(np.isfinite(f.values).all() for f in (other.n, other.c)):
            raise ExperimentError(f"the perturbed copy at amplitude "
                                  f"{perturbation_amplitude:g} is not finite")
        ys = [_separation(initial, other)]
        for index, pair, _ in march(stack_states([initial, other]), params,
                                    dts, draw):
            if dts.is_sample(index, sample_every):
                times.append(pair.t - initial.t)
                ys.append(_separation(pair.lane(0), pair.lane(1)))
    times = np.asarray(times)
    ys = np.asarray(ys)
    if not np.isfinite(ys).all():
        t_bad = times[~np.isfinite(ys)][0]
        raise ExperimentError(f"the separation is not finite at t = {t_bad:g}")
    pos = ys > 0.0
    if np.count_nonzero(pos) >= 2:
        slope = float(np.polyfit(times[pos], np.log(ys[pos]), 1)[0])
    else:
        slope = 0.0
    return TwinReport(times=times, separation=ys, growth_rate=slope)


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


def convergence_dt(params: SimParams, initial: State, seed: int, dt: float,
                   levels: int, t_end: float,
                   replica: int = 0) -> ConvergenceReport:
    """Shared-path step refinement; the fitted log-log slope is the strong order.

    The levels are dt * 2**k for k = levels - 1 down to 0.  A level's
    increment is the sum of the finest draws its step spans, 2**k for a full
    step and fewer for a landing step, each drawn when the step needs it, so
    every level integrates the same Brownian path and memory does not grow
    with the step count.  So t_end must be a whole number n of finest steps,
    time_grid(t_end, dt) with no landing step, and every level spans n dt.
    An error that is not finite raises ExperimentError.
    """
    if levels < 3:
        raise ExperimentError(f"need >= 3 dt levels, got {levels}")
    dts = dt_ladder(dt, levels, t_end)
    finest = time_grid(t_end, dt)
    if finest.landing:
        raise ExperimentError(f"t_end={t_end} is not a multiple of the finest dt")

    draw = seeded_increments(seed, replica, params.vnoise.n_modes)
    span = finest.n_full * dt
    finals: list[State] = []
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for d in dts:
            def coarse(index: int, step: float, r: int = int(d / dt)):
                # every step before this one is a full step of r draws
                first = index * r
                return merge_increments([draw(s, dt) for s in range(
                    first, first + round(step / dt))])
            state = initial
            for _, state, _ in march(initial, params, time_grid(span, d),
                                     coarse):
                pass
            finals.append(state)
        errors = np.array([_state_distance(s, finals[-1])
                           for s in finals[:-1]])
    if not np.isfinite(errors).all():
        raise ExperimentError(f"the refinement errors are not finite: "
                              f"{errors.tolist()}")
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


def stratonovich_consistency(params: SimParams, scale: float, seed: int,
                             dt: float, levels: int, t_end: float,
                             n_replicas: int = 16) -> StratonovichReport:
    """Pure transport test: the corrected and the naive oxygen scheme as the
    two lanes of one pair, driven by one draw per step.

    The oxygen starts as interior_bump(grid, sigma, scale), built before any
    other check, and no velocity or cells act on it: each step is one
    implicit diffusion solve at mu and one call of the stepper's own
    oxygen_noise for the pair; lane 1 takes the Ito correction over a zero
    step, so it adds the kick alone.
    For each level the predictable drift of the interior |c|^2 is accumulated
    step by step (deterministic change plus the quadratic-variation
    compensator of the noise kick) and averaged over replicas.  The levels
    are dt * 2**k for k = levels - 1 down to 0, and the coarsest must keep
    the explicit Ito correction within the bound stable_dt enforces.  A
    non-finite oxygen field fails as in march, naming the level, replica and
    step; a drift, gap or reference that is not finite raises
    ExperimentError.
    """
    c0 = interior_bump(params.grid, params.sigma, scale)
    if levels < 1:
        raise ExperimentError(f"need at least one dt level, got {levels}")
    if n_replicas < 1:
        raise ExperimentError(f"need at least one replica, got {n_replicas}")
    dts = dt_ladder(dt, levels, t_end)
    rate = ito_rate(params)
    if dts[0] * rate > CFL_SAFETY * (1.0 + 1e-12):
        raise ExperimentError(f"the coarsest level dt = {dts[0]:g} exceeds "
                              f"the Ito-correction bound "
                              f"{CFL_SAFETY / rate:g}")
    g = params.grid
    sigma = params.sigma
    hs_sq = noise_mod.transport_hs_sq
    pair = ScalarField(g, np.stack([c0.values, c0.values]))

    # predictable (compensated) drift of the interior |c|^2: per step the
    # mean over the increment of |c_new|^2 is |m|^2 + dt sum_k |A_k|^2 with m
    # the deterministic part and A_k the noise amplitudes, so the martingale
    # fluctuation never enters the measurement
    drift = np.zeros((len(dts), 2))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for (li, d), r in itertools.product(enumerate(dts),
                                            range(n_replicas)):
            draw = seeded_increments(seed, r, params.vnoise.n_modes)
            c = pair
            acc = np.zeros(2)
            for index, dt_step in enumerate(time_grid(t_end, d)):
                c_mid = _spectral.solve_scalar_diffusion(g, c,
                                                         dt_step * params.mu)
                # oxygen_noise builds c_new in c_mid's array
                drifted = c_mid.values.copy()
                c_new, kick_hs_sq, correction = oxygen_noise(
                    c_mid, params, draw(index, dt_step),
                    np.array([dt_step, 0.0]))   # corrected, naive
                try:
                    require_finite((("c", c_new.values),))
                except LaneError as exc:
                    failure = SimulationError(
                        f"step {index + 1} failed: {exc} in the "
                        f"{('corrected', 'naive')[exc.lane]} scheme",
                        step_index=index + 1)
                    raise ExperimentError(f"level dt = {d:g}, replica {r} "
                                          f"failed: {failure}") from failure
                drifted += correction   # the mean of c_new
                acc += (hs_sq([drifted], sigma)
                        + params.gamma ** 2 * dt_step * kick_hs_sq
                        - hs_sq([c.values], sigma))
                c = c_new
            drift[li] += acc / t_end
        drift /= n_replicas
        ref = params.gamma ** 2 * norm(c0, "H1_semi") ** 2
    gap = drift[:, 1] - drift[:, 0]   # finite only where both drifts are
    if not (np.isfinite(gap).all() and math.isfinite(ref)):
        raise ExperimentError(f"the oxygen energy drift is not finite: gap "
                              f"{gap.tolist()}, reference {ref!r}")
    return StratonovichReport(dt_levels=np.asarray(dts),
                              drift_corrected=drift[:, 0],
                              drift_naive=drift[:, 1], gap=gap,
                              reference_gap=ref)


def interior_bump(grid, sigma, scale: float = 1.0) -> ScalarField:
    """Smooth nonnegative profile supported strictly inside the q = Id region.

    Used by the pure-transport test so the oxygen stays clear of the cutoff
    ring, where the discrete noise operator tapers; the margin leaves room
    for diffusive spreading over the measurement window.  A grid with no
    cell past that margin on both sides raises ExperimentError.
    """
    margin_cells = max(2 * sigma.cutoff_width + 1, min(grid.nx, grid.ny) // 5)
    if min(grid.nx, grid.ny) <= 2 * margin_cells:
        raise ExperimentError(
            f"the {grid.nx}x{grid.ny} grid leaves no interior window for the "
            f"oxygen bump at cutoff width {sigma.cutoff_width}: min(nx, ny) "
            f"must exceed {2 * margin_cells}")

    def window(coord: np.ndarray, length: float, h: float) -> np.ndarray:
        m = margin_cells * h
        span = length - 2.0 * m
        t = (coord - m) / span
        inside = (t > 0.0) & (t < 1.0)
        return np.where(inside, np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 2, 0.0)

    x, y = cell_center_axes(grid)
    vals = (scale * window(x[:, None], grid.lx, grid.dx)
            * window(y, grid.ly, grid.dy))
    return ScalarField(grid, vals)


# Most cells in one batched ensemble run: 16 replicas at 32^2, one at 128^2.
# On a 2-vCPU x86-64 host a 16-replica 32^2 ensemble ran at about 2,000
# replica-steps/s in chunks of 16,384 cells, 1,750 at 8,192 and 1,600 at
# 32,768 or more; larger chunks also only grow memory on large grids.  Chunks
# on threads share the GIL, and two of them ran 28 % slower than one, so
# threads keep the fewest chunks.
BATCH_CELLS = 16384

# Fewest cells per chunk when chunks fork (see fork_safe) and a small
# ensemble is split further to give each usable CPU a chunk: on the same
# host, two forked 8-replica chunks (8,192 cells each) ran 16 replicas at
# 32^2 1.3 to 1.5 times as fast as one chunk.  Smaller chunks, and more than
# two processes, were not measured, so the split stops here.
FORK_CELLS = 8192

# The cgroup v2 CPU limit: "max", or a quota and a period in microseconds.
CPU_MAX = "/sys/fs/cgroup/cpu.max"

ENSEMBLE_COLUMNS = DiagnosticsRow.COLUMNS[2:]


@dataclass
class EnsembleStats:
    times: np.ndarray
    n_replicas: int
    mean: dict[str, np.ndarray]
    variance: dict[str, np.ndarray]
    maximum: dict[str, np.ndarray]
    ci95: dict[str, np.ndarray]

    def sup_over_replicas(self, column: str) -> float:
        return float(np.max(self.maximum[column]))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count,
    but no more than a cgroup v2 CPU quota at CPU_MAX, rounded up."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        with open(CPU_MAX, encoding="ascii") as limit:
            quota, period = limit.read().split()
        return max(1, min(cpus, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError, ZeroDivisionError):
        return cpus   # no cgroup v2 limit here, or "max"


def fork_safe() -> bool:
    """Whether ensemble chunks may run in forked processes: multiprocessing
    offers the fork start method, this process is no daemonic
    multiprocessing worker (which may start no process) and it has one OS
    thread, so no lock another thread holds is copied into a child (Python
    3.12 warns about fork otherwise).  BLAS starts its threads at import
    unless told otherwise, as the stochem command does; without /proc the
    count is unknown and forking is taken as unsafe."""
    # imported here, so that only ensembles pay for it at start-up
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def replica_chunks(n_replicas: int, cells: int,
                   at_least: int = 1) -> list[range]:
    """The replicas split evenly into the fewest contiguous chunks of at
    most BATCH_CELLS cells (or one replica), but no fewer than
    min(n_replicas, at_least)."""
    count = max(math.ceil(n_replicas / max(1, BATCH_CELLS // cells)),
                min(n_replicas, at_least))
    edges = [n_replicas * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def forked_shares(n_replicas: int, cells: int,
                  cpus: int) -> list[list[range]]:
    """The chunks of an ensemble that forks, in min(chunks, cpus)
    contiguous shares: the first for the calling process, one for each
    forked worker.  Beyond the fewest chunks, the replicas split into up to
    one chunk per CPU, but into no more chunks than their cells fill at
    FORK_CELLS each."""
    chunks = replica_chunks(n_replicas, cells,
                            min(cpus, n_replicas * cells // FORK_CELLS))
    processes = min(len(chunks), cpus)
    edges = [len(chunks) * i // processes for i in range(processes + 1)]
    return [chunks[a:b] for a, b in zip(edges, edges[1:])]


def _in_forked_workers(one, shares: list[list[range]]) -> list:
    """one(chunk) for every chunk, in chunk order: the first share on the
    calling process while each other share runs in a forked worker, which
    sends its results back through a pipe.  ``one`` must not raise.  A
    worker that exits without its results raises ExperimentError; every
    worker is joined before this returns or raises, and on an error the
    workers still running are terminated first."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for share in shares[1:]:
            reader, writer = context.Pipe(duplex=False)
            # fork copies this process as it is, so the target needs no
            # pickling and sees this iteration's share and writer
            worker = context.Process(target=lambda: writer.send(
                [one(reps) for reps in share]))
            worker.start()
            writer.close()
            workers.append((worker, reader, share))
        results = [one(reps) for reps in shares[0]]
        for worker, reader, share in workers:
            try:
                results += reader.recv()
            except EOFError:
                worker.join()
                raise ExperimentError(
                    f"the worker for replicas {share[0].start} to "
                    f"{share[-1].stop - 1} exited with status "
                    f"{worker.exitcode} before sending its rows") from None
        return results
    except BaseException:
        for worker, _, _ in workers:
            worker.terminate()   # a result no longer needed
        raise
    finally:
        for worker, reader, _ in workers:
            reader.close()
            worker.join()


def ensemble(params: SimParams, initial: State, seed: int, n_replicas: int,
             t_end: float, dt: float, sample_every: int = 1) -> EnsembleStats:
    """Independent replicas, deterministic per-replica streams, Welford folds.

    Replicas integrate as the lanes of batched runs, one step per time step
    for a whole chunk of contiguous replicas, and a chunk is never split.
    The replicas split evenly into the fewest chunks of at most BATCH_CELLS
    cells (or one replica).  Where fork_safe(), a small ensemble splits
    further, as forked_shares says, and the chunks run in min(chunks,
    usable_cpus()) processes: contiguous shares of chunks, the first on the
    calling process, each other in a forked worker.  Elsewhere the chunks
    run on min(chunks, usable_cpus()) worker threads, or on the calling
    thread when that is one.  Every replica's rows are bitwise its
    unbatched run's, so the statistics do not depend on the chunks, the
    threads or the processes.  Every chunk runs to its end or its failure;
    if any replica failed, the error names the first to fail in time (the
    lowest replica among those failing at the earliest step).  A chunk that
    raises outside a step fails the ensemble with the lowest such chunk's
    first replica; a worker that exits without its rows fails it with that
    worker's replicas and exit status.
    """
    # looked up at call time, not hoisted: a tracer that wraps
    # stochem.dynamics.run after import still sees the ensemble's runs
    from .dynamics import run

    if n_replicas < 1:
        raise ExperimentError("need at least one replica")
    g = params.grid
    cells = g.nx * g.ny

    def failed(rep: int, reason) -> ExperimentError:
        return ExperimentError(
            f"replica {rep} (base seed {seed}) failed: {reason}")

    def one(reps: range):
        # an error is returned, not raised, so that it can cross a pipe
        try:
            return run(stack_states([initial] * len(reps)), params, t_end,
                       dt, seed=seed, sample_every=sample_every,
                       replica=reps.start)[1]
        except SimulationError as exc:
            return exc   # weighed against the other chunks' failures below
        except Exception as exc:
            error = failed(reps.start, exc)
            error.__cause__ = exc
            return error

    cpus = usable_cpus()
    if fork_safe():
        shares = forked_shares(n_replicas, cells, cpus)
        chunks = [reps for share in shares for reps in share]
        chunked = _in_forked_workers(one, shares)
    else:
        chunks = replica_chunks(n_replicas, cells)
        workers = min(len(chunks), cpus)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunked = list(pool.map(one, chunks))
        else:
            # a single worker stays on the calling thread
            chunked = [one(reps) for reps in chunks]
    for exc in chunked:
        if isinstance(exc, ExperimentError):
            raise exc
    failures = [(exc.step_index, reps[exc.lane or 0], exc)
                for reps, exc in zip(chunks, chunked)
                if isinstance(exc, SimulationError)]
    if failures:
        _, rep, exc = min(failures, key=lambda f: f[:2])
        raise failed(rep, exc.reason) from exc
    results = [rows for chunk in chunked for rows in chunk]

    times = column(results[0], "t")
    # (replica, column, sample): one Welford fold over the replicas
    block = np.array([[column(rows, col) for col in ENSEMBLE_COLUMNS]
                      for rows in results], dtype=float)
    mean = np.zeros(block.shape[1:])
    m2 = np.zeros(block.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for count, x in enumerate(block, 1):
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        variance = m2 / (count - 1) if count > 1 else np.zeros_like(m2)
        ci95 = 1.96 * np.sqrt(variance / count)
    stats = {"mean": mean, "variance": variance, "maximum": block.max(axis=0),
             "ci95": ci95}
    for name, stat in stats.items():
        bad = ~np.isfinite(stat).all(axis=1)
        if bad.any():
            raise ExperimentError(f"the ensemble {name} of "
                                  f"{ENSEMBLE_COLUMNS[np.argmax(bad)]} is not "
                                  f"finite")
    return EnsembleStats(times=times, n_replicas=count,
                         **{name: dict(zip(ENSEMBLE_COLUMNS, stat))
                            for name, stat in stats.items()})
