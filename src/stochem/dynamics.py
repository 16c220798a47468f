"""Semi-implicit Euler-Maruyama time integration of the coupled system.

Each step advances the cell density, then the oxygen, then the velocity, in
that order, so each later equation sees the freshest coupling fields:

1. density_substep: explicit upwind advection and chemotactic drift, implicit
   diffusion (mass is conserved to round-off: both explicit pieces are
   wall-tight flux forms and the implicit solve preserves the mean);
2. oxygen_substep: oxygen_drift's explicit advection, explicit consumption
   limited to the oxygen actually available in the cell (the limiter is
   counted, never silent) and implicit diffusion at mu, then oxygen_noise's
   explicit transport-noise increment and exact discrete Ito correction,
   both built from one evaluation of the noise modes sigma_k . grad c of
   the drifted oxygen, and added in the drifted oxygen's array;
3. velocity_substep: explicit convection, buoyancy and stochastic forcing,
   implicit viscosity, then projection onto the discretely divergence-free
   subspace.

Diffusion is implicit and unconditionally stable, so the admissible step is
advection-limited only; steps above the advective bound, or above the cap
DT_MAX, are rejected rather than silently subdivided.  march, on the steps
of time_grid, is the one stepping loop of runs and experiments, but for the
Stratonovich study: it steps an oxygen that no velocity carries and no cells
consume, by the implicit diffusion solve at mu and oxygen_noise, the
correction off on its naive lane.

A state may carry one leading lane axis (see stack_states): every lane is an
independent trajectory, one step advances them all, and each lane's numbers
are bitwise those of the same trajectory stepped alone.  Per-lane checks
name the lowest failing lane.

Ownership: a function may write into arrays it allocated, or that a callee
allocated and returned to it, never into its arguments, with two named
exceptions: oxygen_noise takes over the drifted oxygen it is given and
builds the new oxygen in it, and transport_ito_correction empties the list
of modes it is given.  Nothing on the step path writes into the state it
is given, so run steps from the caller's initial state without copying
it, and each substep hands its intermediates straight on so that they are
freed once consumed: a step of march holds about 8 field-sized arrays
beyond its input, the 4 it returns included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _spectral, diagnostics, noise as noise_mod
from .grid import (LANE_REDUCE, Grid, LaneError, ScalarField, VectorField,
                   first_failing_lane, neighbours, per_lane,
                   scalar_face_gradients)
from .noise import (NoiseIncrement, TransportSigma, VelocityNoiseConfig,
                    g_apply, sample_increments, transport_noise_apply)
from .operators import (AdvectionMode, buoyancy, chemotaxis_div,
                        convect_velocity, divergence_residual,
                        helmholtz_project, scalar_advect)


CFL_SAFETY = 0.5   # fraction of the advective bound that stable_dt returns
DT_MAX = 0.1       # stable_dt's cap, and its value where nothing moves
# elements of numpy's ufunc buffer while march takes a step: at numpy's
# default 8192 every buffered operand, as a last-axis stencil's views are,
# takes a 64 KiB scratch buffer; the size moves no result's bits
STEP_BUFSIZE = 512


class CflError(LaneError):
    """The requested step exceeds the advective stability bound, or DT_MAX
    where that cap is the tighter."""


class SimulationError(RuntimeError):
    """A run aborted; carries the failing step index and, for a batched
    state, the failing lane, which the message names and ``reason`` omits."""

    def __init__(self, message: str, step_index: int, lane: int | None = None):
        super().__init__(message if lane is None else f"lane {lane}: {message}")
        self.reason = message
        self.step_index = step_index
        self.lane = lane

    def __reduce__(self):
        # pickled (an ensemble worker sends it through a pipe) from the
        # arguments, which the default reduction would take from the message
        return type(self), (self.reason, self.step_index, self.lane)


@dataclass(frozen=True)
class ConsumptionLaw:
    """Oxygen uptake rate f.  Contract: f(0) = 0, and f increasing and
    concave on [0, inf).  The admissibility gate relies on it: on [0, c0]
    the minimum of f' is f'(c0) and the maximum of f is f(c0)."""
    eval: callable
    deriv: callable


CONSUMPTION_LAWS = {
    "linear": ConsumptionLaw(
        eval=lambda c: np.asarray(c, dtype=float),
        deriv=lambda c: np.ones_like(np.asarray(c, dtype=float))),
    # Michaelis-Menten style uptake c / (1 + c)
    "saturating": ConsumptionLaw(
        eval=lambda c: (np.asarray(c, dtype=float)
                        / (1.0 + np.asarray(c, dtype=float))),
        deriv=lambda c: 1.0 / (1.0 + np.asarray(c, dtype=float)) ** 2),
}


@dataclass(frozen=True)
class SimParams:
    """The coefficients of a run, constant in time and shared by threads.

    The fluid feels the potential only through the buoyancy n grad(phi),
    so the parameters take ``phi_grad``, scalar_face_gradients of the
    potential, and hold it as read-only views of the arrays given: the
    config's potentials pass one 1-D profile per face array, broadcast
    over the grid (see cli.build_params).
    """
    eta: float                     # fluid viscosity
    mu: float                      # oxygen diffusivity
    delta: float                   # cell diffusivity
    chi: float                     # chemotactic constant
    gamma: float                   # transport-noise intensity
    # face gradients of the gravitational / centrifugal potential
    phi_grad: tuple[np.ndarray, np.ndarray] = field(repr=False,
                                                    compare=False)
    f: ConsumptionLaw
    vnoise: VelocityNoiseConfig
    sigma: TransportSigma
    scalar_mode: AdvectionMode = AdvectionMode.UPWIND_FLUX

    def __post_init__(self):
        """Validate the coefficients, however the parameters are built."""
        if self.eta <= 0.0 or self.delta <= 0.0:
            raise ValueError("eta and delta must be strictly positive")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.chi < 0.0 or self.gamma < 0.0:
            raise ValueError("chi and gamma must be nonnegative")
        if not (math.isfinite(self.chi * self.chi)
                and math.isfinite(self.gamma * self.gamma)):
            raise ValueError("chi and gamma must have finite squares")
        g = self.grid
        grads = tuple(a.view() for a in self.phi_grad)
        for a, shape in zip(grads, ((g.nx + 1, g.ny), (g.nx, g.ny + 1))):
            if a.shape != shape:
                raise ValueError(f"a face gradient of the potential has "
                                 f"shape {a.shape}, not {shape}")
            # an axis of stride 0 repeats one slice: check that slice alone
            once = a[tuple(slice(None) if s else slice(0, 1)
                           for s in a.strides)]
            if not np.isfinite(once).all():
                raise ValueError("the gradient of the potential is not finite")
            a.flags.writeable = False
        object.__setattr__(self, "phi_grad", grads)

    @property
    def grid(self) -> Grid:
        return self.sigma.grid

    @property
    def xi(self) -> float:
        """Effective oxygen diffusivity mu + gamma^2/2 of the Stratonovich
        form; it feeds the admissibility gate and the entropy weight only."""
        return self.mu + 0.5 * self.gamma ** 2


@dataclass
class State:
    u: VectorField
    c: ScalarField
    n: ScalarField
    t: float

    def copy(self) -> "State":
        return State(self.u.copy(), self.c.copy(), self.n.copy(), self.t)

    @property
    def lanes(self) -> list[int | None]:
        """[None] for an unbatched state, else the indices of its lane axis."""
        lanes = self.n.lanes
        if len(lanes) > 1:
            raise ValueError(f"a state has at most one lane axis, got {lanes}")
        return list(range(lanes[0])) if lanes else [None]

    def lane(self, index: int | None) -> "State":
        """A view of one lane; the state itself for index None."""
        if index is None:
            return self
        g = self.n.grid
        return State(u=VectorField(g, self.u.u_x[index], self.u.u_y[index]),
                     c=ScalarField(g, self.c.values[index]),
                     n=ScalarField(g, self.n.values[index]), t=self.t)


def stack_states(states: list[State]) -> State:
    """A batched state whose lane i is a copy of ``states[i]``; the lanes
    share the time of the first."""
    g = states[0].n.grid
    return State(u=VectorField(g, np.stack([s.u.u_x for s in states]),
                               np.stack([s.u.u_y for s in states])),
                 c=ScalarField(g, np.stack([s.c.values for s in states])),
                 n=ScalarField(g, np.stack([s.n.values for s in states])),
                 t=states[0].t)


@dataclass(frozen=True)
class StepReport:
    # each entry but dt holds one value per lane of a batched step
    dt: float
    clip_count: int
    projection_residual: float
    noise_hs_sq: float   # transport_hs_sq of the pre-noise oxygen's modes


def stable_dt(state: State, params: SimParams,
              grad_c: tuple[np.ndarray, np.ndarray]):
    """Advective step bound: safety / max cell Courant rate, capped at DT_MAX;
    one bound per lane of a batched state.

    ``grad_c`` is scalar_face_gradients(state.c).  The per-cell rate adds the
    fluid speed and the chemotactic drift speed chi |grad c| on each axis;
    diffusion is implicit and does not constrain.
    """
    g = state.u.grid
    rate_x = _cell_speed(state.u.u_x, grad_c[0], params.chi, -2)
    rate_x /= g.dx
    rate_y = _cell_speed(state.u.u_y, grad_c[1], params.chi, -1)
    rate_y /= g.dy
    rate_x += rate_y
    rate = np.max(rate_x, axis=LANE_REDUCE)
    if params.gamma > 0.0:
        rate = np.maximum(rate, ito_rate(params))
    with np.errstate(divide="ignore"):
        bound = np.fmin(DT_MAX, CFL_SAFETY / rate)
    return per_lane(np.where(rate > 0.0, bound, DT_MAX))


def _cell_speed(u_face: np.ndarray, grad_face: np.ndarray, chi: float,
                axis: int) -> np.ndarray:
    """Per cell, the larger |u| of its two faces along ``axis`` plus chi
    times the larger |grad c| of the same faces."""
    magnitude = np.abs(u_face)
    speed = np.maximum(*neighbours(magnitude, axis))
    drift = np.maximum(*neighbours(np.abs(grad_face, out=magnitude), axis))
    drift *= chi
    speed += drift
    return speed


def ito_rate(params: SimParams) -> float:
    """Rate of the explicit discrete Ito correction, a forward-Euler
    diffusion at gamma^2/2, which stable_dt bounds as it bounds advection."""
    g = params.grid
    return 0.5 * params.gamma ** 2 * (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2)


def density_substep(state: State, params: SimParams,
                    grad_c: tuple[np.ndarray, np.ndarray],
                    dt: float) -> ScalarField:
    """Explicit transport and chemotactic drift along ``grad_c``, the face
    gradients of state.c, then implicit diffusion."""
    g = state.u.grid
    n_star = scalar_advect(state.u, state.n, params.scalar_mode).values
    n_star += chemotaxis_div(state.n, grad_c, params.chi).values
    n_star *= dt
    np.subtract(state.n.values, n_star, out=n_star)
    return _spectral.solve_scalar_diffusion(g, ScalarField(g, n_star),
                                            dt * params.delta)


def oxygen_drift(state: State, n_new: ScalarField, params: SimParams,
                 dt: float) -> tuple[ScalarField, int]:
    """Transport, limited consumption and implicit diffusion at mu; returns
    the diffused oxygen and the number of cells where the limiter acted."""
    g = state.u.grid
    c_star = scalar_advect(state.u, state.c, params.scalar_mode).values
    c_star *= dt
    np.subtract(state.c.values, c_star, out=c_star)   # the advected oxygen
    uptake = dt * n_new.values
    uptake *= params.f.eval(state.c.values)
    available = np.maximum(c_star, 0.0)
    clip_count = per_lane((uptake > available).sum(axis=LANE_REDUCE))
    c_star -= np.minimum(uptake, available, out=uptake)
    return (_spectral.solve_scalar_diffusion(g, ScalarField(g, c_star),
                                             dt * params.mu), clip_count)


def oxygen_noise(c_mid: ScalarField, params: SimParams, inc: NoiseIncrement,
                 dt_correction: float | np.ndarray
                 ) -> tuple[ScalarField, float | np.ndarray, np.ndarray]:
    """The transport-noise increment of the drifted oxygen ``c_mid`` and its
    Ito correction taken over ``dt_correction``, a scalar or one step per
    lane (0 leaves a lane uncorrected); returns the new oxygen,
    transport_hs_sq of the modes and the correction.

    It takes ``c_mid`` over, as a substep takes what a callee returned to
    it: the new oxygen is built in c_mid's array, c_mid + kick, then
    + correction, which are the bits of kick + c_mid + correction.  The
    modes of c_mid are evaluated once: their sum of squares is taken
    first, then the kick, and the correction consumes them, freeing each
    once its stencil is done.  In that order glibc's heap reuses the
    step's freed holes best, so a 256^2 run peaks lowest in RSS."""
    modes = noise_mod.transport_noise_modes(c_mid, params.sigma)
    hs_sq = noise_mod.transport_hs_sq(modes, params.sigma)
    c_new = c_mid.values
    c_new += transport_noise_apply(modes, params.gamma, inc)
    correction = noise_mod.transport_ito_correction(modes, params.sigma,
                                                    params.gamma).values
    correction *= np.asarray(dt_correction)[..., None, None]
    c_new += correction
    return ScalarField(c_mid.grid, c_new), hs_sq, correction


def oxygen_substep(state: State, n_new: ScalarField, params: SimParams,
                   inc: NoiseIncrement,
                   dt: float) -> tuple[ScalarField, int, float]:
    """Drift, then oxygen_noise with the correction on; returns the new
    oxygen, built in the array oxygen_drift returned, the limiter count and
    transport_hs_sq at the drifted oxygen."""
    c_mid, clip_count = oxygen_drift(state, n_new, params, dt)
    if params.gamma <= 0.0:
        return c_mid, clip_count, 0.0
    c_new, hs_sq, _ = oxygen_noise(c_mid, params, inc, dt)
    return c_new, clip_count, hs_sq


def velocity_substep(state: State, n_new: ScalarField, params: SimParams,
                     inc: NoiseIncrement,
                     dt: float) -> tuple[VectorField, float]:
    """Returns the projected new velocity and its divergence residual; each
    intermediate field is passed straight on, so it is freed once used."""
    g = state.u.grid
    u_new = helmholtz_project(_spectral.solve_velocity_diffusion(
        g, _forced_velocity(state, n_new, params, inc, dt), dt * params.eta))
    return u_new, divergence_residual(u_new)


def _forced_velocity(state: State, n_new: ScalarField, params: SimParams,
                     inc: NoiseIncrement, dt: float) -> VectorField:
    """The explicit part of the velocity update: _drifted_velocity plus the
    stochastic forcing."""
    forced = _drifted_velocity(state, n_new, params, dt)
    if params.vnoise.amplitude > 0.0:
        kick = g_apply(state.u, params.vnoise, inc)
        forced.u_x += kick.u_x
        forced.u_y += kick.u_y
    return forced


def _drifted_velocity(state: State, n_new: ScalarField, params: SimParams,
                      dt: float) -> VectorField:
    """u + dt (buoyancy - convection), built in convect_velocity's result."""
    drifted = convect_velocity(state.u, state.u)
    buoy = buoyancy(n_new, params.phi_grad)
    for d, b, u in ((drifted.u_x, buoy.u_x, state.u.u_x),
                    (drifted.u_y, buoy.u_y, state.u.u_y)):
        np.subtract(b, d, out=d)
        d *= dt
        d += u
    return drifted


def _checked_gradients(state: State, params: SimParams,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The face gradients of state.c, once dt is checked against the
    advective bound they give; raises CflError naming the lowest lane above
    its bound."""
    grad_c = scalar_face_gradients(state.c)
    bound = stable_dt(state, params, grad_c)
    too_long = np.asarray(dt > bound * (1.0 + 1e-12))
    if too_long.any():
        lane = first_failing_lane(too_long)
        limit = bound if lane is None else bound[lane]
        what = "step cap" if limit >= DT_MAX else "advective bound"
        raise CflError(f"dt={dt:g} exceeds the {what} {limit:g}", lane)
    return grad_c


def step(state: State, params: SimParams, inc: NoiseIncrement,
         dt: float) -> tuple[State, StepReport]:
    """One Euler-Maruyama step of every lane; raises CflError naming the
    lowest lane above its advective bound.  The face gradients of the
    incoming oxygen are taken once, for the bound and the chemotactic drift,
    and freed after the density substep."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_new = density_substep(state, params, _checked_gradients(state, params, dt),
                            dt)
    c_new, clip_count, hs_sq = oxygen_substep(state, n_new, params, inc, dt)
    u_new, proj_res = velocity_substep(state, n_new, params, inc, dt)
    new_state = State(u=u_new, c=c_new, n=n_new, t=state.t + dt)
    report = StepReport(dt=dt, clip_count=clip_count,
                        projection_residual=proj_res, noise_hs_sq=hs_sq)
    return new_state, report


@dataclass(frozen=True)
class TimeGrid:
    """The step sizes of time_grid, held in memory independent of their
    number: ``n_full`` steps of ``dt``, then the ``landing`` steps; and the
    one rule by which a study samples them."""
    dt: float
    n_full: int
    landing: tuple[float, ...]

    def __len__(self) -> int:
        return self.n_full + len(self.landing)

    def __iter__(self):
        return itertools.chain(itertools.repeat(self.dt, self.n_full),
                               self.landing)

    def is_sample(self, index: int, sample_every: int) -> bool:
        """Sampled steps (from 1): every sample_every-th, and the last."""
        return index % sample_every == 0 or index == len(self)


def time_grid(span: float, dt: float) -> TimeGrid:
    """Step sizes covering ``span``: fixed dt, plus one landing step when the
    remainder is at least 1e-12 dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if span < 0.0:
        raise ValueError(f"time span {span} is negative")
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    return TimeGrid(dt, n_full,
                    (remainder,) if remainder >= 1e-12 * dt else ())


def seeded_increments(seed: int, replica: int, k_modes: int):
    """run's increment provider (step_index, dt) -> NoiseIncrement."""
    return lambda index, dt: sample_increments(seed, replica, index, dt, k_modes)


def stacked_increments(seed: int, replicas: list[int], k_modes: int):
    """A batched run's provider: lane i gets replica replicas[i]'s
    draw, the draws stacked on a leading lane axis."""
    def draw(index: int, dt: float) -> NoiseIncrement:
        incs = [sample_increments(seed, r, index, dt, k_modes)
                for r in replicas]
        return NoiseIncrement(dw=np.stack([inc.dw for inc in incs]),
                              dbeta=np.stack([inc.dbeta for inc in incs]))
    return draw


def require_finite(fields) -> None:
    """Raise LaneError naming the first of the (name, values) fields that
    holds a non-finite value, and its lowest such lane."""
    for name, values in fields:
        finite = np.isfinite(values)
        if not finite.all():
            raise LaneError(f"field {name} is not finite",
                            first_failing_lane(~finite.all(axis=LANE_REDUCE)))


def march(state: State, params: SimParams, dts: TimeGrid, increments):
    """The stepping loop: take one step per entry of ``dts`` from ``state``
    and yield (step number from 1, state, report) after each; it holds no
    state it has stepped past.

    ``increments`` maps (step index from 0, dt) to a NoiseIncrement.  A
    failing step, including one that leaves a non-finite field, raises
    SimulationError naming the step and, for a batched state, the lane.
    Each step runs with numpy's ufunc buffer at STEP_BUFSIZE elements, and
    the caller's size is back in place whenever march yields or raises.
    """
    for index, dt_step in enumerate(dts):
        try:
            # an overflow is silent here: a field it leaves non-finite is
            # rejected below (the noise scale reads an infinite |u| as
            # tanh(inf) = 1).  numpy >= 2.0 ties the buffer size to the
            # errstate context; the finally restores it on numpy 1.x too
            with np.errstate(over="ignore", invalid="ignore"):
                caller_bufsize = np.setbufsize(STEP_BUFSIZE)
                try:
                    state, report = step(state, params,
                                         increments(index, dt_step), dt_step)
                finally:
                    np.setbufsize(caller_bufsize)
            require_finite((("n", state.n.values), ("c", state.c.values),
                            ("u_x", state.u.u_x), ("u_y", state.u.u_y)))
        except Exception as exc:
            raise SimulationError(f"step {index + 1} failed: {exc}",
                                  step_index=index + 1,
                                  lane=getattr(exc, "lane", None)) from exc
        yield index + 1, state, report


def run(initial: State, params: SimParams, t_end: float, dt: float, seed: int,
        sample_every: int = 1, *, replica: int = 0, on_sample=None):
    """March from initial.t to t_end with fixed dt plus one landing step.

    Returns (final_state, rows), one DiagnosticsRow per sample.  The noise
    path is a pure function of (seed, replica, step index), so reruns
    reproduce bitwise.  A batched ``initial`` (see stack_states) integrates
    all its lanes with one step per time step: lane i follows replica
    ``replica + i``, and the rows are a list with one list of rows per lane,
    each bitwise the rows of that replica run alone.  One energy tracker and
    one diagnostics.record per sample observe all lanes at once.
    ``on_sample`` is called with (state, rows) at every recorded sample, the
    rows holding one DiagnosticsRow per lane.  A failing step, or a sampled
    state that diagnostics rejects, raises SimulationError naming the step
    and, when batched, the lane.  ``initial`` is neither written into nor
    copied: with no step to take, the returned state is ``initial`` itself.
    Nor is it held past the first step, so a caller that keeps no
    reference to it lets it go.
    """
    if t_end < initial.t:
        raise ValueError(f"t_end={t_end} precedes initial time {initial.t}")
    dts = time_grid(t_end - initial.t, dt)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    state = initial
    del initial   # so that a caller's handed-over state dies after step 1
    lanes = state.lanes
    batched = lanes != [None]
    k_modes = params.vnoise.n_modes
    increments = (stacked_increments(seed, [replica + i for i in lanes],
                                     k_modes) if batched
                  else seeded_increments(seed, replica, k_modes))
    tracker = diagnostics.EnergyTracker(state, params)
    series = [[] for _ in lanes]

    def sample(state: State, report: StepReport, index: int) -> None:
        try:
            rows = diagnostics.record(state, report, params, tracker,
                                      step_index=index)
        except LaneError as exc:   # a measurement rejected a lane's state
            raise SimulationError(f"sample at step {index} failed: {exc}",
                                  step_index=index, lane=exc.lane) from exc
        for lane_rows, row in zip(series, rows):
            lane_rows.append(row)
        if on_sample is not None:
            on_sample(state, rows)

    sample(state, StepReport(dt=0.0, clip_count=0, projection_residual=0.0,
                             noise_hs_sq=0.0), 0)
    for index, state, report in march(state, params, dts, increments):
        tracker.update(state, params, report)
        if dts.is_sample(index, sample_every):
            sample(state, report, index)
    return state, (series if batched else series[0])
