"""Semi-implicit Euler-Maruyama time integration of the coupled system.

Each step advances the cell density, then the oxygen, then the velocity, in
that order, so each later equation sees the freshest coupling fields:

1. density_substep: explicit upwind advection and chemotactic drift, implicit
   diffusion (mass is conserved to round-off: both explicit pieces are
   wall-tight flux forms and the implicit solve preserves the mean);
2. oxygen_substep: explicit advection, explicit consumption limited to the
   oxygen actually available in the cell (the limiter is counted, never
   silent), implicit diffusion at mu, then the explicit transport-noise
   increment and its exact discrete Ito correction;
3. velocity_substep: explicit convection, buoyancy and stochastic forcing,
   implicit viscosity, then projection onto the discretely divergence-free
   subspace.

Diffusion is implicit and unconditionally stable, so the admissible step is
advection-limited only; steps above the advective bound are rejected rather
than silently subdivided.  march, on the steps of time_grid, is the one
stepping loop of runs and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _spectral, diagnostics, noise as noise_mod
from .grid import Grid, ScalarField, VectorField, scalar_face_gradients
from .noise import (NoiseIncrement, TransportSigma, VelocityNoiseConfig,
                    g_apply, sample_increments, transport_noise_apply)
from .operators import (AdvectionMode, buoyancy, chemotaxis_div,
                        convect_velocity, divergence_residual,
                        helmholtz_project, scalar_advect)


class CflError(RuntimeError):
    """The requested step exceeds the advective stability bound."""


class SimulationError(RuntimeError):
    """A run aborted; carries the failing step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class ConsumptionLaw:
    """Oxygen uptake rate f with f(0) = 0, f and f' positive on (0, inf)."""
    eval: callable
    deriv: callable
    name: str

    def validate(self, c_max: float = 1.0, samples: int = 256) -> None:
        if abs(float(self.eval(0.0))) > 1e-14:
            raise ValueError(f"consumption law {self.name!r} must vanish at 0")
        c = np.linspace(0.0, c_max, samples)[1:]
        if np.any(self.eval(c) <= 0.0) or np.any(self.deriv(c) <= 0.0):
            raise ValueError(f"consumption law {self.name!r} must have "
                             f"f > 0 and f' > 0 on (0, {c_max}]")


def linear_consumption() -> ConsumptionLaw:
    return ConsumptionLaw(eval=lambda c: np.asarray(c, dtype=float),
                          deriv=lambda c: np.ones_like(np.asarray(c, dtype=float)),
                          name="linear")


def saturating_consumption(scale: float = 1.0) -> ConsumptionLaw:
    """Michaelis-Menten style uptake c / (scale + c)."""
    s = float(scale)
    return ConsumptionLaw(eval=lambda c: np.asarray(c, dtype=float) / (s + np.asarray(c, dtype=float)),
                          deriv=lambda c: s / (s + np.asarray(c, dtype=float)) ** 2,
                          name="saturating")


CONSUMPTION_LAWS = {
    "linear": linear_consumption,
    "saturating": saturating_consumption,
}


@dataclass(frozen=True)
class SimParams:
    eta: float                     # fluid viscosity
    mu: float                      # oxygen diffusivity
    delta: float                   # cell diffusivity
    chi: float                     # chemotactic constant
    gamma: float                   # transport-noise intensity
    phi: ScalarField               # gravitational / centrifugal potential
    f: ConsumptionLaw
    vnoise: VelocityNoiseConfig
    sigma: TransportSigma
    dt_max: float = 0.1
    cfl_safety: float = 0.5
    scalar_mode: AdvectionMode = AdvectionMode.UPWIND_FLUX
    velocity_mode: AdvectionMode = AdvectionMode.CENTERED_SKEW
    k_gn: float = 1.0              # Gagliardo-Nirenberg constant for monitoring
    k0: float | None = None        # elliptic-regularity constant override

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @property
    def xi(self) -> float:
        """Effective oxygen diffusivity mu + gamma^2/2 of the Stratonovich
        form; it feeds the admissibility gate and the entropy weight only."""
        return self.mu + 0.5 * self.gamma ** 2


def make_params(grid: Grid, *, eta: float, mu: float, delta: float, chi: float,
                gamma: float, phi: ScalarField, f: ConsumptionLaw,
                vnoise: VelocityNoiseConfig, sigma: TransportSigma,
                **extra) -> SimParams:
    """Validate the coefficients."""
    if eta <= 0.0 or delta <= 0.0:
        raise ValueError("eta and delta must be strictly positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if chi < 0.0 or gamma < 0.0:
        raise ValueError("chi and gamma must be nonnegative")
    return SimParams(eta=eta, mu=mu, delta=delta, chi=chi, gamma=gamma,
                     phi=phi, f=f, vnoise=vnoise, sigma=sigma, **extra)


@dataclass
class State:
    u: VectorField
    c: ScalarField
    n: ScalarField
    t: float

    def copy(self) -> "State":
        return State(self.u.copy(), self.c.copy(), self.n.copy(), self.t)


@dataclass(frozen=True)
class StepReport:
    dt: float
    clip_count: int
    projection_residual: float
    noise_hs_sq: float   # sum_k |sigma_k . grad c|^2 at the pre-noise oxygen


def stable_dt(state: State, params: SimParams) -> float:
    """Advective step bound: safety / max cell Courant rate, capped at dt_max.

    The per-cell rate adds the fluid speed and the chemotactic drift speed
    chi |grad c| on each axis; diffusion is implicit and does not constrain.
    """
    g = state.u.grid
    ux = np.abs(state.u.u_x)
    uy = np.abs(state.u.u_y)
    gx, gy = scalar_face_gradients(state.c)
    speed_x = np.maximum(ux[:-1, :], ux[1:, :]) + params.chi * np.maximum(
        np.abs(gx[:-1, :]), np.abs(gx[1:, :]))
    speed_y = np.maximum(uy[:, :-1], uy[:, 1:]) + params.chi * np.maximum(
        np.abs(gy[:, :-1]), np.abs(gy[:, 1:]))
    rate = float(np.max(speed_x / g.dx + speed_y / g.dy))
    if params.gamma > 0.0:
        # the explicit discrete Ito correction is a forward-Euler diffusion
        rate = max(rate, 0.5 * params.gamma ** 2
                   * (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2))
    if rate <= 0.0:
        return params.dt_max
    return min(params.dt_max, params.cfl_safety / rate)


def density_substep(state: State, params: SimParams,
                    dt: float) -> ScalarField:
    """Explicit transport and chemotactic drift, implicit diffusion."""
    g = state.u.grid
    adv_n = scalar_advect(state.u, state.n, params.scalar_mode)
    chemo = chemotaxis_div(state.n, state.c, params.chi)
    n_star = ScalarField(g, state.n.values - dt * (adv_n.values + chemo.values))
    return _spectral.solve_scalar_diffusion(g, n_star, dt * params.delta)


def oxygen_drift(state: State, n_new: ScalarField, params: SimParams,
                 dt: float) -> tuple[ScalarField, int]:
    """Transport, limited consumption and implicit diffusion at mu; returns
    the diffused oxygen and the number of cells where the limiter acted."""
    g = state.u.grid
    adv_c = scalar_advect(state.u, state.c, params.scalar_mode)
    c_adv = state.c.values - dt * adv_c.values
    uptake = dt * n_new.values * params.f.eval(state.c.values)
    available = np.maximum(c_adv, 0.0)
    clip_count = int(np.count_nonzero(uptake > available))
    c_star = ScalarField(g, c_adv - np.minimum(uptake, available))
    return _spectral.solve_scalar_diffusion(g, c_star, dt * params.mu), clip_count


def oxygen_kick(c_mid: ScalarField, params: SimParams,
                inc: NoiseIncrement) -> np.ndarray:
    """Transport-noise increment gamma sum_k (sigma_k . grad c) dbeta_k."""
    return transport_noise_apply(c_mid, params.sigma, params.gamma, inc).values


def oxygen_correction(c_mid: ScalarField, params: SimParams,
                      dt: float) -> np.ndarray:
    """dt times the exact discrete Ito correction (gamma^2/2) sum_k L_k^2 c."""
    return dt * noise_mod.transport_ito_correction(c_mid, params.sigma,
                                                   params.gamma).values


def oxygen_substep(state: State, n_new: ScalarField, params: SimParams,
                   inc: NoiseIncrement,
                   dt: float) -> tuple[ScalarField, int, float]:
    """Drift, then the noise increment and its correction; returns the new
    oxygen, the limiter count and transport_hs_sq at the drifted oxygen."""
    c_mid, clip_count = oxygen_drift(state, n_new, params, dt)
    if params.gamma <= 0.0:
        return c_mid, clip_count, 0.0
    hs_sq = noise_mod.transport_hs_sq(c_mid, params.sigma)
    c_new = ScalarField(c_mid.grid, c_mid.values + oxygen_kick(c_mid, params, inc))
    c_new.values += oxygen_correction(c_mid, params, dt)
    return c_new, clip_count, hs_sq


def velocity_substep(state: State, n_new: ScalarField, c_new: ScalarField,
                     params: SimParams, inc: NoiseIncrement,
                     dt: float) -> tuple[VectorField, float]:
    """Returns the projected new velocity and its divergence residual."""
    g = state.u.grid
    conv = convect_velocity(state.u, state.u, params.velocity_mode)
    buoy = buoyancy(n_new, params.phi)
    forced = VectorField(g,
                         state.u.u_x + dt * (buoy.u_x - conv.u_x),
                         state.u.u_y + dt * (buoy.u_y - conv.u_y))
    if params.vnoise.amplitude > 0.0:
        gw = g_apply(state.u, c_new, params.vnoise, inc)
        forced.u_x += gw.u_x
        forced.u_y += gw.u_y
    u_mid = _spectral.solve_velocity_diffusion(g, forced, dt * params.eta)
    u_new = helmholtz_project(u_mid)
    return u_new, divergence_residual(u_new)


def step(state: State, params: SimParams, inc: NoiseIncrement,
         dt: float) -> tuple[State, StepReport]:
    """One Euler-Maruyama step; raises CflError above the advective bound."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    bound = stable_dt(state, params)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds the advective bound {bound:g}")
    n_new = density_substep(state, params, dt)
    c_new, clip_count, hs_sq = oxygen_substep(state, n_new, params, inc, dt)
    u_new, proj_res = velocity_substep(state, n_new, c_new, params, inc, dt)
    new_state = State(u=u_new, c=c_new, n=n_new, t=state.t + dt)
    report = StepReport(dt=dt, clip_count=clip_count,
                        projection_residual=proj_res, noise_hs_sq=hs_sq)
    return new_state, report


def time_grid(span: float, dt: float) -> list[float]:
    """Step sizes covering ``span``: fixed dt, plus one landing step when the
    remainder is at least 1e-12 dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if span < 0.0:
        raise ValueError(f"time span {span} is negative")
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    return [dt] * n_full + ([remainder] if remainder >= 1e-12 * dt else [])


def seeded_increments(seed: int, replica: int, k_modes: int):
    """run's default increment provider (step_index, dt) -> NoiseIncrement."""
    return lambda index, dt: sample_increments(seed, replica, index, dt, k_modes)


def march(initial: State, params: SimParams, dts: list[float], increments):
    """The stepping loop: take one step per entry of ``dts`` and yield
    (step number from 1, state, report) after each.

    ``increments`` maps (step index from 0, dt) to a NoiseIncrement.  A
    failing step, including one that leaves a non-finite field, raises
    SimulationError naming the step.
    """
    state = initial
    for index, dt_step in enumerate(dts):
        try:
            state, report = step(state, params, increments(index, dt_step),
                                 dt_step)
            for name, values in (("n", state.n.values), ("c", state.c.values),
                                 ("u_x", state.u.u_x), ("u_y", state.u.u_y)):
                if not np.isfinite(values).all():
                    raise FloatingPointError(f"field {name} is not finite")
        except Exception as exc:
            raise SimulationError(f"step {index + 1} failed: {exc}",
                                  step_index=index + 1) from exc
        yield index + 1, state, report


def run(initial: State, params: SimParams, t_end: float, dt: float, seed: int,
        sample_every: int = 1, *, replica: int = 0, increments=None,
        scalar_mode: AdvectionMode | None = None, on_sample=None):
    """March from initial.t to t_end with fixed dt plus one landing step.

    Returns (final_state, DiagnosticsSeries).  The noise path is a pure
    function of (seed, replica, step index), so reruns reproduce bitwise.
    ``increments`` may supply a callable (step_index, dt) -> NoiseIncrement
    to share or aggregate Brownian paths across runs; ``on_sample`` is
    called with (state, row) at every recorded sample.
    """
    if t_end < initial.t:
        raise ValueError(f"t_end={t_end} precedes initial time {initial.t}")
    dts = time_grid(t_end - initial.t, dt)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if scalar_mode is not None:
        params = replace(params, scalar_mode=scalar_mode)
    if increments is None:
        increments = seeded_increments(seed, replica, params.vnoise.n_modes)

    state = initial.copy()
    tracker = diagnostics.EnergyTracker.start(state, params)
    series = diagnostics.DiagnosticsSeries()

    def sample(state: State, report: StepReport, index: int) -> None:
        row = diagnostics.record(state, report, params, tracker,
                                 step_index=index)
        series.append(row)
        if on_sample is not None:
            on_sample(state, row)

    sample(state, StepReport(dt=0.0, clip_count=0, projection_residual=0.0,
                             noise_hs_sq=0.0), 0)
    for index, state, report in march(state, params, dts, increments):
        tracker.update(state, params, report)
        if index % sample_every == 0 or index == len(dts):
            sample(state, report, index)
    return state, series
