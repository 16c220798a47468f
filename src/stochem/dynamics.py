"""Semi-implicit Euler-Maruyama time integration of the coupled system.

Each step advances the cell density, then the oxygen, then the velocity, in
that order, so each later equation sees the freshest coupling fields:

1. density: explicit upwind advection and chemotactic drift, implicit
   diffusion (mass is conserved to round-off: both explicit pieces are
   wall-tight flux forms and the implicit solve preserves the mean);
2. oxygen: explicit advection, explicit consumption limited to the oxygen
   actually available in the cell (the limiter is counted, never silent),
   implicit diffusion with the Stratonovich correction absorbed into the
   effective diffusivity, then the explicit transport-noise increment;
3. velocity: explicit convection, buoyancy and stochastic forcing, implicit
   viscosity, then projection onto the discretely divergence-free subspace.

Diffusion is implicit and unconditionally stable, so the admissible step is
advection-limited only; steps above the advective bound are rejected rather
than silently subdivided.
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
    xi: float                      # effective oxygen diffusivity in the solver
    phi: ScalarField               # gravitational / centrifugal potential
    f: ConsumptionLaw
    vnoise: VelocityNoiseConfig
    sigma: TransportSigma
    xi_mode: str = "corrected"
    correction_mode: str = "discrete"   # or "xi_implicit" (literal abstract form)
    dt_max: float = 0.1
    cfl_safety: float = 0.5
    scalar_mode: AdvectionMode = AdvectionMode.UPWIND_FLUX
    velocity_mode: AdvectionMode = AdvectionMode.CENTERED_SKEW
    k_gn: float = 1.0              # Gagliardo-Nirenberg constant for monitoring
    k0: float | None = None        # elliptic-regularity constant override

    @property
    def grid(self) -> Grid:
        return self.phi.grid


def resolve_xi(mu: float, eta: float, gamma: float, xi_mode: str) -> float:
    """Effective oxygen diffusivity.

    'corrected' adds the Stratonovich drift to the oxygen diffusivity
    (dimensionally consistent); 'literal' adds it to the viscosity constant,
    reproducing the abstract operator form verbatim.
    """
    if xi_mode == "corrected":
        return mu + 0.5 * gamma ** 2
    if xi_mode == "literal":
        return eta + 0.5 * gamma ** 2
    raise ValueError(f"unknown xi_mode {xi_mode!r}")


def make_params(grid: Grid, *, eta: float, mu: float, delta: float, chi: float,
                gamma: float, phi: ScalarField, f: ConsumptionLaw,
                vnoise: VelocityNoiseConfig, sigma: TransportSigma,
                xi_mode: str = "corrected", **extra) -> SimParams:
    """Validate coefficients and resolve the effective oxygen diffusivity."""
    if eta <= 0.0 or delta <= 0.0:
        raise ValueError("eta and delta must be strictly positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if chi < 0.0 or gamma < 0.0:
        raise ValueError("chi and gamma must be nonnegative")
    xi = resolve_xi(mu, eta, gamma, xi_mode)
    if xi < mu:
        raise ValueError(f"effective diffusivity xi={xi} below mu={mu}; "
                         f"xi_mode={xi_mode!r} is inconsistent with these coefficients")
    return SimParams(eta=eta, mu=mu, delta=delta, chi=chi, gamma=gamma, xi=xi,
                     phi=phi, f=f, vnoise=vnoise, sigma=sigma, xi_mode=xi_mode,
                     **extra)


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
    if params.gamma > 0.0 and params.correction_mode == "discrete":
        # the explicit discrete Ito correction is a forward-Euler diffusion
        rate = max(rate, 0.5 * params.gamma ** 2
                   * (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2))
    if rate <= 0.0:
        return params.dt_max
    return min(params.dt_max, params.cfl_safety / rate)


def step(state: State, params: SimParams, inc: NoiseIncrement,
         dt: float) -> tuple[State, StepReport]:
    """One Euler-Maruyama step; raises CflError above the advective bound."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    bound = stable_dt(state, params)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds the advective bound {bound:g}")
    g = state.u.grid

    # (1) cell density: explicit transport, implicit diffusion
    adv_n = scalar_advect(state.u, state.n, params.scalar_mode)
    chemo = chemotaxis_div(state.n, state.c, params.chi)
    n_star = ScalarField(g, state.n.values - dt * (adv_n.values + chemo.values))
    n_new = _spectral.solve_scalar_diffusion(g, n_star, dt * params.delta)

    # (2) oxygen: explicit transport and limited consumption against the fresh
    # density, implicit diffusion, explicit transport noise with its exact
    # discrete correction ((gamma^2/2) sum_k L_k^2, the Stratonovich rewrite
    # of the discrete noise map); "xi_implicit" instead folds the generic
    # correction into the implicit diffusivity
    adv_c = scalar_advect(state.u, state.c, params.scalar_mode)
    c_adv = state.c.values - dt * adv_c.values
    uptake = dt * n_new.values * params.f.eval(state.c.values)
    available = np.maximum(c_adv, 0.0)
    clipped = uptake > available
    clip_count = int(np.count_nonzero(clipped))
    c_star = ScalarField(g, c_adv - np.minimum(uptake, available))
    discrete_corr = params.correction_mode == "discrete"
    solve_coef = params.mu if discrete_corr else params.xi
    c_mid = _spectral.solve_scalar_diffusion(g, c_star, dt * solve_coef)
    hs_sq = 0.0
    if params.gamma > 0.0:
        hs_sq = noise_mod.transport_hs_sq(c_mid, params.sigma)
        kick = transport_noise_apply(c_mid, params.sigma, params.gamma, inc)
        c_new = ScalarField(g, c_mid.values + kick.values)
        if discrete_corr:
            corr = noise_mod.transport_ito_correction(c_mid, params.sigma,
                                                      params.gamma)
            c_new.values += dt * corr.values
    else:
        c_new = c_mid

    # (3) velocity: explicit forcing, implicit viscosity, projection
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
    proj_res = divergence_residual(u_new)

    new_state = State(u=u_new, c=c_new, n=n_new, t=state.t + dt)
    report = StepReport(dt=dt, clip_count=clip_count,
                        projection_residual=proj_res, noise_hs_sq=hs_sq)
    return new_state, report


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
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if scalar_mode is not None:
        params = replace(params, scalar_mode=scalar_mode)
    k = params.vnoise.n_modes

    def default_increments(step_index: int, dt_step: float) -> NoiseIncrement:
        return sample_increments(seed, replica, step_index, dt_step, k)

    provider = increments if increments is not None else default_increments

    state = initial.copy()
    tracker = diagnostics.EnergyTracker.start(state, params)
    series = diagnostics.DiagnosticsSeries()
    zero_report = StepReport(dt=0.0, clip_count=0, projection_residual=0.0,
                             noise_hs_sq=0.0)
    first_row = diagnostics.record(state, zero_report, params, tracker,
                                   step_index=0)
    series.append(first_row)
    if on_sample is not None:
        on_sample(state, first_row)

    span = t_end - initial.t
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder < 1e-12 * dt:
        remainder = 0.0
    total_steps = n_full + (1 if remainder > 0.0 else 0)

    for k_step in range(total_steps):
        dt_step = dt if k_step < n_full else remainder
        try:
            inc = provider(k_step, dt_step)
            state, report = step(state, params, inc, dt_step)
        except Exception as exc:
            raise SimulationError(f"step {k_step + 1} failed: {exc}",
                                  step_index=k_step + 1) from exc
        tracker.update(state, params, report)
        if (k_step + 1) % sample_every == 0 or k_step == total_steps - 1:
            row = diagnostics.record(state, report, params, tracker,
                                     step_index=k_step + 1)
            series.append(row)
            if on_sample is not None:
                on_sample(state, row)
    return state, series
