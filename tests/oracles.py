"""Independent reference solvers and measurements the package does not need.

The conjugate-gradient Neumann-Poisson solve cross-checks the direct cosine
transform path; ``recover_pressure`` reconstructs the diagnostic pressure of
a state, which the time stepper never uses; the ``textbook_*`` solves are
the spectral solves without cached divisors; ``sample_law`` finds a
consumption law's extremes by sampling, where the gate reads them off the
law's values at the interval's right end.

The rest are oracles and fixtures that no CLI command runs: field
constructors, the full face gradient, the five-point Laplacians (the
velocity one is the stencil ``solve_velocity_diffusion`` inverts), the
velocity gradient seminorm, the transport-field contract check, the forcing's
unit modes as full fields, its Hilbert-Schmidt norm and growth constant, the
entropy functional of one state, the worst energy-identity defect of a series
and the exponential envelope of a twin run's separation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, dst, idctn, idst
from scipy.sparse.linalg import LinearOperator, cg

from stochem import _spectral
from stochem.diagnostics import (DiagnosticsRow, _entropy, _nlogn, column,
                                 compute_kf)
from stochem.grid import (LANE_REDUCE, ScalarField, VectorField,
                          cell_center_axes, divergence, norm, per_lane,
                          scalar_face_gradients, stream_function_curl,
                          zeros_vector)
from stochem.noise import (Ramp, TransportSigma, VelocityNoiseConfig,
                           _stream_mode_numbers, g_scale)
from stochem.operators import buoyancy, convect_velocity

POISSON_CG_TOL = 1e-12
POISSON_CG_MAXITER_PER_CELL = 10


class SolverError(RuntimeError):
    """An iterative solve failed to reach its tolerance within the cap."""


def apply_neumann_laplacian(grid, p):
    """Five-point Laplacian with zero boundary flux, written face by face."""
    out = np.zeros_like(p)
    dx2, dy2 = grid.dx ** 2, grid.dy ** 2
    out[1:, :] += (p[:-1, :] - p[1:, :]) / dx2
    out[:-1, :] += (p[1:, :] - p[:-1, :]) / dx2
    out[:, 1:] += (p[:, :-1] - p[:, 1:]) / dy2
    out[:, :-1] += (p[:, 1:] - p[:, :-1]) / dy2
    return out


def solve_poisson_cg(grid, rhs):
    """CG solve of lap(p) = rhs on the mean-zero subspace.

    Returns (p, iterations); p has zero mean and the mean of rhs is dropped.
    """
    n = grid.nx * grid.ny
    b = rhs - rhs.mean()

    def matvec(x):
        # minus Laplacian, projected onto mean-zero: SPD on that subspace
        xm = x - x.mean()
        y = -apply_neumann_laplacian(grid, xm.reshape(grid.nx, grid.ny))
        return y.ravel()

    op = LinearOperator((n, n), matvec=matvec)
    if np.linalg.norm(b.ravel()) == 0.0:
        return np.zeros_like(rhs), 0
    count = [0]

    def cb(_):
        count[0] += 1

    x, code = cg(op, -b.ravel(), rtol=POISSON_CG_TOL, atol=0.0,
                 maxiter=POISSON_CG_MAXITER_PER_CELL * n, callback=cb)
    if code != 0:
        raise SolverError(f"Neumann-Poisson CG did not converge (code {code}, "
                          f"{count[0]} iterations)")
    p = x.reshape(grid.nx, grid.ny)
    p -= p.mean()
    return p, count[0]


def recover_pressure(state, params):
    """Diagnostic pressure from the instantaneous momentum balance.

    Solves the Neumann-Poisson problem lap(p) = div(f) with
    f = -convection + viscous + buoyancy evaluated at the current state,
    normalized to zero mean.
    """
    u, n = state.u, state.n
    g = u.grid
    f = zeros_vector(g)
    conv = convect_velocity(u, u)
    visc = stokes_apply(u)
    buoy = buoyancy(n, params.phi_grad)
    f.u_x = -conv.u_x + params.eta * visc.u_x + buoy.u_x
    f.u_y = -conv.u_y + params.eta * visc.u_y + buoy.u_y
    rhs = divergence(f)
    p, _info = _spectral.solve_poisson_neumann(g, rhs.values)
    return ScalarField(g, p - p.mean())


# The spectral solves with no plan: every call builds its eigenvalues, and
# the Poisson divide masks the zero mode with np.where.  The planned solves
# divide by the same numbers, so they must match these bit for bit.

def textbook_poisson_neumann(grid, rhs):
    lam = _spectral.neumann_eigenvalues(grid)
    rhat = dctn(rhs, type=2, norm="ortho", axes=LANE_REDUCE)
    with np.errstate(divide="ignore", invalid="ignore"):
        phat = np.where(lam > 0.0, -rhat / lam, 0.0)
    phat[..., 0, 0] = 0.0
    return idctn(phat, type=2, norm="ortho", axes=LANE_REDUCE)


def textbook_scalar_diffusion(grid, rhs, coef):
    lam = _spectral.neumann_eigenvalues(grid)
    rhat = dctn(rhs, type=2, norm="ortho", axes=LANE_REDUCE)
    out = idctn(rhat / (1.0 + coef * lam), type=2, norm="ortho",
                axes=LANE_REDUCE)
    out += (rhs.mean(axis=LANE_REDUCE)
            - out.mean(axis=LANE_REDUCE))[..., None, None]
    return out


def textbook_velocity_diffusion(grid, u_x, u_y, coef):
    def face(n, h):   # DST-I modes, k = 1..n-1
        return _spectral._eigenvalues(np.arange(1, n), n, h)

    def wall(n, h):   # DST-II modes, k = 1..n
        return _spectral._eigenvalues(np.arange(1, n + 1), n, h)

    out_x = np.zeros_like(u_x)
    out_y = np.zeros_like(u_y)
    lam_x = (face(grid.nx, grid.dx)[:, None] + wall(grid.ny, grid.dy)[None, :])
    bhat = dst(dst(u_x[..., 1:-1, :], type=1, axis=-2, norm="ortho"), type=2,
               axis=-1, norm="ortho")
    bhat /= (1.0 + coef * lam_x)
    out_x[..., 1:-1, :] = idst(idst(bhat, type=2, axis=-1, norm="ortho"),
                               type=1, axis=-2, norm="ortho")
    lam_y = (wall(grid.nx, grid.dx)[:, None] + face(grid.ny, grid.dy)[None, :])
    bhat = dst(dst(u_y[..., 1:-1], type=2, axis=-2, norm="ortho"), type=1,
               axis=-1, norm="ortho")
    bhat /= (1.0 + coef * lam_y)
    out_y[..., 1:-1] = idst(idst(bhat, type=1, axis=-1, norm="ortho"),
                            type=2, axis=-2, norm="ortho")
    return out_x, out_y


def sample_law(f, c0_linf: float, samples: int = 1024):
    """Min of f' and max of |f| over [0, c0_linf] by dense sampling with one
    bisection refinement around each extremal sample; overflows inside the
    law round silently, as in the gate."""
    hi = max(float(c0_linf), 0.0)
    with np.errstate(over="ignore"):
        if hi == 0.0:
            return float(f.deriv(0.0)), abs(float(f.eval(0.0)))
        xs = np.linspace(0.0, hi, samples)
        der = np.asarray(f.deriv(xs), dtype=float)
        val = np.abs(np.asarray(f.eval(xs), dtype=float))

        def refine(around: int, arr_fun) -> np.ndarray:
            lo_i = max(around - 1, 0)
            hi_i = min(around + 1, samples - 1)
            extra = np.array([0.5 * (xs[lo_i] + xs[around]),
                              0.5 * (xs[around] + xs[hi_i])])
            return np.asarray(arr_fun(extra), dtype=float)

        min_fp = min(float(der.min()),
                     float(refine(int(der.argmin()), f.deriv).min()))
        max_f = max(float(val.max()),
                    float(np.abs(refine(int(val.argmax()), f.eval)).max()))
    return min_fp, max_f


def zeros_scalar(grid) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nx, grid.ny)))


def full_scalar(grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full((grid.nx, grid.ny), float(value)))


def cell_centers(grid) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrids (indexing 'ij') of cell-center coordinates."""
    return np.meshgrid(*cell_center_axes(grid), indexing="ij")


def scalar_from_function(grid, f) -> ScalarField:
    x, y = cell_centers(grid)
    return ScalarField(grid, np.asarray(f(x, y), dtype=float))


def gradient(f: ScalarField) -> VectorField:
    gx, gy = scalar_face_gradients(f)
    return VectorField(f.grid, gx, gy)


def laplacian_neumann(phi: ScalarField) -> ScalarField:
    """Flux-form five-point Laplacian with zero boundary flux.

    Returns lap(phi); the positive diffusion operator of the abstract setting
    is minus this.  The boundary fluxes being identically zero makes the
    integral of the result vanish by telescoping.
    """
    return divergence(gradient(phi))


def stokes_apply(u: VectorField) -> VectorField:
    """Componentwise five-point Laplacian of a no-slip staggered field.

    Wall-normal boundary faces of the output are zero (those values are
    boundary data, not unknowns); tangential walls use the reflected ghost
    u_ghost = -u_first so the interpolated wall velocity vanishes.
    """
    g = u.grid
    dx2, dy2 = g.dx ** 2, g.dy ** 2
    out = zeros_vector(g, u.lanes)

    ux = u.u_x
    lap_x = np.zeros_like(ux)
    lap_x[..., 1:-1, :] = (ux[..., 2:, :] - 2.0 * ux[..., 1:-1, :]
                           + ux[..., :-2, :]) / dx2
    pad = np.empty(u.lanes + (g.nx + 1, g.ny + 2))
    pad[..., 1:-1] = ux
    pad[..., 0] = -ux[..., 0]
    pad[..., -1] = -ux[..., -1]
    lap_x += (pad[..., 2:] - 2.0 * pad[..., 1:-1] + pad[..., :-2]) / dy2
    out.u_x[..., 1:-1, :] = lap_x[..., 1:-1, :]

    uy = u.u_y
    lap_y = np.zeros_like(uy)
    lap_y[..., 1:-1] = (uy[..., 2:] - 2.0 * uy[..., 1:-1] + uy[..., :-2]) / dy2
    pad = np.empty(u.lanes + (g.nx + 2, g.ny + 1))
    pad[..., 1:-1, :] = uy
    pad[..., 0, :] = -uy[..., 0, :]
    pad[..., -1, :] = -uy[..., -1, :]
    lap_y += (pad[..., 2:, :] - 2.0 * pad[..., 1:-1, :]
              + pad[..., :-2, :]) / dx2
    out.u_y[..., 1:-1] = lap_y[..., 1:-1]
    return out


def _velocity_gradient_sq_sum(v: VectorField):
    """Sum over quadrature points of |grad u|^2 for a no-slip staggered field.

    Tangential derivatives at walls use the reflected ghost (u_ghost = -u_wall
    row), equivalent to a one-sided difference against the zero wall value at
    half spacing.
    """
    g = v.grid
    dx, dy = g.dx, g.dy
    ux, uy = v.u_x, v.u_y
    total = 0.0
    # u_x: d/dx lives on cells, d/dy on nodes
    dux_dx = (ux[..., 1:, :] - ux[..., :-1, :]) / dx
    total += np.sum(dux_dx ** 2, axis=LANE_REDUCE)
    dux_dy = np.empty(v.lanes + (g.nx + 1, g.ny + 1))
    dux_dy[..., 1:-1] = (ux[..., 1:] - ux[..., :-1]) / dy
    dux_dy[..., 0] = 2.0 * ux[..., 0] / dy
    dux_dy[..., -1] = -2.0 * ux[..., -1] / dy
    total += np.sum(dux_dy ** 2, axis=LANE_REDUCE)
    # u_y: d/dy on cells, d/dx on nodes
    duy_dy = (uy[..., 1:] - uy[..., :-1]) / dy
    total += np.sum(duy_dy ** 2, axis=LANE_REDUCE)
    duy_dx = np.empty(v.lanes + (g.nx + 1, g.ny + 1))
    duy_dx[..., 1:-1, :] = (uy[..., 1:, :] - uy[..., :-1, :]) / dx
    duy_dx[..., 0, :] = 2.0 * uy[..., 0, :] / dx
    duy_dx[..., -1, :] = -2.0 * uy[..., -1, :] / dx
    total += np.sum(duy_dx ** 2, axis=LANE_REDUCE)
    return total


def velocity_h1_semi(v: VectorField):
    """Gradient seminorm of a no-slip staggered field, per lane."""
    return per_lane(np.sqrt(_velocity_gradient_sq_sum(v) * v.grid.cell_volume))


@dataclass(frozen=True)
class AssumptionReport:
    max_interior_divergence: float
    boundary_zero_violations: int
    max_q_deviation: float

    @property
    def ok(self) -> bool:
        return (self.max_interior_divergence == 0.0
                and self.boundary_zero_violations == 0
                and self.max_q_deviation == 0.0)


def zero_transport_sigma(grid) -> TransportSigma:
    """Disabled transport noise: zero fields, empty identity-covariance region."""
    nx, ny = grid.nx, grid.ny
    return TransportSigma(grid=grid,
                          ramp_1=Ramp(np.zeros(nx + 1), np.zeros(ny)),
                          ramp_2=Ramp(np.zeros(nx), np.zeros(ny + 1)),
                          cutoff_width=0,
                          interior=(slice(0, 0), slice(0, 0)))


def face_distances(grid) -> tuple[np.ndarray, np.ndarray]:
    """Distance (in cell units) of every face from the nearest wall."""
    nx, ny = grid.nx, grid.ny
    ix = np.arange(nx + 1, dtype=float)
    jx = np.arange(ny, dtype=float)
    dxf = np.minimum.outer(np.minimum(ix, nx - ix),
                           np.minimum(jx + 0.5, ny - 0.5 - jx))
    iy = np.arange(nx, dtype=float)
    jy = np.arange(ny + 1, dtype=float)
    dyf = np.minimum.outer(np.minimum(iy + 0.5, nx - 0.5 - iy),
                           np.minimum(jy, ny - jy))
    return dxf, dyf


def clipped_ramps(grid, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical ramps on the vertical and the horizontal faces as full
    arrays, clip((d - w)/w, 0, 1) of each face's distance to the walls."""
    return tuple(np.clip((d - w) / w, 0.0, 1.0) for d in face_distances(grid))


def full_ramps(sigma: TransportSigma) -> tuple[np.ndarray, np.ndarray]:
    """sigma's ramps on the vertical and the horizontal faces as full
    arrays, min(x[i], y[j]) of each field's profiles."""
    return tuple(np.minimum.outer(r.x, r.y) for r in (sigma.ramp_1,
                                                      sigma.ramp_2))


def cells_clear_of_walls(grid, width: int) -> np.ndarray:
    """Full-grid mask of the cells (i, j) with
    min(i, nx - 1 - i, j, ny - 1 - j) >= width."""
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    dist = np.minimum(np.minimum(ii, grid.nx - 1 - ii),
                      np.minimum(jj, grid.ny - 1 - jj))
    return dist >= width


def masked_hs_sq(modes, mask: np.ndarray, cell_volume: float):
    """transport_hs_sq over the cells of a full-grid bool mask, gathered
    with np.take: the indices of np.flatnonzero keep each lane's cells
    contiguous in row-major order (m[..., mask] would interleave lanes)."""
    cells = np.flatnonzero(mask)
    hs = sum(np.sum(np.take(m.reshape(m.shape[:-2] + (-1,)), cells,
                            axis=-1) ** 2, axis=-1) for m in modes)
    return per_lane(hs) * cell_volume


def check_sigma_assumptions(sigma: TransportSigma) -> AssumptionReport:
    """Measure how well a transport family satisfies its structural contract.

    The covariance is q = diag(<ramp_x>^2, <ramp_y>^2) with cell averages
    <.> of the full ramps; its off-diagonal vanishes by construction.
    """
    grid = sigma.grid
    w = sigma.cutoff_width
    block = sigma.interior
    ramp_x, ramp_y = full_ramps(sigma)
    # div sigma_1 = d_x ramp_x and div sigma_2 = d_y ramp_y
    div1 = np.diff(ramp_x, axis=0) / grid.dx
    div2 = np.diff(ramp_y, axis=1) / grid.dy
    qxx = (0.5 * (ramp_x[:-1, :] + ramp_x[1:, :])) ** 2
    qyy = (0.5 * (ramp_y[:, :-1] + ramp_y[:, 1:])) ** 2
    max_div = q_dev = 0.0
    if qxx[block].size:
        max_div = max(float(np.max(np.abs(div1[block]))),
                      float(np.max(np.abs(div2[block]))))
        q_dev = max(float(np.max(np.abs(qxx[block] - 1.0))),
                    float(np.max(np.abs(qyy[block] - 1.0))))
    dxf, dyf = face_distances(grid)
    violations = (int(np.count_nonzero(ramp_x[dxf <= w]))
                  + int(np.count_nonzero(ramp_y[dyf <= w])))
    return AssumptionReport(max_interior_divergence=max_div,
                            boundary_zero_violations=violations,
                            max_q_deviation=q_dev)


def velocity_modes(cfg: VelocityNoiseConfig) -> tuple[VectorField, ...]:
    """The forcing's unit modes as full face fields: the stream_function_curl
    of each mode number, divided by its norm as a field."""
    g = cfg.grid
    modes = []
    for a, b in _stream_mode_numbers(cfg.n_modes, g.nx, g.ny):
        v = stream_function_curl(g, a, b)
        v_norm = norm(v, "L2")
        modes.append(VectorField(g, v.u_x / v_norm, v.u_y / v_norm))
    return tuple(modes)


def g_hilbert_schmidt(cfg: VelocityNoiseConfig, u: VectorField) -> float:
    """Hilbert-Schmidt norm of the forcing operator at the given state."""
    s = math.sqrt(float(sum((lam * norm(m, "L2")) ** 2 for lam, m in
                            zip(cfg.lambdas, velocity_modes(cfg)))))
    return g_scale(u, cfg) * s


def velocity_growth_constant(cfg: VelocityNoiseConfig) -> float:
    """L_g of the forcing's growth condition, amplitude (1 + |gain|)
    sqrt(sum lambda^2): bounds its Hilbert-Schmidt norm at every state."""
    hs_unit = math.sqrt(float(np.sum(cfg.lambdas ** 2)))
    return cfg.amplitude * (1.0 + abs(cfg.multiplicative_gain)) * hs_unit


def entropy_functional(state, params, c0_linf: float) -> float:
    """Nonnegative Lyapunov functional: cell entropy plus weighted energies
    plus the e^{-1}|O| offset that makes x ln x integrable from below."""
    min_n = float(state.n.values.min())
    if min_n < -1e-13:
        raise ValueError(f"entropy functional needs n >= 0, min n = {min_n:g}")
    return float(_entropy(params, compute_kf(params, c0_linf), c0_linf,
                          _nlogn(state.n), norm(state.c, "H1_semi") ** 2,
                          norm(state.u, "L2") ** 2))


def energy_identity_residual(series: list[DiagnosticsRow]) -> float:
    """Worst normalized defect of the oxygen energy identity over the rows
    of a run."""
    vals = column(series, "energy_residual")
    return float(np.max(np.abs(vals))) if len(vals) else 0.0


def envelope_rate(report) -> float:
    """Smallest G with Y(t) <= Y(0) exp(G t) over a TwinReport's samples."""
    times, ys = report.times, report.separation
    later = (ys > 0.0) & (times > 0.0)
    if ys[0] > 0.0 and later.any():
        return float(np.max(np.log(ys[later] / ys[0]) / times[later]))
    return 0.0


def bounded_by_exponential(report) -> bool:
    """True when a TwinReport's separation stays under Y(0) exp(G t), G its
    envelope rate."""
    if report.separation[0] == 0.0:
        return bool(np.all(report.separation == 0.0))
    caps = report.separation[0] * np.exp(envelope_rate(report) * report.times)
    return bool(np.all(report.separation <= caps * (1.0 + 1e-9) + 1e-300))
