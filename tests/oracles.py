"""Independent reference solvers the package itself does not need.

The conjugate-gradient Neumann-Poisson solve cross-checks the direct cosine
transform path; ``recover_pressure`` reconstructs the diagnostic pressure of
a state, which the time stepper never uses; the ``textbook_*`` solves are
the spectral solves without cached divisors; ``sample_law`` finds a
consumption law's extremes by sampling, where the gate reads them off the
law's values at the interval's right end.
"""

import numpy as np
from scipy.fft import dctn, dst, idctn, idst
from scipy.sparse.linalg import LinearOperator, cg

from stochem import _spectral
from stochem.grid import LANE_REDUCE, ScalarField, divergence, zeros_vector
from stochem.operators import buoyancy, convect_velocity, stokes_apply

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
