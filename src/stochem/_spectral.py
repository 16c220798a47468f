"""Direct spectral solvers for the constant-coefficient elliptic systems.

Cell-centered scalars with homogeneous Neumann walls diagonalize under the
type-2 cosine transform; the flux-form five-point Laplacian has eigenvalues
-(2/dx^2)(1 - cos(pi i/nx)) - (2/dy^2)(1 - cos(pi j/ny)) on that basis, exactly.
Velocity components with no-slip walls diagonalize under a sine transform:
type 1 along the component's own direction (Dirichlet on boundary faces) and
type 2 across it (reflected ghost, zero tangential velocity at the wall).
Every transform runs on the last two axes, so a stack of lanes is solved in
one call, each lane bitwise as if it were solved alone.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn, dst, idst

from .grid import LANE_REDUCE, Grid, ScalarField, VectorField, per_lane


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Nonnegative eigenvalues of minus the Neumann Laplacian, shape (nx, ny)."""
    lx = (2.0 / grid.dx ** 2) * (1.0 - np.cos(np.pi * np.arange(grid.nx) / grid.nx))
    ly = (2.0 / grid.dy ** 2) * (1.0 - np.cos(np.pi * np.arange(grid.ny) / grid.ny))
    return lx[:, None] + ly[None, :]


def solve_poisson_neumann(grid: Grid, rhs: np.ndarray):
    """Solve lap(p) = rhs with zero-flux walls; the mean of p is pinned to zero.

    The compatible part of rhs is solved exactly; any mean component (absent
    for divergence data up to round-off) is dropped and reported.

    Returns (p_values, info) where info carries the dropped-mean magnitude,
    per lane.
    """
    lam = neumann_eigenvalues(grid)
    rhat = dctn(rhs, type=2, norm="ortho", axes=LANE_REDUCE)
    dropped = per_lane(np.abs(rhat[..., 0, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        phat = np.where(lam > 0.0, -rhat / lam, 0.0)
    phat[..., 0, 0] = 0.0
    p = idctn(phat, type=2, norm="ortho", axes=LANE_REDUCE)
    return p, {"dropped_mean": dropped}


def solve_scalar_diffusion(grid: Grid, rhs: ScalarField, coef: float) -> ScalarField:
    """Solve (I - coef*lap) c = rhs with Neumann walls; exact direct solve.

    coef = dt * diffusivity.  The zero mode passes through with factor one, so
    the field mean (and hence total mass) is preserved to round-off.
    """
    if coef == 0.0:
        return rhs.copy()
    lam = neumann_eigenvalues(grid)
    rhat = dctn(rhs.values, type=2, norm="ortho", axes=LANE_REDUCE)
    chat = rhat / (1.0 + coef * lam)
    out = idctn(chat, type=2, norm="ortho", axes=LANE_REDUCE)
    # the exact solve preserves the zero mode; pin it so the transform
    # round-trip cannot leak mass
    out += (rhs.values.mean(axis=LANE_REDUCE)
            - out.mean(axis=LANE_REDUCE))[..., None, None]
    return ScalarField(grid, out)


def _dirichlet_face_eigenvalues(n: int, h: float) -> np.ndarray:
    # DST-I modes sin(pi k i / n), k = 1..n-1, on the n-1 interior faces
    k = np.arange(1, n)
    return (2.0 / h ** 2) * (1.0 - np.cos(np.pi * k / n))


def _wall_offset_eigenvalues(n: int, h: float) -> np.ndarray:
    # DST-II modes sin(pi (k+1) (j+1/2) / n); reflected ghost is built in
    k = np.arange(1, n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(np.pi * k / n))


def solve_velocity_diffusion(grid: Grid, rhs: VectorField, coef: float) -> VectorField:
    """Solve (I - coef*lap) u = rhs componentwise with no-slip walls.

    Wall-normal boundary faces stay exactly zero; the tangential ghost
    reflection of the stencil is what the DST-II direction encodes.
    """
    out_x = np.zeros_like(rhs.u_x)
    out_y = np.zeros_like(rhs.u_y)
    if coef == 0.0:
        out_x[..., 1:-1, :] = rhs.u_x[..., 1:-1, :]
        out_y[..., 1:-1] = rhs.u_y[..., 1:-1]
        return VectorField(grid, out_x, out_y)

    lam_x = (_dirichlet_face_eigenvalues(grid.nx, grid.dx)[:, None]
             + _wall_offset_eigenvalues(grid.ny, grid.dy)[None, :])
    bx = rhs.u_x[..., 1:-1, :]
    bhat = dst(dst(bx, type=1, axis=-2, norm="ortho"), type=2, axis=-1,
               norm="ortho")
    bhat /= (1.0 + coef * lam_x)
    out_x[..., 1:-1, :] = idst(idst(bhat, type=2, axis=-1, norm="ortho"),
                               type=1, axis=-2, norm="ortho")

    lam_y = (_wall_offset_eigenvalues(grid.nx, grid.dx)[:, None]
             + _dirichlet_face_eigenvalues(grid.ny, grid.dy)[None, :])
    by = rhs.u_y[..., 1:-1]
    bhat = dst(dst(by, type=2, axis=-2, norm="ortho"), type=1, axis=-1,
               norm="ortho")
    bhat /= (1.0 + coef * lam_y)
    out_y[..., 1:-1] = idst(idst(bhat, type=1, axis=-1, norm="ortho"),
                            type=2, axis=-2, norm="ortho")
    return VectorField(grid, out_x, out_y)
