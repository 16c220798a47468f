"""Direct spectral solvers for the constant-coefficient elliptic systems.

Cell-centered scalars with homogeneous Neumann walls diagonalize under the
type-2 cosine transform; the flux-form five-point Laplacian has eigenvalues
-(2/dx^2)(1 - cos(pi i/nx)) - (2/dy^2)(1 - cos(pi j/ny)) on that basis, exactly.
Velocity components with no-slip walls diagonalize under a sine transform:
type 1 along the component's own direction (Dirichlet on boundary faces) and
type 2 across it (reflected ghost, zero tangential velocity at the wall).
Every transform runs on the last two axes, so a stack of lanes is solved in
one call, each lane bitwise as if it were solved alone.

The arrays a solve divides by form its plan, built on first use and cached:
per grid the Poisson divisor (the eigenvalues with the zero mode set to one,
so no entry is zero), and per (grid, coef) one table
1 + coef*(lambda_x[k] + lambda_y[l]) over the wavenumbers k = 0..nx and
l = 0..ny.  Every diffusion solve divides by a view of that table: the
cosine modes [:nx, :ny] for a scalar, and the sine modes [1:nx, 1:] and
[1:, 1:ny] for the two velocity components, so each coefficient holds one
array of (nx + 1)(ny + 1) numbers whichever solves use it.  A fixed-step run
builds one table per coefficient; a landing step adds one more per
coefficient.  Plans are read-only, so threads share them.  A solve never
writes into its right-hand side: a transform overwrites only an array that
an earlier transform of the same solve allocated.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn, dst, idst

from .grid import LANE_REDUCE, Grid, ScalarField, VectorField, per_lane

PLAN_CACHE_SIZE = 32   # plans kept per kind; a study's dt ladder needs a few


def _eigenvalues(k: np.ndarray, n: int, h: float) -> np.ndarray:
    """(2/h^2)(1 - cos(pi k/n)), mode k of minus the 3-point Laplacian."""
    return (2.0 / h ** 2) * (1.0 - np.cos(np.pi * k / n))


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Nonnegative eigenvalues of minus the Neumann Laplacian, shape (nx, ny)."""
    lx = _eigenvalues(np.arange(grid.nx), grid.nx, grid.dx)
    ly = _eigenvalues(np.arange(grid.ny), grid.ny, grid.dy)
    return lx[:, None] + ly[None, :]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _poisson_divisor(grid: Grid) -> np.ndarray:
    divisor = neumann_eigenvalues(grid)
    divisor[0, 0] = 1.0   # the zero mode is dropped, not divided
    return _read_only(divisor)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _diffusion_table(grid: Grid, coef: float) -> np.ndarray:
    """1 + coef*(lambda_x[k] + lambda_y[l]) for k = 0..nx, l = 0..ny: the
    DCT-II modes 0..n-1, the DST-I modes 1..n-1 and the DST-II modes 1..n
    of either axis are all among them."""
    lx = _eigenvalues(np.arange(grid.nx + 1), grid.nx, grid.dx)
    ly = _eigenvalues(np.arange(grid.ny + 1), grid.ny, grid.dy)
    table = lx[:, None] + ly[None, :]
    table *= coef
    table += 1.0
    return _read_only(table)


def solve_poisson_neumann(grid: Grid, rhs: np.ndarray):
    """Solve lap(p) = rhs with zero-flux walls; the mean of p is pinned to zero.

    The compatible part of rhs is solved exactly; any mean component (absent
    for divergence data up to round-off) is dropped and reported.

    Returns (p_values, info) where info carries the dropped-mean magnitude,
    per lane.
    """
    rhat = dctn(rhs, type=2, norm="ortho", axes=LANE_REDUCE)
    dropped = per_lane(np.abs(rhat[..., 0, 0]))
    phat = np.negative(rhat, out=rhat)
    phat /= _poisson_divisor(grid)
    phat[..., 0, 0] = 0.0
    p = idctn(phat, type=2, norm="ortho", axes=LANE_REDUCE, overwrite_x=True)
    return p, {"dropped_mean": dropped}


def solve_scalar_diffusion(grid: Grid, rhs: ScalarField, coef: float) -> ScalarField:
    """Solve (I - coef*lap) c = rhs with Neumann walls; exact direct solve.

    coef = dt * diffusivity.  The zero mode passes through with factor one, so
    the field mean (and hence total mass) is preserved to round-off.
    """
    if coef == 0.0:
        return rhs.copy()
    chat = dctn(rhs.values, type=2, norm="ortho", axes=LANE_REDUCE)
    chat /= _diffusion_table(grid, coef)[:grid.nx, :grid.ny]
    out = idctn(chat, type=2, norm="ortho", axes=LANE_REDUCE, overwrite_x=True)
    # the exact solve preserves the zero mode; pin it so the transform
    # round-trip cannot leak mass
    out += (rhs.values.mean(axis=LANE_REDUCE)
            - out.mean(axis=LANE_REDUCE))[..., None, None]
    return ScalarField(grid, out)


def solve_velocity_diffusion(grid: Grid, rhs: VectorField, coef: float) -> VectorField:
    """Solve (I - coef*lap) u = rhs componentwise with no-slip walls.

    Wall-normal boundary faces stay exactly zero; the tangential ghost
    reflection of the stencil is what the DST-II direction encodes.
    """
    table = _diffusion_table(grid, coef)
    # DST-I modes 1..n-1 on the n-1 interior faces along a component's own
    # axis; DST-II modes 1..n, reflected ghost built in, across it
    den_x, den_y = table[1:grid.nx, 1:], table[1:, 1:grid.ny]
    out_x = np.zeros_like(rhs.u_x)
    out_x[..., 1:-1, :] = _sine_solve(rhs.u_x[..., 1:-1, :], den_x, 1, 2)
    out_y = np.zeros_like(rhs.u_y)
    out_y[..., 1:-1] = _sine_solve(rhs.u_y[..., 1:-1], den_y, 2, 1)
    return VectorField(grid, out_x, out_y)


def _sine_solve(interior: np.ndarray, den: np.ndarray, type_x: int,
                type_y: int) -> np.ndarray:
    """Divide the sine transform (type_x along x, then type_y along y) of a
    component's interior faces by den and transform back, in the array the
    first transform allocated."""
    bhat = dst(dst(interior, type=type_x, axis=-2, norm="ortho"),
               type=type_y, axis=-1, norm="ortho", overwrite_x=True)
    bhat /= den
    return idst(idst(bhat, type=type_y, axis=-1, norm="ortho", overwrite_x=True),
                type=type_x, axis=-2, norm="ortho", overwrite_x=True)
