"""The fast solvers against dense assemblies of the same linear systems."""

import warnings

import numpy as np
import pytest

from stochem import _spectral
from stochem._spectral import (solve_poisson_neumann, solve_scalar_diffusion,
                               solve_velocity_diffusion)
from stochem.grid import ScalarField, VectorField, make_grid

from conftest import random_scalar, random_vector
from oracles import (solve_poisson_cg, textbook_poisson_neumann,
                     textbook_scalar_diffusion, textbook_velocity_diffusion)


def dense_neumann_laplacian(grid):
    nx, ny = grid.nx, grid.ny
    n = nx * ny
    a = np.zeros((n, n))

    def idx(i, j):
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            row = idx(i, j)
            for di, dj, h2 in ((1, 0, grid.dx ** 2), (-1, 0, grid.dx ** 2),
                               (0, 1, grid.dy ** 2), (0, -1, grid.dy ** 2)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    a[row, idx(ii, jj)] += 1.0 / h2
                    a[row, row] -= 1.0 / h2
    return a


def test_poisson_dct_matches_dense_lstsq(rng):
    g = make_grid(8, 6, 1.0, 1.3)
    rhs = random_scalar(g, rng).values
    rhs -= rhs.mean()
    p_fast, info = solve_poisson_neumann(g, rhs)
    a = dense_neumann_laplacian(g)
    p_dense, *_ = np.linalg.lstsq(a, rhs.ravel(), rcond=None)
    p_dense = p_dense.reshape(g.nx, g.ny)
    p_dense -= p_dense.mean()
    assert np.max(np.abs(p_fast - p_dense)) < 1e-11
    assert info["dropped_mean"] < 1e-12


def test_poisson_cg_matches_dct(rng):
    g = make_grid(12, 12, 1.0, 1.0)
    rhs = random_scalar(g, rng).values
    rhs -= rhs.mean()
    p_fast, _ = solve_poisson_neumann(g, rhs)
    p_cg, iterations = solve_poisson_cg(g, rhs)
    assert iterations > 0
    assert np.max(np.abs(p_fast - p_cg)) < 1e-9


def test_scalar_diffusion_solver_exact(rng):
    g = make_grid(7, 9, 1.1, 0.9)
    rhs = random_scalar(g, rng)
    coef = 0.37
    sol = solve_scalar_diffusion(g, rhs, coef)
    a = np.eye(g.nx * g.ny) - coef * dense_neumann_laplacian(g)
    ref = np.linalg.solve(a, rhs.values.ravel()).reshape(g.nx, g.ny)
    assert np.max(np.abs(sol.values - ref)) < 1e-12


def test_scalar_diffusion_preserves_mean(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    rhs = random_scalar(g, rng)
    sol = solve_scalar_diffusion(g, rhs, 1.7)
    assert sol.values.mean() == pytest.approx(rhs.values.mean(), abs=1e-15)


def dense_velocity_systems(grid, coef):
    """Assemble (I - coef*lap) for each component with no-slip conventions.

    Along the component's own axis the boundary faces are Dirichlet zeros;
    across it the wall ghost reflects (u_ghost = -u_first), which turns the
    usual 2 on the diagonal into a 3 at wall-adjacent rows.
    """
    nx, ny = grid.nx, grid.ny
    dx2, dy2 = grid.dx ** 2, grid.dy ** 2

    def assemble(m_along, m_across, h2_along, h2_across):
        size = m_along * m_across
        a = np.eye(size)
        for i in range(m_along):
            for j in range(m_across):
                row = i * m_across + j
                a[row, row] += coef * 2.0 / h2_along
                if i > 0:
                    a[row, row - m_across] -= coef / h2_along
                if i < m_along - 1:
                    a[row, row + m_across] -= coef / h2_along
                a[row, row] += coef * (3.0 if j in (0, m_across - 1) else 2.0) / h2_across
                if j > 0:
                    a[row, row - 1] -= coef / h2_across
                if j < m_across - 1:
                    a[row, row + 1] -= coef / h2_across
        return a

    # u_x: along = x (nx-1 interior faces), across = y (ny cells)
    ax = assemble(nx - 1, ny, dx2, dy2)
    # u_y: along = y (ny-1 interior faces), across = x (nx cells); note the
    # ordering below keeps (i, j) -> i*(ny-1)+j row-major like the field
    my = nx * (ny - 1)
    ay = np.eye(my)
    for i in range(nx):
        for j in range(ny - 1):
            row = i * (ny - 1) + j
            ay[row, row] += coef * 2.0 / dy2
            if j > 0:
                ay[row, row - 1] -= coef / dy2
            if j < ny - 2:
                ay[row, row + 1] -= coef / dy2
            ay[row, row] += coef * (3.0 if i in (0, nx - 1) else 2.0) / dx2
            if i > 0:
                ay[row, row - (ny - 1)] -= coef / dx2
            if i < nx - 1:
                ay[row, row + (ny - 1)] -= coef / dx2
    return ax, ay


def test_velocity_diffusion_solver_matches_dense(rng):
    g = make_grid(6, 5, 1.0, 0.8)
    rhs = random_vector(g, rng)
    coef = 0.21
    sol = solve_velocity_diffusion(g, rhs, coef)
    ax, ay = dense_velocity_systems(g, coef)
    ref_x = np.linalg.solve(ax, rhs.u_x[1:-1, :].ravel()).reshape(g.nx - 1, g.ny)
    ref_y = np.linalg.solve(ay, rhs.u_y[:, 1:-1].ravel()).reshape(g.nx, g.ny - 1)
    assert np.max(np.abs(sol.u_x[1:-1, :] - ref_x)) < 1e-12
    assert np.max(np.abs(sol.u_y[:, 1:-1] - ref_y)) < 1e-12
    assert np.all(sol.u_x[0, :] == 0.0) and np.all(sol.u_x[-1, :] == 0.0)
    assert np.all(sol.u_y[:, 0] == 0.0) and np.all(sol.u_y[:, -1] == 0.0)


# ------------------------------------------------------------ cached plans

@pytest.mark.parametrize("lanes", [(), (3,)])
def test_planned_solves_match_textbook_bitwise(rng, lanes):
    g = make_grid(12, 10, 1.0, 0.7)
    rhs = rng.standard_normal(lanes + (g.nx, g.ny))
    p, _ = solve_poisson_neumann(g, rhs)
    assert np.array_equal(p, textbook_poisson_neumann(g, rhs))
    for coef in (0.37, 1e-3):
        out = solve_scalar_diffusion(g, ScalarField(g, rhs), coef)
        assert np.array_equal(out.values,
                              textbook_scalar_diffusion(g, rhs, coef))
        u_x = rng.standard_normal(lanes + (g.nx + 1, g.ny))
        u_y = rng.standard_normal(lanes + (g.nx, g.ny + 1))
        out = solve_velocity_diffusion(g, VectorField(g, u_x, u_y), coef)
        ref_x, ref_y = textbook_velocity_diffusion(g, u_x, u_y, coef)
        assert np.array_equal(out.u_x, ref_x)
        assert np.array_equal(out.u_y, ref_y)


def test_planned_solves_leave_their_inputs_alone(rng):
    g = make_grid(8, 8, 1.0, 1.0)
    rhs = rng.standard_normal((2, g.nx, g.ny))
    v = random_vector(g, rng)
    kept = rhs.copy(), v.u_x.copy(), v.u_y.copy()
    solve_poisson_neumann(g, rhs)
    solve_scalar_diffusion(g, ScalarField(g, rhs), 0.5)
    solve_velocity_diffusion(g, v, 0.5)
    for before, after in zip(kept, (rhs, v.u_x, v.u_y)):
        assert np.array_equal(before, after)


def test_poisson_divide_raises_no_warning(rng):
    g = make_grid(9, 7, 1.0, 1.0)
    rhs = rng.standard_normal((g.nx, g.ny))   # with a mean component
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        _, info = solve_poisson_neumann(g, rhs)
    assert info["dropped_mean"] > 0.0


def test_plans_are_read_only():
    # the Poisson divisor, one coefficient's table and the views of it that
    # the scalar and the two velocity solves divide by
    g = make_grid(8, 6, 1.0, 1.0)
    table = _spectral._diffusion_table(g, 0.1)
    assert table.shape == (g.nx + 1, g.ny + 1)
    plans = [_spectral._poisson_divisor(g), table, table[:g.nx, :g.ny],
             table[1:g.nx, 1:], table[1:, 1:g.ny]]
    for plan in plans:
        assert not plan.flags.writeable
        with pytest.raises(ValueError):
            plan[0, 0] = 2.0
    assert _spectral._poisson_divisor(g)[0, 0] == 1.0
    assert _spectral._diffusion_table(g, 0.1)[0, 0] == 1.0
