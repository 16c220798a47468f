import numpy as np
import pytest

from dataclasses import replace

from stochem import dynamics
from stochem.dynamics import (CflError, SimulationError, State, linear_consumption,
                              run, saturating_consumption, stable_dt, step)
from stochem.experiments import twin_run
from stochem.grid import (ScalarField, VectorField, make_grid, norm,
                          scalar_from_function, zeros_vector)
from stochem.noise import sample_increments

from conftest import default_params, quiescent_state, random_scalar, \
    random_solenoidal


def test_consumption_law_validation():
    linear_consumption().validate(1.0)
    saturating_consumption().validate(1.0)
    bad = linear_consumption()
    bad = type(bad)(eval=lambda c: c ** 2, deriv=lambda c: 2 * c, name="square")
    bad.validate(1.0)  # f = c^2 passes pointwise positivity
    worse = type(bad)(eval=lambda c: c - 0.5, deriv=lambda c: np.ones_like(c),
                      name="affine")
    with pytest.raises(ValueError):
        worse.validate(1.0)


def test_quiescent_uniform_state_is_fixed_point():
    # all fluxes vanish; the uptake vanishes because f(0) = 0
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=2.0, c=0.0)
    inc = sample_increments(0, 0, 0, 1e-3, params.vnoise.n_modes)
    new, rep = step(st, params, inc, 1e-3)
    assert np.max(np.abs(new.n.values - 2.0)) < 1e-14
    assert np.max(np.abs(new.c.values)) < 1e-14
    assert norm(new.u, "Linf") < 1e-14
    assert rep.clip_count == 0
    # and with zero density, a uniform positive oxygen level also rests
    st = quiescent_state(g, n=0.0, c=0.7)
    new, _ = step(st, params, inc, 1e-3)
    assert np.max(np.abs(new.c.values - 0.7)) < 1e-14


def test_step_conserves_mass(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    y = (np.arange(32)[None, :] + 0.5) * g.dy * np.ones((32, 1))
    params = default_params(g, gamma=0.1, amplitude=0.05, phi_values=y)
    st = State(u=random_solenoidal(g, rng, 0.1),
               c=ScalarField(g, 0.05 + 0.2 * y),
               n=random_scalar(g, rng, positive=True), t=0.0)
    inc = sample_increments(3, 0, 0, 5e-4, params.vnoise.n_modes)
    before = float(np.sum(st.n.values)) * g.cell_volume
    new, _ = step(st, params, inc, 5e-4)
    after = float(np.sum(new.n.values)) * g.cell_volume
    assert abs(after - before) <= 1e-13 * before


def test_step_rejects_cfl_violation(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.0, c=0.0)
    st.u.u_x[5, 5] = 50.0
    with pytest.raises(CflError):
        step(st, params, sample_increments(0, 0, 0, 0.05, 4), 0.05)


def test_stable_dt_scaling(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.0, c=0.0)
    assert stable_dt(st, params) == params.dt_max
    st.u.u_x[5, 5] = 1.0
    base = stable_dt(st, params)
    st.u.u_x[5, 5] = 2.0
    assert stable_dt(st, params) == pytest.approx(base / 2.0, rel=1e-12)
    plume = State(u=random_solenoidal(g, rng, 0.3),
                  c=random_scalar(g, rng, positive=True, scale=0.1),
                  n=random_scalar(g, rng, positive=True), t=0.0)
    dt = stable_dt(plume, params)
    assert 0.0 < dt < params.dt_max


# ------------------------------------------------------------ dense oracle

def _dense_neumann_solve(grid, rhs_vals, coef):
    from test_spectral import dense_neumann_laplacian
    a = np.eye(grid.nx * grid.ny) - coef * dense_neumann_laplacian(grid)
    return np.linalg.solve(a, rhs_vals.ravel()).reshape(grid.nx, grid.ny)


def _oracle_step(state, params, dt):
    """Loop/dense implementation of one deterministic step (gamma = eps = 0)."""
    from test_operators import dense_flux_advection, dense_skew_convection_x
    from test_spectral import dense_neumann_laplacian, dense_velocity_systems
    g = state.u.grid
    dx, dy = g.dx, g.dy
    n, c, u = state.n.values, state.c.values, state.u

    # density update
    adv_n = dense_flux_advection(u, state.n, upwind=True)
    chemo = np.zeros_like(n)
    for i in range(g.nx):
        for j in range(g.ny):
            fe = fw = fn = fs = 0.0
            if i + 1 <= g.nx - 1:
                grad = (c[i + 1, j] - c[i, j]) / dx
                fe = params.chi * grad * (n[i, j] if grad > 0 else n[i + 1, j])
            if i - 1 >= 0:
                grad = (c[i, j] - c[i - 1, j]) / dx
                fw = params.chi * grad * (n[i - 1, j] if grad > 0 else n[i, j])
            if j + 1 <= g.ny - 1:
                grad = (c[i, j + 1] - c[i, j]) / dy
                fn = params.chi * grad * (n[i, j] if grad > 0 else n[i, j + 1])
            if j - 1 >= 0:
                grad = (c[i, j] - c[i, j - 1]) / dy
                fs = params.chi * grad * (n[i, j - 1] if grad > 0 else n[i, j])
            chemo[i, j] = (fe - fw) / dx + (fn - fs) / dy
    n_star = n - dt * (adv_n + chemo)
    n_new = _dense_neumann_solve(g, n_star, dt * params.delta)

    # oxygen update (correction mode "discrete": the solve carries mu)
    adv_c = dense_flux_advection(u, state.c, upwind=True)
    c_adv = c - dt * adv_c
    uptake = dt * n_new * params.f.eval(c)
    c_star = c_adv - np.minimum(uptake, np.maximum(c_adv, 0.0))
    c_new = _dense_neumann_solve(g, c_star, dt * params.mu)

    # velocity update
    conv_x = dense_skew_convection_x(u, u)
    swapped = VectorField(g, u.u_y.T.copy(), u.u_x.T.copy())
    conv_y = dense_skew_convection_x(swapped, swapped).T
    phi = params.phi.values
    buoy_x = np.zeros_like(u.u_x)
    buoy_y = np.zeros_like(u.u_y)
    for i in range(1, g.nx):
        for j in range(g.ny):
            buoy_x[i, j] = 0.5 * (n_new[i - 1, j] + n_new[i, j]) \
                * (phi[i, j] - phi[i - 1, j]) / dx
    for i in range(g.nx):
        for j in range(1, g.ny):
            buoy_y[i, j] = 0.5 * (n_new[i, j - 1] + n_new[i, j]) \
                * (phi[i, j] - phi[i, j - 1]) / dy
    star_x = u.u_x + dt * (buoy_x - conv_x)
    star_y = u.u_y + dt * (buoy_y - conv_y)
    ax, ay = dense_velocity_systems(g, dt * params.eta)
    mid_x = np.zeros_like(star_x)
    mid_y = np.zeros_like(star_y)
    mid_x[1:-1, :] = np.linalg.solve(ax, star_x[1:-1, :].ravel()) \
        .reshape(g.nx - 1, g.ny)
    mid_y[:, 1:-1] = np.linalg.solve(ay, star_y[:, 1:-1].ravel()) \
        .reshape(g.nx, g.ny - 1)
    div = (mid_x[1:, :] - mid_x[:-1, :]) / dx + (mid_y[:, 1:] - mid_y[:, :-1]) / dy
    a = dense_neumann_laplacian(g)
    p, *_ = np.linalg.lstsq(a, div.ravel(), rcond=None)
    p = p.reshape(g.nx, g.ny)
    u_new_x = mid_x.copy()
    u_new_y = mid_y.copy()
    u_new_x[1:-1, :] -= (p[1:, :] - p[:-1, :]) / dx
    u_new_y[:, 1:-1] -= (p[:, 1:] - p[:, :-1]) / dy
    return u_new_x, u_new_y, c_new, n_new


def test_single_step_matches_dense_oracle(rng):
    g = make_grid(4, 4, 1.0, 1.0)
    x, y = np.meshgrid((np.arange(4) + 0.5) * g.dx, (np.arange(4) + 0.5) * g.dy,
                       indexing="ij")
    params = default_params(g, eta=0.7, mu=0.9, delta=1.1, chi=0.8,
                            phi_values=0.3 * y + 0.1 * x)
    st = State(u=random_solenoidal(g, rng, 0.2),
               c=random_scalar(g, rng, positive=True, scale=0.1),
               n=random_scalar(g, rng, positive=True), t=0.0)
    dt = 1e-3
    inc = sample_increments(0, 0, 0, dt, params.vnoise.n_modes)
    new, _ = step(st, params, inc, dt)
    ox, oy, oc, on = _oracle_step(st, params, dt)
    scale = max(norm(st.u, "Linf"), norm(st.n, "Linf"), 1.0)
    assert np.max(np.abs(new.n.values - on)) < 1e-13 * scale
    assert np.max(np.abs(new.c.values - oc)) < 1e-13 * scale
    assert np.max(np.abs(new.u.u_x - ox)) < 1e-13 * scale
    assert np.max(np.abs(new.u.u_y - oy)) < 1e-13 * scale


# ------------------------------------------------------------ run semantics

def _reference_setup(nx=32, gamma=0.1, amplitude=0.02):
    g = make_grid(nx, nx, 1.0, 1.0)
    x, y = np.meshgrid((np.arange(nx) + 0.5) * g.dx, (np.arange(nx) + 0.5) * g.dy,
                       indexing="ij")
    params = default_params(g, gamma=gamma, amplitude=amplitude, phi_values=y)
    rng = np.random.default_rng(5)
    st = State(u=random_solenoidal(g, rng, 0.15),
               c=ScalarField(g, 0.05 + 0.25 * y),
               n=ScalarField(g, 0.05 + np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2)
                                              / 0.03)),
               t=0.0)
    return params, st


def test_run_zero_span_returns_initial():
    params, st = _reference_setup()
    final, series = run(st, params, 0.0, 1e-3, seed=1)
    assert final.t == 0.0
    assert len(series) == 1
    assert np.array_equal(final.n.values, st.n.values)


def test_run_is_bitwise_reproducible():
    params, st = _reference_setup()
    f1, s1 = run(st, params, 0.02, 1e-3, seed=77, sample_every=5)
    f2, s2 = run(st, params, 0.02, 1e-3, seed=77, sample_every=5)
    assert np.array_equal(f1.c.values, f2.c.values)
    assert np.array_equal(f1.u.u_x, f2.u.u_x)
    for a, b in zip(s1, s2):
        assert a.entropy == b.entropy
        assert a.energy_residual == b.energy_residual
    f3, _ = run(st, params, 0.02, 1e-3, seed=78, sample_every=5)
    assert not np.array_equal(f3.c.values, f1.c.values)


def test_run_lands_exactly_on_t_end():
    params, st = _reference_setup()
    final, series = run(st, params, 0.0105, 1e-3, seed=2)
    assert final.t == pytest.approx(0.0105, abs=1e-15)
    assert series.rows[-1].step == 11   # ten full steps plus the landing step


def test_run_positivity_and_max_principle():
    params, st = _reference_setup()
    final, series = run(st, params, 0.1, 1e-3, seed=9, sample_every=10)
    assert series.column("min_n").min() >= 0.0
    assert series.column("clip_count").sum() == 0
    c0max = series.column("max_c")[0]
    assert series.column("max_c").max() <= c0max * (1.0 + 1e-10)
    assert series.column("div_residual").max() < 1e-10


def test_run_propagates_failures_with_step_index():
    params, st = _reference_setup()
    st.u.u_x[5, 5] = 80.0   # forces a CFL rejection at the first step
    with pytest.raises(SimulationError) as err:
        run(st, params, 0.01, 1e-3, seed=0)
    assert err.value.step_index == 1


def _nan_at_step_three(seed, replica, index, dt, k_modes):
    inc = sample_increments(seed, replica, index, dt, k_modes)
    return replace(inc, dbeta=np.full(2, np.nan)) if index == 2 else inc


def test_run_stops_on_non_finite_state():
    # a NaN increment passes stable_dt (min(dt_max, safety / nan) = dt_max),
    # so only the per-step finiteness check stops the run, at its step
    params, st = _reference_setup()
    k = params.vnoise.n_modes
    with pytest.raises(SimulationError, match="field c is not finite") as err:
        run(st, params, 0.01, 1e-3, seed=4, sample_every=5,
            increments=lambda i, dt: _nan_at_step_three(4, 0, i, dt, k))
    assert err.value.step_index == 3


def test_twin_run_stops_on_non_finite_state(monkeypatch):
    params, st = _reference_setup()
    monkeypatch.setattr(dynamics, "sample_increments", _nan_at_step_three)
    with pytest.raises(SimulationError, match="field c is not finite") as err:
        twin_run(params, st, 4, 1e-6, 0.01, 1e-3)
    assert err.value.step_index == 3


def test_deterministic_dt_self_convergence():
    params, st = _reference_setup(gamma=0.0, amplitude=0.0)
    t_end = 0.032
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        f, _ = run(st, params, t_end, dt, seed=0)
        finals.append(f)
    e1 = np.sqrt(np.sum((finals[0].c.values - finals[2].c.values) ** 2))
    e2 = np.sqrt(np.sum((finals[1].c.values - finals[2].c.values) ** 2))
    order = np.log2(e1 / e2)
    assert order > 0.9


def _restrict(values):
    return 0.25 * (values[0::2, 0::2] + values[1::2, 0::2]
                   + values[0::2, 1::2] + values[1::2, 1::2])


def test_grid_self_convergence_on_smooth_data():
    # same smooth data sampled on 16/32/64 grids, same dt so the remaining
    # differences are spatial; the upwind chemotactic flux limits the order
    # to one, and refinement must achieve at least that
    results = {}
    for nx in (16, 32, 64):
        g = make_grid(nx, nx, 1.0, 1.0)
        params = default_params(g, gamma=0.0, amplitude=0.0)
        c0 = scalar_from_function(
            g, lambda x, y: 0.1 + 0.05 * np.cos(np.pi * x) * np.cos(np.pi * y))
        n0 = scalar_from_function(
            g, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * y))
        st = State(u=zeros_vector(g), c=c0, n=n0, t=0.0)
        f, _ = run(st, params, 0.05, 5e-4, seed=0)
        results[nx] = f.n.values
    e_coarse = np.sqrt(np.mean((_restrict(results[32]) - results[16]) ** 2))
    e_fine = np.sqrt(np.mean((_restrict(results[64]) - results[32]) ** 2))
    order = np.log2(e_coarse / e_fine)
    assert order >= 0.9
