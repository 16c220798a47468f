import tracemalloc

import numpy as np
import pytest

from dataclasses import astuple, replace

from stochem import _spectral, diagnostics, dynamics, noise, operators
from stochem import grid as grid_mod
from stochem.cli import build_params, build_simulation, parse_config
from stochem.diagnostics import column
from stochem.dynamics import (DT_MAX, CflError, SimulationError, State,
                              march, run, stable_dt, stack_states, step)
from stochem.experiments import perturbed_copy, twin_run
from stochem.grid import (ScalarField, VectorField, make_grid, norm,
                          scalar_face_gradients, zeros_vector)
from stochem.noise import make_velocity_noise, sample_increments
from stochem.operators import AdvectionMode

from conftest import default_params, quiescent_state, random_scalar, \
    random_solenoidal, record_calls
from oracles import cell_centers, scalar_from_function


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


@pytest.mark.parametrize("key, value, message", [
    ("chi", 1e200, "finite squares"), ("gamma", 1e200, "finite squares"),
    ("eta", 0.0, "strictly positive"), ("delta", 0.0, "strictly positive"),
    ("mu", -1.0, "nonnegative"), ("chi", -1.0, "nonnegative")],
    ids=["chi", "gamma", "eta", "delta", "mu", "chi-negative"])
def test_make_params_rejects_overflowing_square(key, value, message):
    # the gate and the stepper square chi and gamma; SimParams checks its
    # coefficients however it is built, dataclasses.replace included
    g = make_grid(8, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        default_params(g, **{key: value})
    with pytest.raises(ValueError, match=message):
        replace(default_params(g), **{key: value})


def test_make_params_rejects_potential_gradients_off_the_faces():
    # buoyancy would broadcast a row or a transposed pair over the faces
    g = make_grid(8, 6, 1.0, 1.0)
    gx, gy = default_params(g).phi_grad
    for bad in ((gy, gx), (gx[:1], gy), (gx, gy[None])):
        with pytest.raises(ValueError, match="face gradient of the potential"):
            replace(default_params(g), phi_grad=bad)


def test_stable_dt_scaling(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.0, c=0.0)
    grad_c = scalar_face_gradients(st.c)
    assert stable_dt(st, params, grad_c) == DT_MAX
    st.u.u_x[5, 5] = 1.0
    base = stable_dt(st, params, grad_c)
    st.u.u_x[5, 5] = 2.0
    assert stable_dt(st, params, grad_c) == pytest.approx(base / 2.0,
                                                          rel=1e-12)
    plume = State(u=random_solenoidal(g, rng, 0.3),
                  c=random_scalar(g, rng, positive=True, scale=0.1),
                  n=random_scalar(g, rng, positive=True), t=0.0)
    dt = stable_dt(plume, params, scalar_face_gradients(plume.c))
    assert 0.0 < dt < DT_MAX


# ------------------------------------------------------------ dense oracle

def _dense_neumann_solve(grid, rhs_vals, coef):
    from test_spectral import dense_neumann_laplacian
    a = np.eye(grid.nx * grid.ny) - coef * dense_neumann_laplacian(grid)
    return np.linalg.solve(a, rhs_vals.ravel()).reshape(grid.nx, grid.ny)


def _oracle_step(state, params, phi, dt):
    """Loop/dense implementation of one deterministic step (gamma = eps = 0)
    under the potential with cell values ``phi``."""
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
    phi = 0.3 * y + 0.1 * x
    params = default_params(g, eta=0.7, mu=0.9, delta=1.1, chi=0.8,
                            phi_values=phi)
    st = State(u=random_solenoidal(g, rng, 0.2),
               c=random_scalar(g, rng, positive=True, scale=0.1),
               n=random_scalar(g, rng, positive=True), t=0.0)
    dt = 1e-3
    inc = sample_increments(0, 0, 0, dt, params.vnoise.n_modes)
    new, _ = step(st, params, inc, dt)
    ox, oy, oc, on = _oracle_step(st, params, phi, dt)
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
    assert series[-1].step == 11   # ten full steps plus the landing step


def test_time_grid_memory_does_not_grow_with_the_step_count():
    # bit for bit the listed step sizes, n_full steps of dt plus a landing
    # step of a remainder of at least 1e-12 dt, in constant memory
    for span, dt in ((0.0105, 1e-3), (0.01, 1e-3), (0.0, 1e-3),
                     (1e-12, 1e-3), (0.3, 0.1), (1.0, 1.0 / 3.0)):
        n_full = int(np.floor(span / dt + 1e-9))
        remainder = span - n_full * dt
        listed = [dt] * n_full + ([remainder] if remainder >= 1e-12 * dt
                                  else [])
        steps = dynamics.time_grid(span, dt)
        assert list(steps) == listed and len(steps) == len(listed)
    # 4e9 steps, a schedule the config accepts: as a list it needs 32 GB
    tracemalloc.start()
    try:
        steps = dynamics.time_grid(0.004, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048
    assert len(steps) == 4_000_000_000
    assert next(iter(steps)) == 1e-12
    assert (steps.dt, steps.n_full, steps.landing) == (1e-12, 4_000_000_000,
                                                       ())


def test_run_positivity_and_max_principle():
    params, st = _reference_setup()
    final, series = run(st, params, 0.1, 1e-3, seed=9, sample_every=10)
    assert column(series, "min_n").min() >= 0.0
    assert column(series, "clip_count").sum() == 0
    c0max = column(series, "max_c")[0]
    assert column(series, "max_c").max() <= c0max * (1.0 + 1e-10)
    assert column(series, "div_residual").max() < 1e-10


def test_run_propagates_failures_with_step_index():
    params, st = _reference_setup()
    st.u.u_x[5, 5] = 80.0   # forces a CFL rejection at the first step
    with pytest.raises(SimulationError) as err:
        run(st, params, 0.01, 1e-3, seed=0)
    assert err.value.step_index == 1


def _nan_at_step_three(seed, replica, index, dt, k_modes):
    inc = sample_increments(seed, replica, index, dt, k_modes)
    return replace(inc, dbeta=np.full(2, np.nan)) if index == 2 else inc


def test_run_stops_on_non_finite_state(monkeypatch):
    # a NaN increment passes stable_dt (min(DT_MAX, safety / nan) = DT_MAX),
    # so only the per-step finiteness check stops the run, at its step
    params, st = _reference_setup()
    monkeypatch.setattr(dynamics, "sample_increments", _nan_at_step_three)
    with pytest.raises(SimulationError, match="field c is not finite") as err:
        run(st, params, 0.01, 1e-3, seed=4, sample_every=5)
    assert err.value.step_index == 3


def test_twin_run_stops_on_non_finite_state(monkeypatch):
    params, st = _reference_setup()
    monkeypatch.setattr(dynamics, "sample_increments", _nan_at_step_three)
    with pytest.raises(SimulationError, match="field c is not finite") as err:
        twin_run(params, st, 4, 1e-6, 0.01, 1e-3)
    assert err.value.step_index == 3


@pytest.mark.parametrize("caller", [None, 4096], ids=["default", "4096"])
def test_march_keeps_the_callers_ufunc_buffer_size(monkeypatch, caller):
    # each step runs with STEP_BUFSIZE elements of ufunc buffer, and the
    # caller's size, numpy's default or its own, is back between steps,
    # after the run and after a step that raises
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g, gamma=0.1)
    seen = []
    real_step = dynamics.step

    def spy(*args):
        seen.append(np.getbufsize())
        return real_step(*args)

    monkeypatch.setattr(dynamics, "step", spy)
    draw = dynamics.seeded_increments(1, 0, params.vnoise.n_modes)
    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        expected = np.getbufsize()
        st = quiescent_state(g, n=1.0, c=0.1)
        for _ in march(st, params, dynamics.time_grid(3e-3, 1e-3), draw):
            assert np.getbufsize() == expected
        assert seen == [dynamics.STEP_BUFSIZE] * 3
        assert np.getbufsize() == expected
        st.u.u_x[5, 5] = 50.0   # above the advective bound at dt = 1e-3
        with pytest.raises(SimulationError, match="advective bound"):
            run(st, params, 0.01, 1e-3, seed=0)
        assert seen[-1] == dynamics.STEP_BUFSIZE
        assert np.getbufsize() == expected


def _undershoot_setup():
    # the centered scalar stencil undershoots n below the entropy's
    # tolerance by step 5; the sampled row, not the step, detects it
    cfg = parse_config("""
[grid]
nx = 32
ny = 32
[physics]
chi = 0.0
gamma = 0.0
delta = 1e-6
[noise]
amplitude = 0.0
[ic]
n_base = 0.0
n_sigma = 0.05
u_amplitude = 1.0
""")
    params, st = build_simulation(cfg)
    return replace(params, scalar_mode=AdvectionMode.CENTERED_SKEW), st


def test_run_reports_failed_sample_with_step_index():
    params, st = _undershoot_setup()
    with pytest.raises(SimulationError, match="sample at step 5 failed: "
                       "entropy functional needs n >= 0") as err:
        run(st, params, 0.2, 1e-3, seed=1, sample_every=5)
    assert err.value.step_index == 5
    assert err.value.lane is None


# ------------------------------------------------------------ batched lanes

def test_batched_run_matches_unbatched_runs_bitwise():
    # three distinct initial states, both noises on, a state-dependent
    # forcing amplitude and a landing step: every lane of the batched run
    # reproduces its own unbatched run bit for bit
    params, st = _reference_setup(gamma=0.08, amplitude=0.03)
    params = replace(params, vnoise=make_velocity_noise(
        params.grid, params.vnoise.n_modes, 0.03, multiplicative_gain=0.5))
    states = [st, perturbed_copy(st, 1e-3), perturbed_copy(st, -2e-3)]
    final, lanes = run(stack_states(states), params, 0.0105, 1e-3, seed=21,
                       sample_every=3, replica=4)
    assert len(lanes) == 3
    for i, (state, series) in enumerate(zip(states, lanes)):
        alone_final, alone = run(state, params, 0.0105, 1e-3, seed=21,
                                 sample_every=3, replica=4 + i)
        assert [r.step for r in series] == [0, 3, 6, 9, 11]
        assert [astuple(r) for r in series] == [astuple(r) for r in alone]
        assert np.array_equal(final.n.values[i], alone_final.n.values)
        assert np.array_equal(final.c.values[i], alone_final.c.values)
        assert np.array_equal(final.u.u_x[i], alone_final.u.u_x)
        assert np.array_equal(final.u.u_y[i], alone_final.u.u_y)
    assert lanes[0][-1].entropy != lanes[1][-1].entropy


def test_batched_run_names_the_failing_lane():
    params, st = _reference_setup()
    fast = st.copy()
    fast.u.u_x[5, 5] = 80.0   # only lane 1 breaks the advective bound
    with pytest.raises(SimulationError, match="lane 1: step 1 failed: "
                       "dt=0.001 exceeds the advective bound") as err:
        run(stack_states([st, fast, st]), params, 0.01, 1e-3, seed=0)
    assert err.value.step_index == 1
    assert err.value.lane == 1
    assert isinstance(err.value.__cause__, CflError)


def test_batched_run_names_the_lane_whose_sample_fails():
    # lane 1 undershoots as in the unbatched run; its still neighbours do not
    params, st = _undershoot_setup()
    still = State(u=zeros_vector(params.grid), c=st.c, n=st.n, t=0.0)
    with pytest.raises(SimulationError, match="lane 1: sample at step 5 "
                       "failed: entropy functional needs n >= 0") as err:
        run(stack_states([still, st, still]), params, 0.2, 1e-3, seed=1,
            sample_every=5)
    assert err.value.step_index == 5
    assert err.value.lane == 1


@pytest.mark.parametrize("lanes", [None, 3])
def test_run_observes_all_lanes_in_one_pass(monkeypatch, lanes):
    # one record call per sample and 3 norms per step (|grad c| for the
    # tracker, |c| and |u| for the row), whatever the lane count
    params, st = _reference_setup(nx=16)
    initial = st if lanes is None else stack_states([st] * lanes)
    log = record_calls(monkeypatch, "norm", diagnostics)
    record_calls(monkeypatch, "record", diagnostics, log=log)
    _, series = run(initial, params, 0.005, 1e-3, seed=3, sample_every=1)
    rows = series if lanes is None else series[0]
    at_record = [i for i, call in enumerate(log) if call.name == "record"]
    assert len(at_record) == len(rows) == 6
    # the norms between one record call and the next
    assert (np.diff(at_record) - 1).tolist() == [3] * 5


@pytest.mark.parametrize("gamma, calls", [(0.1, 1), (0.0, 0)])
def test_step_evaluates_noise_modes_once_per_use(monkeypatch, gamma, calls):
    # one evaluation of the drifted oxygen's modes feeds the kick, the
    # correction and the HS norm; the correction applies L_1 and L_2 with
    # its own one-axis stencils, not through transport_noise_modes
    params, st = _reference_setup(gamma=gamma)
    seen = record_calls(monkeypatch, "transport_noise_modes", noise)
    inc = sample_increments(3, 0, 0, 1e-3, params.vnoise.n_modes)
    step(st, params, inc, 1e-3)
    assert len(seen) == calls


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


def test_run_builds_each_spectral_plan_once(monkeypatch):
    # 10 full steps and a landing step: one Poisson plan for the grid, built
    # from the eigenvalues once, and one diffusion table per dt * delta,
    # dt * mu and dt * eta, for dt and for the landing step, each looked up
    # once per solve: the density, oxygen and velocity solve of every step
    g = make_grid(12, 12, 1.0, 1.0)
    params = default_params(g, eta=0.9, mu=1.1, delta=0.7, gamma=0.1,
                            amplitude=0.02)
    st = quiescent_state(g, n=1.0, c=0.2)
    builds = record_calls(monkeypatch, "neumann_eigenvalues", _spectral)
    for plan in (_spectral._poisson_divisor, _spectral._diffusion_table):
        plan.cache_clear()
    dt, landing = 1e-3, 5e-4
    final, _ = run(st, params, 10 * dt + landing, dt, seed=1,
                   sample_every=100)
    assert final.t == pytest.approx(10 * dt + landing, abs=1e-15)
    assert [call.args for call in builds] == [(g,)]
    tables = _spectral._diffusion_table.cache_info()
    assert (tables.misses, tables.currsize) == (6, 6)
    assert tables.hits == 3 * 11 - 6
    assert _spectral._poisson_divisor.cache_info().misses == 1


@pytest.mark.parametrize("gamma, amplitude, per_step",
                         [(0.1, 0.02, 4), (0.0, 0.0, 3)])
def test_run_takes_face_gradients_once_per_field(monkeypatch, gamma,
                                                 amplitude, per_step):
    # per step: the incoming oxygen (bound and chemotactic drift), the
    # drifted oxygen's noise modes when gamma > 0, the pressure in the
    # projection and |grad c| for the energy tracker; the potential's
    # gradient is taken once with the parameters
    params, st = _reference_setup(nx=16, gamma=gamma, amplitude=amplitude)
    calls = record_calls(monkeypatch, "scalar_face_gradients", grid_mod,
                         dynamics, noise, operators)
    totals = []
    for steps in (5, 10):
        calls.clear()
        run(st, params, steps * 1e-3, 1e-3, seed=3, sample_every=100)
        totals.append(len(calls))
    assert (totals[1] - totals[0]) / 5 == per_step


def _noisy_setup(nx: int, lanes: int | None, dt: float):
    """The README physics at nx^2 with both noises on, stacked into
    ``lanes`` lanes when given, and the step-0 increment for them."""
    params, st = build_simulation(parse_config(
        f"[grid]\nnx = {nx}\nny = {nx}\n[physics]\ngamma = 0.1\n"
        f"[noise]\namplitude = 0.02\n[ic]\nu_amplitude = 0.2\n"))
    k = params.vnoise.n_modes
    if lanes is None:
        return params, st, sample_increments(1, 0, 0, dt, k)
    draw = dynamics.stacked_increments(1, list(range(lanes)), k)
    return params, stack_states([st] * lanes), draw(0, dt)


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _state_arrays(st):
    return st.u.u_x, st.u.u_y, st.c.values, st.n.values


def test_oxygen_noise_lanes_are_corrected_and_naive_substeps():
    # a pair with the correction over dt on lane 0 and over 0 on lane 1:
    # lane 0 is the oxygen a step builds from the drifted oxygen (see
    # test_noisy_oxygen_substep_builds_in_the_drifted_array), lane 1 the
    # drifted oxygen plus the kick, and every output lane, its sum of
    # squares of the modes and its
    # correction are bitwise its unbatched call's.  oxygen_noise builds the
    # new oxygen in the array it is given, so each call gets a copy of the
    # read-only drifted oxygen.  At gamma = 0 the two lanes of one oxygen
    # are bitwise equal.
    dt = 5e-4
    params, st, inc = _noisy_setup(32, None, dt)
    states = [st, perturbed_copy(st, 0.1)]
    drifted = [dynamics.oxygen_drift(s, s.n, params, dt)[0] for s in states]
    pair = ScalarField(params.grid, np.stack([c.values for c in drifted]))
    _freeze(pair.values, *(c.values for c in drifted))

    def given(c: ScalarField) -> ScalarField:
        return ScalarField(c.grid, c.values.copy())

    modes = noise.transport_noise_modes(pair, params.sigma)
    mid = given(pair)
    c_pair, hs_sq, correction = dynamics.oxygen_noise(mid, params, inc,
                                                      np.array([dt, 0.0]))
    assert np.shares_memory(c_pair.values, mid.values)
    assert hs_sq.tobytes() == noise.transport_hs_sq(modes,
                                                    params.sigma).tobytes()
    kick = noise.transport_noise_apply(
        noise.transport_noise_modes(drifted[1], params.sigma), params.gamma,
        inc)
    assert c_pair.values[1].tobytes() == (drifted[1].values + kick).tobytes()
    for lane, (c_mid, dt_lane) in enumerate(zip(drifted, (dt, 0.0))):
        for m, m_alone in zip(modes, noise.transport_noise_modes(
                c_mid, params.sigma)):
            assert m[lane].tobytes() == m_alone.tobytes()
        alone = dynamics.oxygen_noise(given(c_mid), params, inc, dt_lane)
        assert c_pair.values[lane].tobytes() == alone[0].values.tobytes()
        assert hs_sq[lane] == alone[1]
        assert correction[lane].tobytes() == alone[2].tobytes()
    same = ScalarField(params.grid, np.stack([drifted[0].values] * 2))
    quiet = replace(params, gamma=0.0)
    c_same, _, _ = dynamics.oxygen_noise(same, quiet, inc, np.array([dt, 0.0]))
    assert c_same.values[0].tobytes() == c_same.values[1].tobytes()


def test_noisy_oxygen_substep_builds_in_the_drifted_array(monkeypatch):
    # a step's new oxygen is oxygen_noise of the drifted oxygen, with the
    # correction over the step, built in the array oxygen_drift returned;
    # the correction consumes the list of modes it is handed, so no mode
    # outlives its use
    dt = 5e-4
    params, st, inc = _noisy_setup(32, None, dt)
    new, report = step(st, params, inc, dt)
    c_mid, clip_count = dynamics.oxygen_drift(st, new.n, params, dt)
    c_new, hs_sq, _ = dynamics.oxygen_noise(c_mid, params, inc, dt)
    assert new.c.values.tobytes() == c_new.values.tobytes()
    assert (report.clip_count, report.noise_hs_sq) == (clip_count, hs_sq)
    drifted, handed = [], []
    real_drift = dynamics.oxygen_drift
    real_correction = noise.transport_ito_correction

    def drift(*args):
        out = real_drift(*args)
        drifted.append(out[0].values)
        return out

    def correction(modes, *args):
        handed.append(modes)
        return real_correction(modes, *args)

    monkeypatch.setattr(dynamics, "oxygen_drift", drift)
    monkeypatch.setattr(noise, "transport_ito_correction", correction)
    new, _ = step(st, params, inc, dt)
    assert np.shares_memory(new.c.values, drifted[0])
    assert handed == [[]]


@pytest.mark.parametrize("nx, lanes", [(64, None), (32, 4)])
def test_step_path_never_writes_into_its_inputs(nx, lanes):
    # every array a step, the tracker, a sample or a run is given is
    # read-only here: an in-place update of an argument raises ValueError
    dt = 5e-4
    params, st, inc = _noisy_setup(nx, lanes, dt)
    _freeze(*_state_arrays(st), params.vnoise.lambdas,
            inc.dw, inc.dbeta, params.vnoise.mode_norms,
            *(a for r in (params.sigma.ramp_1, params.sigma.ramp_2)
              for a in (r.x, r.y)),
            *(a for p in (params.vnoise.x, params.vnoise.y)
              for a in (p.sines, p.differences, p.rows)))
    new, report = step(st, params, inc, dt)
    tracker = diagnostics.EnergyTracker(st, params)
    _freeze(*_state_arrays(new))
    tracker.update(new, params, report)
    diagnostics.record(new, report, params, tracker, step_index=1)
    final, _ = run(st, params, 5 * dt, dt, seed=1)
    assert final.t == pytest.approx(5 * dt)


def _step_peak_fields(nx: int, lanes: int | None) -> float:
    """numpy registers its buffers with tracemalloc: one step's peak above
    the incoming state, the 4 arrays it returns included, in units of one
    face field (nx + 1) ny doubles per lane.  The step is march's, so it
    runs with march's ufunc buffer size."""
    dt = 5e-4
    params, st, inc = _noisy_setup(nx, lanes, dt)
    step(st, params, inc, dt)   # build the spectral plans first
    one_step = dynamics.TimeGrid(dt, 1, ())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, new, _ = next(march(st, params, one_step, lambda index, d: inc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new.t == st.t + dt
    return (peak - before) / ((nx + 1) * nx * 8 * (lanes or 1))


@pytest.mark.parametrize("nx, lanes", [(128, None), (32, 16)])
def test_step_holds_at_most_nine_fields(nx, lanes):
    fields = _step_peak_fields(nx, lanes)
    assert fields <= 9.0, f"a step peaked at {fields:.2f} fields"


def _held_bytes(a: np.ndarray) -> int:
    """The bytes of the array that owns the memory behind ``a``."""
    while a.base is not None:
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("kind", ["linear_y", "linear_x", "zero"])
def test_potential_is_held_in_one_slice_where_it_is_constant(kind):
    # every potential the config offers varies along one axis at most, so
    # build_params hands the parameters its face gradients as read-only
    # broadcasts of one 1-D profile each, bitwise the face gradients of the
    # full potential, on a square and on a non-square grid
    for nx, ny, lx, ly in ((64, 64, 1.0, 1.0), (48, 40, 1.3, 0.7)):
        params = build_params(parse_config(
            f"[grid]\nnx = {nx}\nny = {ny}\nlx = {lx}\nly = {ly}\n"
            f"[physics]\nphi_scale = -1.5\nphi_kind = {kind}\n"))
        g = params.grid
        x, y = cell_centers(g)
        full = {"linear_y": -1.5 * y, "linear_x": -1.5 * x,
                "zero": np.zeros((nx, ny))}[kind]
        for got, want in zip(params.phi_grad,
                             scalar_face_gradients(ScalarField(g, full))):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert _held_bytes(got) <= 8 * (nx + ny + 2)
            assert not got.flags.writeable
        # gradients given as writable arrays are held as read-only views
        given = default_params(g, phi_values=full + 1.0).phi_grad
        assert not any(grad.flags.writeable for grad in given)
        assert all(grad.base.flags.writeable for grad in given)


# Memory budgets with the README physics, in units of one face field of
# (nx + 1) ny doubles, as tracemalloc sees them; a change that regrows a
# constant or a step temporary fails here.  Measured with numpy 2.4 at 64^2:
# a step of march peaks 8.20 fields above its input state (10.01 when it
# ran with numpy's default 8192-element ufunc buffer, whose 64 KiB scratch
# buffers cost 1.8 fields at this size), and the parameters plus
# the Poisson divisor and the one diffusion table of a run whose
# eta = mu = delta hold 2.22 fields of array buffers (4.16 when the
# transport ramps were full face arrays, 9.02 when each solve kind had its
# own arrays and the potential was held whole).  At 256^2 build_params
# peaks 0.09 fields above its start (4.09 when it built the potential whole
# and took the gradients of that).
STEP_PEAK_FIELDS = 8.2
PARAMS_AND_PLANS_FIELDS = 2.25
BUILD_PEAK_FIELDS = 0.25
NUMPY_DOMAIN = 389047   # the tracemalloc domain of numpy's array buffers


def _array_bytes() -> int:
    """The bytes of the numpy buffers that tracemalloc traces now."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, NUMPY_DOMAIN)])
    return sum(trace.size for trace in snapshot.traces)


def test_step_stays_within_its_measured_memory_budget():
    fields = _step_peak_fields(64, None)
    assert fields <= STEP_PEAK_FIELDS + 1.0, \
        f"a step peaked at {fields:.2f} fields"


def test_parameters_and_plans_stay_within_their_measured_memory_budget():
    nx, dt = 64, 5e-4
    _, st, inc = _noisy_setup(nx, None, dt)
    cfg = parse_config(f"[grid]\nnx = {nx}\nny = {nx}\n[physics]\n"
                       f"gamma = 0.1\n[noise]\namplitude = 0.02\n")
    for plan in (_spectral._poisson_divisor, _spectral._diffusion_table):
        plan.cache_clear()
    tracemalloc.start()
    try:
        before = _array_bytes()
        params = build_params(cfg)
        step(st, params, inc, dt)   # builds the plans; its state is dropped
        held = _array_bytes() - before
    finally:
        tracemalloc.stop()
    fields = held / ((nx + 1) * nx * 8)
    assert fields <= PARAMS_AND_PLANS_FIELDS, \
        f"the parameters and plans hold {fields:.2f} fields"


@pytest.mark.parametrize("kind", ["linear_y", "linear_x", "zero"])
def test_building_the_parameters_stays_within_its_peak_budget(kind):
    nx = 256
    cfg = parse_config(f"[grid]\nnx = {nx}\nny = {nx}\n[physics]\n"
                       f"gamma = 0.1\nphi_kind = {kind}\n[noise]\n"
                       f"amplitude = 0.02\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_params(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = (peak - before) / ((nx + 1) * nx * 8)
    assert fields <= BUILD_PEAK_FIELDS, \
        f"building the parameters peaked at {fields:.2f} fields"
