import numpy as np
import pytest

from stochem.dynamics import CONSUMPTION_LAWS
from stochem.grid import (ScalarField, VectorField, divergence, inner_product,
                          make_grid, norm, scalar_face_gradients, zeros_vector)
from stochem.operators import (AdvectionMode, buoyancy, chemotaxis_div,
                               consumption, convect_velocity,
                               divergence_residual, helmholtz_project,
                               scalar_advect)

from conftest import default_params, quiescent_state, random_scalar, \
    random_solenoidal, random_vector
from oracles import (full_scalar, gradient, laplacian_neumann, recover_pressure,
                     scalar_from_function, stokes_apply)


# ---------------------------------------------------------------- laplacian

def test_laplacian_constant_is_zero():
    g = make_grid(16, 16, 1.0, 1.0)
    out = laplacian_neumann(full_scalar(g, 4.2))
    assert np.max(np.abs(out.values)) == 0.0


def test_laplacian_cosine_eigenvector():
    g = make_grid(48, 32, 1.5, 1.0)
    phi = scalar_from_function(g, lambda x, y: np.cos(np.pi * x / g.lx))
    out = laplacian_neumann(phi)
    lam = -(2.0 / g.dx ** 2) * (1.0 - np.cos(np.pi * g.dx / g.lx))
    assert np.max(np.abs(out.values / phi.values - lam)) < 1e-9 * abs(lam)


def test_laplacian_integral_vanishes(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    phi = random_scalar(g, rng)
    total = float(np.sum(laplacian_neumann(phi).values)) * g.cell_volume
    assert abs(total) <= 1e-13 * max(norm(phi, "L2"), 1.0)


def test_laplacian_self_adjoint(rng):
    g = make_grid(24, 24, 1.0, 1.0)
    a, b = random_scalar(g, rng), random_scalar(g, rng)
    lhs = inner_product(laplacian_neumann(a), b)
    rhs = inner_product(a, laplacian_neumann(b))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- projection

def test_projection_annihilates_gradients(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    p = scalar_from_function(g, lambda x, y: np.cos(np.pi * x))
    gp = gradient(p)
    out = helmholtz_project(gp)
    assert norm(out, "L2") <= 1e-10 * max(norm(gp, "L2"), 1e-30)


def test_projection_idempotent_and_divergence_free(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    v = random_vector(g, rng)
    pv = helmholtz_project(v)
    assert divergence_residual(pv) < 1e-10
    ppv = helmholtz_project(pv)
    diff = max(np.max(np.abs(ppv.u_x - pv.u_x)), np.max(np.abs(ppv.u_y - pv.u_y)))
    assert diff < 1e-12 * max(norm(pv, "Linf"), 1.0)


def test_projection_matches_dense_poisson_oracle(rng):
    # same Neumann system solved densely; compare the projected field
    g = make_grid(32, 32, 1.0, 1.0)
    v = random_vector(g, rng)
    rhs = divergence(v).values
    from test_spectral import dense_neumann_laplacian
    a = dense_neumann_laplacian(g)
    p_dense, *_ = np.linalg.lstsq(a, rhs.ravel(), rcond=None)
    p_dense = ScalarField(g, p_dense.reshape(g.nx, g.ny))
    gp = gradient(p_dense)
    pv = helmholtz_project(v)
    assert np.max(np.abs(pv.u_x - (v.u_x - gp.u_x))) < 1e-10
    assert np.max(np.abs(pv.u_y - (v.u_y - gp.u_y))) < 1e-10
    assert divergence_residual(pv) < 1e-10


def test_projection_symmetric(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    v, w = random_vector(g, rng), random_vector(g, rng)
    assert inner_product(helmholtz_project(v), w) == pytest.approx(
        inner_product(v, helmholtz_project(w)), rel=1e-12, abs=1e-12)


def test_projection_difference_is_curl_free(rng):
    # the removed part is a face gradient: its node curl vanishes identically
    g = make_grid(16, 16, 1.0, 1.0)
    v = random_vector(g, rng)
    pv = helmholtz_project(v)
    gx = v.u_x - pv.u_x
    gy = v.u_y - pv.u_y
    curl = ((gy[1:, 1:-1] - gy[:-1, 1:-1]) / g.dx
            - (gx[1:-1, 1:] - gx[1:-1, :-1]) / g.dy)
    assert np.max(np.abs(curl)) < 1e-10


# ---------------------------------------------------------------- stokes

def test_stokes_zero_and_linearity(rng):
    g = make_grid(12, 12, 1.0, 1.0)
    z = stokes_apply(zeros_vector(g))
    assert norm(z, "Linf") == 0.0
    u = random_vector(g, rng)
    a = 2.7
    scaled = VectorField(g, a * u.u_x, a * u.u_y)
    left = stokes_apply(scaled)
    right = stokes_apply(u)
    assert np.max(np.abs(left.u_x - a * right.u_x)) < 1e-12
    assert np.max(np.abs(left.u_y - a * right.u_y)) < 1e-12


def test_stokes_impulse_stencil():
    g = make_grid(8, 8, 1.0, 1.0)
    u = zeros_vector(g)
    u.u_x[4, 3] = 1.0
    out = stokes_apply(u)
    dx2, dy2 = g.dx ** 2, g.dy ** 2
    assert out.u_x[4, 3] == pytest.approx(-2.0 / dx2 - 2.0 / dy2)
    assert out.u_x[3, 3] == pytest.approx(1.0 / dx2)
    assert out.u_x[5, 3] == pytest.approx(1.0 / dx2)
    assert out.u_x[4, 2] == pytest.approx(1.0 / dy2)
    assert out.u_x[4, 4] == pytest.approx(1.0 / dy2)
    # wall-adjacent row: reflected ghost turns the 2 into a 3
    u = zeros_vector(g)
    u.u_x[4, 0] = 1.0
    out = stokes_apply(u)
    assert out.u_x[4, 0] == pytest.approx(-2.0 / dx2 - 3.0 / dy2)


# ---------------------------------------------------------------- advection

def dense_skew_convection_x(u, v):
    """Flux form minus half the dual divergence, evaluated with plain loops."""
    g = u.grid
    dx, dy = g.dx, g.dy
    out_x = np.zeros_like(v.u_x)
    ux, uy, vx = u.u_x, u.u_y, v.u_x
    for i in range(1, g.nx):
        for j in range(g.ny):
            ue = 0.5 * (ux[i, j] + ux[i + 1, j])
            uw = 0.5 * (ux[i - 1, j] + ux[i, j])
            vn = 0.5 * (uy[i - 1, j + 1] + uy[i, j + 1])
            vs = 0.5 * (uy[i - 1, j] + uy[i, j])
            fe = ue * 0.5 * (vx[i, j] + vx[i + 1, j])
            fw = uw * 0.5 * (vx[i - 1, j] + vx[i, j])
            fn = vn * (0.5 * (vx[i, j] + vx[i, j + 1]) if j < g.ny - 1 else 0.0)
            fs = vs * (0.5 * (vx[i, j - 1] + vx[i, j]) if j > 0 else 0.0)
            divd = (ue - uw) / dx + (vn - vs) / dy
            out_x[i, j] = (fe - fw) / dx + (fn - fs) / dy - 0.5 * vx[i, j] * divd
    return out_x


def test_convect_velocity_matches_dense_skew_form(rng):
    g = make_grid(8, 8, 1.0, 1.0)
    u = random_vector(g, rng)     # deliberately not divergence-free
    v = random_vector(g, rng)
    out = convect_velocity(u, v)
    ref_x = dense_skew_convection_x(u, v)
    assert np.max(np.abs(out.u_x - ref_x)) < 1e-13 * max(1.0, np.max(np.abs(ref_x)))


def test_convect_velocity_zero_field(rng):
    g = make_grid(8, 8, 1.0, 1.0)
    u = random_vector(g, rng)
    out = convect_velocity(u, zeros_vector(g))
    assert norm(out, "Linf") == 0.0


def test_convection_energy_neutral_for_solenoidal(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    u = random_solenoidal(g, rng)
    v = random_vector(g, rng)
    b0 = convect_velocity(u, v)
    bound = 1e-12 * max(norm(u, "L2") * norm(v, "L2") ** 2, 1e-30)
    assert abs(inner_product(b0, v)) <= bound


def dense_flux_advection(u, phi, upwind):
    g = u.grid
    p = phi.values
    out = np.zeros_like(p)
    for i in range(g.nx):
        for j in range(g.ny):
            fe = fw = fn = fs = 0.0
            if i + 1 <= g.nx - 1:
                a = u.u_x[i + 1, j]
                face = (p[i, j] if a > 0 else p[i + 1, j]) if upwind \
                    else 0.5 * (p[i, j] + p[i + 1, j])
                fe = a * face
            if i - 1 >= 0:
                a = u.u_x[i, j]
                face = (p[i - 1, j] if a > 0 else p[i, j]) if upwind \
                    else 0.5 * (p[i - 1, j] + p[i, j])
                fw = a * face
            if j + 1 <= g.ny - 1:
                a = u.u_y[i, j + 1]
                face = (p[i, j] if a > 0 else p[i, j + 1]) if upwind \
                    else 0.5 * (p[i, j] + p[i, j + 1])
                fn = a * face
            if j - 1 >= 0:
                a = u.u_y[i, j]
                face = (p[i, j - 1] if a > 0 else p[i, j]) if upwind \
                    else 0.5 * (p[i, j - 1] + p[i, j])
                fs = a * face
            out[i, j] = (fe - fw) / g.dx + (fn - fs) / g.dy
    return out


@pytest.mark.parametrize("mode,upwind", [(AdvectionMode.CENTERED_SKEW, False),
                                         (AdvectionMode.UPWIND_FLUX, True)])
def test_scalar_advect_matches_dense_fluxes(rng, mode, upwind):
    g = make_grid(8, 8, 1.0, 1.0)
    u = random_vector(g, rng)
    phi = random_scalar(g, rng)
    out = scalar_advect(u, phi, mode)
    ref = dense_flux_advection(u, phi, upwind)
    assert np.max(np.abs(out.values - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_scalar_advect_constant_scalar_solenoidal_u(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    u = random_solenoidal(g, rng)
    out = scalar_advect(u, full_scalar(g, 3.3), AdvectionMode.CENTERED_SKEW)
    assert norm(out, "Linf") < 1e-11 * norm(u, "Linf")


def test_scalar_advect_total_integral_neutral(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    u = random_vector(g, rng)   # any u, not necessarily solenoidal
    phi = random_scalar(g, rng)
    for mode in AdvectionMode:
        out = scalar_advect(u, phi, mode)
        total = abs(inner_product(out, full_scalar(g, 1.0)))
        assert total <= 1e-13 * max(norm(phi, "L2") * norm(u, "L2"), 1e-30)


def test_scalar_advect_skew_neutral_and_upwind_dissipative(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    u = random_solenoidal(g, rng)
    phi = random_scalar(g, rng)
    centered = scalar_advect(u, phi, AdvectionMode.CENTERED_SKEW)
    bound = 1e-12 * max(norm(u, "L2") * norm(phi, "L2") ** 2, 1e-30)
    assert abs(inner_product(centered, phi)) <= bound
    # the upwind transport tendency -div(u phi) removes scalar energy
    up = scalar_advect(u, phi, AdvectionMode.UPWIND_FLUX)
    assert inner_product(ScalarField(g, -up.values), phi) <= bound


# ---------------------------------------------------------------- chemotaxis

def test_chemotaxis_trivial_zeros(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    c = random_scalar(g, rng)
    out = chemotaxis_div(ScalarField(g, np.zeros((16, 16))),
                         scalar_face_gradients(c), 1.0)
    assert norm(out, "Linf") == 0.0
    n = random_scalar(g, rng, positive=True)
    out = chemotaxis_div(n, scalar_face_gradients(full_scalar(g, 2.0)), 1.0)
    assert norm(out, "Linf") == 0.0


def test_chemotaxis_total_integral_neutral(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    n = random_scalar(g, rng, positive=True)
    c = random_scalar(g, rng)
    chi = 0.9
    out = chemotaxis_div(n, scalar_face_gradients(c), chi)
    total = abs(inner_product(out, full_scalar(g, 1.0)))
    assert total <= 1e-13 * max(chi * norm(n, "L2") * norm(c, "H1_semi"), 1e-30)


def test_chemotaxis_rejects_negative_chi(rng):
    g = make_grid(8, 8, 1.0, 1.0)
    f = random_scalar(g, rng)
    with pytest.raises(ValueError):
        chemotaxis_div(f, scalar_face_gradients(f), -0.1)


# ---------------------------------------------------------------- couplings

def test_consumption_values():
    g = make_grid(8, 8, 1.0, 1.0)
    f = CONSUMPTION_LAWS["linear"]
    out = consumption(full_scalar(g, 2.0), full_scalar(g, 3.0), f)
    assert np.all(out.values == 6.0)
    out = consumption(full_scalar(g, 2.0), full_scalar(g, 0.0), f)
    assert np.all(out.values == 0.0)


def test_consumption_sign_preservation(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    n = random_scalar(g, rng, positive=True)
    c = random_scalar(g, rng, positive=True)
    out = consumption(n, c, CONSUMPTION_LAWS["linear"])
    assert np.all(out.values >= 0.0)


def test_buoyancy_basics(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    n = random_scalar(g, rng, positive=True)
    out = buoyancy(n, scalar_face_gradients(full_scalar(g, 7.0)))
    assert norm(out, "Linf") == 0.0
    phi = scalar_from_function(g, lambda x, y: y)
    one = full_scalar(g, 1.0)
    grad_phi = scalar_face_gradients(phi)
    out = buoyancy(one, grad_phi)
    assert np.max(np.abs(out.u_y[:, 1:-1] - 1.0)) < 1e-13
    assert np.max(np.abs(out.u_x)) == 0.0
    doubled = buoyancy(ScalarField(g, 2.0 * n.values), grad_phi)
    single = buoyancy(n, grad_phi)
    assert np.max(np.abs(doubled.u_y - 2.0 * single.u_y)) < 1e-13


def test_buoyancy_norm_bound(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    n = random_scalar(g, rng)
    phi = scalar_from_function(g, lambda x, y: 0.5 * y + 0.25 * x)
    out = buoyancy(n, scalar_face_gradients(phi))
    grad_inf = max(np.max(np.abs(gradient(phi).u_x)),
                   np.max(np.abs(gradient(phi).u_y)))
    assert norm(out, "L2") <= grad_inf * norm(n, "L2") * 1.5


# ---------------------------------------------------------------- pressure

def test_recover_pressure_hydrostatic():
    g = make_grid(24, 24, 1.0, 1.0)
    params = default_params(g, phi_values=(np.ones((24, 24))
                                           * (np.arange(24) + 0.5) * g.dy))
    state = quiescent_state(g, n=2.0, c=0.1)
    p = recover_pressure(state, params)
    y = (np.arange(24) + 0.5) * g.dy
    expected = 2.0 * (y - y.mean())
    assert np.max(np.abs(p.values - expected[None, :])) < 1e-11
    assert abs(p.values.mean()) < 1e-12


def test_recover_pressure_zero_forcing():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    state = quiescent_state(g, n=0.0, c=0.0)
    p = recover_pressure(state, params)
    assert norm(p, "Linf") < 1e-13
