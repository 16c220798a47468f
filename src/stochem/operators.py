"""Discrete transport, diffusion, coupling, and projection operators.

Everything is flux-form on the staggered grid so the conservation and
energy-pairing identities hold by telescoping rather than by approximation:

* scalar advection sums face fluxes that vanish on walls, so its total
  integral is zero for any velocity field;
* the skew-symmetric convection operator is the exact average of the
  advective and divergence forms, which kills the kinetic-energy pairing
  (B(u,v), v) to round-off whenever the advecting field has zero wall-normal
  faces;
* the chemotaxis flux upwinds the cell density by the sign of the face
  gradient of the attractant, which is what keeps the density nonnegative
  without clipping;
* the projection subtracts the gradient of a Neumann-Poisson solve, making
  the post-projection divergence exactly the solver residual.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _spectral
from .grid import (ScalarField, VectorField, divergence, norm,
                   require_same_grid, scalar_face_gradients, zeros_vector)


class AdvectionMode(Enum):
    CENTERED_SKEW = "CenteredSkew"
    UPWIND_FLUX = "UpwindFlux"


def helmholtz_project(v: VectorField) -> VectorField:
    """Project a face field onto the discretely divergence-free subspace.

    Solves the Neumann-Poisson problem lap(p) = div(v) and subtracts grad(p).
    Wall-normal face values are untouched (the gradient vanishes there), so
    inputs with no-slip walls keep them.
    """
    g = v.grid
    rhs = divergence(v)
    p, _info = _spectral.solve_poisson_neumann(g, rhs.values)
    gpx, gpy = scalar_face_gradients(ScalarField(g, p))
    return VectorField(g, v.u_x - gpx, v.u_y - gpy)


def _face_value(left: np.ndarray, right: np.ndarray, carrier: np.ndarray,
                mode: AdvectionMode) -> np.ndarray:
    if mode is AdvectionMode.CENTERED_SKEW:
        return 0.5 * (left + right)
    return np.where(carrier > 0.0, left, right)


def convect_velocity(u: VectorField, v: VectorField) -> VectorField:
    """Discrete (u . grad) v on the staggered layout.

    The exact average of the advective and divergence forms,
    1/2[(u.grad)v + div(u x v)], with centered face values; its pairing
    against v is identically zero for any u with vanishing wall-normal faces.
    """
    g = require_same_grid(u, v)
    dx, dy = g.dx, g.dy

    # --- x component: dual cells around interior vertical faces ---
    # advecting u at cell centers
    ubar = 0.5 * (u.u_x[..., :-1, :] + u.u_x[..., 1:, :])
    vctr = 0.5 * (v.u_x[..., :-1, :] + v.u_x[..., 1:, :])
    fx = ubar * vctr                                        # x-flux at cell centers
    lanes = fx.shape[:-2]                                   # lanes of u and v
    out = zeros_vector(g, lanes)
    # advecting v interpolated to interior nodes (i=1..nx-1, j=0..ny)
    vtil = 0.5 * (u.u_y[..., :-1, :] + u.u_y[..., 1:, :])
    vnode = np.zeros(lanes + (g.nx - 1, g.ny + 1))
    vnode[..., 1:-1] = 0.5 * (v.u_x[..., 1:-1, :-1] + v.u_x[..., 1:-1, 1:])
    fy = vtil * vnode                                       # y-flux at nodes
    div_flux = ((fx[..., 1:, :] - fx[..., :-1, :]) / dx
                + (fy[..., 1:] - fy[..., :-1]) / dy)
    divd = ((ubar[..., 1:, :] - ubar[..., :-1, :]) / dx
            + (vtil[..., 1:] - vtil[..., :-1]) / dy)
    out.u_x[..., 1:-1, :] = div_flux - 0.5 * v.u_x[..., 1:-1, :] * divd

    # --- y component, mirrored ---
    vbar = 0.5 * (u.u_y[..., :-1] + u.u_y[..., 1:])
    vctr = 0.5 * (v.u_y[..., :-1] + v.u_y[..., 1:])
    fy = vbar * vctr
    util = 0.5 * (u.u_x[..., :-1] + u.u_x[..., 1:])
    vnode = np.zeros(lanes + (g.nx + 1, g.ny - 1))
    vnode[..., 1:-1, :] = 0.5 * (v.u_y[..., :-1, 1:-1] + v.u_y[..., 1:, 1:-1])
    fx = util * vnode
    div_flux = ((fx[..., 1:, :] - fx[..., :-1, :]) / dx
                + (fy[..., 1:] - fy[..., :-1]) / dy)
    divd = ((util[..., 1:, :] - util[..., :-1, :]) / dx
            + (vbar[..., 1:] - vbar[..., :-1]) / dy)
    out.u_y[..., 1:-1] = div_flux - 0.5 * v.u_y[..., 1:-1] * divd
    return out


def scalar_advect(u: VectorField, phi: ScalarField,
                  mode: AdvectionMode = AdvectionMode.UPWIND_FLUX) -> ScalarField:
    """Flux-form div(u phi) for a cell scalar; zero wall fluxes.

    The total integral of the result vanishes by telescoping for any u.  With
    centered face values the pairing (result, phi) equals half the pairing of
    div(u) against phi^2, hence vanishes to the divergence residual of u;
    donor-cell face values make the induced update monotone instead.
    """
    g = require_same_grid(u, phi)
    p = phi.values
    ux = u.u_x[..., 1:-1, :]
    uy = u.u_y[..., 1:-1]
    inner_x = ux * _face_value(p[..., :-1, :], p[..., 1:, :], ux, mode)
    inner_y = uy * _face_value(p[..., :-1], p[..., 1:], uy, mode)
    fx = np.zeros(inner_x.shape[:-2] + (g.nx + 1, g.ny))
    fy = np.zeros(inner_y.shape[:-2] + (g.nx, g.ny + 1))
    fx[..., 1:-1, :] = inner_x
    fy[..., 1:-1] = inner_y
    return divergence(VectorField(g, fx, fy))


def chemotaxis_div(n: ScalarField, grad_c: tuple[np.ndarray, np.ndarray],
                   chi: float) -> ScalarField:
    """Flux-form div(chi * n * grad c) with the density upwinded along grad c.

    ``grad_c`` is scalar_face_gradients(c).  The drift velocity of the cells
    is chi * grad c, so each face takes the density from the cell the flux
    leaves.  Wall fluxes are zero (Neumann c).
    """
    g = n.grid
    if chi < 0.0:
        raise ValueError(f"chemotactic constant must be >= 0, got {chi}")
    gx, gy = grad_c
    nv = n.values
    fx = np.zeros_like(gx)
    fy = np.zeros_like(gy)
    gxi = gx[..., 1:-1, :]
    gyi = gy[..., 1:-1]
    fx[..., 1:-1, :] = chi * gxi * np.where(gxi > 0.0, nv[..., :-1, :],
                                            nv[..., 1:, :])
    fy[..., 1:-1] = chi * gyi * np.where(gyi > 0.0, nv[..., :-1], nv[..., 1:])
    return divergence(VectorField(g, fx, fy))


def consumption(n: ScalarField, c: ScalarField, f) -> ScalarField:
    """Pointwise uptake n * f(c); f is a consumption law with f(0) = 0."""
    g = require_same_grid(n, c)
    return ScalarField(g, n.values * f.eval(c.values))


def buoyancy(n: ScalarField,
             grad_phi: tuple[np.ndarray, np.ndarray]) -> VectorField:
    """Forcing n * grad(potential) on faces; density interpolated to faces.

    ``grad_phi`` is scalar_face_gradients of the potential, which carries no
    lanes.  Wall-normal boundary faces are zero, matching the no-slip target
    space of the projection.
    """
    g = n.grid
    gpx, gpy = grad_phi
    nv = n.values
    out = zeros_vector(g, n.lanes)
    out.u_x[..., 1:-1, :] = (0.5 * (nv[..., :-1, :] + nv[..., 1:, :])
                             * gpx[1:-1, :])
    out.u_y[..., 1:-1] = 0.5 * (nv[..., :-1] + nv[..., 1:]) * gpy[:, 1:-1]
    return out


def divergence_residual(v: VectorField):
    """Max-norm of the discrete divergence, the projection quality measure;
    one value per lane of a batched field."""
    return norm(divergence(v), "Linf")
