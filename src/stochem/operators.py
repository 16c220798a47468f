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

Ownership: a function may write into arrays it allocated, never into its
arguments.  Each operator builds its result in arrays of its own, updates
them in place and lets every intermediate go once it is consumed, with the
same floating-point operations, on the same operands, as the plain
expressions (at most a sum or product commuted).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _spectral
from .grid import (Grid, ScalarField, VectorField, divergence, flux_divergence,
                   norm, require_same_grid, scalar_face_gradients,
                   zeros_vector)


class AdvectionMode(Enum):
    CENTERED_SKEW = "CenteredSkew"
    UPWIND_FLUX = "UpwindFlux"


def helmholtz_project(v: VectorField) -> VectorField:
    """Project a face field onto the discretely divergence-free subspace.

    Solves the Neumann-Poisson problem lap(p) = div(v) and subtracts grad(p),
    in the gradient's arrays.  Wall-normal face values are untouched (the
    gradient vanishes there), so inputs with no-slip walls keep them.
    """
    g = v.grid
    p, _info = _spectral.solve_poisson_neumann(g, divergence(v).values)
    gpx, gpy = scalar_face_gradients(ScalarField(g, p))
    return VectorField(g, np.subtract(v.u_x, gpx, out=gpx),
                       np.subtract(v.u_y, gpy, out=gpy))


def _mean(left: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
    """0.5 * (left + right), in ``out`` when given, else in a new array."""
    s = np.add(left, right, out=out)
    s *= 0.5
    return s


def _face_value(left: np.ndarray, right: np.ndarray, carrier: np.ndarray,
                mode: AdvectionMode) -> np.ndarray:
    if mode is AdvectionMode.CENTERED_SKEW:
        return _mean(left, right)
    return np.where(carrier > 0.0, left, right)


def convect_velocity(u: VectorField, v: VectorField) -> VectorField:
    """Discrete (u . grad) v on the staggered layout; u and v carry the same
    lanes.

    The exact average of the advective and divergence forms,
    1/2[(u.grad)v + div(u x v)], with centered face values; its pairing
    against v is identically zero for any u with vanishing wall-normal faces.
    """
    g = require_same_grid(u, v)
    inner_x = _convect_x(u, v, g)
    inner_y = _convect_y(u, v, g)
    out = zeros_vector(g, inner_x.shape[:-2])
    out.u_x[..., 1:-1, :] = inner_x
    out.u_y[..., 1:-1] = inner_y
    return out


def _convect_x(u: VectorField, v: VectorField, grid: Grid) -> np.ndarray:
    """convect_velocity's x component on the interior vertical faces, from
    dual cells around them: div_flux - 0.5 v div(advecting velocity)."""
    ubar = _mean(u.u_x[..., :-1, :], u.u_x[..., 1:, :])   # u at cell centers
    vtil = _mean(u.u_y[..., :-1, :], u.u_y[..., 1:, :])   # v at interior nodes
    half_v_divd = flux_divergence(ubar, vtil, grid)
    half_v_divd *= np.multiply(v.u_x[..., 1:-1, :], 0.5)
    ubar *= _mean(v.u_x[..., :-1, :], v.u_x[..., 1:, :])  # x-flux at centers
    # y-flux at nodes: vtil times v there, which is zero on the wall nodes
    vtil[..., 1:-1] *= _mean(v.u_x[..., 1:-1, :-1], v.u_x[..., 1:-1, 1:])
    vtil[..., [0, -1]] *= 0.0
    div_flux = flux_divergence(ubar, vtil, grid)
    return np.subtract(div_flux, half_v_divd, out=div_flux)


def _convect_y(u: VectorField, v: VectorField, grid: Grid) -> np.ndarray:
    """convect_velocity's y component on the interior horizontal faces,
    mirroring _convect_x."""
    vbar = _mean(u.u_y[..., :-1], u.u_y[..., 1:])         # v at cell centers
    util = _mean(u.u_x[..., :-1], u.u_x[..., 1:])         # u at interior nodes
    half_v_divd = flux_divergence(util, vbar, grid)
    half_v_divd *= np.multiply(v.u_y[..., 1:-1], 0.5)
    vbar *= _mean(v.u_y[..., :-1], v.u_y[..., 1:])        # y-flux at centers
    util[..., 1:-1, :] *= _mean(v.u_y[..., :-1, 1:-1], v.u_y[..., 1:, 1:-1])
    util[..., [0, -1], :] *= 0.0                          # x-flux at nodes
    div_flux = flux_divergence(util, vbar, grid)
    return np.subtract(div_flux, half_v_divd, out=div_flux)


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
    lanes = np.broadcast_shapes(u.lanes, phi.lanes)
    ux = u.u_x[..., 1:-1, :]
    uy = u.u_y[..., 1:-1]
    fx = np.zeros(lanes + (g.nx + 1, g.ny))
    fy = np.zeros(lanes + (g.nx, g.ny + 1))
    np.multiply(ux, _face_value(p[..., :-1, :], p[..., 1:, :], ux, mode),
                out=fx[..., 1:-1, :])
    np.multiply(uy, _face_value(p[..., :-1], p[..., 1:], uy, mode),
                out=fy[..., 1:-1])
    return ScalarField(g, flux_divergence(fx, fy, g))


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
    np.multiply(chi, gxi, out=fx[..., 1:-1, :])
    fx[..., 1:-1, :] *= np.where(gxi > 0.0, nv[..., :-1, :], nv[..., 1:, :])
    np.multiply(chi, gyi, out=fy[..., 1:-1])
    fy[..., 1:-1] *= np.where(gyi > 0.0, nv[..., :-1], nv[..., 1:])
    return ScalarField(g, flux_divergence(fx, fy, g))


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
    _mean(nv[..., :-1, :], nv[..., 1:, :], out=out.u_x[..., 1:-1, :])
    out.u_x[..., 1:-1, :] *= gpx[1:-1, :]
    _mean(nv[..., :-1], nv[..., 1:], out=out.u_y[..., 1:-1])
    out.u_y[..., 1:-1] *= gpy[:, 1:-1]
    return out


def divergence_residual(v: VectorField):
    """Max-norm of the discrete divergence, the projection quality measure;
    one value per lane of a batched field."""
    return norm(divergence(v), "Linf")
