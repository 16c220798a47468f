"""Discrete transport, diffusion, coupling, and projection operators.

Everything is flux-form on the staggered grid so the conservation and
energy-pairing identities hold by telescoping rather than by approximation:

* scalar advection sums face fluxes that vanish on walls, so its total
  integral is zero for any velocity field;
* the skew-symmetric convection operator is the exact average of the
  advective and divergence forms, which kills the kinetic-energy pairing
  (B(u,v), v) to round-off whenever the advecting field has zero wall-normal
  faces;
* the chemotaxis flux upwinds the cell density by the sign of the drift
  chi grad c, with scalar advection's donor-cell face flux, which is what
  keeps the density nonnegative without clipping;
* the projection subtracts the gradient of a Neumann-Poisson solve, making
  the post-projection divergence exactly the solver residual.

Each stencil is written once for both directions with grid's neighbour-pair
helpers: one face-flux routine for advection and chemotaxis, and one
convection half called once per velocity component.

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
from .grid import (INNER, Grid, ScalarField, VectorField, along, divergence,
                   flux_divergence, neighbours, norm, pair_mean,
                   require_same_grid, scalar_face_gradients, zeros_vector)


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


def _face_value(p: np.ndarray, axis: int, carrier: np.ndarray,
                mode: AdvectionMode) -> np.ndarray:
    """``p`` on the interior faces along ``axis``: the centred mean, or the
    donor cell that the carrier leaves."""
    if mode is AdvectionMode.CENTERED_SKEW:
        return pair_mean(p, axis)
    return np.where(carrier > 0.0, *neighbours(p, axis))


def _face_flux_div(p: np.ndarray, carriers, flux: VectorField,
                   mode: AdvectionMode) -> ScalarField:
    """div of the face flux carrier * face value of ``p``, built in the
    interior faces of ``flux``, whose walls stay zero; an (x, y) carrier may
    be the interior of the flux itself."""
    for axis, carrier, face in zip((-2, -1), carriers, (flux.u_x, flux.u_y)):
        np.multiply(carrier, _face_value(p, axis, carrier, mode),
                    out=face[along(axis, INNER)])
    return divergence(flux)


def convect_velocity(u: VectorField, v: VectorField) -> VectorField:
    """Discrete (u . grad) v on the staggered layout; u and v carry the same
    lanes.

    The exact average of the advective and divergence forms,
    1/2[(u.grad)v + div(u x v)], with centered face values; its pairing
    against v is identically zero for any u with vanishing wall-normal faces.
    """
    g = require_same_grid(u, v)
    inner_x = _convect(u.u_x, u.u_y, v.u_x, -2, g)
    inner_y = _convect(u.u_y, u.u_x, v.u_y, -1, g)
    out = zeros_vector(g, inner_x.shape[:-2])
    out.u_x[..., 1:-1, :] = inner_x
    out.u_y[..., 1:-1] = inner_y
    return out


def _convect(own: np.ndarray, other: np.ndarray, v_own: np.ndarray,
             axis: int, grid: Grid) -> np.ndarray:
    """convect_velocity's component normal to ``axis`` on its interior faces,
    from dual cells around them: div_flux - 0.5 v_own div(advecting velocity),
    ``own`` and ``other`` the advecting components normal and tangential."""
    cross = -3 - axis
    own_bar = pair_mean(own, axis)        # advecting velocity at cell centers
    other_til = pair_mean(other, axis)    # and at the interior nodes
    xy = (own_bar, other_til) if axis == -2 else (other_til, own_bar)
    half_v_divd = flux_divergence(*xy, grid)
    half_v_divd *= np.multiply(v_own[along(axis, INNER)], 0.5)
    own_bar *= pair_mean(v_own, axis)     # the normal flux at cell centers
    # the tangential flux at nodes: other_til times v_own there, which is
    # zero on the wall nodes
    other_til[along(cross, INNER)] *= pair_mean(v_own[along(axis, INNER)],
                                                cross)
    other_til[along(cross, [0, -1])] *= 0.0
    div_flux = flux_divergence(*xy, grid)   # the fluxes, updated in place
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
    flux = zeros_vector(g, np.broadcast_shapes(u.lanes, phi.lanes))
    carriers = (u.u_x[..., 1:-1, :], u.u_y[..., 1:-1])
    return _face_flux_div(phi.values, carriers, flux, mode)


def chemotaxis_div(n: ScalarField, grad_c: tuple[np.ndarray, np.ndarray],
                   chi: float) -> ScalarField:
    """Flux-form div(chi * n * grad c) with the density upwinded along grad c.

    ``grad_c`` is scalar_face_gradients(c).  The drift velocity of the cells
    is chi * grad c, so each face takes the density from the cell the flux
    leaves, with scalar_advect's donor-cell face flux.  Wall fluxes are zero
    (Neumann c).
    """
    if chi < 0.0:
        raise ValueError(f"chemotactic constant must be >= 0, got {chi}")
    flux = zeros_vector(n.grid, grad_c[0].shape[:-2])
    # the drift velocity chi * grad c, written into the flux's interior
    carriers = [np.multiply(chi, grad[along(axis, INNER)],
                            out=face[along(axis, INNER)])
                for axis, grad, face in zip((-2, -1), grad_c,
                                            (flux.u_x, flux.u_y))]
    return _face_flux_div(n.values, carriers, flux, AdvectionMode.UPWIND_FLUX)


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
    out = zeros_vector(n.grid, n.lanes)
    for axis, face, grad in zip((-2, -1), (out.u_x, out.u_y), grad_phi):
        inner = pair_mean(n.values, axis, out=face[along(axis, INNER)])
        inner *= grad[along(axis, INNER)]
    return out


def divergence_residual(v: VectorField):
    """Max-norm of the discrete divergence, the projection quality measure;
    one value per lane of a batched field."""
    return norm(divergence(v), "Linf")
