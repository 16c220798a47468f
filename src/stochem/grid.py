"""Staggered rectangular grid, discrete fields, and the integral calculus on them.

Scalars (cell density, oxygen concentration, pressure) live at cell centers.
Velocity components live on cell faces in the marker-and-cell arrangement:
``u_x`` on the (nx+1, ny) vertical faces, ``u_y`` on the (nx, ny+1) horizontal
faces.  This makes the discrete divergence a per-cell balance of face values,
which is what the projection step and the flux-form conservation proofs need.

Boundary conventions are fixed once here and honored by every operator:
homogeneous Neumann for scalars (mirror ghosts, zero boundary-face gradient)
and no-slip for velocity (zero wall-normal faces, reflected tangential ghosts).
All integrals use midpoint (cell-average) quadrature with weight dx*dy.

Field arrays may carry one leading lane axis, one lane per independent
trajectory of a batched run.  Every operator indexes from the end and
reduces per lane over ``LANE_REDUCE``, so a lane's numbers are bitwise those
of the same field without the lane axis.

A stencil is written once for both directions: ``along(axis, s)`` indexes
one spatial axis (-2 for x, -1 for y), and ``neighbours``, ``pair_mean`` and
``pair_difference`` act on the neighbour pairs along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


LANE_REDUCE = (-2, -1)   # the spatial axes a per-lane reduction sums over


class GridError(ValueError):
    """Raised for invalid grid construction or mismatched-grid operands."""


class LaneError(RuntimeError):
    """A per-lane check failed; ``lane`` is None for an unbatched state."""

    def __init__(self, message: str, lane: int | None = None):
        super().__init__(message)
        self.lane = lane


def per_lane(x):
    """A per-lane numpy reduction: a Python number for an unbatched field,
    else one entry per lane."""
    return x.item() if x.ndim == 0 else x


def first_failing_lane(bad) -> int | None:
    """None for the flag of an unbatched check, else the lowest flagged lane."""
    return None if np.ndim(bad) == 0 else int(np.flatnonzero(bad)[0])


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    lx: float
    ly: float
    dx: float
    dy: float

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy

    @property
    def area(self) -> float:
        return self.lx * self.ly


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a uniform rectangular grid; spacings are derived, never stored twice.

    Requires at least 4 cells per direction so every interior stencil has two
    interior neighbors.
    """
    if nx < 4 or ny < 4:
        raise GridError(f"grid needs nx, ny >= 4, got nx={nx}, ny={ny}")
    if not (lx > 0.0 and ly > 0.0):
        raise GridError(f"domain lengths must be positive, got lx={lx}, ly={ly}")
    grid = Grid(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly),
                dx=float(lx) / int(nx), dy=float(ly) / int(ny))
    for name, length, h in (("lx", grid.lx, grid.dx), ("ly", grid.ly, grid.dy)):
        if not _stencil_weight_ok(h):
            raise GridError(f"{name} = {length!r}: the spacing {h!r} puts the "
                            f"stencil weight 2/h^2 outside the finite "
                            f"positive floats")
    return grid


def _stencil_weight_ok(h: float) -> bool:
    """True when 2/h^2, the Laplacian's stencil weight, is a finite positive
    float (h^2 may underflow to zero or overflow)."""
    try:
        weight = 2.0 / h ** 2
    except (ZeroDivisionError, OverflowError):
        return False
    return math.isfinite(weight) and weight > 0.0


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray  # shape (..., nx, ny), cell centers

    def __post_init__(self):
        expected = (self.grid.nx, self.grid.ny)
        if self.values.shape[-2:] != expected:
            raise GridError(f"scalar field shape {self.values.shape} != {expected}")

    @property
    def lanes(self) -> tuple[int, ...]:
        """Leading lane shape: () for an unbatched field."""
        return self.values.shape[:-2]

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    grid: Grid
    u_x: np.ndarray  # shape (..., nx+1, ny), vertical faces
    u_y: np.ndarray  # shape (..., nx, ny+1), horizontal faces

    def __post_init__(self):
        g = self.grid
        if self.u_x.shape[-2:] != (g.nx + 1, g.ny):
            raise GridError(f"u_x shape {self.u_x.shape} != {(g.nx + 1, g.ny)}")
        if self.u_y.shape[-2:] != (g.nx, g.ny + 1):
            raise GridError(f"u_y shape {self.u_y.shape} != {(g.nx, g.ny + 1)}")
        if self.u_x.shape[:-2] != self.u_y.shape[:-2]:
            raise GridError(f"u_x lanes {self.u_x.shape[:-2]} != "
                            f"u_y lanes {self.u_y.shape[:-2]}")

    @property
    def lanes(self) -> tuple[int, ...]:
        """Leading lane shape: () for an unbatched field."""
        return self.u_x.shape[:-2]

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.u_x.copy(), self.u_y.copy())


Field = ScalarField | VectorField


def zeros_vector(grid: Grid, lanes: tuple[int, ...] = ()) -> VectorField:
    return VectorField(grid, np.zeros(lanes + (grid.nx + 1, grid.ny)),
                       np.zeros(lanes + (grid.nx, grid.ny + 1)))


def cell_center_axes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D cell-center coordinates along x and along y."""
    return ((np.arange(grid.nx) + 0.5) * grid.dx,
            (np.arange(grid.ny) + 0.5) * grid.dy)


def require_same_grid(a: Field, b: Field) -> Grid:
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridError("fields live on different grids")
    return a.grid


def inner_product(a: Field, b: Field):
    """Discrete L2 pairing: sum of pointwise products weighted by cell volume,
    per lane.

    Vector fields pair face-by-face, each face carrying the full cell volume,
    which is the quadrature under which the projection is an orthogonal one.
    """
    g = require_same_grid(a, b)
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        s = np.sum(a.values * b.values, axis=LANE_REDUCE)
        return per_lane(s) * g.cell_volume
    if isinstance(a, VectorField) and isinstance(b, VectorField):
        s = (np.sum(a.u_x * b.u_x, axis=LANE_REDUCE)
             + np.sum(a.u_y * b.u_y, axis=LANE_REDUCE))
        return per_lane(s) * g.cell_volume
    raise GridError("inner_product needs two fields of the same kind")


INNER = slice(1, -1)     # the interior faces along an axis


def along(axis: int, s) -> tuple:
    """The index that applies ``s`` to one spatial axis of a field array:
    a[along(-2, s)] is a[..., s, :] (x), a[along(-1, s)] is a[..., s] (y)."""
    return (..., s, slice(None)) if axis == -2 else (..., s)


def neighbours(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The views (a[i], a[i + 1]) of every neighbour pair along ``axis``."""
    if axis == -2:
        return a[..., :-1, :], a[..., 1:, :]
    return a[..., :-1], a[..., 1:]


def pair_mean(a: np.ndarray, axis: int, out=None) -> np.ndarray:
    """0.5 * (a[i] + a[i + 1]) along ``axis``, in ``out`` or a new array."""
    s = np.add(*neighbours(a, axis), out=out)
    s *= 0.5
    return s


def pair_difference(a: np.ndarray, axis: int, out=None) -> np.ndarray:
    """a[i + 1] - a[i] along ``axis``, in ``out`` or a new array."""
    lo, hi = neighbours(a, axis)
    return np.subtract(hi, lo, out=out)


def scalar_face_gradients(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Face-normal gradients of a cell scalar; zero on boundary faces (Neumann)."""
    g = f.grid
    gx = np.empty(f.lanes + (g.nx + 1, g.ny))
    gy = np.empty(f.lanes + (g.nx, g.ny + 1))
    for axis, face, h in ((-2, gx, g.dx), (-1, gy, g.dy)):
        face[along(axis, 0)] = face[along(axis, -1)] = 0.0
        inner = pair_difference(f.values, axis, out=face[along(axis, INNER)])
        inner /= h
    return gx, gy


def divergence(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, flux_divergence(v.u_x, v.u_y, v.grid))


def flux_divergence(fx: np.ndarray, fy: np.ndarray, grid: Grid) -> np.ndarray:
    """(fx[i+1] - fx[i]) / dx + (fy[j+1] - fy[j]) / dy on the last two axes:
    the discrete divergence of a face flux, built in one new array."""
    d = pair_difference(fx, -2)
    d /= grid.dx
    dy_part = pair_difference(fy, -1)
    dy_part /= grid.dy
    d += dy_part
    return d


def node_sines(grid: Grid, axis: int, k: int) -> np.ndarray:
    """sin(k pi s / l) at the n + 1 nodes s = i h of one axis (-2 for x,
    -1 for y): the profile of a stream function of wavenumber k along it."""
    n, h, length = ((grid.nx, grid.dx, grid.lx) if axis == -2
                    else (grid.ny, grid.dy, grid.ly))
    return np.sin(k * np.pi * (np.arange(n + 1) * h) / length)


def stream_function_curl(grid: Grid, a: int, b: int) -> VectorField:
    """Discrete curl of the node stream function sin(a pi x/lx) sin(b pi y/ly):
    exactly divergence-free, with zero wall-normal faces."""
    psi = np.outer(node_sines(grid, -2, a), node_sines(grid, -1, b))
    return VectorField(grid,
                       (psi[:, 1:] - psi[:, :-1]) / grid.dy,
                       -(psi[1:, :] - psi[:-1, :]) / grid.dx)


def norm(f: Field, kind: str):
    """Discrete norms: 'L2', 'Linf', and, for a scalar, the gradient
    seminorm 'H1_semi'; a float, or one value per lane of a batched field."""
    g = f.grid
    if kind == "L2":
        return per_lane(np.sqrt(inner_product(f, f)))
    if kind == "Linf":
        if isinstance(f, ScalarField):
            return per_lane(np.max(np.abs(f.values), axis=LANE_REDUCE))
        return per_lane(np.maximum(np.max(np.abs(f.u_x), axis=LANE_REDUCE),
                                   np.max(np.abs(f.u_y), axis=LANE_REDUCE)))
    if kind == "H1_semi" and isinstance(f, ScalarField):
        gx, gy = scalar_face_gradients(f)
        s = (np.sum(gx ** 2, axis=LANE_REDUCE)
             + np.sum(gy ** 2, axis=LANE_REDUCE))
        return per_lane(np.sqrt(s * g.cell_volume))
    raise GridError(f"no {kind!r} norm for a {type(f).__name__}")
