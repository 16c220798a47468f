"""Stochastic inputs: transport vector fields, velocity forcing, increments.

The transport fields are the canonical constant unit fields, ramped to zero
over a ring of faces near the walls (the continuum construction is
discontinuous at the boundary; the ramp width is the resolution knob).
sigma_1 = (r_1, 0) lives on the vertical faces and sigma_2 = (0, r_2) on the
horizontal ones.  A face's ramp is clip((d - w)/w, 0, 1) in units of its
distance d to the nearest wall, so faces within w of a wall are exactly zero
and the covariance q(x,x) equals the identity at every cell at least 2w
cells from the boundary.  That distance is the smaller of the distances
along x and along y, and the clip map is monotone, so each ramp is
r[i, j] = min(r_x[i], r_y[j]) of two 1-D profiles, bit for bit.  Only the
four profiles are held, with each ramp's weights on its ring, the rows and
the columns where a profile is below 1, in O(w^2 + w) numbers; a face array
is weighted only there, since everywhere else its ramp is exactly 1.

The velocity forcing's modes are discrete curls of the node stream functions
sin(a pi x) sin(b pi y), so each face field of a mode is an outer product of
two node profiles.  Only the profiles of the distinct wavenumbers are held,
O(k_modes (nx + ny)) numbers, and an increment is summed once per distinct
wavenumber.

Brownian increments are counter-based: the value of every draw is a pure
function of (seed, replica, step, mode), which is what makes twin paths,
nested refinement, and parallel replicas replayable bit for bit.  A batched
run stacks one draw per lane on a leading lane axis; an increment without
that axis drives every lane alike.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .grid import (Grid, ScalarField, VectorField, face_gradient, node_sines,
                   norm, pair_difference, pair_mean, per_lane,
                   require_same_grid, scalar_face_gradients)


def _run_of_ones(p: np.ndarray) -> tuple[slice, np.ndarray]:
    """The first run of entries of ``p`` that are exactly 1 (empty at the
    end if there is none), and the indices outside it."""
    values = p.tolist()
    start = values.index(1.0) if 1.0 in values else len(values)
    stop = start
    while stop < len(values) and values[stop] == 1.0:
        stop += 1
    return slice(start, stop), np.r_[:start, stop:len(values)]


@dataclass(frozen=True)
class Ramp:
    """A transport field's ramp, min(x[i], y[j]) on its face (i, j), held as
    the profile x over its rows and y over its columns.  The ramp is exactly
    1 on the core, the block of the first runs of ones of x and of y, and
    ``ring`` holds the weights of the rest, once, as (index, weight) pairs:
    the corners outside the core's rows and columns, the rows outside it
    across its columns, and its rows across the columns outside it."""
    x: np.ndarray
    y: np.ndarray
    ring: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (rows, r), (cols, c) = _run_of_ones(self.x), _run_of_ones(self.y)
        object.__setattr__(self, "ring", (
            ((..., r[:, None], c), np.minimum.outer(self.x[r], self.y[c])),
            ((..., r, cols), np.minimum(self.x[r], 1.0)[:, None]),  # y is 1
            ((..., rows, c), np.minimum(1.0, self.y[c]))))          # x is 1


@dataclass(frozen=True)
class TransportSigma:
    """The two transport fields, zero within ``cutoff_width`` w faces of
    the walls, and ``interior``, the block of cells at least 2w from every
    wall, where q(x,x) = Id holds exactly.  The ramps' profiles are
    nonnegative."""
    grid: Grid
    ramp_1: Ramp   # sigma_1 = (ramp_1, 0): x on nx + 1 faces, y on ny cells
    ramp_2: Ramp   # sigma_2 = (0, ramp_2): x on nx cells, y on ny + 1 faces
    cutoff_width: int
    interior: tuple[slice, slice]   # [2w, nx - 2w) x [2w, ny - 2w)


@dataclass(frozen=True)
class NoiseIncrement:
    dw: np.ndarray       # (..., K) increments of the cylindrical process
    dbeta: np.ndarray    # (..., 2) increments of the planar motion


def _ramp_profiles(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """clip((d - w)/w, 0, 1) of the distance d = min(s, n - s), in cells,
    to the nearer wall of an axis n cells long, at its n + 1 faces s = i
    and at its n cell centres s = i + 1/2."""
    profiles = []
    for s in (np.arange(n + 1, dtype=float), np.arange(n, dtype=float) + 0.5):
        d = np.minimum(s, n - s)
        profiles.append(np.clip((d - w) / w, 0.0, 1.0))
    return tuple(profiles)


def make_transport_sigma(grid: Grid, cutoff_width: int = 1) -> TransportSigma:
    """Canonical unit transport fields with a boundary cutoff ramp."""
    w = int(cutoff_width)
    if w < 1:
        raise ValueError(f"cutoff_width must be >= 1, got {cutoff_width}")
    if w >= min(grid.nx, grid.ny) / 4:
        raise ValueError(f"cutoff_width {w} too wide for a "
                         f"{grid.nx}x{grid.ny} grid (must be < min/4)")
    x_faces, x_cells = _ramp_profiles(grid.nx, w)
    y_faces, y_cells = _ramp_profiles(grid.ny, w)
    return TransportSigma(grid=grid, ramp_1=Ramp(x_faces, y_cells),
                          ramp_2=Ramp(x_cells, y_faces), cutoff_width=w,
                          interior=(slice(2 * w, grid.nx - 2 * w),
                                    slice(2 * w, grid.ny - 2 * w)))


def combined_sigma_linf(sigma: TransportSigma) -> float:
    """Root-sum-square of the per-field sup norms, as the noise conditions
    use.  min(x[i], y[j]) of nonnegative profiles peaks at the smaller of
    their maxima."""
    return math.sqrt(sum(min(float(np.max(r.x)), float(np.max(r.y))) ** 2
                         for r in (sigma.ramp_1, sigma.ramp_2)))


def _weight_ring(face: np.ndarray, ramp: Ramp):
    """face *= min(x[i], y[j]) in place, on the ring alone, by the weights
    the ramp holds.  The core's weight is exactly 1 and the ring's three
    blocks do not overlap, so every other entry is weighted once and the
    result is bitwise the product with the full ramp."""
    for index, weight in ramp.ring:
        face[index] *= weight


def transport_noise_modes(c: ScalarField, sigma: TransportSigma) -> list[np.ndarray]:
    """Cell fields L_k c approximating sigma_k . grad c, one per transport field.

    Face gradients are weighted by the face ramp and averaged to the cell,
    which annihilates constants everywhere and degrades gracefully over the
    cutoff ring.
    """
    require_same_grid(c, sigma)
    gx, gy = scalar_face_gradients(c)
    _weight_ring(gx, sigma.ramp_1)
    _weight_ring(gy, sigma.ramp_2)
    return [pair_mean(gx, -2), pair_mean(gy, -1)]


def _apply_mode(m: np.ndarray, ramp: Ramp, axis: int,
                h: float) -> np.ndarray:
    """L_k applied to the cell field ``m`` with the arithmetic of
    transport_noise_modes: the face gradient along ``axis``, weighted by the
    face ramp and averaged to the cells."""
    face = face_gradient(m, axis, h)
    _weight_ring(face, ramp)
    return pair_mean(face, axis)


def transport_ito_correction(modes: list[np.ndarray], sigma: TransportSigma,
                             gamma: float) -> ScalarField:
    """Exact Ito correction of the discrete noise map, (gamma^2/2) sum_k L_k^2 c,
    from the modes [L_1 c, L_2 c] of transport_noise_modes.  It consumes
    the list: each mode is popped for its stencil, so the list is empty on
    return and a mode no caller holds is freed once its stencil is done.

    Applying the same discrete operator twice is what makes the expected
    quadratic-variation growth of the noise cancel the correction's drain to
    round-off wherever the operator is locally antisymmetric (the whole
    q = Id region); a generic (gamma^2/2) lap(c) would differ from this by an
    O(dx^2) stencil mismatch that leaves a fixed-grid bias in the energy
    drift.  L_1 only differences along x and L_2 only along y, so each is
    applied with its own one-axis stencil.
    """
    g = sigma.grid
    acc = _apply_mode(modes.pop(0), sigma.ramp_1, -2, g.dx)
    acc += _apply_mode(modes.pop(0), sigma.ramp_2, -1, g.dy)
    acc *= 0.5 * gamma ** 2
    return ScalarField(g, acc)


def transport_noise_apply(modes: list[np.ndarray], gamma: float,
                          inc: NoiseIncrement) -> np.ndarray:
    """One increment of the oxygen transport noise, gamma sum_k L_k c dbeta_k."""
    kick = modes[0] * inc.dbeta[..., 0, None, None]   # per-lane scalars
    kick += modes[1] * inc.dbeta[..., 1, None, None]
    kick *= gamma
    return kick


def transport_hs_sq(modes: list[np.ndarray], sigma: TransportSigma):
    """Sum over k of the squared L2 norm of the cell fields ``modes`` (the
    L_k c at unit intensity) over sigma's interior block, per lane.

    The squared block is contiguous, one lane after another, so every lane
    sums the bits its unbatched sum would."""
    hs = sum(np.sum(m[(..., *sigma.interior)] ** 2, axis=(-2, -1))
             for m in modes)
    return per_lane(hs) * sigma.grid.cell_volume


@dataclass(frozen=True)
class StreamProfiles:
    """The forcing's node profiles along one axis: one row per distinct
    wavenumber k there, and the row of each mode's wavenumber."""
    sines: np.ndarray        # (rows, n + 1): sin(k pi s / l) on the nodes
    differences: np.ndarray  # (rows, n): the curl's face difference of each
    rows: np.ndarray         # (n_modes,): the row of each mode


@dataclass(frozen=True)
class VelocityNoiseConfig:
    """Unit-L2, discretely divergence-free stream modes, held as node
    profiles: mode k is (sx[a_k] (x) dy[b_k], dx[a_k] (x) sy[b_k]) / norm_k,
    with s the sines and d the differences of StreamProfiles x and y."""
    grid: Grid
    n_modes: int
    amplitude: float
    multiplicative_gain: float
    lambdas: np.ndarray
    mode_norms: np.ndarray   # L2 norm of each mode's stream_function_curl
    x: StreamProfiles        # the wavenumbers a, along x
    y: StreamProfiles        # the wavenumbers b, along y


def _stream_mode_numbers(count: int, nx: int, ny: int) -> list:
    """The ``count`` lowest (a, b) by a^2 + b^2, then (a, b), that the grid
    resolves: 1 <= a < nx, 1 <= b < ny (none has a or b > count).  At a = nx
    or b = ny the curl is round-off; above, it aliases a lower mode."""
    pairs = [(a, b) for a in range(1, min(count, nx - 1) + 1)
             for b in range(1, min(count, ny - 1) + 1)]
    pairs.sort(key=lambda ab: (ab[0] ** 2 + ab[1] ** 2, ab))
    return pairs[:count]


def _axis_profiles(grid: Grid, axis: int, numbers) -> StreamProfiles:
    """The node sines and the curl's face differences of the distinct
    wavenumbers among ``numbers`` along ``axis``.  The curl is
    (d_y psi, -d_x psi), so the x difference carries the sign."""
    distinct = sorted(set(numbers))
    sines = np.stack([node_sines(grid, axis, k) for k in distinct])
    differences = pair_difference(sines, -1)
    differences /= -grid.dx if axis == -2 else grid.dy
    return StreamProfiles(sines, differences,
                          np.searchsorted(distinct, numbers))


def make_velocity_noise(grid: Grid, n_modes: int, amplitude: float,
                        mode_decay: float = 2.0,
                        multiplicative_gain: float = 0.0) -> VelocityNoiseConfig:
    """Divergence-free trigonometric forcing modes with power-law weights.

    Each mode is a stream_function_curl, normalized to unit L2 norm so the
    Hilbert-Schmidt sum is amplitude^2 * sum(lambda^2).  Both of its faces
    are outer products of node profiles, so only the profiles are built,
    and its squared norm combines their sums of squares.
    """
    resolved = (grid.nx - 1) * (grid.ny - 1)
    if not 1 <= n_modes <= resolved:
        raise ValueError(f"need 1 to (nx - 1)(ny - 1) = {resolved} velocity "
                         f"noise modes, got {n_modes}")
    if amplitude < 0.0:
        raise ValueError(f"noise amplitude must be >= 0, got {amplitude}")
    a, b = zip(*_stream_mode_numbers(n_modes, grid.nx, grid.ny))
    x = _axis_profiles(grid, -2, a)
    y = _axis_profiles(grid, -1, b)
    # |psi_k|^2 = (|sx|^2 |dy|^2 + |dx|^2 |sy|^2) dx dy, at mode k's rows
    sx, dx, sy, dy = (np.sum(p * p, axis=-1)[prof.rows] for prof in (x, y)
                      for p in (prof.sines, prof.differences))
    mode_norms = np.sqrt(grid.cell_volume * (sx * dy + dx * sy))
    lambdas = (1.0 + np.arange(n_modes)) ** (-float(mode_decay))
    return VelocityNoiseConfig(
        grid=grid, n_modes=n_modes, amplitude=float(amplitude),
        multiplicative_gain=float(multiplicative_gain), lambdas=lambdas,
        mode_norms=mode_norms, x=x, y=y)


# math.tanh applied per lane: numpy's vectorised tanh can differ from it in
# the last bit, and a lane must keep the bits of its unbatched run
_lane_tanh = np.frompyfunc(math.tanh, 1, 1)


def g_scale(u: VectorField, cfg: VelocityNoiseConfig):
    """State-dependent amplitude; bounded and 1-Lipschitz in |u|_L2; one
    value per lane.  At zero gain it is the amplitude, and |u|_L2 is not
    taken."""
    if cfg.multiplicative_gain == 0.0:
        return per_lane(np.full(u.lanes, cfg.amplitude))
    scale = cfg.amplitude * (1.0 + cfg.multiplicative_gain
                             * _lane_tanh(norm(u, "L2")))
    return per_lane(np.asarray(scale, dtype=float))


def g_apply(u: VectorField, cfg: VelocityNoiseConfig,
            inc: NoiseIncrement) -> VectorField:
    """One increment of the velocity forcing, scale * sum_k lambda_k psi_k dW_k,
    summed once per distinct wavenumber.

    With the weights w_k of the unit modes in an (a, b) table (zero where
    no mode is), u_x = sum_b (sum_a w_ab sx[a]) (x) dy[b] and
    u_y = sum_a dx[a] (x) (sum_b w_ab sy[b]).  einsum without ``optimize``
    sums each entry's products in order, with no BLAS, so a lane keeps the
    bits of its unbatched increment.
    """
    require_same_grid(u, cfg)
    x, y = cfg.x, cfg.y
    weights = (np.asarray(g_scale(u, cfg))[..., None] * cfg.lambdas
               * inc.dw / cfg.mode_norms)
    table = np.zeros(weights.shape[:-1] + (len(x.sines), len(y.sines)))
    table[..., x.rows, y.rows] = weights
    return VectorField(
        u.grid,
        np.einsum("...bi,bj->...ij",
                  np.einsum("...ab,ai->...bi", table, x.sines), y.differences),
        np.einsum("ai,...aj->...ij", x.differences,
                  np.einsum("...ab,bj->...aj", table, y.sines)))


_U64 = 0xFFFFFFFFFFFFFFFF
_draws = threading.local()   # one reusable Philox generator per thread
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _philox_at(key: np.ndarray, counter: np.ndarray) -> np.random.Generator:
    """This thread's generator, reset to the state of a freshly built
    Philox(counter=counter, key=key): an exhausted buffer and no spare
    32-bit half, so the next draw starts at the counter block."""
    gen = getattr(_draws, "gen", None)
    if gen is None:
        gen = _draws.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": _EMPTY_BUFFER, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def sample_increments(seed: int, replica: int, step: int, dt: float,
                      k_modes: int) -> NoiseIncrement:
    """Gaussian increments Normal(0, dt), a pure function of the counter tuple.

    Backed by the Philox counter-based generator keyed on (seed, replica)
    with the step index in the counter block; mode index is the position in
    the drawn vector.  Identical arguments reproduce identical bits, on any
    thread.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    key = np.array([seed & _U64, replica & _U64], dtype=np.uint64)
    counter = np.array([0, 0, 0, step & _U64], dtype=np.uint64)
    z = _philox_at(key, counter).standard_normal(k_modes + 2)
    z *= math.sqrt(dt)
    return NoiseIncrement(dw=z[:k_modes], dbeta=z[k_modes:])


def merge_increments(parts: list[NoiseIncrement]) -> NoiseIncrement:
    """Sum consecutive fine increments into one coarse increment (same path)."""
    if not parts:
        raise ValueError("cannot merge an empty increment list")
    dw = np.sum([p.dw for p in parts], axis=0)
    dbeta = np.sum([p.dbeta for p in parts], axis=0)
    return NoiseIncrement(dw=dw, dbeta=dbeta)
