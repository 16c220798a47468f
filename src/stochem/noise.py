"""Stochastic inputs: transport vector fields, velocity forcing, increments.

The transport fields are the canonical constant unit fields, ramped to zero
over a ring of faces near the walls (the continuum construction is
discontinuous at the boundary; the ramp width is the resolution knob).  Face
values follow clip((d - w)/w, 0, 1) in units of the face's distance d to the
nearest wall, so faces within w of a wall are exactly zero, the measured
Lipschitz surrogate is 1/(w*dx), and the covariance q(x,x) equals the
identity at every cell at least 2w cells from the boundary.

Brownian increments are counter-based: the value of every draw is a pure
function of (seed, replica, step, mode), which is what makes twin paths,
nested refinement, and parallel replicas replayable bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Grid, ScalarField, VectorField, divergence, norm,
                   require_same_grid, scalar_face_gradients, zeros_vector)


@dataclass(frozen=True)
class TransportSigma:
    sigma1: VectorField
    sigma2: VectorField
    linf: float          # max over k of the pointwise sup of |sigma_k|
    w1inf: float         # sup-norm surrogate including max one-sided differences
    cutoff_width: int
    interior_mask: np.ndarray  # cells where q(x,x) = Id holds exactly


@dataclass(frozen=True)
class AssumptionReport:
    max_interior_divergence: float
    boundary_zero_violations: int
    max_q_deviation: float
    linf: float
    w1inf: float

    @property
    def ok(self) -> bool:
        return (self.max_interior_divergence == 0.0
                and self.boundary_zero_violations == 0
                and self.max_q_deviation == 0.0)


@dataclass(frozen=True)
class NoiseIncrement:
    dw: np.ndarray       # K increments of the cylindrical process
    dbeta: np.ndarray    # 2 increments of the planar motion
    dt: float
    step_index: int
    replica_index: int
    seed: int


def _face_distances(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Distance (in cell units) of every face from the nearest wall."""
    nx, ny = grid.nx, grid.ny
    ix = np.arange(nx + 1, dtype=float)
    jx = np.arange(ny, dtype=float)
    dxf = np.minimum.outer(np.minimum(ix, nx - ix),
                           np.minimum(jx + 0.5, ny - 0.5 - jx))
    iy = np.arange(nx, dtype=float)
    jy = np.arange(ny + 1, dtype=float)
    dyf = np.minimum.outer(np.minimum(iy + 0.5, nx - 0.5 - iy),
                           np.minimum(jy, ny - jy))
    return dxf, dyf


def make_transport_sigma(grid: Grid, cutoff_width: int = 1) -> TransportSigma:
    """Canonical unit transport fields with a boundary cutoff ramp."""
    w = int(cutoff_width)
    if w < 1:
        raise ValueError(f"cutoff_width must be >= 1, got {cutoff_width}")
    if w >= min(grid.nx, grid.ny) / 4:
        raise ValueError(f"cutoff_width {w} too wide for a "
                         f"{grid.nx}x{grid.ny} grid (must be < min/4)")
    dxf, dyf = _face_distances(grid)
    ramp_x = np.clip((dxf - w) / w, 0.0, 1.0)
    ramp_y = np.clip((dyf - w) / w, 0.0, 1.0)

    s1 = zeros_vector(grid)
    s1.u_x[...] = ramp_x
    s2 = zeros_vector(grid)
    s2.u_y[...] = ramp_y

    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    dist = np.minimum(np.minimum(ii, grid.nx - 1 - ii),
                      np.minimum(jj, grid.ny - 1 - jj))
    mask = dist >= 2 * w

    linf = max(float(np.max(np.abs(ramp_x))), float(np.max(np.abs(ramp_y))))
    w1inf = max(linf, _max_face_difference(grid, s1), _max_face_difference(grid, s2))
    return TransportSigma(sigma1=s1, sigma2=s2, linf=linf, w1inf=w1inf,
                          cutoff_width=w, interior_mask=mask)


def zero_transport_sigma(grid: Grid) -> TransportSigma:
    """Disabled transport noise: zero fields, empty identity-covariance region."""
    return TransportSigma(sigma1=zeros_vector(grid), sigma2=zeros_vector(grid),
                          linf=0.0, w1inf=0.0, cutoff_width=0,
                          interior_mask=np.zeros((grid.nx, grid.ny), dtype=bool))


def _max_face_difference(grid: Grid, v: VectorField) -> float:
    best = 0.0
    for comp, (hx, hy) in ((v.u_x, (grid.dx, grid.dy)), (v.u_y, (grid.dx, grid.dy))):
        if comp.shape[0] > 1:
            best = max(best, float(np.max(np.abs(np.diff(comp, axis=0)))) / hx)
        if comp.shape[1] > 1:
            best = max(best, float(np.max(np.abs(np.diff(comp, axis=1)))) / hy)
    return best


def combined_sigma_linf(sigma: TransportSigma) -> float:
    """Root-sum-square of the per-field sup norms, as the noise conditions use."""
    s1 = max(float(np.max(np.abs(sigma.sigma1.u_x))),
             float(np.max(np.abs(sigma.sigma1.u_y))))
    s2 = max(float(np.max(np.abs(sigma.sigma2.u_x))),
             float(np.max(np.abs(sigma.sigma2.u_y))))
    return math.sqrt(s1 ** 2 + s2 ** 2)


def check_sigma_assumptions(sigma: TransportSigma) -> AssumptionReport:
    """Measure how well a transport family satisfies its structural contract."""
    grid = sigma.sigma1.grid
    w = sigma.cutoff_width
    mask = sigma.interior_mask

    max_div = 0.0
    for s in (sigma.sigma1, sigma.sigma2):
        d = divergence(s).values
        if mask.any():
            max_div = max(max_div, float(np.max(np.abs(d[mask]))))

    dxf, dyf = _face_distances(grid)
    violations = 0
    for s in (sigma.sigma1, sigma.sigma2):
        violations += int(np.count_nonzero(np.abs(s.u_x[dxf <= w]) > 0.0))
        violations += int(np.count_nonzero(np.abs(s.u_y[dyf <= w]) > 0.0))

    q_dev = 0.0
    if mask.any():
        comps = []
        for s in (sigma.sigma1, sigma.sigma2):
            cx = 0.5 * (s.u_x[:-1, :] + s.u_x[1:, :])
            cy = 0.5 * (s.u_y[:, :-1] + s.u_y[:, 1:])
            comps.append((cx, cy))
        qxx = sum(cx * cx for cx, _ in comps)
        qyy = sum(cy * cy for _, cy in comps)
        qxy = sum(cx * cy for cx, cy in comps)
        q_dev = max(float(np.max(np.abs(qxx[mask] - 1.0))),
                    float(np.max(np.abs(qyy[mask] - 1.0))),
                    float(np.max(np.abs(qxy[mask]))))

    linf = 0.0
    for s in (sigma.sigma1, sigma.sigma2):
        linf = max(linf, float(np.max(np.abs(s.u_x))),
                   float(np.max(np.abs(s.u_y))))
    w1inf = max(linf, _max_face_difference(grid, sigma.sigma1),
                _max_face_difference(grid, sigma.sigma2))
    return AssumptionReport(max_interior_divergence=max_div,
                            boundary_zero_violations=violations,
                            max_q_deviation=q_dev, linf=linf, w1inf=w1inf)


def transport_ito_correction(c: ScalarField, sigma: TransportSigma,
                             gamma: float) -> ScalarField:
    """Exact Ito correction of the discrete noise map: (gamma^2/2) sum_k L_k^2 c.

    Applying the same discrete operator twice is what makes the expected
    quadratic-variation growth of the noise cancel the correction's drain to
    round-off wherever the operator is locally antisymmetric (the whole
    q = Id region); a generic (gamma^2/2) lap(c) would differ from this by an
    O(dx^2) stencil mismatch that leaves a fixed-grid bias in the energy
    drift.
    """
    m1, m2 = transport_noise_modes(c, sigma)
    acc = transport_noise_modes(ScalarField(c.grid, m1), sigma)[0]
    acc = acc + transport_noise_modes(ScalarField(c.grid, m2), sigma)[1]
    return ScalarField(c.grid, (0.5 * gamma ** 2) * acc)


def transport_noise_modes(c: ScalarField, sigma: TransportSigma) -> list[np.ndarray]:
    """Cell fields approximating sigma_k . grad c, one per transport field.

    Face gradients are weighted by the face sigma and averaged to the cell,
    which annihilates constants everywhere and degrades gracefully over the
    cutoff ring.
    """
    require_same_grid(c, sigma.sigma1)
    gx, gy = scalar_face_gradients(c)
    out = []
    for s in (sigma.sigma1, sigma.sigma2):
        px = s.u_x * gx
        py = s.u_y * gy
        out.append(0.5 * (px[:-1, :] + px[1:, :])
                   + 0.5 * (py[:, :-1] + py[:, 1:]))
    return out


def transport_noise_apply(c: ScalarField, sigma: TransportSigma, gamma: float,
                          inc: NoiseIncrement) -> ScalarField:
    """One increment of the oxygen transport noise, gamma * sum_k (sigma_k . grad c) dbeta_k."""
    modes = transport_noise_modes(c, sigma)
    acc = gamma * (modes[0] * inc.dbeta[0] + modes[1] * inc.dbeta[1])
    return ScalarField(c.grid, acc)


def transport_hs_sq(c: ScalarField, sigma: TransportSigma) -> float:
    """Sum over k of the squared L2 norm of sigma_k . grad c (unit intensity)."""
    g = c.grid
    modes = transport_noise_modes(c, sigma)
    return float(sum(np.sum(m ** 2) for m in modes)) * g.cell_volume


@dataclass(frozen=True)
class VelocityNoiseConfig:
    n_modes: int
    amplitude: float
    mode_decay: float
    multiplicative_gain: float
    modes: tuple[VectorField, ...]   # unit-L2, discretely divergence-free
    lambdas: np.ndarray
    l_g: float
    l_lip: float


def _stream_mode_numbers(count: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(1, count + 2) for b in range(1, count + 2)]
    pairs.sort(key=lambda ab: (ab[0] ** 2 + ab[1] ** 2, ab))
    return pairs[:count]


def make_velocity_noise(grid: Grid, n_modes: int, amplitude: float,
                        mode_decay: float = 2.0,
                        multiplicative_gain: float = 0.0) -> VelocityNoiseConfig:
    """Divergence-free trigonometric forcing modes with power-law weights.

    Each mode is the discrete curl of a node stream function
    sin(a pi x / lx) sin(b pi y / ly), which is exactly divergence-free on
    the staggered grid and has zero wall-normal faces; modes are normalized
    to unit L2 norm so the Hilbert-Schmidt sum is amplitude^2 * sum(lambda^2).
    """
    if n_modes < 1:
        raise ValueError("need at least one velocity noise mode")
    if amplitude < 0.0:
        raise ValueError(f"noise amplitude must be >= 0, got {amplitude}")
    xn = np.arange(grid.nx + 1) * grid.dx
    yn = np.arange(grid.ny + 1) * grid.dy
    modes = []
    for a, b in _stream_mode_numbers(n_modes):
        psi = np.outer(np.sin(a * np.pi * xn / grid.lx),
                       np.sin(b * np.pi * yn / grid.ly))
        v = VectorField(grid,
                        (psi[:, 1:] - psi[:, :-1]) / grid.dy,
                        -(psi[1:, :] - psi[:-1, :]) / grid.dx)
        v_norm = norm(v, "L2")
        v.u_x /= v_norm
        v.u_y /= v_norm
        modes.append(v)
    lambdas = (1.0 + np.arange(n_modes)) ** (-float(mode_decay))
    hs_unit = math.sqrt(float(np.sum(lambdas ** 2)))
    gain = float(multiplicative_gain)
    return VelocityNoiseConfig(
        n_modes=n_modes, amplitude=float(amplitude), mode_decay=float(mode_decay),
        multiplicative_gain=gain, modes=tuple(modes), lambdas=lambdas,
        l_g=float(amplitude) * (1.0 + abs(gain)) * hs_unit,
        l_lip=float(amplitude) * abs(gain) * hs_unit)


def g_scale(u: VectorField, cfg: VelocityNoiseConfig) -> float:
    """State-dependent amplitude; bounded and 1-Lipschitz in |u|_L2."""
    return cfg.amplitude * (1.0 + cfg.multiplicative_gain * math.tanh(norm(u, "L2")))


def g_apply(u: VectorField, c: ScalarField, cfg: VelocityNoiseConfig,
            inc: NoiseIncrement) -> VectorField:
    """One increment of the velocity forcing, scale * sum_k lambda_k psi_k dW_k."""
    g = u.grid
    out = zeros_vector(g)
    if cfg.amplitude == 0.0:
        return out
    scale = g_scale(u, cfg)
    k = min(cfg.n_modes, len(inc.dw))
    for lam, mode, dw in zip(cfg.lambdas[:k], cfg.modes[:k], inc.dw[:k]):
        w = scale * lam * dw
        out.u_x += w * mode.u_x
        out.u_y += w * mode.u_y
    return out


def g_hilbert_schmidt(cfg: VelocityNoiseConfig, u: VectorField) -> float:
    """Hilbert-Schmidt norm of the forcing operator at the given state."""
    s = math.sqrt(float(sum((lam * norm(m, "L2")) ** 2
                            for lam, m in zip(cfg.lambdas, cfg.modes))))
    return g_scale(u, cfg) * s


_U64 = np.uint64(2 ** 63 - 1 + 2 ** 63)  # 2**64 - 1 without overflow warnings


def sample_increments(seed: int, replica: int, step: int, dt: float,
                      k_modes: int) -> NoiseIncrement:
    """Gaussian increments Normal(0, dt), a pure function of the counter tuple.

    Backed by the Philox counter-based generator keyed on (seed, replica)
    with the step index in the counter block; mode index is the position in
    the drawn vector.  Identical arguments reproduce identical bits.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(replica & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    counter = np.array([0, 0, 0, np.uint64(step & 0xFFFFFFFFFFFFFFFF)],
                       dtype=np.uint64)
    bitgen = np.random.Philox(counter=counter, key=key)
    z = np.random.Generator(bitgen).standard_normal(k_modes + 2)
    z *= math.sqrt(dt)
    return NoiseIncrement(dw=z[:k_modes], dbeta=z[k_modes:], dt=float(dt),
                          step_index=int(step), replica_index=int(replica),
                          seed=int(seed))


def merge_increments(parts: list[NoiseIncrement]) -> NoiseIncrement:
    """Sum consecutive fine increments into one coarse increment (same path)."""
    if not parts:
        raise ValueError("cannot merge an empty increment list")
    dw = np.sum([p.dw for p in parts], axis=0)
    dbeta = np.sum([p.dbeta for p in parts], axis=0)
    dt = float(sum(p.dt for p in parts))
    first = parts[0]
    return NoiseIncrement(dw=dw, dbeta=dbeta, dt=dt, step_index=first.step_index,
                          replica_index=first.replica_index, seed=first.seed)
