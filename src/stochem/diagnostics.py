"""Runtime measurement of every quantity the theory constrains.

Mass, extrema, norms, the entropy functional, the oxygen energy identity, and
the admissibility gate all live here.  Nothing in this module influences the
integration; it observes, and the CLI decides what to do with violations.

The energy identity is tracked incrementally: the gradient and consumption
integrands are accumulated with the trapezoid rule every step, so each
diagnostics row carries the normalized defect of

    |c(t)|^2 + (2 xi - gamma^2) int |grad c|^2 + 2 int (n f(c), c) = |c0|^2

with the martingale part discarded: the expected quadratic-variation growth
of the transport noise cancels against its discrete Ito correction, leaving
the 2 mu gradient drain.  At gamma = 0 this is the exact deterministic
balance and the defect measures pure discretization error.

Per-lane quantities take the package's one form (grid.per_lane): a
reduction over LANE_REDUCE with one entry per lane, a number for an
unbatched state.  The energy tracker holds them so, and record stacks a
sample's columns into one (column, lane) block that one check reads,
naming the lowest lane it rejects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import (LANE_REDUCE, Grid, LaneError, ScalarField,
                   first_failing_lane, inner_product, norm, per_lane)
from .noise import combined_sigma_linf
from .operators import consumption


@dataclass
class DiagnosticsRow:
    step: int
    t: float
    mass_n: float
    min_n: float
    max_c: float
    l2_u: float
    h1_c: float
    entropy: float
    energy_residual: float
    clip_count: int
    div_residual: float


DiagnosticsRow.COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


def column(rows: list[DiagnosticsRow], name: str) -> np.ndarray:
    """One column of a run's rows as an array."""
    if name not in DiagnosticsRow.COLUMNS:
        raise KeyError(f"unknown diagnostics column {name!r}")
    return np.array([getattr(r, name) for r in rows])


def total_mass(n: ScalarField):
    """Midpoint-quadrature integral of the cell density, per lane."""
    return per_lane(np.sum(n.values, axis=LANE_REDUCE)) * n.grid.cell_volume


def _law_at(f, c0_linf: float) -> tuple[float, float]:
    """(min f', max f) on [0, |c0|_inf], which are (f'(c0), f(c0)) for an
    increasing concave law.  A one-element array squares by multiplication,
    as the stepper's fields do; an f'(c0) past the float range rounds to 0."""
    with np.errstate(over="ignore"):
        c = np.array([c0_linf])
        return float(f.deriv(c)[0]), float(f.eval(c)[0])


def _kf(params, min_fp: float) -> float:
    if not min_fp > 0.0:
        return math.inf
    denom = 2.0 * params.delta * min_fp
    # a product that underflows to 0 is divided out one factor at a time
    chem = (params.chi ** 2 / denom if denom
            else params.chi ** 2 / (2.0 * params.delta) / min_fp)
    return chem + 1.0 / min_fp


def compute_kf(params, c0_linf: float) -> float:
    """Consumption constant chi^2/(2 delta min f') + 1/min f' on [0, |c0|_inf];
    inf where f'(c0) underflows."""
    return _kf(params, _law_at(params.f, c0_linf)[0])


@dataclass(frozen=True)
class GateReport:
    """The admissibility conditions as margins, rhs less lhs: a condition
    holds where its margin is >= 0, and a nan margin fails."""
    kf: float
    cond_335_margin: float
    gamma_linear_margin: float
    gamma_power_margin: float
    c0_bound: float
    sigma_linf: float
    k0_used: float

    @property
    def all_ok(self) -> bool:
        return all(m >= 0.0 for m in (self.cond_335_margin,
                                      self.gamma_linear_margin,
                                      self.gamma_power_margin))

    def lines(self) -> list[str]:
        def mark(margin):
            verdict = "PASS" if margin >= 0.0 else "FAIL"
            return f"{verdict} (margin {margin:+.6g})"
        return [
            f"K_f = {self.kf:.12g}",
            f"smallness condition on the consumption term: "
            f"{mark(self.cond_335_margin)}",
            f"noise intensity, linear branch: {mark(self.gamma_linear_margin)}",
            f"noise intensity, power branch (p=2): "
            f"{mark(self.gamma_power_margin)}",
            f"admissible |c0|_inf bound = {self.c0_bound:.12g}",
            f"measured |sigma|_inf = {self.sigma_linf:.12g}",
            f"elliptic constant K0 = {self.k0_used:.12g}",
        ]


def admissible_c0_bound(params) -> float:
    """Largest initial oxygen sup-norm passing the consumption smallness
    condition.  Since K_f = (chi^2/(2 delta) + 1)/f'(c0), the condition reads
    f(c0)/f'(c0) <= s = sqrt(delta / (4 (chi^2/(2 delta) + 1))).  Concavity
    gives f(c) >= c f'(c), so every c > s fails, and bisection narrows
    [0, s] until the bracket is two adjacent floats."""
    s = math.sqrt(params.delta
                  / (4.0 * (params.chi ** 2 / (2.0 * params.delta) + 1.0)))
    lo, hi = 0.0, math.nextafter(s, math.inf)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        min_fp, max_f = _law_at(params.f, mid)
        lo, hi = (mid, hi) if max_f / min_fp <= s else (lo, mid)
    return lo


def check_conditions(params, c0_linf: float) -> GateReport:
    """Evaluate the admissibility conditions; report-only, never raises.

    The noise intensity must satisfy both branches:
    gamma^2 <= min(xi, xi/(2 K0)) / (6 |sigma|^2) and, for every p >= 2,
    gamma^(2p) <= 3^p xi^p / (2^(2p+1) |sigma|^(2p) 8^p).  The p-family is
    checked at p = 2; taking p-th roots shows the bound grows with p, so
    p = 2 is the binding member.  The consumption margin is
    delta - 4 K_f max f^2 / min f'; an unbounded K_f or an overflowing
    product gives -inf.
    """
    min_fp, max_f = _law_at(params.f, c0_linf)
    kf = _kf(params, min_fp)
    k0_used = estimate_k0(params.grid)
    sig = combined_sigma_linf(params.sigma)
    gamma_sq = params.gamma ** 2
    if sig > 0.0:
        rhs_linear = min(params.xi, params.xi / (2.0 * k0_used)) / (6.0 * sig ** 2)
        rhs_power = 3.0 * params.xi / (32.0 * math.sqrt(2.0) * sig ** 2)
    else:
        rhs_linear = math.inf
        rhs_power = math.inf
    return GateReport(
        kf=kf,
        cond_335_margin=(params.delta - 4.0 * kf * max_f * max_f / min_fp
                         if min_fp > 0.0 else -math.inf),
        gamma_linear_margin=rhs_linear - gamma_sq,
        gamma_power_margin=rhs_power - gamma_sq,
        c0_bound=admissible_c0_bound(params),
        sigma_linf=sig,
        k0_used=k0_used)


def estimate_k0(grid: Grid) -> float:
    """Elliptic constant K0: the largest discrete Rayleigh quotient

        (|psi|^2 + |grad psi|^2 + |D_xx psi|^2 + |D_yy psi|^2 + 2 |D_xy psi|^2)
        / (|psi|^2 + |grad psi|^2 + |lap psi|^2),

    which is exactly 1 on this grid.  The type-2 cosine transform
    diagonalizes the Neumann second differences D_xx and D_yy with eigenvalues
    -lam_x and -lam_y, and the mixed term D_xy^T D_xy with eigenvalue
    lam_x lam_y.  Per mode the numerator is 1 + lam + lam_x^2 + lam_y^2
    + 2 lam_x lam_y = 1 + lam + lam^2 with lam = lam_x + lam_y, which is the
    denominator, so the quotient is identically 1 on every field.
    """
    return 1.0


def _nlogn(n: ScalarField):
    """Integral of n ln n (with 0 ln 0 = 0), per lane."""
    v = n.values
    pos = v > 0.0
    s = np.sum(np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0),
               axis=LANE_REDUCE)
    return per_lane(s) * n.grid.cell_volume


def _entropy(params, kf, c0_linf, nlogn, grad_sq, u_sq):
    """The entropy functional per lane from its integrals: nlogn, |grad c|^2
    and |u|^2."""
    denom = 3.0 * params.xi * params.eta
    # a 3 xi eta that underflows gives an infinite weight: record rejects it
    weight = 8.0 * kf * np.square(c0_linf) / denom if denom else math.inf
    return (nlogn + kf * grad_sq + weight * u_sq
            + math.exp(-1.0) * params.grid.area)


class EnergyTracker:
    """Per-run accumulator for the oxygen energy identity; each entry is a
    per-lane value of the state it starts from, as per_lane gives it."""

    def __init__(self, state, params):
        self.c0_linf = norm(state.c, "Linf")
        self.i_grad = self.i_cons = 0.0   # on every lane
        # an oxygen too large to square, or a K_f term past the float range,
        # gives inf or nan here and in the integrands, silently: the next
        # record rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            self.kf = per_lane(np.vectorize(
                functools.partial(compute_kf, params),
                otypes=[float])(self.c0_linf))
            self.c0_l2sq = np.square(norm(state.c, "L2"))
            # |grad c|^2 and (n f(c), c) at the latest state
            self.grad_sq, self.cons = self._integrands(state, params)

    @staticmethod
    def _integrands(state, params):
        """|grad c|^2 and (n f(c), c) per lane; callers silence overflow."""
        return (np.square(norm(state.c, "H1_semi")),
                inner_product(consumption(state.n, state.c, params.f),
                              state.c))

    def update(self, state, params, report) -> None:
        half = 0.5 * report.dt
        with np.errstate(over="ignore", invalid="ignore"):
            grad_sq, cons = self._integrands(state, params)
            self.i_grad = self.i_grad + half * (self.grad_sq + grad_sq)
            self.i_cons = self.i_cons + half * (self.cons + cons)
        self.grad_sq, self.cons = grad_sq, cons

    def residual(self, c_sq, params):
        """Normalized defect per lane, given each lane's |c|^2 now."""
        # noise growth and its discrete correction cancel in expectation,
        # leaving the (2 xi - gamma^2) = 2 mu gradient drain of the identity
        drain = 2.0 * params.xi - params.gamma ** 2
        return ((c_sq + drain * self.i_grad + 2.0 * self.i_cons - self.c0_l2sq)
                / np.maximum(self.c0_l2sq, 1e-300))


def record(state, report, params, tracker: EnergyTracker,
           step_index: int) -> list[DiagnosticsRow]:
    """Assemble one sampling instant's measurements: one row per lane (a
    one-element list for an unbatched state), each field reduced once for
    all lanes and |grad c|^2 taken from the tracker.  One check over every
    lane rejects a negative density, then a non-finite column, and raises
    LaneError naming the lowest lane it rejects."""
    # an overflow is silent here: the check below rejects what it leaves
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.square(norm(state.c, "L2"))
        l2_u = norm(state.u, "L2")
        # (column, lane): the ten DiagnosticsRow.COLUMNS from t on
        block = np.empty((10, len(state.lanes)))
        for i, value in enumerate((
                state.t, total_mass(state.n),
                np.min(state.n.values, axis=LANE_REDUCE),
                np.max(state.c.values, axis=LANE_REDUCE), l2_u,
                np.sqrt(c_sq + tracker.grad_sq),
                _entropy(params, tracker.kf, tracker.c0_linf,
                         _nlogn(state.n), tracker.grad_sq, np.square(l2_u)),
                tracker.residual(c_sq, params), report.clip_count,
                report.projection_residual)):
            block[i] = value
    refused = block[2] < -1e-13   # min_n: the x ln x term needs n >= 0
    failing = refused | ~np.isfinite(block).all(axis=0)
    if failing.any():
        lane = first_failing_lane(failing.reshape(state.n.lanes))
        values = block[:, lane or 0].tolist()
        if refused[lane or 0]:
            message = f"entropy functional needs n >= 0, min n = {values[2]:g}"
        else:
            name, value = next((name, v) for name, v
                               in zip(DiagnosticsRow.COLUMNS[1:], values)
                               if not math.isfinite(v))
            message = f"diagnostics column {name} is not finite: {value}"
        raise LaneError(message, lane)
    return [DiagnosticsRow(step_index, *v[:8], int(v[8]), v[9])   # int clip_count
            for v in block.T.tolist()]
