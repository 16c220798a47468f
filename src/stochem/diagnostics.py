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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (LANE_REDUCE, Grid, LaneError, ScalarField, inner_product,
                   norm, per_lane)
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

    COLUMNS = ("step", "t", "mass_n", "min_n", "max_c", "l2_u", "h1_c",
               "entropy", "energy_residual", "clip_count", "div_residual")

    def __post_init__(self):
        for name in self.COLUMNS:
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise ValueError(f"diagnostics column {name} is not finite: {v}")


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
    return (params.chi ** 2 / (2.0 * params.delta * min_fp) + 1.0 / min_fp
            if min_fp > 0.0 else math.inf)


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


def _entropy(params, kf: float, c0_linf: float, min_n: float, nlogn: float,
             grad_sq: float, u_sq: float) -> float:
    """One lane's entropy functional from its integrals: nlogn, |grad c|^2
    and |u|^2; ``min_n`` guards the x ln x term."""
    if min_n < -1e-13:
        raise ValueError(f"entropy functional needs n >= 0, min n = {min_n:g}")
    try:
        weight = 8.0 * kf * (c0_linf * c0_linf) / (3.0 * params.xi * params.eta)
    except ZeroDivisionError:   # 3 xi eta underflows: the row check rejects
        weight = math.inf
    return (nlogn + kf * grad_sq + weight * u_sq
            + math.exp(-1.0) * params.grid.area)


def _lane_floats(x, lanes: int) -> list:
    """One Python number per lane, from a per-lane reduction or a scalar.

    Per-lane scalar arithmetic runs on these, as in an unbatched run.  It
    squares by x * x: a Python float's x ** 2 calls pow, which can differ in
    the last bit and raises OverflowError where x * x gives inf."""
    values = np.asarray(x).tolist()
    return values if isinstance(values, list) else [values] * lanes


class EnergyTracker:
    """Per-run accumulator for the oxygen energy identity; each entry holds
    one Python float per lane of the state it starts from."""

    def __init__(self, state, params):
        self.lanes = len(state.lanes)
        self.c0_linf = _lane_floats(norm(state.c, "Linf"), self.lanes)
        self.kf = [compute_kf(params, x) for x in self.c0_linf]
        # an oxygen too large to square gives inf or nan here and in the
        # integrands, silently: the next row's finite check rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            c0_l2 = norm(state.c, "L2")
        self.c0_l2sq = [x * x for x in _lane_floats(c0_l2, self.lanes)]
        self.i_grad = self.i_cons = [0.0] * self.lanes
        # |grad c|^2 and (n f(c), c) at the latest state
        self.grad_sq, self.cons = self._integrands(state, params)

    def _integrands(self, state, params) -> tuple[list, list]:
        with np.errstate(over="ignore", invalid="ignore"):
            grad = _lane_floats(norm(state.c, "H1_semi"), self.lanes)
            cons = inner_product(consumption(state.n, state.c, params.f),
                                 state.c)
        return [x * x for x in grad], _lane_floats(cons, self.lanes)

    def update(self, state, params, report) -> None:
        grad_sq, cons = self._integrands(state, params)
        half = 0.5 * report.dt
        self.i_grad = [i + half * (a + b) for i, a, b
                       in zip(self.i_grad, self.grad_sq, grad_sq)]
        self.i_cons = [i + half * (a + b) for i, a, b
                       in zip(self.i_cons, self.cons, cons)]
        self.grad_sq, self.cons = grad_sq, cons

    def residual(self, c_sq: list, params) -> list:
        """Normalized defect per lane, given each lane's |c|^2 now."""
        # noise growth and its discrete correction cancel in expectation,
        # leaving the (2 xi - gamma^2) = 2 mu gradient drain of the identity
        drain = 2.0 * params.xi - params.gamma ** 2
        return [(sq + drain * i_grad + 2.0 * i_cons - c0) / max(c0, 1e-300)
                for sq, i_grad, i_cons, c0
                in zip(c_sq, self.i_grad, self.i_cons, self.c0_l2sq)]


def record(state, report, params, tracker: EnergyTracker,
           step_index: int) -> list[DiagnosticsRow]:
    """Assemble one sampling instant's measurements: one row per lane (a
    one-element list for an unbatched state), each field reduced once for
    all lanes and |grad c|^2 taken from the tracker.  A lane whose
    measurements reject its state raises LaneError naming the lowest one."""
    def floats(x):
        return _lane_floats(x, tracker.lanes)
    # a reduction that overflows is silent here: the rows' finite check
    # below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = [x * x for x in floats(norm(state.c, "L2"))]
        columns = zip(
            state.lanes, floats(total_mass(state.n)),
            floats(np.min(state.n.values, axis=LANE_REDUCE)),
            floats(np.max(state.c.values, axis=LANE_REDUCE)),
            floats(norm(state.u, "L2")), c_sq, tracker.grad_sq,
            floats(_nlogn(state.n)), tracker.kf, tracker.c0_linf,
            tracker.residual(c_sq, params), floats(report.clip_count),
            floats(report.projection_residual))
    rows = []
    for lane, mass, min_n, max_c, l2_u, c2, grad_sq, nlogn, kf, c0_linf, \
            residual, clips, div in columns:
        try:   # DiagnosticsRow.COLUMNS order
            rows.append(DiagnosticsRow(
                step_index, state.t, mass, min_n, max_c, l2_u,
                math.sqrt(c2 + grad_sq),
                _entropy(params, kf, c0_linf, min_n, nlogn, grad_sq,
                         l2_u * l2_u),
                residual, clips, div))
        except ValueError as exc:   # a measurement rejected this lane
            raise LaneError(str(exc), lane) from exc
    return rows
