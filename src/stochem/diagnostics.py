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

from .grid import (Grid, ScalarField, inner_product, norm)
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


class DiagnosticsSeries:
    """Append-only sequence of rows with column extraction."""

    def __init__(self):
        self.rows: list[DiagnosticsRow] = []

    def append(self, row: DiagnosticsRow) -> None:
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        if name not in DiagnosticsRow.COLUMNS:
            raise KeyError(f"unknown diagnostics column {name!r}")
        return np.array([getattr(r, name) for r in self.rows])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def total_mass(n: ScalarField) -> float:
    """Midpoint-quadrature integral of the cell density."""
    return float(np.sum(n.values)) * n.grid.cell_volume


def _sample_law(f, c0_linf: float, samples: int = 1024):
    """Min of f' and max of |f| over [0, c0_linf] by dense sampling with one
    bisection refinement around each extremal sample."""
    hi = max(float(c0_linf), 0.0)
    if hi == 0.0:
        fp = float(f.deriv(0.0))
        return fp, abs(float(f.eval(0.0)))
    xs = np.linspace(0.0, hi, samples)
    der = np.asarray(f.deriv(xs), dtype=float)
    val = np.abs(np.asarray(f.eval(xs), dtype=float))

    def refine(around: int, arr_fun) -> np.ndarray:
        lo_i = max(around - 1, 0)
        hi_i = min(around + 1, samples - 1)
        extra = np.array([0.5 * (xs[lo_i] + xs[around]),
                          0.5 * (xs[around] + xs[hi_i])])
        return np.asarray(arr_fun(extra), dtype=float)

    min_fp = min(float(der.min()),
                 float(refine(int(der.argmin()), f.deriv).min()))
    max_f = max(float(val.max()),
                float(np.abs(refine(int(val.argmax()), f.eval)).max()))
    return min_fp, max_f


def compute_kf(params, c0_linf: float) -> float:
    """Consumption constant chi^2/(2 delta min f') + 1/min f' on [0, |c0|_inf]."""
    min_fp, _ = _sample_law(params.f, c0_linf)
    if min_fp <= 0.0:
        raise ValueError(f"consumption law {params.f.name!r} has nonpositive "
                         f"derivative on [0, {c0_linf}]; the constant is undefined")
    return params.chi ** 2 / (2.0 * params.delta * min_fp) + 1.0 / min_fp


@dataclass(frozen=True)
class GateReport:
    kf: float
    cond_335_ok: bool
    cond_335_margin: float
    gamma_linear_ok: bool
    gamma_linear_margin: float
    gamma_power_ok: bool
    gamma_power_margin: float
    c0_bound: float
    sigma_linf: float
    k0_used: float

    @property
    def all_ok(self) -> bool:
        return self.cond_335_ok and self.gamma_linear_ok and self.gamma_power_ok

    def lines(self) -> list[str]:
        def mark(ok):
            return "PASS" if ok else "FAIL"
        return [
            f"K_f = {self.kf:.12g}",
            f"smallness condition on the consumption term: {mark(self.cond_335_ok)} "
            f"(margin {self.cond_335_margin:+.6g})",
            f"noise intensity, linear branch: {mark(self.gamma_linear_ok)} "
            f"(margin {self.gamma_linear_margin:+.6g})",
            f"noise intensity, power branch (p=2): {mark(self.gamma_power_ok)} "
            f"(margin {self.gamma_power_margin:+.6g})",
            f"admissible |c0|_inf bound = {self.c0_bound:.12g}",
            f"measured |sigma|_inf = {self.sigma_linf:.12g}",
            f"elliptic constant K0 = {self.k0_used:.12g}",
        ]


def _cond_335_margin(params, c0_linf: float) -> tuple[float, float]:
    kf = compute_kf(params, c0_linf)
    min_fp, max_f = _sample_law(params.f, c0_linf)
    lhs = 4.0 * kf * max_f ** 2 / min_fp
    return kf, params.delta - lhs


def admissible_c0_bound(params, upper: float = 1e6) -> float:
    """Largest initial oxygen sup-norm passing the consumption smallness
    condition, found by bisection (the left side grows with the bound)."""
    if _cond_335_margin(params, upper)[1] >= 0.0:
        return math.inf
    hi = 1.0
    while hi < upper and _cond_335_margin(params, hi)[1] >= 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cond_335_margin(params, mid)[1] >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def check_conditions(params, c0_linf: float, k0: float | None = None) -> GateReport:
    """Evaluate the admissibility conditions; report-only, never raises.

    The noise intensity must satisfy both branches:
    gamma^2 <= min(xi, xi/(2 K0)) / (6 |sigma|^2) and, for every p >= 2,
    gamma^(2p) <= 3^p xi^p / (2^(2p+1) |sigma|^(2p) 8^p).  The p-family is
    checked at p = 2; taking p-th roots shows the bound grows with p, so
    p = 2 is the binding member.
    """
    kf, margin335 = _cond_335_margin(params, c0_linf)
    k0_used = k0 if k0 is not None else (params.k0 if params.k0 is not None
                                         else estimate_k0(params.grid))
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
        cond_335_ok=margin335 >= 0.0,
        cond_335_margin=margin335,
        gamma_linear_ok=gamma_sq <= rhs_linear,
        gamma_linear_margin=rhs_linear - gamma_sq,
        gamma_power_ok=gamma_sq <= rhs_power,
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


def _entropy_with_kf(state, params, c0_linf: float, kf: float,
                     k_gn: float) -> float:
    n = state.n.values
    if float(n.min()) < -1e-13:
        raise ValueError(f"entropy functional needs n >= 0, min n = {n.min():g}")
    g = state.n.grid
    pos = n > 0.0
    nlogn = float(np.sum(np.where(pos, n * np.log(np.where(pos, n, 1.0)), 0.0)))
    nlogn *= g.cell_volume
    grad_c_sq = norm(state.c, "H1_semi") ** 2
    u_sq = norm(state.u, "L2") ** 2
    weight = 8.0 * kf * k_gn * c0_linf ** 2 / (3.0 * params.xi * params.eta)
    return nlogn + kf * grad_c_sq + weight * u_sq + math.exp(-1.0) * g.area


def entropy_functional(state, params, c0_linf: float, k_gn: float = 1.0) -> float:
    """Nonnegative Lyapunov functional: cell entropy plus weighted energies
    plus the e^{-1}|O| offset that makes x ln x integrable from below."""
    kf = compute_kf(params, c0_linf)
    return _entropy_with_kf(state, params, c0_linf, kf, k_gn)


class EnergyTracker:
    """Per-run accumulator for the oxygen energy identity."""

    def __init__(self, c0_l2sq: float, c0_linf: float, kf: float,
                 grad_sq: float, cons: float):
        self.c0_l2sq = c0_l2sq
        self.c0_linf = c0_linf
        self.kf = kf
        self.i_grad = 0.0
        self.i_cons = 0.0
        self._prev_grad_sq = grad_sq
        self._prev_cons = cons

    @staticmethod
    def start(state, params) -> "EnergyTracker":
        c0_linf = norm(state.c, "Linf")
        kf = compute_kf(params, c0_linf)
        grad_sq = norm(state.c, "H1_semi") ** 2
        cons = inner_product(consumption(state.n, state.c, params.f), state.c)
        return EnergyTracker(c0_l2sq=norm(state.c, "L2") ** 2, c0_linf=c0_linf,
                             kf=kf, grad_sq=grad_sq, cons=cons)

    def update(self, state, params, report) -> None:
        dt = report.dt
        grad_sq = norm(state.c, "H1_semi") ** 2
        cons = inner_product(consumption(state.n, state.c, params.f), state.c)
        self.i_grad += 0.5 * dt * (self._prev_grad_sq + grad_sq)
        self.i_cons += 0.5 * dt * (self._prev_cons + cons)
        self._prev_grad_sq = grad_sq
        self._prev_cons = cons

    def residual(self, state, params) -> float:
        # noise growth and its discrete correction cancel in expectation,
        # leaving the (2 xi - gamma^2) = 2 mu gradient drain of the identity
        lhs = (norm(state.c, "L2") ** 2
               + (2.0 * params.xi - params.gamma ** 2) * self.i_grad
               + 2.0 * self.i_cons)
        return (lhs - self.c0_l2sq) / max(self.c0_l2sq, 1e-300)


def record(state, report, params, tracker: EnergyTracker,
           step_index: int) -> DiagnosticsRow:
    """Assemble one sampling instant's measurements."""
    return DiagnosticsRow(
        step=step_index,
        t=state.t,
        mass_n=total_mass(state.n),
        min_n=float(state.n.values.min()),
        max_c=float(state.c.values.max()),
        l2_u=norm(state.u, "L2"),
        h1_c=math.sqrt(norm(state.c, "L2") ** 2 + norm(state.c, "H1_semi") ** 2),
        entropy=_entropy_with_kf(state, params, tracker.c0_linf, tracker.kf,
                                 params.k_gn),
        energy_residual=tracker.residual(state, params),
        clip_count=report.clip_count,
        div_residual=report.projection_residual)


def energy_identity_residual(series: DiagnosticsSeries, params) -> float:
    """Worst normalized defect of the oxygen energy identity along a series."""
    vals = series.column("energy_residual")
    return float(np.max(np.abs(vals))) if len(vals) else 0.0
