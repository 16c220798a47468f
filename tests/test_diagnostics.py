import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochem import diagnostics
from stochem.diagnostics import (admissible_c0_bound, check_conditions, column,
                                 compute_kf, estimate_k0, total_mass)
from stochem.dynamics import (CONSUMPTION_LAWS, State, StepReport, run,
                              stack_states)
from stochem.grid import (LaneError, ScalarField, make_grid, norm,
                          zeros_vector)
from stochem.operators import AdvectionMode

from conftest import default_params, quiescent_state, random_scalar
from oracles import (energy_identity_residual, entropy_functional, full_scalar,
                     sample_law, scalar_from_function, zeros_scalar)


def test_total_mass_constants():
    g = make_grid(16, 16, 1.0, 1.0)
    assert total_mass(full_scalar(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    g2 = make_grid(8, 12, 2.0, 3.0)
    assert total_mass(full_scalar(g2, 1.0)) == pytest.approx(6.0, abs=1e-13)


def test_kf_linear_law_closed_form(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    for _ in range(10):
        chi = float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(0.1, 4.0))
        params = default_params(g, chi=chi, delta=delta)
        expected = (chi ** 2 + 2.0 * delta) / (2.0 * delta)
        assert compute_kf(params, 0.5) == pytest.approx(expected, rel=1e-12)
    params = default_params(g, chi=1.0, delta=1.0)
    assert compute_kf(params, 0.3) == pytest.approx(1.5, rel=1e-12)
    params = default_params(g, chi=0.0, delta=1.0)
    assert compute_kf(params, 0.3) == pytest.approx(1.0, rel=1e-12)


def test_kf_rejects_degenerate_derivative():
    # f'(c0) = 1/(1 + c0)^2 underflows to 0 at c0 = 1e200: the constant is
    # unbounded and the gate fails, with no exception and no warning
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g, f=CONSUMPTION_LAWS["saturating"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compute_kf(params, 1e200) == math.inf
        rep = check_conditions(params, 1e200)
    assert rep.kf == math.inf
    assert rep.cond_335_margin == -math.inf
    assert not rep.all_ok


def test_kf_saturating_law_uses_interval_minimum():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g, chi=1.0, delta=1.0,
                            f=CONSUMPTION_LAWS["saturating"])
    c0 = 0.4
    min_fp = 1.0 / (1.0 + c0) ** 2      # f' decreasing: minimum at c0
    expected = 1.0 / (2.0 * min_fp) + 1.0 / min_fp
    assert compute_kf(params, c0) == pytest.approx(expected, rel=1e-6)


def test_check_conditions_reference_values():
    g = make_grid(32, 32, 1.0, 1.0)
    params = default_params(g, chi=1.0, delta=1.0, gamma=0.0)
    rep = check_conditions(params, 0.3)
    assert rep.kf == pytest.approx(1.5, rel=1e-12)
    bound = 1.0 / math.sqrt(6.0)   # K_f c0^2 <= delta/4 for the linear law
    assert abs(rep.c0_bound - bound) <= math.ulp(bound)
    assert rep.cond_335_margin >= 0
    assert rep.gamma_linear_margin > 0 and rep.gamma_power_margin > 0
    assert rep.all_ok

    rep_bad = check_conditions(params, 0.5)
    assert rep_bad.cond_335_margin == pytest.approx(-0.5, abs=1e-12)
    assert not rep_bad.all_ok


def test_check_conditions_gamma_branches():
    g = make_grid(32, 32, 1.0, 1.0)
    params = default_params(g, gamma=0.1)
    rep = check_conditions(params, 0.3)
    sigma_sq = 2.0
    rhs_linear = min(params.xi, params.xi / 2.0) / (6.0 * sigma_sq)
    rhs_power = 3.0 * params.xi / (32.0 * math.sqrt(2.0) * sigma_sq)
    assert rep.gamma_linear_margin == pytest.approx(rhs_linear - 0.01, rel=1e-12)
    assert rep.gamma_power_margin == pytest.approx(rhs_power - 0.01, rel=1e-12)
    assert rep.sigma_linf == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # strong noise violates both branches
    loud = default_params(g, gamma=1.0)
    rep = check_conditions(loud, 0.3)
    assert rep.gamma_linear_margin < 0 and rep.gamma_power_margin < 0
    assert not rep.all_ok


def test_admissible_bound_monotone_families():
    g = make_grid(16, 16, 1.0, 1.0)
    bounds = []
    for delta in (0.5, 1.0, 2.0):
        params = default_params(g, chi=1.0, delta=delta)
        bounds.append(admissible_c0_bound(params))
    assert bounds[0] < bounds[1] < bounds[2]


# the margin is delta less a product of rounded factors, and the bound
# solves f/f' <= s, a rearrangement with roundings of its own: both are about
# ten roundings from exact, each under half an ulp of a value near delta
GATE_MARGIN_ULPS = 16


@pytest.mark.parametrize("law", sorted(CONSUMPTION_LAWS))
@settings(max_examples=150)
@given(chi=st.floats(0.0, 10.0), delta=st.floats(1e-3, 10.0),
       c0=st.floats(0.0, 1e300))
def test_gate_matches_sampled_law_oracle(law, chi, delta, c0):
    params = default_params(make_grid(8, 8, 1.0, 1.0), chi=chi, delta=delta,
                            f=CONSUMPTION_LAWS[law])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_conditions(params, c0)
        bound = rep.c0_bound
        at_bound = check_conditions(params, bound).cond_335_margin
        past_bound = check_conditions(
            params, math.nextafter(bound, math.inf)).cond_335_margin
    min_fp, max_f = sample_law(params.f, c0)
    if min_fp > 0.0:
        assert rep.kf == chi ** 2 / (2.0 * delta * min_fp) + 1.0 / min_fp
    else:
        assert rep.kf == math.inf
    assert diagnostics._law_at(params.f, c0)[1] == max_f
    tol = GATE_MARGIN_ULPS * math.ulp(delta)
    assert at_bound >= -tol
    assert past_bound <= tol


def test_estimate_k0_is_exactly_one():
    for nx, ny, lx, ly in ((8, 8, 1.0, 1.0), (16, 24, 1.0, 1.7),
                           (33, 17, 2.0, 0.6), (256, 256, 1.0, 1.0)):
        assert estimate_k0(make_grid(nx, ny, lx, ly)) == 1.0


# Neumann second-difference stencils, independent of the spectral basis: the
# oracle for the closed form of estimate_k0.

def _axis_second_difference(v, h, axis):
    # mirror ghosts: the 1D homogeneous-Neumann second difference, self-adjoint
    p = np.pad(v, [(1, 1) if a == axis else (0, 0) for a in range(v.ndim)],
               mode="edge")
    sl = [slice(None)] * v.ndim
    lo, mid, hi = list(sl), list(sl), list(sl)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    return (p[tuple(hi)] - 2.0 * p[tuple(mid)] + p[tuple(lo)]) / h ** 2


def _mixed_second_difference(grid, v):
    return ((v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1])
            / (grid.dx * grid.dy))


def _k0_forms(grid, v):
    """(numerator, denominator) of the K0 Rayleigh quotient at v."""
    dxx = _axis_second_difference(v, grid.dx, 0)
    dyy = _axis_second_difference(v, grid.dy, 1)
    base = (np.sum(v ** 2) + np.sum((np.diff(v, axis=0) / grid.dx) ** 2)
            + np.sum((np.diff(v, axis=1) / grid.dy) ** 2))
    num = (base + np.sum(dxx ** 2) + np.sum(dyy ** 2)
           + 2.0 * np.sum(_mixed_second_difference(grid, v) ** 2))
    den = base + np.sum((dxx + dyy) ** 2)
    return float(num), float(den)


@pytest.mark.parametrize("nx, ny, lx, ly", [(8, 8, 1.0, 1.0),
                                            (16, 24, 1.0, 1.7),
                                            (33, 17, 2.0, 0.6),
                                            (4, 5, 1.0, 1.0),
                                            (64, 64, 1.0, 1.0)])
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 31))
def test_k0_numerator_form_equals_denominator_form(nx, ny, lx, ly, seed):
    g = make_grid(nx, ny, lx, ly)
    v = np.random.default_rng(seed).standard_normal((nx, ny))
    num, den = _k0_forms(g, v)
    assert abs(num - den) <= 1e-13 * den


def test_entropy_functional_values():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.0, c=0.2)
    assert entropy_functional(st, params, 0.2) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    st = quiescent_state(g, n=2.5, c=0.2)
    assert entropy_functional(st, params, 0.2) == pytest.approx(
        2.5 * math.log(2.5) + math.exp(-1.0), rel=1e-12)


def test_entropy_nonnegative_for_admissible_states(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    for _ in range(10):
        st = State(u=zeros_vector(g),
                   c=random_scalar(g, rng, positive=True, scale=0.2),
                   n=random_scalar(g, rng, positive=True), t=0.0)
        assert entropy_functional(st, params, norm(st.c, "Linf")) >= 0.0


def test_entropy_rejects_negative_density():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.0, c=0.1)
    st.n.values[3, 3] = -0.5
    with pytest.raises(ValueError):
        entropy_functional(st, params, 0.1)


def test_energy_residual_static_configuration():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=0.0, c=5.0)
    _, series = run(st, params, 0.05, 1e-3, seed=0, sample_every=10)
    assert energy_identity_residual(series) <= 1e-13


def test_energy_residual_first_order_in_dt():
    g = make_grid(32, 32, 1.0, 1.0)
    y = (np.arange(32)[None, :] + 0.5) * g.dy * np.ones((32, 1))
    params = default_params(g, phi_values=y)
    rng = np.random.default_rng(12)
    from conftest import random_solenoidal
    st = State(u=random_solenoidal(g, rng, 0.1),
               c=ScalarField(g, 0.05 + 0.2 * y),
               n=ScalarField(g, 0.3 + 0.1 * y), t=0.0)
    centered = replace(params, scalar_mode=AdvectionMode.CENTERED_SKEW)
    res = []
    for dt in (2e-3, 1e-3):
        _, series = run(st, centered, 0.1, dt, seed=1)
        res.append(energy_identity_residual(series))
    assert 0.4 <= res[1] / res[0] <= 0.6


def test_pure_diffusion_energy_balance():
    # u = 0, n = 0: |c|^2 + 2 mu int |grad c|^2 stays constant to O(dt)
    g = make_grid(128, 128, 1.0, 1.0)
    params = default_params(g)
    c0 = scalar_from_function(g, lambda x, y: 0.2 + 0.1 * np.cos(np.pi * x))
    st = State(u=zeros_vector(g), c=c0, n=zeros_scalar(g), t=0.0)
    _, series = run(st, params, 0.1, 1e-4, seed=0, sample_every=100)
    assert energy_identity_residual(series) <= 1e-3


def test_record_consistency():
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    st = quiescent_state(g, n=1.5, c=0.0)
    _, series = run(st, params, 0.01, 1e-3, seed=0, sample_every=1)
    assert len(series) == 11
    row = series[0]
    assert row.mass_n == pytest.approx(1.5, rel=1e-13)
    assert row.min_n == pytest.approx(1.5, rel=1e-13)
    assert row.energy_residual == 0.0
    ent = entropy_functional(st, params, 0.0)
    assert row.entropy == pytest.approx(ent, rel=1e-12)
    with pytest.raises(KeyError):
        column(series, "nonexistent")


def test_record_rejects_the_lowest_failing_lane():
    # one check over every lane names the lowest lane it rejects, and within
    # a lane a negative density comes before the first non-finite column
    g = make_grid(16, 16, 1.0, 1.0)
    params = default_params(g)
    clean = stack_states([quiescent_state(g, n=1.0, c=0.1)] * 4)
    tracker = diagnostics.EnergyTracker(clean, params)
    report = StepReport(dt=0.0, clip_count=0, projection_residual=0.0,
                        noise_hs_sq=0.0)
    bad = clean.copy()
    bad.n.values[2, 3, 3] = -0.5
    bad.c.values[3, 5, 5] = np.nan
    with pytest.raises(LaneError) as exc:
        diagnostics.record(bad, report, params, tracker, step_index=1)
    assert exc.value.lane == 2
    assert str(exc.value) == "entropy functional needs n >= 0, min n = -0.5"
    bad.n.values[2, 3, 3] = 1.0
    with pytest.raises(LaneError) as exc:
        diagnostics.record(bad, report, params, tracker, step_index=1)
    assert exc.value.lane == 3
    assert str(exc.value) == "diagnostics column max_c is not finite: nan"
    # unbatched, the same check names no lane
    alone = diagnostics.EnergyTracker(clean.lane(0), params)
    with pytest.raises(LaneError) as exc:
        diagnostics.record(bad.lane(3), report, params, alone, step_index=1)
    assert exc.value.lane is None
    assert str(exc.value) == "diagnostics column max_c is not finite: nan"
