"""Acceptance suite: every theorem-level guarantee as a pinned check.

One line per criterion is printed straight to the terminal so the acceptance
status is visible regardless of capture settings:

    [criterion 01] mass conservation ............ PASS (drift 6.1e-15)

The reference scenario (criteria 1-3) is the production configuration built
from the shipped initial-condition recipes: gaussian density blob, vertical
oxygen gradient, projected vortex pair, both noise channels active, and
parameters passing the admissibility gate.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stochem.cli import build_simulation, parse_config
from stochem.diagnostics import check_conditions, column, compute_kf
from stochem.dynamics import State, run
from stochem.experiments import (convergence_dt, stratonovich_consistency,
                                 twin_run, ensemble)
from stochem.grid import (ScalarField, inner_product, make_grid, norm,
                          scalar_face_gradients, zeros_vector)
from stochem.operators import (AdvectionMode, chemotaxis_div, convect_velocity,
                               divergence_residual, helmholtz_project,
                               scalar_advect)

from conftest import default_params, random_scalar, random_vector
from oracles import (bounded_by_exponential, energy_identity_residual,
                     entropy_functional, full_scalar, laplacian_neumann,
                     scalar_from_function, zeros_scalar)


def _report(tag: str, ok: bool, detail: str) -> None:
    import conftest
    dots = "." * max(1, 44 - len(tag))
    line = f"[{tag}] {dots} {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{tag}: {detail}"


REFERENCE_CONFIG = """
[grid]
nx = 64
ny = 64
[physics]
eta = 1.0
mu = 1.0
delta = 1.0
chi = 1.0
gamma = 0.1
[noise]
k_modes = 4
amplitude = 0.02
multiplicative_gain = 0.5
[time]
t_end = 2.0
dt = 1e-3
sample_every = 20
seed = 42
[ic]
n_recipe = gaussian_blob
c_recipe = linear_gradient
c_min = 0.05
c_max = 0.3
u_recipe = taylor_vortex_pair
u_amplitude = 0.2
"""


@pytest.fixture(scope="module")
def reference_run():
    params, initial = build_simulation(parse_config(REFERENCE_CONFIG))
    gate = check_conditions(params, norm(initial.c, "Linf"))
    assert gate.all_ok, "reference scenario must be admissible"
    t0 = time.perf_counter()
    final, series = run(initial, params, 2.0, 1e-3, seed=42, sample_every=20)
    wall = time.perf_counter() - t0
    return params, initial, final, series, wall


def test_criterion_01_mass_conservation(reference_run):
    _, _, _, series, wall = reference_run
    mass = column(series, "mass_n")
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    _report("criterion 01 mass conservation",
            drift <= 1e-12 and wall < 60.0,
            f"drift {drift:.2e}, runtime {wall:.1f}s")


def test_criterion_02_maximum_principle(reference_run):
    _, _, _, series, _ = reference_run
    max_c = column(series, "max_c")
    bound = max_c[0] * (1.0 + 1e-10)
    _report("criterion 02 maximum principle",
            float(max_c.max()) <= bound,
            f"sup_t max c {max_c.max():.12g} vs bound {bound:.12g}")


def test_criterion_03_positivity(reference_run):
    _, _, _, series, _ = reference_run
    min_n = float(column(series, "min_n").min())
    clips = int(column(series, "clip_count").sum())
    _report("criterion 03 positivity",
            min_n >= 0.0 and clips == 0,
            f"min n {min_n:.3e}, clip count {clips}")


def test_criterion_04_stratonovich_correction():
    g = make_grid(64, 64, 1.0, 1.0)
    params = default_params(g, mu=0.0, chi=0.0, gamma=0.15, amplitude=0.0,
                            k_modes=1)
    t_end = 0.024
    rep = stratonovich_consistency(params, 0.3, seed=11, dt=t_end / 32,
                                   levels=3, t_end=t_end, n_replicas=8)
    r1 = rep.drift_corrected[1] / rep.drift_corrected[0]
    r2 = rep.drift_corrected[2] / rep.drift_corrected[1]
    gap_err = abs(rep.gap[-1] - rep.reference_gap) / rep.reference_gap
    ok = (0.4 <= r1 <= 0.6) and (0.4 <= r2 <= 0.6) and gap_err <= 0.10
    _report("criterion 04 stratonovich correction", ok,
            f"drift ratios {r1:.3f}, {r2:.3f}; gap error {gap_err:.1%}")


def _energy_setup(nx):
    text = REFERENCE_CONFIG.replace("gamma = 0.1", "gamma = 0.0") \
                           .replace("amplitude = 0.02", "amplitude = 0.0") \
                           .replace("nx = 64", f"nx = {nx}") \
                           .replace("ny = 64", f"ny = {nx}")
    return build_simulation(parse_config(text))


def test_criterion_05_energy_identity():
    params, initial = _energy_setup(64)
    centered = replace(params, scalar_mode=AdvectionMode.CENTERED_SKEW)
    res = []
    for dt in (4e-4, 2e-4):
        _, series = run(initial, centered, 0.1, dt, seed=3,
                        sample_every=max(1, int(0.01 / dt)))
        res.append(energy_identity_residual(series))
    ratio = res[1] / res[0]
    params128, initial128 = _energy_setup(128)
    _, series = run(initial128,
                    replace(params128, scalar_mode=AdvectionMode.CENTERED_SKEW),
                    0.1, 1e-4, seed=3, sample_every=100)
    absolute = energy_identity_residual(series)
    ok = (0.4 <= ratio <= 0.6) and absolute <= 1e-3
    _report("criterion 05 energy identity", ok,
            f"dt-halving ratio {ratio:.3f}; residual {absolute:.2e} at 128^2")


def test_criterion_06_heat_equation_oracle():
    g = make_grid(64, 64, 1.0, 1.0)
    params = default_params(g, mu=1.3, gamma=0.0, amplitude=0.0)
    mode = scalar_from_function(g, lambda x, y: np.cos(np.pi * x))
    c0 = ScalarField(g, 0.2 + 0.1 * mode.values)
    st = State(u=zeros_vector(g), c=c0, n=zeros_scalar(g), t=0.0)
    t_end, dt = 0.1, 5e-4
    final, _ = run(st, params, t_end, dt, seed=0)
    weight = inner_product(mode, mode)
    a0 = inner_product(ScalarField(g, c0.values - 0.2), mode) / weight
    at = inner_product(ScalarField(g, final.c.values - 0.2), mode) / weight
    measured = -math.log(at / a0) / t_end
    lam_h = (2.0 / g.dx ** 2) * (1.0 - math.cos(math.pi * g.dx / g.lx))
    exact = params.xi * lam_h
    rel = abs(measured - exact) / exact
    _report("criterion 06 heat-equation oracle", rel <= 0.01,
            f"rate {measured:.5f} vs {exact:.5f} (off {rel:.2%})")


def test_criterion_07_strong_convergence():
    text = REFERENCE_CONFIG.replace("nx = 64", "nx = 32") \
                           .replace("ny = 64", "ny = 32")
    params, initial = build_simulation(parse_config(text))
    det_params, det_initial = _energy_setup(32)
    det = convergence_dt(det_params, det_initial, seed=21, dt=0.002, levels=4,
                         t_end=0.128)
    slopes = [convergence_dt(params, initial, seed=21, dt=0.002, levels=4,
                             t_end=0.128, replica=r).slope for r in range(8)]
    med = float(np.median(slopes))
    ok = det.slope >= 0.9 and med >= 0.45
    _report("criterion 07 strong convergence", ok,
            f"deterministic slope {det.slope:.2f}; stochastic median {med:.2f}")


def test_criterion_08_pathwise_uniqueness():
    text = REFERENCE_CONFIG.replace("nx = 64", "nx = 32") \
                           .replace("ny = 64", "ny = 32")
    params, initial = build_simulation(parse_config(text))
    zero = twin_run(params, initial, seed=7, perturbation_amplitude=0.0,
                    t_end=0.1, dt=1e-3, sample_every=10)
    bitwise = bool(np.all(zero.separation == 0.0))
    reps = [twin_run(params, initial, seed=s, perturbation_amplitude=1e-6,
                     t_end=0.1, dt=1e-3, sample_every=10) for s in (7, 8)]
    rates = [r.growth_rate for r in reps]
    finite = all(math.isfinite(r) for r in rates)
    stable = abs(rates[0] - rates[1]) <= 0.2 * abs(rates[0])
    bounded = all(bounded_by_exponential(r) for r in reps)
    ok = bitwise and finite and stable and bounded
    _report("criterion 08 pathwise uniqueness", ok,
            f"zero-perturbation bitwise: {bitwise}; G = {rates[0]:.2f} / "
            f"{rates[1]:.2f}")


def test_criterion_09_parameter_gate():
    g = make_grid(32, 32, 1.0, 1.0)
    params = default_params(g, chi=1.0, delta=1.0)
    kf = compute_kf(params, 0.3)
    rep = check_conditions(params, 0.3)
    kf_ok = abs(kf - 1.5) <= 1e-12
    bound_ok = abs(rep.c0_bound - 0.408248) <= 1e-6 + 3e-7
    exact = math.sqrt(2.0) / (2.0 * math.sqrt(3.0))
    bound_exact_ok = abs(rep.c0_bound - exact) <= 1e-6
    _report("criterion 09 parameter gate",
            kf_ok and bound_ok and bound_exact_ok,
            f"K_f {kf!r}; admissible bound {rep.c0_bound:.9f}")


def test_criterion_10_entropy_boundedness():
    text = REFERENCE_CONFIG.replace("nx = 64", "nx = 32") \
                           .replace("ny = 64", "ny = 32")
    params, initial = build_simulation(parse_config(text))
    stats = ensemble(params, initial, seed=42, n_replicas=16, t_end=0.25,
                     dt=1e-3, sample_every=25)
    sup_e = stats.sup_over_replicas("entropy")
    e0 = entropy_functional(initial, params, norm(initial.c, "Linf"))
    ok = sup_e <= 50.0 * e0
    _report("criterion 10 entropy boundedness", ok,
            f"sup E {sup_e:.4f} vs 50 E(0) = {50 * e0:.4f} (regression bound)")


def test_criterion_11_operator_identity_suite():
    g = make_grid(32, 32, 1.0, 1.0)
    rng = np.random.default_rng(314)
    worst = {"idem": 0.0, "div": 0.0, "skew0": 0.0, "skew1": 0.0,
             "neutral": 0.0, "adjoint": 0.0}
    ok = True
    for _ in range(100):
        v = random_vector(g, rng)
        pv = helmholtz_project(v)
        ppv = helmholtz_project(pv)
        idem = max(np.max(np.abs(ppv.u_x - pv.u_x)),
                   np.max(np.abs(ppv.u_y - pv.u_y)))
        worst["idem"] = max(worst["idem"], idem)
        ok &= idem <= 1e-12 * max(norm(pv, "Linf"), 1.0)

        div = divergence_residual(pv)
        worst["div"] = max(worst["div"], div)
        ok &= div <= 1e-10

        u = helmholtz_project(random_vector(g, rng))
        w = random_vector(g, rng)
        phi = random_scalar(g, rng)
        b0 = abs(inner_product(convect_velocity(u, w), w))
        lim0 = 1e-12 * max(norm(u, "L2") * norm(w, "L2") ** 2, 1e-30)
        worst["skew0"] = max(worst["skew0"], b0 / lim0 * 1e-12)
        ok &= b0 <= lim0

        b1 = abs(inner_product(scalar_advect(u, phi, AdvectionMode.CENTERED_SKEW), phi))
        lim1 = 1e-12 * max(norm(u, "L2") * norm(phi, "L2") ** 2, 1e-30)
        worst["skew1"] = max(worst["skew1"], b1 / lim1 * 1e-12)
        ok &= b1 <= lim1

        one = full_scalar(g, 1.0)
        for mode in AdvectionMode:
            tot = abs(inner_product(scalar_advect(u, phi, mode), one))
            lim = 1e-13 * max(norm(phi, "L2") * norm(u, "L2"), 1e-30)
            worst["neutral"] = max(worst["neutral"], tot / lim * 1e-13)
            ok &= tot <= lim
        n = random_scalar(g, rng, positive=True)
        c = random_scalar(g, rng)
        tot = abs(inner_product(
            chemotaxis_div(n, scalar_face_gradients(c), 1.1), one))
        lim = 1e-13 * max(1.1 * norm(n, "L2") * norm(c, "H1_semi"), 1e-30)
        ok &= tot <= lim

        a, b = random_scalar(g, rng), random_scalar(g, rng)
        adj = abs(inner_product(laplacian_neumann(a), b)
                  - inner_product(a, laplacian_neumann(b)))
        lim = 1e-12 * max(norm(a, "H1_semi") * norm(b, "H1_semi"), 1e-30)
        worst["adjoint"] = max(worst["adjoint"], adj / lim * 1e-12)
        ok &= adj <= lim
    _report("criterion 11 operator identities", bool(ok),
            "worst normalized defects: "
            + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
