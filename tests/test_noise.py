import numpy as np
import pytest

from stochem.grid import (ScalarField, divergence, full_scalar,
                          inner_product, make_grid, norm, scalar_from_function,
                          zeros_vector)
from stochem.noise import (NoiseIncrement, TransportSigma,
                           check_sigma_assumptions, combined_sigma_linf,
                           g_apply, g_hilbert_schmidt,
                           make_transport_sigma, make_velocity_noise,
                           merge_increments, sample_increments,
                           transport_hs_sq, transport_ito_correction,
                           transport_noise_apply, transport_noise_modes)
from stochem.operators import divergence_residual

from conftest import random_scalar


# --------------------------------------------------------------- sigma

def test_canonical_sigma_satisfies_assumptions():
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    rep = check_sigma_assumptions(sig)
    assert rep.max_interior_divergence == 0.0
    assert rep.boundary_zero_violations == 0
    assert rep.max_q_deviation == 0.0
    assert rep.linf == 1.0
    assert sig.linf == 1.0
    assert rep.ok
    # q = Id exactly at every cell at least two cells from the boundary
    ii, jj = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    dist = np.minimum(np.minimum(ii, 63 - ii), np.minimum(jj, 63 - jj))
    assert np.array_equal(sig.interior_mask, dist >= 2)
    assert combined_sigma_linf(sig) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_sigma_divergence_free_everywhere_it_matters():
    g = make_grid(48, 40, 1.2, 1.0)
    for w in (1, 2):
        sig = make_transport_sigma(g, w)
        for s in (sig.sigma1, sig.sigma2):
            d = divergence(s).values
            assert np.max(np.abs(d[sig.interior_mask])) == 0.0


def test_sigma_w1inf_scaling():
    g = make_grid(64, 64, 1.0, 1.0)
    assert make_transport_sigma(g, 1).w1inf == pytest.approx(1.0 / (1 * g.dx))
    assert make_transport_sigma(g, 2).w1inf == pytest.approx(1.0 / (2 * g.dx))


def test_sigma_cutoff_too_wide():
    g = make_grid(16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_transport_sigma(g, 16)
    with pytest.raises(ValueError):
        make_transport_sigma(g, 4)


def test_sigma_report_detects_defects():
    g = make_grid(32, 32, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    # plant one nonzero boundary-adjacent face
    bad1 = sig.sigma1.copy()
    bad1.u_x[0, 10] = 0.5
    bad = TransportSigma(sigma1=bad1, sigma2=sig.sigma2, linf=sig.linf,
                         w1inf=sig.w1inf, cutoff_width=1,
                         interior_mask=sig.interior_mask)
    rep = check_sigma_assumptions(bad)
    assert rep.boundary_zero_violations >= 1
    # scale both fields by 1/sqrt(2): q = Id/2 in the interior
    s1, s2 = sig.sigma1.copy(), sig.sigma2.copy()
    for s in (s1, s2):
        s.u_x *= 1.0 / np.sqrt(2.0)
        s.u_y *= 1.0 / np.sqrt(2.0)
    halved = TransportSigma(sigma1=s1, sigma2=s2, linf=sig.linf / np.sqrt(2.0),
                            w1inf=sig.w1inf, cutoff_width=1,
                            interior_mask=sig.interior_mask)
    rep = check_sigma_assumptions(halved)
    assert rep.max_q_deviation == pytest.approx(0.5, abs=1e-14)


# --------------------------------------------------------------- transport

def test_transport_noise_zero_cases(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = random_scalar(g, rng)
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.zeros(2), dt=0.01,
                         step_index=0, replica_index=0, seed=0)
    out = transport_noise_apply(c, sig, 1.0, inc)
    assert norm(out, "Linf") == 0.0
    # constant oxygen: the default scheme annihilates it everywhere
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.array([0.3, -0.2]), dt=0.01,
                         step_index=0, replica_index=0, seed=0)
    out = transport_noise_apply(full_scalar(g, 4.0), sig, 1.0, inc)
    assert norm(out, "Linf") == 0.0


def test_transport_noise_linear_oxygen(rng):
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = scalar_from_function(g, lambda x, y: x)
    h = 0.125
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.array([h, 0.0]), dt=0.01,
                         step_index=0, replica_index=0, seed=0)
    out = transport_noise_apply(c, sig, 1.0, inc)
    assert np.max(np.abs(out.values[sig.interior_mask] - h)) < 1e-13


def test_transport_noise_hilbert_schmidt_identity(rng):
    # sum_k |sigma_k . grad c|^2 equals |grad c|^2 over the q = Id region
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = random_scalar(g, rng)
    modes = transport_noise_modes(c, sig)
    mask = sig.interior_mask
    hs = sum(float(np.sum(m[mask] ** 2)) for m in modes) * g.cell_volume
    gx = (np.roll(c.values, -1, 0) - np.roll(c.values, 1, 0)) / (2 * g.dx)
    gy = (np.roll(c.values, -1, 1) - np.roll(c.values, 1, 1)) / (2 * g.dy)
    ref = float(np.sum(gx[mask] ** 2 + gy[mask] ** 2)) * g.cell_volume
    assert hs == pytest.approx(ref, rel=1e-10)


def test_transport_discrete_correction_cancels_quadratic_variation(rng):
    # (c, sum_k L_k^2 c) + sum_k |L_k c|^2 = 0 for interior-supported c
    g = make_grid(48, 48, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    vals = np.zeros((48, 48))
    vals[10:-10, 10:-10] = rng.standard_normal((28, 28))
    c = ScalarField(g, vals)
    corr = transport_ito_correction(c, sig, 1.0)      # (1/2) sum L_k^2 c
    drain = 2.0 * inner_product(corr, c)
    growth = transport_hs_sq(c, sig)
    assert drain + growth == pytest.approx(0.0, abs=1e-11 * max(growth, 1.0))


# --------------------------------------------------------------- velocity g

def test_g_apply_zero_amplitude(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 3, 0.0)
    inc = sample_increments(1, 0, 0, 0.01, 3)
    out = g_apply(zeros_vector(g), full_scalar(g, 0.0), cfg, inc)
    assert norm(out, "Linf") == 0.0


def test_g_apply_linear_in_increments(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 3, 0.4, multiplicative_gain=0.7)
    u = zeros_vector(g)
    c = full_scalar(g, 0.1)
    inc = sample_increments(1, 0, 5, 0.01, 3)
    double = NoiseIncrement(dw=2.0 * inc.dw, dbeta=inc.dbeta, dt=inc.dt,
                            step_index=5, replica_index=0, seed=1)
    one = g_apply(u, c, cfg, inc)
    two = g_apply(u, c, cfg, double)
    assert np.max(np.abs(two.u_x - 2.0 * one.u_x)) < 1e-14
    assert np.max(np.abs(two.u_y - 2.0 * one.u_y)) < 1e-14


def test_g_modes_divergence_free_and_hs_norm(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    cfg = make_velocity_noise(g, 5, 0.3)
    for mode in cfg.modes:
        assert divergence_residual(mode) < 1e-12
        assert norm(mode, "L2") == pytest.approx(1.0, rel=1e-12)
    # gain 0: state-independent operator norm, verified by direct summation
    direct = np.sqrt(sum((lam * norm(m, "L2")) ** 2
                         for lam, m in zip(cfg.lambdas, cfg.modes)))
    hs = g_hilbert_schmidt(cfg, zeros_vector(g))
    assert hs == pytest.approx(0.3 * direct, rel=1e-12)
    assert hs == pytest.approx(0.3 * np.sqrt(np.sum(cfg.lambdas ** 2)), rel=1e-12)
    assert cfg.l_g >= hs


def test_g_apply_growth_bound(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 4, 0.2, multiplicative_gain=0.9)
    u = zeros_vector(g)
    u.u_x[5, 5] = 3.0
    c = full_scalar(g, 0.2)
    hs = g_hilbert_schmidt(cfg, u)
    bound = cfg.l_g * (1.0 + np.sqrt(norm(u, "L2") ** 2 + norm(c, "L2") ** 2
                                     + norm(c, "H1_semi") ** 2))
    assert hs <= bound


# --------------------------------------------------------------- increments

def test_increments_deterministic_replay():
    a = sample_increments(42, 3, 100, 0.01, 4)
    b = sample_increments(42, 3, 100, 0.01, 4)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.dbeta, b.dbeta)
    c = sample_increments(42, 4, 100, 0.01, 4)
    assert not np.array_equal(a.dw, c.dw)
    d = sample_increments(42, 3, 101, 0.01, 4)
    assert not np.array_equal(a.dw, d.dw)


def test_increments_variance_and_independence():
    # one million draws in batches across (step, mode)
    dt = 0.01
    k = 998
    draws = []
    for step in range(1000):
        inc = sample_increments(7, 0, step, dt, k)
        draws.append(np.concatenate([inc.dw, inc.dbeta]))
    z = np.stack(draws)                     # (1000, 1000)
    flat = z.ravel()
    assert flat.size == 10 ** 6
    var = flat.var()
    assert 0.0097 <= var <= 0.0103
    # adjacent-mode correlation pooled over steps
    x, y = z[:, :-1].ravel(), z[:, 1:].ravel()
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) <= 0.01


def test_increment_merge_is_exact_sum():
    parts = [sample_increments(9, 1, s, 0.005, 3) for s in range(4)]
    merged = merge_increments(parts)
    assert merged.dt == pytest.approx(0.02)
    assert np.array_equal(merged.dw, sum(p.dw for p in parts))
    assert np.array_equal(merged.dbeta, sum(p.dbeta for p in parts))


def test_increments_reject_bad_dt():
    with pytest.raises(ValueError):
        sample_increments(1, 0, 0, 0.0, 2)
