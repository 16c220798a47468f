import sys
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from stochem import noise
from stochem.grid import (ScalarField, VectorField, divergence, inner_product,
                          make_grid, norm, scalar_face_gradients, zeros_vector)
from stochem.noise import (NoiseIncrement, Ramp, _stream_mode_numbers,
                           combined_sigma_linf, g_apply, g_scale,
                           make_transport_sigma, make_velocity_noise,
                           merge_increments, sample_increments,
                           transport_hs_sq, transport_ito_correction,
                           transport_noise_apply, transport_noise_modes)
from stochem.operators import divergence_residual

from conftest import random_scalar, random_vector, record_calls
from oracles import (cells_clear_of_walls, check_sigma_assumptions,
                     clipped_ramps, full_ramps, full_scalar,
                     g_hilbert_schmidt, masked_hs_sq,
                     scalar_from_function, velocity_growth_constant,
                     velocity_modes, zero_transport_sigma)


# --------------------------------------------------------------- sigma

def test_canonical_sigma_satisfies_assumptions():
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    rep = check_sigma_assumptions(sig)
    assert rep.max_interior_divergence == 0.0
    assert rep.boundary_zero_violations == 0
    assert rep.max_q_deviation == 0.0
    assert all(r.max() == 1.0 for r in full_ramps(sig))
    assert rep.ok
    # q = Id exactly at every cell at least two cells from the boundary
    assert sig.interior == (slice(2, 62), slice(2, 62))
    assert combined_sigma_linf(sig) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def _full_fields(sig):
    """sigma_1 = (ramp_x, 0) and sigma_2 = (0, ramp_y) as face vector fields."""
    g = sig.grid
    ramp_x, ramp_y = full_ramps(sig)
    return (VectorField(g, ramp_x, np.zeros_like(ramp_y)),
            VectorField(g, np.zeros_like(ramp_x), ramp_y))


def test_sigma_divergence_free_everywhere_it_matters():
    g = make_grid(48, 40, 1.2, 1.0)
    for w in (1, 2):
        sig = make_transport_sigma(g, w)
        for s in _full_fields(sig):
            d = divergence(s).values
            assert np.max(np.abs(d[sig.interior])) == 0.0


def test_modes_match_full_vector_field_stencil(rng):
    # the ramps alone give the face-weighted stencil of the full fields
    g = make_grid(24, 20, 1.2, 1.0)
    sig = make_transport_sigma(g, 2)
    c = random_scalar(g, rng)
    gx, gy = scalar_face_gradients(c)
    for mode, s in zip(transport_noise_modes(c, sig), _full_fields(sig)):
        px, py = s.u_x * gx, s.u_y * gy
        ref = (0.5 * (px[:-1, :] + px[1:, :])
               + 0.5 * (py[:, :-1] + py[:, 1:]))
        assert np.array_equal(mode, ref)


def test_sigma_cutoff_too_wide():
    g = make_grid(16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_transport_sigma(g, 16)
    with pytest.raises(ValueError):
        make_transport_sigma(g, 4)


def _divided(ramp, d):
    return Ramp(ramp.x / d, ramp.y / d)


def test_sigma_report_detects_defects():
    g = make_grid(32, 32, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    # plant a nonzero wall entry in sigma_1's x profile
    bad_x = sig.ramp_1.x.copy()
    bad_x[0] = 0.5
    rep = check_sigma_assumptions(replace(sig, ramp_1=Ramp(bad_x,
                                                           sig.ramp_1.y)))
    assert rep.boundary_zero_violations >= 1
    # scale both fields by 1/sqrt(2): q = Id/2 in the interior
    halved = replace(sig, ramp_1=_divided(sig.ramp_1, np.sqrt(2.0)),
                     ramp_2=_divided(sig.ramp_2, np.sqrt(2.0)))
    rep = check_sigma_assumptions(halved)
    assert rep.max_q_deviation == pytest.approx(0.5, abs=1e-14)


RING_GRIDS = [(8, 8), (9, 11), (48, 40), (64, 64)]


def _allowed_cutoffs(g):
    return range(1, (min(g.nx, g.ny) + 3) // 4)


def _special_faces(shape, rng):
    """Random faces with +-0, +-inf and NaN planted at random entries."""
    face = rng.standard_normal(shape)
    flat = face.reshape(-1)
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        flat[rng.choice(flat.size, size=max(1, flat.size // 16),
                        replace=False)] = value
    return face


def _weighted(face, ramp):
    out = face.copy()
    with np.errstate(invalid="ignore"):   # inf * 0
        noise._weight_ring(out, ramp)
    return out


@pytest.mark.parametrize("lanes", [(), (3,)])
@pytest.mark.parametrize("nx, ny", RING_GRIDS)
def test_ring_weighting_is_the_product_with_the_full_ramps(rng, nx, ny,
                                                           lanes):
    # at every cutoff the grid allows, weighting a face array on the ring
    # of its profiles is bitwise the product with the full clipped ramp,
    # for faces holding +-0, +-inf and NaN, on every lane
    g = make_grid(nx, ny, 1.3, 0.7)
    cutoffs = list(_allowed_cutoffs(g))
    with pytest.raises(ValueError):
        make_transport_sigma(g, cutoffs[-1] + 1)
    for w in cutoffs:
        sig = make_transport_sigma(g, w)
        for ramp, full, held in zip((sig.ramp_1, sig.ramp_2),
                                    clipped_ramps(g, w), full_ramps(sig)):
            assert held.tobytes() == full.tobytes()
            face = _special_faces(lanes + full.shape, rng)
            with np.errstate(invalid="ignore"):
                want = face * full
            assert _weighted(face, ramp).tobytes() == want.tobytes()


@pytest.mark.parametrize("lanes", [(), (3,)])
def test_ring_weighting_is_exact_for_any_profiles(rng, lanes):
    # zero, halved and arbitrary profiles (below, at and above 1, and NaN):
    # the ring may cover the whole array, and an entry weighted twice by a
    # weight other than 1 would show
    g = make_grid(9, 11, 1.0, 1.0)
    sig = make_transport_sigma(g, 2)
    halved = [_divided(r, np.sqrt(2.0)) for r in (sig.ramp_1, sig.ramp_2)]
    values = np.array([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, np.nan])
    arbitrary = [Ramp(rng.choice(values, size=len(r.x)),
                      rng.choice(values, size=len(r.y)))
                 for r in (sig.ramp_1, sig.ramp_2) for _ in range(8)]
    zero = zero_transport_sigma(g)
    for ramps in ([zero.ramp_1, zero.ramp_2], halved, arbitrary):
        for ramp in ramps:
            full = np.minimum.outer(ramp.x, ramp.y)
            face = _special_faces(lanes + full.shape, rng)
            with np.errstate(invalid="ignore"):
                want = face * full
            assert _weighted(face, ramp).tobytes() == want.tobytes()


def test_combined_sigma_linf_is_the_maximum_of_the_full_ramps():
    for nx, ny in RING_GRIDS:
        g = make_grid(nx, ny, 1.0, 1.0)
        sigmas = [make_transport_sigma(g, w) for w in _allowed_cutoffs(g)]
        ramp = sigmas[0].ramp_1
        halved_x = replace(sigmas[0], ramp_1=Ramp(ramp.x / 2.0, ramp.y))
        for sig in sigmas + [halved_x, zero_transport_sigma(g)]:
            peaks = [float(np.max(np.abs(r))) for r in full_ramps(sig)]
            assert combined_sigma_linf(sig) == np.sqrt(peaks[0] ** 2
                                                       + peaks[1] ** 2)


def test_transport_sigma_holds_only_its_profiles():
    # at 256^2 the fields are four 1-D profiles, 2 (nx + ny + 1) numbers,
    # and building them allocates no face-sized array
    nx = ny = 256
    g = make_grid(nx, ny, 1.0, 1.0)
    tracemalloc.start()
    try:
        sig = make_transport_sigma(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [a for r in (sig.ramp_1, sig.ramp_2) for a in (r.x, r.y)]
    assert [a.shape for a in arrays] == [(nx + 1,), (ny,), (nx,), (ny + 1,)]
    assert all(a.base is None for a in arrays)
    assert sum(a.size for a in arrays) == 2 * (nx + ny + 1)
    assert peak < 8 * (nx + 1) * ny / 16, f"building peaked at {peak} B"


def test_ramps_hold_their_ring_weights_in_small_blocks():
    # each ramp holds its ring's weights once: the (4w)^2 corners and 4w
    # row and 4w column weights, not a band of whole rows or columns
    for nx, ny in RING_GRIDS + [(256, 256)]:
        g = make_grid(nx, ny, 1.0, 1.0)
        for w in _allowed_cutoffs(g):
            sig = make_transport_sigma(g, w)
            for ramp in (sig.ramp_1, sig.ramp_2):
                sizes = [weight.size for _, weight in ramp.ring]
                assert sizes == [16 * w * w, 4 * w, 4 * w]


# --------------------------------------------------------------- transport

def test_transport_noise_zero_cases(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = random_scalar(g, rng)
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.zeros(2))
    out = transport_noise_apply(transport_noise_modes(c, sig), 1.0, inc)
    assert np.max(np.abs(out)) == 0.0
    # constant oxygen: the default scheme annihilates it everywhere
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.array([0.3, -0.2]))
    modes = transport_noise_modes(full_scalar(g, 4.0), sig)
    out = transport_noise_apply(modes, 1.0, inc)
    assert np.max(np.abs(out)) == 0.0


def test_transport_noise_linear_oxygen(rng):
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = scalar_from_function(g, lambda x, y: x)
    h = 0.125
    inc = NoiseIncrement(dw=np.zeros(1), dbeta=np.array([h, 0.0]))
    out = transport_noise_apply(transport_noise_modes(c, sig), 1.0, inc)
    assert np.max(np.abs(out[sig.interior] - h)) < 1e-13


def test_transport_noise_hilbert_schmidt_identity(rng):
    # sum_k |sigma_k . grad c|^2 equals |grad c|^2 over the q = Id region
    g = make_grid(64, 64, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    c = random_scalar(g, rng)
    modes = transport_noise_modes(c, sig)
    block = sig.interior
    hs = sum(float(np.sum(m[block] ** 2)) for m in modes) * g.cell_volume
    gx = (np.roll(c.values, -1, 0) - np.roll(c.values, 1, 0)) / (2 * g.dx)
    gy = (np.roll(c.values, -1, 1) - np.roll(c.values, 1, 1)) / (2 * g.dy)
    ref = float(np.sum(gx[block] ** 2 + gy[block] ** 2)) * g.cell_volume
    assert hs == pytest.approx(ref, rel=1e-10)
    assert transport_hs_sq(modes, sig) == hs


def _blocks_and_masks(g):
    """(sigma, the cells its block must hold) at cutoffs 1 and 2, and for
    disabled noise."""
    for w in (1, 2):
        yield make_transport_sigma(g, w), cells_clear_of_walls(g, 2 * w)
    yield zero_transport_sigma(g), np.zeros((g.nx, g.ny), dtype=bool)


@pytest.mark.parametrize("lanes", [(), (3,), (16,)])
def test_hs_sq_block_sum_is_the_masked_gather(rng, lanes):
    # the block is exactly the cells at least 2w from every wall, and its
    # sum is bitwise the sum of those cells gathered in row-major order
    for nx, ny in [(9, 9), (9, 64), (13, 10), (17, 31), (32, 24), (64, 64)]:
        g = make_grid(nx, ny, 1.3, 0.7)
        for sig, mask in _blocks_and_masks(g):
            block = np.zeros((nx, ny), dtype=bool)
            block[sig.interior] = True
            assert np.array_equal(block, mask)
            modes = [rng.standard_normal(lanes + (nx, ny)) for _ in range(2)]
            hs = transport_hs_sq(modes, sig)
            ref = masked_hs_sq(modes, mask, g.cell_volume)
            assert np.asarray(hs).tobytes() == np.asarray(ref).tobytes()
            if not lanes:
                assert type(hs) is float and type(ref) is float


def test_transport_discrete_correction_cancels_quadratic_variation(rng):
    # (c, sum_k L_k^2 c) + sum_k |L_k c|^2 = 0 for interior-supported c
    g = make_grid(48, 48, 1.0, 1.0)
    sig = make_transport_sigma(g, 1)
    vals = np.zeros((48, 48))
    vals[10:-10, 10:-10] = rng.standard_normal((28, 28))
    c = ScalarField(g, vals)
    modes = transport_noise_modes(c, sig)
    growth = transport_hs_sq(modes, sig)   # before the correction takes modes
    corr = transport_ito_correction(modes, sig, 1.0)  # (1/2) sum L_k^2 c
    assert modes == []
    drain = 2.0 * inner_product(corr, c)
    assert drain + growth == pytest.approx(0.0, abs=1e-11 * max(growth, 1.0))


# --------------------------------------------------------------- velocity g

def test_g_apply_zero_amplitude(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 3, 0.0)
    inc = sample_increments(1, 0, 0, 0.01, 3)
    out = g_apply(zeros_vector(g), cfg, inc)
    assert norm(out, "Linf") == 0.0


def test_g_apply_linear_in_increments(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 3, 0.4, multiplicative_gain=0.7)
    u = zeros_vector(g)
    inc = sample_increments(1, 0, 5, 0.01, 3)
    double = NoiseIncrement(dw=2.0 * inc.dw, dbeta=inc.dbeta)
    one = g_apply(u, cfg, inc)
    two = g_apply(u, cfg, double)
    assert np.max(np.abs(two.u_x - 2.0 * one.u_x)) < 1e-14
    assert np.max(np.abs(two.u_y - 2.0 * one.u_y)) < 1e-14


def test_velocity_modes_are_the_lowest_resolved():
    # an 8x8 grid resolves 1 <= a, b <= 7; all 49 of them are unit modes
    g = make_grid(8, 8, 1.0, 1.0)
    cfg = make_velocity_noise(g, 49, 0.1)
    assert sorted(_stream_mode_numbers(49, 8, 8)) == [
        (a, b) for a in range(1, 8) for b in range(1, 8)]
    for mode in velocity_modes(cfg):
        assert norm(mode, "L2") == pytest.approx(1.0, rel=1e-12)
        assert divergence_residual(mode) < 1e-12
    with pytest.raises(ValueError, match=r"\(ny - 1\) = 49 .*, got 50"):
        make_velocity_noise(g, 50, 0.1)
    # where the old first k modes were all resolved, they are the k lowest
    for k in range(1, 40):
        pairs = sorted(((a, b) for a in range(1, k + 2)
                        for b in range(1, k + 2)),
                       key=lambda ab: (ab[0] ** 2 + ab[1] ** 2, ab))[:k]
        if max(max(ab) for ab in pairs) <= 7:
            assert _stream_mode_numbers(k, 8, 8) == pairs
        assert _stream_mode_numbers(k, 64, 64) == pairs


def test_g_modes_divergence_free_and_hs_norm(rng):
    g = make_grid(32, 32, 1.0, 1.0)
    cfg = make_velocity_noise(g, 5, 0.3)
    modes = velocity_modes(cfg)
    for mode in modes:
        assert divergence_residual(mode) < 1e-12
        assert norm(mode, "L2") == pytest.approx(1.0, rel=1e-12)
    # gain 0: state-independent operator norm, verified by direct summation
    direct = np.sqrt(sum((lam * norm(m, "L2")) ** 2
                         for lam, m in zip(cfg.lambdas, modes)))
    hs = g_hilbert_schmidt(cfg, zeros_vector(g))
    assert hs == pytest.approx(0.3 * direct, rel=1e-12)
    assert hs == pytest.approx(0.3 * np.sqrt(np.sum(cfg.lambdas ** 2)), rel=1e-12)
    assert velocity_growth_constant(cfg) >= hs


def test_g_apply_growth_bound(rng):
    g = make_grid(16, 16, 1.0, 1.0)
    cfg = make_velocity_noise(g, 4, 0.2, multiplicative_gain=0.9)
    u = zeros_vector(g)
    u.u_x[5, 5] = 3.0
    c = full_scalar(g, 0.2)
    hs = g_hilbert_schmidt(cfg, u)
    size = np.sqrt(norm(u, "L2") ** 2 + norm(c, "L2") ** 2
                   + norm(c, "H1_semi") ** 2)
    bound = velocity_growth_constant(cfg) * (1.0 + size)
    assert hs <= bound


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays a dataclass holds, nested ones included."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def test_forcing_holds_node_profiles_not_mode_fields():
    # 64 modes as two face fields each would take 64.25 MiB at 256^2
    g = make_grid(256, 256, 1.0, 1.0)
    cfg = make_velocity_noise(g, 64, 0.1)
    assert _array_bytes(cfg) < 2 ** 20


@pytest.mark.parametrize("k_modes", [1, 4, 9, 64])
def test_g_apply_is_the_weighted_sum_of_the_unit_modes(rng, k_modes):
    g = make_grid(24, 20, 1.3, 0.8)
    cfg = make_velocity_noise(g, k_modes, 0.3, multiplicative_gain=0.6)
    u = random_vector(g, rng)
    inc = sample_increments(5, 0, 2, 1e-2, k_modes)
    got = g_apply(u, cfg, inc)
    weights = g_scale(u, cfg) * cfg.lambdas * inc.dw
    modes = velocity_modes(cfg)
    for comp in ("u_x", "u_y"):
        want = sum(w * getattr(m, comp) for w, m in zip(weights, modes))
        err = np.max(np.abs(getattr(got, comp) - want))
        assert err <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nx, ny, k_modes, lanes",
                         [(24, 20, 1, 3), (32, 32, 4, 16), (24, 20, 9, 3),
                          (24, 20, 64, 5)])
def test_batched_g_apply_is_each_lane_alone(rng, nx, ny, k_modes, lanes):
    g = make_grid(nx, ny, 1.3, 0.8)
    cfg = make_velocity_noise(g, k_modes, 0.3, multiplicative_gain=0.6)
    u = VectorField(g, rng.standard_normal((lanes, nx + 1, ny)),
                    rng.standard_normal((lanes, nx, ny + 1)))
    draws = [sample_increments(5, r, 2, 1e-2, k_modes) for r in range(lanes)]
    batched = g_apply(u, cfg, NoiseIncrement(
        dw=np.stack([d.dw for d in draws]),
        dbeta=np.stack([d.dbeta for d in draws])))
    for lane, draw in enumerate(draws):
        alone = g_apply(VectorField(g, u.u_x[lane], u.u_y[lane]), cfg, draw)
        assert batched.u_x[lane].tobytes() == alone.u_x.tobytes()
        assert batched.u_y[lane].tobytes() == alone.u_y.tobytes()


@pytest.mark.parametrize("lanes", [(), (3,)])
def test_g_scale_takes_no_norm_at_zero_gain(monkeypatch, rng, lanes):
    # at zero gain the scale is the amplitude per lane, which is what
    # amplitude (1 + 0 tanh |u|_L2) gives bit for bit, and |u|_L2 is not taken
    g = make_grid(12, 10, 1.0, 1.0)
    u = VectorField(g, rng.standard_normal(lanes + (g.nx + 1, g.ny)),
                    rng.standard_normal(lanes + (g.nx, g.ny + 1)))
    calls = record_calls(monkeypatch, "norm", noise)
    scale = g_scale(u, make_velocity_noise(g, 4, 0.3))
    assert calls == []
    assert type(scale) is (np.ndarray if lanes else float)
    assert np.asarray(scale).tobytes() == np.full(lanes, 0.3).tobytes()
    g_scale(u, make_velocity_noise(g, 4, 0.3, multiplicative_gain=0.6))
    assert len(calls) == 1


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


def _fresh_increment(seed, replica, step, dt, k_modes):
    """A draw from a Philox generator built for this one counter tuple."""
    mask = 2 ** 64 - 1
    bitgen = np.random.Philox(
        counter=np.array([0, 0, 0, step & mask], dtype=np.uint64),
        key=np.array([seed & mask, replica & mask], dtype=np.uint64))
    z = np.random.Generator(bitgen).standard_normal(k_modes + 2) * np.sqrt(dt)
    return z[:k_modes], z[k_modes:]


def _assert_fresh(seed, replica, step, dt, k_modes):
    inc = sample_increments(seed, replica, step, dt, k_modes)
    dw, dbeta = _fresh_increment(seed, replica, step, dt, k_modes)
    assert np.array_equal(inc.dw, dw) and np.array_equal(inc.dbeta, dbeta)


def test_increments_equal_a_freshly_built_philox():
    # the reused generator is reset, not continued: 16 replicas x 50 steps
    # drawn step-major, with draw lengths that alternate in parity
    for step in range(50):
        for replica in range(16):
            _assert_fresh(2023, replica, step, 1e-3, 3 + replica % 2)
    _assert_fresh(-1, 2 ** 64 + 5, 2 ** 64 - 1, 0.5, 4)


def test_increments_equal_a_freshly_built_philox_across_threads():
    # more threads than cores take turns step by step under a short switch
    # interval, so each thread's generator is reset between its own draws
    # while the others' are in use
    n_threads = 4
    turn = threading.Barrier(n_threads)
    failures = []

    def draw(first_replica):
        try:
            for step in range(50):
                for replica in range(first_replica, 16, n_threads):
                    _assert_fresh(7, replica, step, 1e-3, 4)
                turn.wait(timeout=10)
        except Exception as exc:   # reported on the main thread
            failures.append(exc)
            turn.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(r,))
                   for r in range(n_threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []


def test_increment_merge_is_exact_sum():
    parts = [sample_increments(9, 1, s, 0.005, 3) for s in range(4)]
    merged = merge_increments(parts)
    assert np.array_equal(merged.dw, sum(p.dw for p in parts))
    assert np.array_equal(merged.dbeta, sum(p.dbeta for p in parts))


def test_increments_reject_bad_dt():
    with pytest.raises(ValueError):
        sample_increments(1, 0, 0, 0.0, 2)
