import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochem.grid import (GridError, ScalarField, divergence, inner_product,
                          make_grid, norm, zeros_vector)

from conftest import random_scalar, random_vector
from oracles import (full_scalar, gradient, scalar_from_function,
                     velocity_h1_semi)


def test_make_grid_spacings():
    g = make_grid(64, 64, 1.0, 1.0)
    assert g.dx == g.dy == 1.0 / 64
    g2 = make_grid(4, 8, 2.0, 1.0)
    assert g2.dx == 0.5
    assert g2.dy == 0.125


@pytest.mark.parametrize("nx,ny,lx,ly", [
    (2, 64, 1.0, 1.0), (64, 3, 1.0, 1.0), (8, 8, 0.0, 1.0), (8, 8, 1.0, -2.0),
    # spacings whose stencil weight 2/h^2 is not a finite positive float
    (8, 8, 1e-300, 1.0), (8, 8, 1.0, 1e-170), (8, 8, 1e300, 1.0),
])
def test_make_grid_rejects_bad_dimensions(nx, ny, lx, ly):
    with pytest.raises(GridError):
        make_grid(nx, ny, lx, ly)


def test_inner_product_constants():
    g = make_grid(16, 16, 1.0, 1.0)
    one = full_scalar(g, 1.0)
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-15)
    assert inner_product(one, full_scalar(g, 0.0)) == 0.0
    g2 = make_grid(8, 8, 2.0, 1.0)
    assert inner_product(full_scalar(g2, 2.0), full_scalar(g2, 3.0)) == \
        pytest.approx(12.0, abs=1e-13)


def test_inner_product_grid_mismatch():
    a = full_scalar(make_grid(8, 8, 1.0, 1.0), 1.0)
    b = full_scalar(make_grid(8, 8, 2.0, 1.0), 1.0)
    with pytest.raises(GridError):
        inner_product(a, b)


def test_norms_basics():
    g = make_grid(16, 16, 1.0, 1.0)
    assert norm(full_scalar(g, 5.0), "H1_semi") == 0.0
    assert norm(full_scalar(g, 1.0), "L2") == pytest.approx(1.0, abs=1e-15)
    assert norm(full_scalar(g, -3.0), "Linf") == 3.0
    with pytest.raises(GridError):
        norm(full_scalar(g, 1.0), "H2")


def test_cosine_l2_matches_analytic_integral():
    # midpoint quadrature sums the cos^2 oscillation to exactly half the area
    g = make_grid(256, 256, 1.0, 1.0)
    c = scalar_from_function(g, lambda x, y: np.cos(np.pi * x))
    assert norm(c, "L2") == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)


def test_l2_norm_squared_equals_self_inner_product(rng):
    g = make_grid(12, 20, 1.5, 0.7)
    f = random_scalar(g, rng)
    assert norm(f, "L2") ** 2 == pytest.approx(inner_product(f, f), rel=1e-13)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 31), a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_inner_product_symmetric_bilinear(seed, a, b):
    g = make_grid(8, 8, 1.0, 1.0)
    r = np.random.default_rng(seed)
    f1, f2, f3 = (random_scalar(g, r) for _ in range(3))
    left = inner_product(f1, f2)
    assert left == pytest.approx(inner_product(f2, f1), rel=1e-12, abs=1e-14)
    combo = ScalarField(g, a * f1.values + b * f3.values)
    assert inner_product(combo, f2) == pytest.approx(
        a * inner_product(f1, f2) + b * inner_product(f3, f2),
        rel=1e-11, abs=1e-11)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 31))
def test_cauchy_schwarz(seed):
    g = make_grid(8, 8, 1.0, 1.0)
    r = np.random.default_rng(seed)
    a, b = random_scalar(g, r), random_scalar(g, r)
    lhs = abs(inner_product(a, b))
    rhs = norm(a, "L2") * norm(b, "L2")
    assert lhs <= rhs * (1.0 + 1e-12)


def test_vector_inner_product_and_norms(rng):
    g = make_grid(10, 14, 1.0, 2.0)
    v = random_vector(g, rng)
    assert norm(v, "L2") ** 2 == pytest.approx(inner_product(v, v), rel=1e-13)
    assert norm(zeros_vector(g), "L2") == 0.0
    assert velocity_h1_semi(zeros_vector(g)) == 0.0
    with pytest.raises(GridError):   # a scalar seminorm only
        norm(v, "H1_semi")


def test_gradient_divergence_adjointness(rng):
    # (grad p, v) = -(p, div v) for v with zero wall-normal faces
    g = make_grid(9, 11, 1.3, 0.8)
    p = random_scalar(g, rng)
    v = random_vector(g, rng)
    lhs = inner_product(gradient(p), v)
    rhs = -inner_product(p, divergence(v))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
