"""Cosine basis and reconstruction on grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ebcred import (
    CoefficientSequence,
    ObservationSequence,
    PriorFamily,
    draw_gaussian_sequence,
    make_rng,
    posterior_spec,
    reconstruct,
    uniform_grid,
    volterra_spectrum,
)

FAM1 = PriorFamily.power_law(1.0)


def basis(i, xs):
    """Basis function e_i on the grid xs: the curve of the i-th unit sequence."""
    return reconstruct(CoefficientSequence(np.eye(i)[i - 1]), xs)


def test_basis_endpoint_values():
    ends = uniform_grid(2)
    assert basis(1, ends)[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    for i in range(1, 6):
        # cos((i - 1/2) pi) = 0 for every integer i
        assert basis(i, ends)[1] == pytest.approx(0.0, abs=1e-12)


def test_basis_orthonormality_by_simpson():
    """Composite Simpson on 2048 subintervals for all pairs i, j <= 20."""
    xs = np.linspace(0.0, 1.0, 2049)
    funcs = [basis(i, xs) for i in range(1, 21)]
    for i in range(20):
        for j in range(i, 20):
            val = oracles.simpson_inner_product(funcs[i], funcs[j], xs)
            target = 1.0 if i == j else 0.0
            assert abs(val - target) < 1e-8


def test_uniform_grid_contract():
    xs = uniform_grid(5)
    assert np.array_equal(xs, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    with pytest.raises(ValueError):
        uniform_grid(1)


def test_reconstruct_grid_validation():
    theta = CoefficientSequence(np.ones(3))
    bad = ([0.0, 0.5, 0.5], [0.0, 1.5], [-0.1, 0.5], [], np.zeros((2, 2)), [0.0, 0.3, 1.0])
    for xs in bad:
        with pytest.raises(ValueError):
            reconstruct(theta, xs)


def test_reconstruct_single_coefficient_is_the_basis_function():
    xs = uniform_grid(64)
    values = reconstruct(CoefficientSequence(np.array([1.0])), xs)
    expected = np.sqrt(2.0) * np.cos(0.5 * np.pi * xs)
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_reconstruct_zero_sequence_is_zero():
    values = reconstruct(CoefficientSequence(np.zeros(10)), uniform_grid(16))
    assert np.all(values == 0.0)


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_reconstruct_is_linear(a, b, seed):
    rng = make_rng(seed)
    theta = rng.normal(size=20)
    eta = rng.normal(size=20)
    xs = uniform_grid(33)
    mixed = reconstruct(CoefficientSequence(a * theta + b * eta), xs)
    parts = a * reconstruct(CoefficientSequence(theta), xs)
    parts += b * reconstruct(CoefficientSequence(eta), xs)
    np.testing.assert_allclose(mixed, parts, atol=1e-10)


@pytest.mark.parametrize("points", [2, 3, 17, 512])
def test_reconstruct_matches_dense_cosine_sum(points):
    # i_max around 2N = 2 (points - 1) wraps the fold round once
    period = 2 * (points - 1)
    rng = make_rng(14)
    xs = uniform_grid(points)
    for i_max in (1, 5, period - 1, period, period + 1, 3000):
        theta = rng.normal(size=i_max) * np.arange(1, i_max + 1, dtype=np.float64) ** -1.5
        values = reconstruct(CoefficientSequence(theta), xs)
        dense = oracles.dense_cosine_sum(theta, xs)
        tol = 1e-12 * max(1.0, float(np.sum(np.abs(theta))))
        np.testing.assert_allclose(values, dense, rtol=0, atol=tol)


def test_reconstruct_values_stable_under_grid_refinement():
    # the coarse grid is a subset of the fine one, so shared points agree
    # to rounding
    theta = CoefficientSequence(make_rng(15).normal(size=40))
    coarse = reconstruct(theta, uniform_grid(5))
    fine = reconstruct(theta, uniform_grid(9))
    np.testing.assert_allclose(coarse, fine[::2], rtol=0, atol=1e-13)


def test_parseval_identity_on_a_decaying_sequence():
    """Quadrature of f^2 recovers ||theta||^2 for an ell_2 sequence."""
    i = np.arange(1, 101, dtype=np.float64)
    theta = i**-2.0
    xs = np.linspace(0.0, 1.0, 8193)
    f = reconstruct(CoefficientSequence(theta), xs)
    integral = oracles.simpson_inner_product(f, f, xs)
    assert integral == pytest.approx(float(np.sum(theta**2)), rel=1e-6)


def test_posterior_sup_tube_shrinks_with_n():
    """The 99% quantile of sup |draw - mean| decreases from n=1e3 to 1e6.

    Both quantiles were measured once (1.12 and 0.30); the assertion only
    requires the ordering plus a margin, which survives any seed change.
    """
    def q99(n, seed):
        spec = volterra_spectrum(500)
        obs = ObservationSequence(np.zeros(500), n)
        post = posterior_spec(obs, spec, FAM1, check_truncation=False)
        xs = uniform_grid(1024)
        mean_f = reconstruct(CoefficientSequence(post.mean), xs)
        rng = make_rng(seed, stream=21)
        sups = []
        for _ in range(400):
            draw = draw_gaussian_sequence(post.mean, post.var, rng)
            sups.append(np.max(np.abs(reconstruct(draw, xs) - mean_f)))
        return float(np.quantile(sups, 0.99))

    assert q99(1_000_000.0, 31) < 0.7 * q99(1000.0, 31)
