"""Spectra, priors, conjugate posteriors, marginal likelihood, EB fits."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ebcred import (
    ObservationSequence,
    OperatorSpectrum,
    PriorFamily,
    TruncationWarning,
    adequate_i_max,
    draw_gaussian_sequence,
    eb_fit,
    identity_spectrum,
    make_rng,
    marginal_log_likelihood,
    posterior_spec,
    prior_variance,
    simulate_data,
    truncation_tail_bound,
    volterra_spectrum,
)

FAM1 = PriorFamily.power_law(1.0)


def zero_obs(i_max, n):
    return ObservationSequence(np.zeros(i_max), n)


# ---------------------------------------------------------------- spectra


def test_volterra_singular_values():
    spec = volterra_spectrum(3)
    assert spec.label == "volterra"
    assert spec.kappa[0] == pytest.approx(2.0 / np.pi, rel=1e-15)
    assert spec.kappa[2] == pytest.approx(1.0 / (2.5 * np.pi), rel=1e-15)
    assert np.all(np.diff(spec.kappa) < 0)


def test_identity_spectrum_is_flat():
    spec = identity_spectrum(5)
    assert spec.label == "identity"
    assert np.all(spec.kappa == 1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        volterra_spectrum(0)
    with pytest.raises(ValueError):
        OperatorSpectrum(kappa=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        OperatorSpectrum(kappa=np.array([1.0, -0.5]))


# ----------------------------------------------------------------- priors


def test_prior_variance_closed_forms():
    assert prior_variance(FAM1, 1) == 1.0
    assert prior_variance(FAM1, 2) == pytest.approx(2.0**-3, rel=1e-15)
    scaled = PriorFamily.scaled_power_law(1.0, 3.0)
    assert prior_variance(scaled, 2) == pytest.approx(9.0 * 2.0**-3, rel=1e-15)
    expo = PriorFamily.exponential(0.5)
    assert prior_variance(expo, 2) == pytest.approx(np.exp(-2.0), rel=1e-15)
    # q = 1 turns the decay into a plain geometric sequence
    geo = PriorFamily.exponential(0.5, lambda_exponent=1.0)
    assert prior_variance(geo, 4) == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_prior_variance_array_input():
    vals = prior_variance(FAM1, np.array([1, 2, 3]))
    assert vals.shape == (3,)
    assert np.all(np.diff(vals) < 0)
    assert isinstance(prior_variance(FAM1, 3), float)


def test_prior_variance_rejects_bad_indices():
    with pytest.raises(ValueError):
        prior_variance(FAM1, 0)
    with pytest.raises(ValueError):
        prior_variance(FAM1, 1.5)


def test_prior_family_validation():
    with pytest.raises(ValueError):
        PriorFamily.power_law(0.0)
    with pytest.raises(ValueError):
        PriorFamily.power_law(-1.0)
    with pytest.raises(ValueError):
        PriorFamily.scaled_power_law(1.0, 0.0)
    with pytest.raises(ValueError):
        PriorFamily.scaled_power_law(-1.0, 1.0)
    with pytest.raises(ValueError):
        PriorFamily.exponential(0.0)
    with pytest.raises(ValueError):
        PriorFamily(variant="bogus")


def test_variances_method_matches_prior_variance():
    fam = PriorFamily.exponential(0.3)
    a = fam.variances(12)
    b = prior_variance(fam, np.arange(1, 13))
    assert np.array_equal(a, b)


@given(alpha=st.floats(0.05, 5.0), i_max=st.integers(2, 60))
def test_power_law_variances_start_at_one_and_decrease(alpha, i_max):
    v = PriorFamily.power_law(alpha).variances(i_max)
    assert v[0] == 1.0
    assert np.all(v > 0)
    assert np.all(np.diff(v) < 0)


# ------------------------------------------------------------- posteriors


def test_posterior_zero_data_has_zero_mean():
    spec = volterra_spectrum(8)
    post = posterior_spec(zero_obs(8, 100.0), spec, FAM1, check_truncation=False)
    assert np.all(post.mean == 0.0)
    v = FAM1.variances(8)
    expect = 1.0 / (1.0 / v + 100.0 * spec.kappa**2)
    np.testing.assert_allclose(post.var, expect, rtol=1e-14)


def test_posterior_large_n_tracks_data():
    # with kappa = 1 and huge n the posterior collapses onto y
    spec = identity_spectrum(4)
    y = np.array([0.3, -0.2, 0.1, 0.05])
    post = posterior_spec(
        ObservationSequence(y, 1e12), spec, FAM1, check_truncation=False
    )
    np.testing.assert_allclose(post.mean, y, atol=1e-9)
    assert np.all(post.var < 1.1e-12)


def test_posterior_length_mismatch():
    with pytest.raises(ValueError):
        posterior_spec(zero_obs(5, 10.0), volterra_spectrum(6), FAM1)


@given(
    y=st.floats(-5.0, 5.0),
    n=st.floats(1.0, 1e6),
    alpha=st.floats(0.1, 3.0),
    i=st.integers(1, 50),
)
def test_posterior_coordinate_bounds(y, n, alpha, i):
    """Shrinkage: |mean| < |y| / kappa and var < min(prior var, noise var)."""
    fam = PriorFamily.power_law(alpha)
    spec = volterra_spectrum(i)
    ys = np.zeros(i)
    ys[-1] = y
    post = posterior_spec(
        ObservationSequence(ys, n), spec, fam, check_truncation=False
    )
    k = spec.kappa[-1]
    v = prior_variance(fam, i)
    assert post.var[-1] <= min(v, 1.0 / (n * k * k)) + 1e-15
    assert abs(post.mean[-1]) <= abs(y) / k + 1e-12
    # The exact mean n * kappa * y * var may lie below the smallest subnormal
    # 2**-1074 (y = 5e-324, say), where float64 can only give 0.
    exact = Fraction(abs(y)) * Fraction(n) * Fraction(float(k)) * Fraction(float(post.var[-1]))
    if y != 0.0 and not (post.mean[-1] == 0.0 and exact < Fraction(2) ** -1074):
        assert np.sign(post.mean[-1]) == np.sign(y)


def test_posterior_variance_decreases_in_n():
    spec = volterra_spectrum(30)
    post_small = posterior_spec(zero_obs(30, 10.0), spec, FAM1, check_truncation=False)
    post_big = posterior_spec(zero_obs(30, 1e4), spec, FAM1, check_truncation=False)
    assert np.all(post_big.var < post_small.var)


def test_posterior_matches_importance_sampling_oracle():
    y = np.array([1.0, -1.0, 2.0])
    kappa = np.array([1.0, 0.5, 0.25])
    pv = prior_variance(FAM1, np.array([1, 2, 3]))
    m_is, v_is, se_m, se_v = oracles.posterior_moments_is(
        y, kappa, 10.0, pv, samples=2_000_000, seed=1234
    )
    post = posterior_spec(
        ObservationSequence(y, 10.0),
        OperatorSpectrum(kappa=kappa, label="custom"),
        FAM1,
        check_truncation=False,
    )
    assert np.all(np.abs(post.mean - m_is) <= 4.0 * se_m)
    assert np.all(np.abs(post.var - v_is) <= 4.0 * se_v)


# -------------------------------------------------- marginal likelihood


def test_marginal_single_coordinate_closed_form():
    # kappa = v = n = 1, y = 0: marginal is N(0, 2), log density -log(4 pi)/2
    obs = ObservationSequence(np.zeros(1), 1.0)
    spec = identity_spectrum(1)
    ll = marginal_log_likelihood(obs, spec, FAM1)
    assert ll == pytest.approx(-0.5 * np.log(4.0 * np.pi), rel=1e-14)


def test_marginal_additivity_over_coordinates():
    rng = make_rng(3)
    y = rng.normal(size=6)
    spec = volterra_spectrum(6)
    total = marginal_log_likelihood(ObservationSequence(y, 50.0), spec, FAM1)
    # same quantity assembled one coordinate at a time, shifting the prior
    # variance by hand since single-coordinate families always start at i=1
    parts = 0.0
    v = FAM1.variances(6)
    for i in range(6):
        marg = spec.kappa[i] ** 2 * v[i] + 1.0 / 50.0
        parts += -0.5 * (np.log(2.0 * np.pi * marg) + y[i] ** 2 / marg)
    assert total == pytest.approx(parts, rel=1e-13)


def test_marginal_matches_quadrature_oracle():
    y = np.array([1.0, -1.0, 2.0])
    kappa = np.array([1.0, 0.5, 0.25])
    pv = prior_variance(FAM1, np.array([1, 2, 3]))
    ll_pkg = marginal_log_likelihood(
        ObservationSequence(y, 10.0), OperatorSpectrum(kappa=kappa), FAM1
    )
    ll_quad = oracles.marginal_log_likelihood_quad(y, kappa, 10.0, pv)
    assert abs(ll_pkg - ll_quad) <= 1e-6 * abs(ll_quad)


# ------------------------------------------------------------------ eb_fit


def test_eb_fit_noiseless_zero_data_hits_upper_bound():
    # y identically zero favours vanishing prior variance, alpha -> hi
    spec = volterra_spectrum(100)
    fit = eb_fit(zero_obs(100, 1000.0), spec, variant="power_law")
    assert fit.value == 10.0
    assert fit.family.variant == "power_law"


def test_eb_fit_never_below_any_evaluated_point():
    spec = volterra_spectrum(200)
    truth = draw_gaussian_sequence(
        np.zeros(200), FAM1.variances(200), make_rng(8)
    )
    obs = simulate_data(truth, spec, 500.0, make_rng(9))
    fit = eb_fit(obs, spec, variant="power_law")
    assert fit.grid.size == 200
    assert fit.log_likelihood >= np.max(fit.grid_log_likelihood)
    assert 0.01 <= fit.value <= 10.0
    # pure function of the observations
    again = eb_fit(obs, spec, variant="power_law")
    assert again.value == fit.value


def test_eb_fit_scaled_variant_frees_tau_only():
    spec = volterra_spectrum(50)
    obs = simulate_data(
        draw_gaussian_sequence(np.zeros(50), FAM1.variances(50), make_rng(10)),
        spec,
        200.0,
        make_rng(11),
    )
    with pytest.raises(ValueError):
        eb_fit(obs, spec, variant="scaled_power_law")
    fit = eb_fit(obs, spec, variant="scaled_power_law", alpha=0.7)
    assert fit.family.variant == "scaled_power_law"
    assert fit.family.alpha == 0.7
    assert fit.value == fit.family.tau


def test_eb_fit_exponential_variant():
    spec = volterra_spectrum(50)
    obs = simulate_data(
        draw_gaussian_sequence(
            np.zeros(50), PriorFamily.exponential(1.0).variances(50), make_rng(12)
        ),
        spec,
        200.0,
        make_rng(13),
    )
    fit = eb_fit(obs, spec, variant="exponential", lambda_exponent=1.0)
    assert fit.family.variant == "exponential"
    assert fit.family.lambda_exponent == 1.0
    assert fit.value == fit.family.t


def test_eb_fit_rejects_bad_search_setup():
    spec = volterra_spectrum(10)
    obs = zero_obs(10, 10.0)
    with pytest.raises(ValueError):
        eb_fit(obs, spec, search_interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        eb_fit(obs, spec, search_interval=(2.0, 1.0))
    with pytest.raises(ValueError, match="search interval"):
        eb_fit(obs, spec, search_interval=(0.01, float("inf")))
    with pytest.raises(ValueError):
        eb_fit(obs, spec, grid_points=2)


# Max |alpha_hat - 1| seen over seeds 0..9 when this was calibrated; the
# asserted bound leaves room for platform-level numeric jitter only.
EB_SELF_CONSISTENCY_SEEN = 0.2595
EB_SELF_CONSISTENCY_TOL = 0.45


def test_eb_fit_self_consistency_on_prior_draws():
    """Data simulated under alpha = 1 should be fit near 1 at n = 1e6.

    The spread was measured once over these exact seeds; the bound adds
    headroom but still fails on gross estimator regressions.
    """
    spec = volterra_spectrum(10_000)
    pv = FAM1.variances(10_000)
    worst = 0.0
    for seed in range(10):
        rng = make_rng(seed, stream=900)
        theta = draw_gaussian_sequence(np.zeros(10_000), pv, rng)
        obs = simulate_data(theta, spec, 1_000_000.0, rng)
        fit = eb_fit(obs, spec, variant="power_law")
        worst = max(worst, abs(fit.value - 1.0))
    assert worst <= EB_SELF_CONSISTENCY_TOL


# -------------------------------------------------------------- truncation


def test_truncation_warning_fires_on_short_slice():
    spec = volterra_spectrum(20)
    with pytest.warns(TruncationWarning):
        posterior_spec(zero_obs(20, 1e6), spec, FAM1)


def test_truncation_check_can_be_disabled():
    spec = volterra_spectrum(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        posterior_spec(zero_obs(20, 1e6), spec, FAM1, check_truncation=False)


def test_tail_bound_dominates_actual_tail():
    n, i_max, extra = 1000.0, 100, 5000
    bound = truncation_tail_bound(FAM1, "volterra", n, i_max)
    i = np.arange(i_max + 1, i_max + extra + 1, dtype=np.float64)
    v = prior_variance(FAM1, i)
    k2 = 1.0 / ((i - 0.5) ** 2 * np.pi**2)
    actual = np.sum(1.0 / (1.0 / v + n * k2))
    assert bound >= actual


def test_tail_bound_decreases_in_i_max():
    bounds = [
        truncation_tail_bound(FAM1, "volterra", 1000.0, m) for m in (50, 100, 400)
    ]
    assert bounds[0] > bounds[1] > bounds[2] > 0


def test_tail_bound_exponential_prior():
    expo = PriorFamily.exponential(1.0)
    b1 = truncation_tail_bound(expo, "volterra", 1000.0, 10)
    b2 = truncation_tail_bound(expo, "volterra", 1000.0, 20)
    assert 0 < b2 < b1
    # decay is so fast the i_max = 10 tail is already tiny
    assert b1 < np.exp(-50.0)


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        truncation_tail_bound(FAM1, "volterra", 0.0, 100)
    with pytest.raises(ValueError):
        truncation_tail_bound(FAM1, "volterra", 100.0, 0)


def test_adequate_i_max_passes_its_own_criterion():
    n = 1000.0
    level = adequate_i_max(FAM1, "volterra", n)
    spec = volterra_spectrum(level)
    post = posterior_spec(zero_obs(level, n), spec, FAM1, check_truncation=False)
    tail = truncation_tail_bound(FAM1, "volterra", n, level)
    assert tail <= 1e-5 * np.sum(post.var)


def test_adequate_i_max_respects_cap():
    assert adequate_i_max(FAM1, "volterra", 1e12, cap=2048) == 2048
