"""Randomness plumbing: seeded streams, Gaussian draws, the radii engine,
and the ball-conditioned recentring sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from ebcred import (
    CoefficientSequence,
    CredibleBall,
    ObservationSequence,
    PriorFamily,
    ProposalExhausted,
    RngSeed,
    adequate_i_max,
    build_credible_ball,
    draw_gaussian_sequence,
    draw_lawmu,
    draw_posterior,
    head_tail_split,
    identity_spectrum,
    lawmu_scales,
    make_rng,
    posterior_spec,
    prior_variance,
    radius_precise,
    recentered_radii,
    squared_normals,
    volterra_spectrum,
)
from ebcred.credible_set import _order_statistic_index, _quantile_std_error
from ebcred.samplers import _fill_squared_normals

FAM1 = PriorFamily.power_law(1.0)


def toy_posterior(i_max=100, n=50.0):
    spec = volterra_spectrum(i_max)
    obs = ObservationSequence(np.zeros(i_max), n)
    return posterior_spec(obs, spec, FAM1, check_truncation=False)


# ------------------------------------------------------------------ streams


def test_same_seed_same_stream_reproduces():
    a = make_rng(5, stream=2).standard_normal(8)
    b = make_rng(5, stream=2).standard_normal(8)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = make_rng(5, stream=0).standard_normal(8)
    b = make_rng(5, stream=1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_make_rng_accepts_generator_and_rngseed():
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen
    a = RngSeed(9, 4).generator().standard_normal(3)
    b = make_rng(RngSeed(9, 4)).standard_normal(3)
    assert np.array_equal(a, b)


def test_rngseed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(0, -2)


# ------------------------------------------------------------ direct draws


def test_zero_variance_draw_returns_means():
    means = np.array([1.0, -2.0, 0.5])
    draw = draw_gaussian_sequence(means, np.zeros(3), make_rng(0))
    assert np.array_equal(draw.values, means)


def test_draw_validation():
    with pytest.raises(ValueError):
        draw_gaussian_sequence(np.zeros(3), np.zeros(4), make_rng(0))
    with pytest.raises(ValueError):
        draw_gaussian_sequence(np.zeros(3), np.array([1.0, -1.0, 1.0]), make_rng(0))


def test_draw_posterior_equals_gaussian_draw_at_same_seed():
    post = toy_posterior()
    a = draw_posterior(post, make_rng(3, stream=1))
    b = draw_gaussian_sequence(post.mean, post.var, make_rng(3, stream=1))
    assert np.array_equal(a.values, b.values)


def test_draw_moments_and_independence():
    """Sample mean, variance, and cross moments over 1e5 draws.

    Everything is checked at 4 standard errors of the corresponding
    estimator, so a correct implementation fails with probability well
    below 1e-3 across all comparisons.
    """
    means = np.array([0.5, -1.0, 2.0])
    variances = np.array([1.0, 0.25, 4.0])
    reps = 100_000
    rng = make_rng(17)
    draws = np.array(
        [draw_gaussian_sequence(means, variances, rng).values for _ in range(reps)]
    )
    se_mean = np.sqrt(variances / reps)
    assert np.all(np.abs(draws.mean(axis=0) - means) <= 4.0 * se_mean)
    sample_var = draws.var(axis=0, ddof=1)
    se_var = variances * np.sqrt(2.0 / (reps - 1))
    assert np.all(np.abs(sample_var - variances) <= 4.0 * se_var)
    centered = draws - draws.mean(axis=0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cov = np.mean(centered[:, i] * centered[:, j])
        se = np.sqrt(variances[i] * variances[j] / reps)
        assert abs(cov) <= 4.0 * se


# ------------------------------------------------- chi-square(1) sampler

# Law tests below run at fixed seeds; each KS test asks p > 1e-4, so a
# correct sampler fails one at a fresh seed with probability 1e-4, and each
# moment check sits at 5 standard errors (two-sided 5.7e-7 under a normal
# approximation).
CHI2_SIZE = 1 << 21


@pytest.fixture(scope="module")
def chi2_sample():
    return squared_normals(make_rng(2026), CHI2_SIZE)


@pytest.mark.parametrize("member", [0, 1], ids=["first", "second"])
def test_squared_normals_members_are_chi2_1(chi2_sample, member):
    """KS test of each member of the pairs, 2**20 variates each, against chi-square(1)."""
    x = chi2_sample[member::2].astype(np.float64)
    assert x.size == 1 << 20
    assert stats.kstest(x, stats.chi2(1).cdf).pvalue > 1e-4


def test_squared_normals_moments_and_pair_independence(chi2_sample):
    """Mean 1, variance 2 and, within a pair, E[ab] = 1, each within 5 se."""
    x = chi2_sample.astype(np.float64)
    size = x.size
    assert abs(x.mean() - 1.0) <= 5.0 * np.sqrt(2.0 / size)
    # the fourth central moment of chi-square(1) is 60
    assert abs(x.var() - 2.0) <= 5.0 * np.sqrt(56.0 / size)
    # independent a, b: Var(ab) = E[a^2] E[b^2] - 1 = 8
    ab = x[0::2] * x[1::2]
    assert abs(ab.mean() - 1.0) <= 5.0 * np.sqrt(8.0 / ab.size)


def test_squared_normals_range(chi2_sample):
    assert np.all(np.isfinite(chi2_sample)) and chi2_sample.min() >= 0.0
    assert chi2_sample.max() <= 64.0 * np.log(2.0) * (1 + 1e-6)


class _FixedWords:
    """Stands in for a generator whose next 64-bit words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert (low, high, size, dtype) == (0, 2**64, self.words.size, np.uint64)
        return self.words


def test_squared_normals_largest_variate():
    """u = 2**-32, the smallest uniform, and C = 1 give 2 * 32 log 2, about 44.36."""
    out = np.empty(4, dtype=np.float32)
    _fill_squared_normals(_FixedWords([0, 2**64 - 1]), out)
    assert out[0] == pytest.approx(64.0 * np.log(2.0), rel=1e-6)
    assert out[1] == 0.0
    # u = 1 gives E = 0
    assert np.array_equal(out[2:], [0.0, 0.0])


def test_squared_normals_flat_layout():
    """The variate at a flat position depends only on the generator and the position."""
    full = squared_normals(make_rng(6), 101)
    assert full.dtype == np.float32 and full.shape == (101,)
    rng = make_rng(6)
    # an even first piece ends on a whole word, so the second starts the next one
    pieces = np.concatenate([squared_normals(rng, 40), squared_normals(rng, (3, 7)).ravel()])
    assert np.array_equal(pieces, full[:61])
    assert np.array_equal(squared_normals(make_rng(6), (7, 9)).ravel(), full[:63])
    assert np.array_equal(squared_normals(make_rng(6), 1), full[:1])
    assert squared_normals(make_rng(6), (0, 5)).shape == (0, 5)


def test_squared_normals_law_on_a_32_bit_generator():
    """Full 64-bit words also come from MT19937, whose raw outputs have 32 bits."""
    x = squared_normals(np.random.Generator(np.random.MT19937(3)), 1 << 16)
    x = x.astype(np.float64)
    for member in (x[0::2], x[1::2]):
        assert abs(member.mean() - 1.0) <= 5.0 * np.sqrt(2.0 / member.size)


# ------------------------------------------------------------ radii engine


def test_recentered_radii_matches_direct_norms():
    """The blocked engine reproduces a plain float32 norm over the head plus the tail mean."""
    var = prior_variance(FAM1, np.arange(1, 41))
    m = 257
    split = head_tail_split(var, m)
    k = split.head_size
    assert 0 < k < 40  # a tail is dropped
    # decreasing variances: the head is the leading block of coordinates
    assert np.array_equal(split.head, np.arange(k))
    assert split.tail_mean == np.sum(var[k:])
    engine = recentered_radii(var, m, make_rng(21))
    x = squared_normals(make_rng(21), (m, k))
    head_sq = np.einsum("ij,j->i", x, var[:k].astype(np.float32), dtype=np.float32)
    direct = np.sqrt(head_sq.astype(np.float64) + split.tail_mean)
    assert np.array_equal(engine, direct)


def test_recentered_radii_without_tail_is_the_full_draw():
    """Flat variances drop no coordinate, and the output is the plain float32 full draw."""
    var = np.full(300, 0.37)
    m = 5000
    assert np.array_equal(head_tail_split(var, m).head, np.arange(300))
    engine = recentered_radii(var, m, make_rng(8))
    x = squared_normals(make_rng(8), (m, 300))
    direct = np.sqrt(
        np.einsum("ij,j->i", x, var.astype(np.float32), dtype=np.float32),
        dtype=np.float64,
    )
    assert np.array_equal(engine, direct)


def test_recentered_radii_block_size_invariance():
    var = prior_variance(FAM1, np.arange(1, 301))
    a = recentered_radii(var, 5000, make_rng(42), block_bytes=1 << 26)
    b = recentered_radii(var, 5000, make_rng(42), block_bytes=4096)
    assert np.array_equal(a, b)


def test_recentered_radii_deterministic():
    var = toy_posterior().var
    a = recentered_radii(var, 1000, make_rng(7, stream=5))
    b = recentered_radii(var, 1000, make_rng(7, stream=5))
    assert np.array_equal(a, b)


def test_recentered_radii_mean_square_is_total_variance():
    var = toy_posterior(i_max=200, n=100.0).var
    radii = recentered_radii(var, 50_000, make_rng(30))
    total = var.sum()
    # Var(||z||^2) = 2 sum v_i^2
    se = np.sqrt(2.0 * np.sum(var**2) / 50_000)
    assert abs(np.mean(radii**2) - total) <= 4.0 * se


def test_recentered_radii_validation():
    with pytest.raises(ValueError):
        recentered_radii(np.array([1.0, -1.0]), 10, make_rng(0))
    with pytest.raises(ValueError):
        recentered_radii(np.array([]), 10, make_rng(0))
    with pytest.raises(ValueError):
        recentered_radii(np.array([1.0]), 0, make_rng(0))
    with pytest.raises(ValueError):
        recentered_radii(np.array([np.inf]), 10, make_rng(0))


@given(
    # squares stay normal floats here; underflow has its own test below
    var=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-100, 1e3)), min_size=1, max_size=60
    ),
    m=st.integers(1, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_head_tail_split_is_the_smallest_head_meeting_the_rule(var, m):
    var = np.array(var)
    split = head_tail_split(var, m)
    k = split.head_size
    order = np.argsort(-var, kind="stable")
    assert np.array_equal(split.head, order[:k])
    ranked = var[order]
    limit = 0.1 * np.sqrt(np.sum(ranked**2)) / np.sqrt(m)
    assert np.sqrt(np.sum(ranked[k:] ** 2)) <= limit * (1 + 1e-12)
    if k > 0:
        # one coordinate fewer in the head would break the rule
        assert np.sqrt(np.sum(ranked[k - 1:] ** 2)) > limit * (1 - 1e-12)
    assert split.tail_mean == pytest.approx(np.sum(ranked[k:]), rel=1e-12, abs=0)
    assert split.tail_sd == pytest.approx(
        np.sqrt(2.0 * np.sum(ranked[k:] ** 2)), rel=1e-12, abs=1e-300
    )


def test_head_tail_split_ties_and_underflow():
    # equal variances keep their index order, so the head is deterministic
    var = np.array([1.0, 0.5, 1.0, 0.5, 0.5] + [0.0] * 5)
    assert np.array_equal(head_tail_split(var, 1).head, [0, 2, 1, 3, 4])
    # variances whose squares underflow are still ranked, not dropped wholesale
    tiny = np.array([1e-170, 1e-171, 1e-200, 0.0])
    split = head_tail_split(tiny, 100)
    assert split.head_size >= 1 and split.head[0] == 0
    zero = head_tail_split(np.zeros(4), 100)
    assert zero.head_size == 0 and zero.tail_mean == 0.0 and zero.tail_sd == 0.0
    assert np.array_equal(recentered_radii(np.zeros(4), 7, make_rng(0)), np.zeros(7))


def _posterior_variances(spectrum, n, family):
    i_max = adequate_i_max(family, spectrum, n)
    make = volterra_spectrum if spectrum == "volterra" else identity_spectrum
    obs = ObservationSequence(np.zeros(i_max), n)
    return posterior_spec(obs, make(i_max), family, check_truncation=False).var


SPLIT_GRID = [
    pytest.param(spectrum, n, PriorFamily.power_law(alpha),
                 id=f"{spectrum}-n{n:g}-alpha{alpha:g}")
    for spectrum in ("volterra", "identity")
    for n in (1e3, 1e6, 1e8)
    for alpha in (0.01, 1.0, 10.0)
] + [
    # most posterior variances underflow to exactly 0
    pytest.param("volterra", 1e3, PriorFamily.exponential(0.01), id="volterra-n1e3-exp")
]


@pytest.mark.parametrize("spectrum, n, family", SPLIT_GRID)
def test_split_quantile_matches_full_draw_on_identical_normals(spectrum, n, family):
    """Dropping the tail moves the 95% radius by under a quarter of its standard error.

    The full-draw reference simulates every coordinate in float64, with the
    head coordinates on the very variates the engine draws, so the gap is the
    effect of replacing the tail by its mean and nothing else.  That gap is
    essentially one draw of the tail's fluctuation at the rank-k draw, whose
    sd the split rule keeps below about 5% of the standard error (measured
    up to 4.8% on this grid); a quarter of the standard error is five of
    those sds.
    """
    var = _posterior_variances(spectrum, n, family)
    m = 2000
    split = head_tail_split(var, m)
    engine = recentered_radii(var, m, make_rng(3))
    full = oracles.full_draw_radii(
        var, split.head, m, make_rng(3), make_rng(3, stream=1)
    )
    k = _order_statistic_index(m, 0.05)
    q_split = np.sort(engine)[k - 1]
    ordered = np.sort(full)
    q_full = ordered[k - 1]
    se = _quantile_std_error(ordered, 0.95, q_full)
    assert abs(q_split - q_full) <= 0.25 * se


@pytest.mark.parametrize("spectrum, n", [("volterra", 1e3), ("identity", 1e6),
                                         ("identity", 1e8)])
def test_recentered_radii_float32_head_accuracy(spectrum, n):
    """Squared norms are within 2e-6 relative of float64 sums on the same variates."""
    var = _posterior_variances(spectrum, n, FAM1)
    m, chunk = 10_000, 500
    split = head_tail_split(var, m)
    engine = recentered_radii(var, m, make_rng(5)) ** 2
    rng = make_rng(5)
    for start in range(0, m, chunk):
        x = squared_normals(rng, (chunk, split.head_size))
        exact = np.sum(var[split.head] * x.astype(np.float64), axis=1)
        exact += split.tail_mean
        got = engine[start:start + chunk]
        assert np.max(np.abs(got - exact) / exact) <= 2e-6


# ---------------------------------------------------------- lawmu sampler


def test_lawmu_scales_closed_form():
    s = lawmu_scales(3)
    assert s[0] == pytest.approx(1.0 / np.log(2.0), rel=1e-15)
    assert s[1] == pytest.approx(1.0 / (np.sqrt(2.0) * np.log(3.0)), rel=1e-15)
    assert np.all(np.diff(s) < 0)
    with pytest.raises(ValueError):
        lawmu_scales(0)


@given(i_max=st.integers(1, 5000))
@settings(max_examples=30, deadline=None)
def test_lawmu_scales_square_summable(i_max):
    partial = float(np.sum(lawmu_scales(i_max) ** 2))
    assert partial <= LAWMU_SQUARE_SUM_BOUND


# analytic bound on sum_k 1/(k log(k+1)^2): partial sum to 1e7 plus an
# integral tail; anything above it means the decay exponent regressed
LAWMU_SQUARE_SUM_BOUND = oracles.lawmu_squared_scale_bound(10**6)


def test_lawmu_draws_land_inside_the_ball():
    post = toy_posterior()
    est = radius_precise(post, m=20_000, seed=RngSeed(5, 0))
    ball = build_credible_ball(post, est)
    rng = make_rng(2, stream=9)
    for _ in range(200):
        mu = draw_lawmu(ball.center, est.value, ball, rng)
        assert np.linalg.norm(mu.values - ball.center.values) <= ball.radius


def test_lawmu_tiny_scale_stays_near_center():
    post = toy_posterior()
    est = radius_precise(post, m=5000, seed=RngSeed(6, 0))
    ball = build_credible_ball(post, est)
    a = 1e-9
    mu = draw_lawmu(ball.center, a, ball, make_rng(3))
    limit = a * np.sqrt(np.sum(lawmu_scales(ball.center.i_max) ** 2)) * 10.0
    assert np.linalg.norm(mu.values - ball.center.values) <= limit


def test_lawmu_exhaustion_raises():
    post = toy_posterior()
    est = radius_precise(post, m=5000, seed=RngSeed(6, 0))
    ball = build_credible_ball(post, est)
    tiny = CredibleBall(
        center=ball.center, radius=1e-12, blowup=1.0, gamma=ball.gamma
    )
    with pytest.raises(ProposalExhausted) as err:
        draw_lawmu(ball.center, 1.0, tiny, make_rng(4), max_attempts=40)
    assert err.value.attempts == 40


def test_lawmu_rejects_bad_arguments():
    post = toy_posterior()
    est = radius_precise(post, m=5000, seed=RngSeed(6, 0))
    ball = build_credible_ball(post, est)
    with pytest.raises(ValueError):
        draw_lawmu(ball.center, 0.0, ball, make_rng(0))
    with pytest.raises(ValueError):
        draw_lawmu(ball.center, 1.0, ball, make_rng(0), max_attempts=0)


def test_lawmu_accepted_first_coordinate_is_symmetric():
    """Conditioning on a centred ball keeps each coordinate symmetric."""
    post = toy_posterior()
    est = radius_precise(post, gamma=0.05, m=20_000, seed=RngSeed(5, 0))
    ball = build_credible_ball(post, est)
    rng = make_rng(11, stream=4)
    draws = np.array(
        [draw_lawmu(ball.center, 0.5 * est.value, ball, rng).values for _ in range(1500)]
    )
    first = draws[:, 0] - ball.center.values[0]
    skew = np.mean(first**3) / np.mean(first**2) ** 1.5
    assert abs(skew) <= 4.0 * np.sqrt(6.0 / 1500)


# Measured once against the frozen generator stack below; see the test.
LAWMU_ACCEPTANCE_SEEN = 0.1393


def test_lawmu_acceptance_rate_regression():
    """Fraction of unconditioned proposals at a = r that land inside.

    The proposal offset is the centred Gaussian with variances
    (a * scale_k)^2, so its norms can be simulated with the radii engine.
    The value was measured once; a shift beyond the band means the
    proposal law or the radius estimate changed.
    """
    post = toy_posterior(i_max=1024, n=1000.0)
    est = radius_precise(post, gamma=0.05, m=100_000, seed=RngSeed(2024, 0))
    offsets = recentered_radii(
        (est.value * lawmu_scales(1024)) ** 2, 100_000, make_rng(123, stream=77)
    )
    rate = float(np.mean(offsets <= est.value))
    assert rate == pytest.approx(LAWMU_ACCEPTANCE_SEEN, abs=0.01)
