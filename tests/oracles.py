"""Independent reference implementations the closed forms are tested against.

Nothing here reuses the package's posterior algebra: moments come from
importance sampling, marginal densities from adaptive quadrature, inner
products from composite Simpson rules, curve values from the dense cosine
sum, radius quantiles from a normal approximation to the squared norm,
recentred radii from full draws of every coordinate in float64, and the
fp/fn count bound from the binomial law of the counts. Slow and simple on
purpose. The one package piece used here is the chi-square(1) sampler,
whose law tests/test_samplers.py checks on its own.
"""

import math

import numpy as np
from scipy import integrate, stats

from ebcred import squared_normals


def posterior_moments_is(y, kappa, n, prior_var, samples, seed):
    """Self-normalized importance sampling of posterior mean and variance.

    Proposes from the prior and weights by the Gaussian likelihood, one
    coordinate at a time (the posterior factorizes). Returns four arrays:
    means, variances, and delta-method standard errors for each.
    """
    rng = np.random.default_rng(seed)
    means, variances, se_mean, se_var = [], [], [], []
    for yi, ki, vi in zip(y, kappa, prior_var):
        theta = rng.normal(0.0, np.sqrt(vi), size=samples)
        log_w = -0.5 * n * (yi - ki * theta) ** 2
        log_w -= log_w.max()
        w = np.exp(log_w)
        w /= w.sum()
        mean = float(np.sum(w * theta))
        centered = theta - mean
        var = float(np.sum(w * centered**2))
        se_mean.append(float(np.sqrt(np.sum(w**2 * centered**2))))
        se_var.append(float(np.sqrt(np.sum(w**2 * (centered**2 - var) ** 2))))
        means.append(mean)
        variances.append(var)
    return (
        np.array(means),
        np.array(variances),
        np.array(se_mean),
        np.array(se_var),
    )


def marginal_log_likelihood_quad(y, kappa, n, prior_var):
    """Exact log marginal density by per-coordinate adaptive quadrature."""
    total = 0.0
    for yi, ki, vi in zip(y, kappa, prior_var):
        def integrand(t, yi=yi, ki=ki, vi=vi):
            prior = np.exp(-0.5 * t * t / vi) / np.sqrt(2.0 * np.pi * vi)
            lik = np.sqrt(n / (2.0 * np.pi)) * np.exp(-0.5 * n * (yi - ki * t) ** 2)
            return prior * lik
        value, _ = integrate.quad(
            integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200
        )
        total += np.log(value)
    return float(total)


def simpson_inner_product(f_values, g_values, xs):
    """Composite Simpson integral of f*g over the grid."""
    return float(integrate.simpson(f_values * g_values, x=xs))


def dense_cosine_sum(theta, xs):
    """sum_i theta_i sqrt(2) cos((i - 1/2) pi x) at every x, one cosine per term."""
    freq = (np.arange(1, len(theta) + 1, dtype=np.float64) - 0.5) * np.pi
    return np.sqrt(2.0) * np.cos(np.outer(xs, freq)) @ np.asarray(theta, dtype=np.float64)


def radius_quantile_normal_approx(variances, gamma):
    """Quantile of ||zeta||_2 from a normal approximation to the squared norm.

    ||zeta||^2 has mean sum(v) and variance 2*sum(v^2); for thousands of
    effective coordinates the (1-gamma) quantile of the norm is
    sqrt(mean + z_{1-gamma} * sd) to a relative accuracy far below the
    Monte Carlo tolerances used in the tests.
    """
    variances = np.asarray(variances, dtype=np.float64)
    mean = float(np.sum(variances))
    sd = float(np.sqrt(2.0 * np.sum(variances**2)))
    z = float(stats.norm.ppf(1.0 - gamma))
    return float(np.sqrt(mean + z * sd))


def full_draw_radii(variances, head, m, head_rng, tail_rng, chunk=500):
    """Norms of m draws from the centred law N(0, diag(variances)), all coordinates drawn.

    Squared norms sum var_i * z_i**2 over every coordinate in float64. The
    coordinates listed in `head` take float32 squared normals from
    head_rng, drawn row by row over the head in the order listed, as the
    package's radii engine draws them, so both see identical variates
    there (chunk is even, so each chunk starts a fresh pair of variates);
    every other coordinate takes fresh float64 normals from tail_rng.
    """
    if chunk % 2:
        raise ValueError("chunk must be even")
    variances = np.asarray(variances, dtype=np.float64)
    head = np.asarray(head)
    tail = np.setdiff1d(np.arange(variances.size), head)
    sq = []
    for start in range(0, m, chunk):
        b = min(chunk, m - start)
        x_head = squared_normals(head_rng, (b, head.size))
        z_tail = tail_rng.standard_normal((b, tail.size))
        sq.append(
            np.sum(variances[head] * x_head.astype(np.float64), axis=1)
            + np.sum(variances[tail] * z_tail**2, axis=1)
        )
    return np.sqrt(np.concatenate(sq))


def fpfn_count_bound(draw_counts, repetitions, m_precise, gamma, cells, alarm, grid=4000):
    """Smallest c with P(some fp or fn count > c) <= alarm over a fixed-prior fp/fn run.

    Let P be the precise radius, the j-th of m_precise recentred norms
    (j = floor((1 - gamma) m_precise)), and B the number of a row's N norms
    at or below P, with k = floor((1 - gamma) N) the built-in order
    statistic. Then fp = (k - B)+ and fn = (B - k)+, so the row's larger
    count is |B - k|. Given P, B ~ Binomial(N, F(P)) with F the law's CDF,
    and F(P) ~ Beta(j, m_precise + 1 - j) exactly, being the CDF at the j-th
    order statistic of a continuous law. One P serves every row of a cell
    (each of `cells` values of n, independent of each other), so

        P(no count > c) = (E_p[prod_N P(|B_N - k_N| <= c | p) ** repetitions]) ** cells,

    with the expectation over the Beta law taken on `grid` midpoint
    quantiles. Nothing here depends on the spectrum, n or the prior. (The
    radii engine draws the N and the m_precise norms with head sizes fitted
    to each sample size; the CDFs differ only at second order in the
    dropped tail's sd, far below the binomial spread.)
    """
    j = math.floor((1.0 - gamma) * m_precise)
    p = stats.beta(j, m_precise + 1 - j).ppf((np.arange(grid) + 0.5) / grid)
    c = 0
    while True:
        inside = np.ones_like(p)
        for N in draw_counts:
            k = math.floor((1.0 - gamma) * N)
            law = stats.binom(N, p)
            inside *= (law.cdf(k + c) - law.cdf(k - c - 1)) ** repetitions
        if 1.0 - np.mean(inside) ** cells <= alarm:
            return c
        c += 1


def lawmu_squared_scale_bound(limit=10**7):
    """Analytic upper bound for sum_k 1/(k*log(k+1)^2).

    Partial sum plus the integral tail bound
    int_K^inf dx / (x log(x)^2) = 1/log(K).
    """
    k = np.arange(1, limit + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / (k * np.log(k + 1.0) ** 2)))
    return partial + 1.0 / np.log(float(limit))
