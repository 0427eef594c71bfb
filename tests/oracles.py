"""Independent reference implementations the closed forms are tested against.

Nothing here reuses the package's posterior algebra: moments come from
importance sampling, marginal densities from adaptive quadrature, inner
products from composite Simpson rules, curve values from the dense cosine
sum, radius quantiles from a normal approximation to the squared norm, and
recentred radii from full draws of every coordinate in float64. Slow and
simple on purpose.
"""

import numpy as np
from scipy import integrate, stats


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
    coordinates listed in `head` take float32 normals from head_rng, drawn
    row by row over the head in the order listed, as the package's radii
    engine draws them, so both see identical normals there; every other
    coordinate takes fresh float64 normals from tail_rng.
    """
    variances = np.asarray(variances, dtype=np.float64)
    head = np.asarray(head)
    tail = np.setdiff1d(np.arange(variances.size), head)
    sq = []
    for start in range(0, m, chunk):
        b = min(chunk, m - start)
        z_head = head_rng.standard_normal((b, head.size), dtype=np.float32)
        z_tail = tail_rng.standard_normal((b, tail.size))
        sq.append(
            np.sum(variances[head] * z_head.astype(np.float64) ** 2, axis=1)
            + np.sum(variances[tail] * z_tail**2, axis=1)
        )
    return np.sqrt(np.concatenate(sq))


def lawmu_squared_scale_bound(limit=10**7):
    """Analytic upper bound for sum_k 1/(k*log(k+1)^2).

    Partial sum plus the integral tail bound
    int_K^inf dx / (x log(x)^2) = 1/log(K).
    """
    k = np.arange(1, limit + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / (k * np.log(k + 1.0) ** 2)))
    return partial + 1.0 / np.log(float(limit))
