"""Simulation studies: false positives/negatives, coverage, rates, curves.

Every experiment is a pure function of an ExperimentConfig.  Randomness is
derived from the master seed through SeedSequence spawn keys indexed by
(cell, repetition, purpose), so any single repetition can be recomputed in
isolation and parallel execution cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .credible_set import (
    RadiusEstimate,
    build_credible_ball,
    contains,
    radius_builtin,
    radius_precise,
)
from .function_space import reconstruct, uniform_grid
from .samplers import RngSeed, draw_lawmu, draw_posterior, recentered_radii
from .sequence_model import (
    FREE_SCALAR,
    SPECTRA,
    CoefficientSequence,
    ObservationSequence,
    OperatorSpectrum,
    PosteriorSpec,
    PriorFamily,
    eb_fit,
    make_spectrum,
    posterior_spec,
    posterior_variances,
)

__all__ = [
    "ExperimentConfig",
    "FpFnRow",
    "FpFnCell",
    "FpFnReport",
    "CoverageRow",
    "CoverageCell",
    "CoverageReport",
    "RateRow",
    "RateReport",
    "Curve",
    "CurveSet",
    "make_truth",
    "simulate_data",
    "count_fp_fn",
    "fpfn_repetition",
    "fpfn_experiment",
    "coverage_experiment",
    "rate_experiment",
    "export_curves",
]

# Purpose indices for RNG substreams; the tuple (cell indices, rep, purpose)
# is the SeedSequence spawn key.
_DATA = 0
_DRAWS = 1
_PRECISE = 2
_LAWMU = 3

# Built-in truth generators of make_truth, and the sampling laws of export_curves.
TRUTHS = ("power", "zero", "custom")
CURVE_LAWS = ("posterior", "lawmu", "both")


def _check_positive_finite(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment harnesses; defaults follow the studies.

    fixed_hyperparameter pins the prior's free scalar (alpha, tau, or t by
    variant); None switches every repetition to an empirical Bayes fit over
    search_interval.  scaled_alpha is only consulted by the scaled variant,
    where alpha stays fixed while tau is the free scalar.
    """

    n_values: tuple[float, ...] = (1000.0,)
    draw_counts: tuple[int, ...] = (500, 2000)
    repetitions: int = 10
    gamma: float = 0.05
    blowup: float = 1.0
    spectrum: str = "volterra"
    i_max: int = 10_000
    prior_variant: str = "power_law"
    fixed_hyperparameter: float | None = 1.0
    scaled_alpha: float = 1.0
    lambda_exponent: float = 2.0
    search_interval: tuple[float, float] = (0.01, 10.0)
    truth_name: str = "power"
    truth_params: dict = field(default_factory=dict)
    m_precise: int = 100_000
    curve_count: int = 50
    grid_points: int = 512
    lawmu_scale: float = 1.0
    max_attempts: int = 10_000
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(float(v) for v in self.n_values))
        object.__setattr__(self, "draw_counts", tuple(int(v) for v in self.draw_counts))
        object.__setattr__(
            self, "search_interval", tuple(float(v) for v in self.search_interval)
        )
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        for v in self.n_values:
            _check_positive_finite("n_values", v)
        if not self.draw_counts or any(c < 1 for c in self.draw_counts):
            raise ValueError("draw_counts must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        _check_positive_finite("blowup", self.blowup)
        if self.spectrum not in SPECTRA:
            raise ValueError(f"spectrum must be one of {tuple(SPECTRA)}")
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if self.prior_variant not in FREE_SCALAR:
            raise ValueError(f"prior_variant must be one of {tuple(FREE_SCALAR)}")
        if self.fixed_hyperparameter is not None:
            _check_positive_finite("fixed_hyperparameter", self.fixed_hyperparameter)
        _check_positive_finite("scaled_alpha", self.scaled_alpha)
        _check_positive_finite("lambda_exponent", self.lambda_exponent)
        lo, hi = self.search_interval
        if not (0 < lo < hi and math.isfinite(hi)):
            raise ValueError("search_interval must satisfy 0 < lo < hi < inf")
        if self.truth_name not in TRUTHS:
            raise ValueError(f"truth_name must be one of {TRUTHS}")
        if self.m_precise < 2:
            raise ValueError("m_precise must be >= 2")
        if self.curve_count < 1 or self.grid_points < 2:
            raise ValueError("curve_count >= 1 and grid_points >= 2 required")
        _check_positive_finite("lawmu_scale", self.lawmu_scale)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


def _stream(config: ExperimentConfig, *key: int) -> np.random.Generator:
    return RngSeed(int(config.master_seed), key).generator()


def _fit_family(
    config: ExperimentConfig,
    obs: ObservationSequence | None,
    spectrum: OperatorSpectrum,
) -> PriorFamily:
    """The pinned prior, or under empirical Bayes the prior fitted to obs."""
    if config.fixed_hyperparameter is not None:
        return PriorFamily.with_free(
            config.prior_variant,
            config.fixed_hyperparameter,
            alpha=config.scaled_alpha,
            lambda_exponent=config.lambda_exponent,
        )
    fit = eb_fit(
        obs,
        spectrum,
        variant=config.prior_variant,
        search_interval=config.search_interval,
        alpha=config.scaled_alpha,
        lambda_exponent=config.lambda_exponent,
    )
    return fit.family


def _posterior(
    config: ExperimentConfig,
    spectrum: OperatorSpectrum,
    truth: CoefficientSequence,
    n: float,
    *key: int,
) -> PosteriorSpec:
    """Simulate data on the key's _DATA substream, fit or pin the prior, form the posterior."""
    obs = simulate_data(truth, spectrum, n, _stream(config, *key, _DATA))
    family = _fit_family(config, obs, spectrum)
    return posterior_spec(obs, spectrum, family)


def _precise_radius(
    config: ExperimentConfig, post: PosteriorSpec, *key: int
) -> RadiusEstimate:
    """Precise radius of post on the key's _PRECISE substream."""
    return radius_precise(
        post, config.gamma, config.m_precise, _stream(config, *key, _PRECISE)
    )


def make_truth(name: str, params: dict | None, i_max: int) -> CoefficientSequence:
    """Built-in true sequences for simulations.

    "power" is theta_i = c * i**(-beta - 1/2) with c chosen so the full
    (untruncated) sequence has unit norm; "zero" is identically zero;
    "custom" loads one coefficient per line from params["path"].
    """
    params = dict(params or {})
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if name == "zero":
        return CoefficientSequence(np.zeros(i_max))
    if name == "power":
        # imported here: scipy.special would otherwise be most of the package's import time
        from scipy.special import zeta

        beta = float(params.get("beta", 1.0))
        if beta <= 0:
            raise ValueError("beta must be positive")
        # ||theta||_2^2 over all i is c**2 * zeta(2 beta + 1)
        c = float(params.get("amplitude", 1.0 / np.sqrt(zeta(2.0 * beta + 1.0))))
        i = np.arange(1, i_max + 1, dtype=np.float64)
        return CoefficientSequence(c * i ** (-beta - 0.5))
    if name == "custom":
        path = params.get("path")
        if not path:
            raise ValueError("custom truth requires params['path']")
        values = np.atleast_1d(np.loadtxt(path, dtype=np.float64))
        out = np.zeros(i_max)
        take = min(values.size, i_max)
        out[:take] = values[:take]
        return CoefficientSequence(out)
    raise ValueError(f"unknown truth generator {name!r}")


def simulate_data(
    truth: CoefficientSequence,
    spectrum: OperatorSpectrum,
    n: float,
    rng,
    *,
    noiseless: bool = False,
) -> ObservationSequence:
    """Observations y_i = kappa_i theta_i + n**(-1/2) z_i, z iid N(0,1)."""
    if truth.i_max != spectrum.i_max:
        raise ValueError("truth and spectrum must share i_max")
    if n <= 0:
        raise ValueError("n must be positive")
    signal = spectrum.kappa * truth.values
    if noiseless:
        return ObservationSequence(y=signal, n=n)
    z = rng.standard_normal(truth.i_max)
    return ObservationSequence(y=signal + z / np.sqrt(n), n=n)


@dataclass(frozen=True)
class FpFnRow:
    n: float
    N: int
    rep: int
    fp: int
    fn: int
    threshold_builtin: float
    radius_precise: float


@dataclass(frozen=True)
class FpFnCell:
    n: float
    N: int
    mean_fp_all: float
    mean_fp_conditional: float
    occurrence_fp_pct: float
    mean_fn_all: float
    mean_fn_conditional: float
    occurrence_fn_pct: float


@dataclass
class FpFnReport:
    rows: list[FpFnRow]
    cells: list[FpFnCell]


def count_fp_fn(radii: np.ndarray, threshold: float, precise: float) -> tuple[int, int]:
    """Classify draw radii against the two thresholds.

    A false positive is a draw the order-statistic rule keeps although it
    lies outside the precise ball; a false negative is one it discards
    although the precise ball contains it.  A draw can never be both.
    """
    radii = np.asarray(radii, dtype=np.float64)
    fp = int(np.sum((radii <= threshold) & (radii > precise)))
    fn = int(np.sum((radii > threshold) & (radii <= precise)))
    return fp, fn


def _fixed_posterior(
    config: ExperimentConfig, spectrum: OperatorSpectrum, n: float
) -> PosteriorSpec:
    """Posterior for a pinned hyperparameter; variances are data-free."""
    family = _fit_family(config, None, spectrum)
    var = posterior_variances(family, spectrum.kappa, n)
    return PosteriorSpec(mean=np.zeros(config.i_max), var=var, family=family)


def _shared_precise_radius(
    config: ExperimentConfig, spectrum: OperatorSpectrum, n: float, n_idx: int
) -> float:
    """Precise radius for a fixed prior, shared across repetitions.

    With the hyperparameter pinned, the posterior variances do not depend
    on the data, so one large recentred simulation per n serves every
    repetition and draw count.
    """
    return _precise_radius(config, _fixed_posterior(config, spectrum, n), n_idx).value


def fpfn_repetition(
    config: ExperimentConfig,
    spectrum: OperatorSpectrum,
    truth: CoefficientSequence,
    n: float,
    n_idx: int,
    N: int,
    N_idx: int,
    rep: int,
    shared_precise: float | None,
) -> FpFnRow:
    """One repetition of one (n, N) cell; all state derives from the indices."""
    post = _posterior(config, spectrum, truth, n, n_idx, N_idx, rep)
    draw_radii = recentered_radii(
        post.var, N, _stream(config, n_idx, N_idx, rep, _DRAWS)
    )
    threshold = radius_builtin(draw_radii, config.gamma).value
    precise = shared_precise
    if precise is None:
        precise = _precise_radius(config, post, n_idx, N_idx, rep).value
    fp, fn = count_fp_fn(draw_radii, threshold, precise)
    return FpFnRow(
        n=n,
        N=N,
        rep=rep,
        fp=fp,
        fn=fn,
        threshold_builtin=threshold,
        radius_precise=precise,
    )


def _fpfn_cells(rows: list[FpFnRow]) -> list[FpFnCell]:
    cells = []
    for n, N in dict.fromkeys((row.n, row.N) for row in rows):
        fp = np.array([r.fp for r in rows if (r.n, r.N) == (n, N)], dtype=np.float64)
        fn = np.array([r.fn for r in rows if (r.n, r.N) == (n, N)], dtype=np.float64)
        cells.append(
            FpFnCell(
                n=n,
                N=N,
                mean_fp_all=float(fp.mean()),
                mean_fp_conditional=float(fp[fp > 0].mean()) if np.any(fp > 0) else 0.0,
                occurrence_fp_pct=float(100.0 * np.mean(fp > 0)),
                mean_fn_all=float(fn.mean()),
                mean_fn_conditional=float(fn[fn > 0].mean()) if np.any(fn > 0) else 0.0,
                occurrence_fn_pct=float(100.0 * np.mean(fn > 0)),
            )
        )
    return cells


def fpfn_experiment(config: ExperimentConfig) -> FpFnReport:
    """Draw-classification disagreement between the two radius estimators.

    For every (n, N) cell and repetition: simulate data, form the
    posterior, draw N recentred radii, threshold them with the built-in
    order statistic, and count how the classification differs from the one
    induced by the precise radius.  With a fixed hyperparameter the
    precise radius is computed once per n; under empirical Bayes it is
    recomputed per repetition for the fitted posterior.
    """
    spectrum = make_spectrum(config.spectrum, config.i_max)
    truth = make_truth(config.truth_name, config.truth_params, config.i_max)
    rows = []
    for n_idx, n in enumerate(config.n_values):
        shared = None
        if config.fixed_hyperparameter is not None:
            shared = _shared_precise_radius(config, spectrum, n, n_idx)
        for N_idx, N in enumerate(config.draw_counts):
            for rep in range(config.repetitions):
                rows.append(
                    fpfn_repetition(
                        config, spectrum, truth, n, n_idx, N, N_idx, rep, shared
                    )
                )
    return FpFnReport(rows=rows, cells=_fpfn_cells(rows))


@dataclass(frozen=True)
class CoverageRow:
    n: float
    rep: int
    covered: bool
    radius: float


@dataclass(frozen=True)
class CoverageCell:
    n: float
    coverage: float
    mean_radius: float


@dataclass
class CoverageReport:
    rows: list[CoverageRow]
    cells: list[CoverageCell]


def coverage_experiment(config: ExperimentConfig) -> CoverageReport:
    """Frequency with which the ball around the posterior mean catches truth.

    Each repetition simulates fresh data, fits the prior (empirical Bayes
    when fixed_hyperparameter is None), estimates the precise radius, and
    checks membership of the true sequence in the blown-up ball.
    """
    spectrum = make_spectrum(config.spectrum, config.i_max)
    truth = make_truth(config.truth_name, config.truth_params, config.i_max)
    rows = []
    for n_idx, n in enumerate(config.n_values):
        for rep in range(config.repetitions):
            post = _posterior(config, spectrum, truth, n, n_idx, rep)
            est = _precise_radius(config, post, n_idx, rep)
            ball = build_credible_ball(post, est, config.blowup, config.gamma)
            rows.append(
                CoverageRow(
                    n=n, rep=rep, covered=contains(ball, truth), radius=est.value
                )
            )
    cells = []
    for n in config.n_values:
        sub = [r for r in rows if r.n == n]
        cells.append(
            CoverageCell(
                n=n,
                coverage=float(np.mean([r.covered for r in sub])),
                mean_radius=float(np.mean([r.radius for r in sub])),
            )
        )
    return CoverageReport(rows=rows, cells=cells)


@dataclass(frozen=True)
class RateRow:
    n: float
    mean_radius: float
    mean_risk: float


@dataclass
class RateReport:
    rows: list[RateRow]
    radius_slope: float
    risk_slope: float
    radius_slope_variance_proxy: float | None


def rate_experiment(config: ExperimentConfig) -> RateReport:
    """Log-log scaling of the precise radius and the estimation risk in n.

    Needs n_values spanning at least three decades.  The report carries an
    extra slope computed from the deterministic posterior variance mass
    sum_i s_i**2 (half its log-log slope), a Monte-Carlo-free cross-check
    of the radius slope; it is None under empirical Bayes, where the
    variances are data-dependent.
    """
    ns = np.array(config.n_values, dtype=np.float64)
    if ns.size < 2 or np.log10(ns.max() / ns.min()) < 3.0 - 1e-9:
        raise ValueError("rate study needs n_values spanning >= 3 decades")
    spectrum = make_spectrum(config.spectrum, config.i_max)
    truth = make_truth(config.truth_name, config.truth_params, config.i_max)
    fixed = config.fixed_hyperparameter is not None
    rows = []
    proxy_mass = []
    for n_idx, n in enumerate(config.n_values):
        radii = []
        risks = []
        if fixed:
            proxy_mass.append(float(np.sum(_fixed_posterior(config, spectrum, n).var)))
            radii.append(_shared_precise_radius(config, spectrum, n, n_idx))
        for rep in range(config.repetitions):
            post = _posterior(config, spectrum, truth, n, n_idx, rep)
            risks.append(float(np.linalg.norm(post.mean - truth.values)))
            if not fixed:
                radii.append(_precise_radius(config, post, n_idx, rep).value)
        rows.append(
            RateRow(
                n=n,
                mean_radius=float(np.mean(radii)),
                mean_risk=float(np.mean(risks)),
            )
        )
    log_n = np.log(ns)
    radius_slope = float(np.polyfit(log_n, np.log([r.mean_radius for r in rows]), 1)[0])
    risk_slope = float(np.polyfit(log_n, np.log([r.mean_risk for r in rows]), 1)[0])
    proxy = None
    if fixed:
        proxy = float(0.5 * np.polyfit(log_n, np.log(proxy_mass), 1)[0])
    return RateReport(
        rows=rows,
        radius_slope=radius_slope,
        risk_slope=risk_slope,
        radius_slope_variance_proxy=proxy,
    )


@dataclass(frozen=True)
class Curve:
    law: str
    n: float
    curve_id: int
    values: np.ndarray


@dataclass
class CurveSet:
    xs: np.ndarray
    curves: list[Curve]

    def sample_laws(self) -> list[str]:
        sampled = (c.law for c in self.curves if c.law in ("posterior", "lawmu"))
        return list(dict.fromkeys(sampled))


def export_curves(config: ExperimentConfig, which: str = "both") -> CurveSet:
    """Curve bundle behind the visual comparison of the two sampling laws.

    Per n: the truth curve, the posterior-mean curve, curve_count draws
    from the posterior, and (law permitting) curve_count draws from the
    ball-conditioned recentring law with scale a = lawmu_scale * radius.
    Raises ProposalExhausted if the rejection sampler starves.
    """
    if which not in CURVE_LAWS:
        raise ValueError(f"which must be one of {CURVE_LAWS}")
    laws = ("lawmu", "posterior") if which == "both" else (which,)
    spectrum = make_spectrum(config.spectrum, config.i_max)
    truth = make_truth(config.truth_name, config.truth_params, config.i_max)
    xs = uniform_grid(config.grid_points)
    curves = []
    for n_idx, n in enumerate(config.n_values):
        post = _posterior(config, spectrum, truth, n, n_idx)
        curves.append(Curve("truth", n, 0, reconstruct(truth, xs)))
        mean_curve = reconstruct(CoefficientSequence(post.mean), xs)
        curves.append(Curve("mean", n, 0, mean_curve))
        if "lawmu" in laws:
            est = _precise_radius(config, post, n_idx)
            ball = build_credible_ball(post, est, config.blowup, config.gamma)
            a = config.lawmu_scale * est.value
            rng = _stream(config, n_idx, _LAWMU)
            for j in range(config.curve_count):
                mu = draw_lawmu(ball.center, a, ball, rng, config.max_attempts)
                curves.append(Curve("lawmu", n, j + 1, reconstruct(mu, xs)))
        if "posterior" in laws:
            rng = _stream(config, n_idx, _DRAWS)
            for j in range(config.curve_count):
                draw = draw_posterior(post, rng)
                curves.append(Curve("posterior", n, j + 1, reconstruct(draw, xs)))
    return CurveSet(xs=xs, curves=curves)
