"""Random draws: seeded generators, Gaussian sequences, and recentred radii.

All randomness flows through numpy Generator objects built from a
SeedSequence with an explicit spawn key, so independent substreams are
reproducible from (seed, stream) pairs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_model import CoefficientSequence, PosteriorSpec

__all__ = [
    "RngSeed",
    "ProposalExhausted",
    "make_rng",
    "draw_gaussian_sequence",
    "draw_posterior",
    "HeadTailSplit",
    "head_tail_split",
    "recentered_radii",
    "lawmu_scales",
    "draw_lawmu",
]

# Draw matrices are streamed through one buffer of roughly this many bytes
# so the peak footprint stays flat no matter how many radii are requested.
_BLOCK_BYTES = 1 << 22

# Bound on the dropped tail's sd, as a fraction of the sd of the squared norm
# over sqrt(m); see head_tail_split.
_TAIL_FRACTION = 0.1


class ProposalExhausted(RuntimeError):
    """Rejection sampler hit its attempt budget without one acceptance."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no proposal accepted within {attempts} attempts; "
            "the ball is too small for this proposal scale"
        )
        self.attempts = attempts


@dataclass(frozen=True)
class RngSeed:
    """Reproducible generator address: one integer seed plus a stream.

    The stream is one index or a tuple of indices; either way it is the
    SeedSequence spawn key, so the stream k and the tuple (k,) coincide.
    """

    seed: int = 0
    stream: int | tuple[int, ...] = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if np.any(np.asarray(self.stream) < 0):
            raise ValueError("stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = self.stream if isinstance(self.stream, tuple) else (self.stream,)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))


def make_rng(seed, stream: int | tuple[int, ...] = 0) -> np.random.Generator:
    """Coerce an int, RngSeed, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(int(seed), stream).generator()


def draw_gaussian_sequence(means, variances, rng) -> CoefficientSequence:
    """One draw from the independent Gaussian product law N(means, variances)."""
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if means.shape != variances.shape or means.ndim != 1:
        raise ValueError("means and variances must be 1-d arrays of equal length")
    if np.any(variances < 0):
        raise ValueError("variances must be nonnegative")
    rng = make_rng(rng)
    z = rng.standard_normal(means.size)
    return CoefficientSequence(means + np.sqrt(variances) * z)


def draw_posterior(post: PosteriorSpec, rng) -> CoefficientSequence:
    """One draw from a diagonal Gaussian posterior."""
    return draw_gaussian_sequence(post.mean, post.var, rng)


@dataclass(frozen=True)
class HeadTailSplit:
    """Which coordinates recentered_radii simulates and what it adds for the rest.

    head holds the indices of the simulated coordinates, largest variance
    first; recentered_radii draws the head's normals in that order.
    tail_mean is the exact mean sum var_i of the dropped coordinates'
    contribution to the squared norm, and tail_sd = sqrt(2 sum var_i**2)
    is its standard deviation, the size of the fluctuation left out.
    """

    head: np.ndarray
    tail_mean: float
    tail_sd: float

    @property
    def head_size(self) -> int:
        return int(self.head.size)


def head_tail_split(variances, m: int) -> HeadTailSplit:
    """Smallest head of largest variances whose dropped tail is negligible for m draws.

    Coordinates are ranked by variance, largest first (stable argsort, so
    ties keep their index order), and the head is the shortest prefix of
    that ranking whose tail meets

        sqrt(sum_tail var**2) <= _TAIL_FRACTION * sqrt(sum var**2) / sqrt(m).

    sqrt(2 sum var**2) / sqrt(m) is the scale of the Monte Carlo error of any
    quantile of the squared norm estimated from m draws (about 2.1 times it
    for the 95% quantile), so the tail's fluctuation is about 5% of that
    error, and replacing it by its mean shifts the quantile only at second
    order.  Flat variances keep every coordinate.
    """
    variances = np.asarray(variances, dtype=np.float64)
    if variances.ndim != 1 or variances.size == 0:
        raise ValueError("variances must be a nonempty 1-d array")
    if np.any(variances < 0) or not np.all(np.isfinite(variances)):
        raise ValueError("variances must be finite and nonnegative")
    if m < 1:
        raise ValueError("m must be at least 1")

    order = np.argsort(-variances, kind="stable")
    ranked = variances[order]
    # Squares are taken relative to the largest variance so that tiny
    # variances (a fast-decaying prior) do not underflow to zero.
    scale = ranked[0] if ranked[0] > 0 else 1.0
    sq = (ranked / scale) ** 2
    # tail_sq[K] = sum of sq over ranks >= K, for K = 0..k; nonincreasing.
    tail_sq = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    head_size = int(np.argmax(tail_sq <= _TAIL_FRACTION**2 * tail_sq[0] / m))
    return HeadTailSplit(
        head=order[:head_size],
        tail_mean=float(np.sum(ranked[head_size:])),
        tail_sd=float(scale * np.sqrt(2.0 * tail_sq[head_size])),
    )


def recentered_radii(variances, m: int, rng, *, block_bytes: int = _BLOCK_BYTES) -> np.ndarray:
    """Norms of m independent draws from the centred law  ⊗_i N(0, var_i).

    Returns a float64 vector of the m Euclidean norms.  Only the head
    coordinates chosen by head_tail_split are simulated; the squared norm
    of each draw is their sum var_i Z_i**2 plus the tail's exact mean,
    added in float64.  When no tail is dropped the draws are the full law,
    and flat variances reproduce the full float32 draw bit for bit.

    Head normals are drawn in float32, in head order, into one buffer of
    about block_bytes that is reused for every block of draws, and reduced
    with a single-threaded einsum, so the result does not depend on BLAS
    threading or on block_bytes and the footprint stays flat whatever m and
    the head size are.  The float32 accumulation over the head stays within
    2e-6 relative of a float64 sum of the same normals for heads of up to
    several thousand coordinates (measured 2.5e-7 at 44, 9.6e-7 at 1201,
    1.8e-6 at 5510); the error grows with the head size, to 2.3e-6 at about
    1e4 coordinates and 4.6e-6 for 1e5 flat ones.  All of these are far
    below the Monte Carlo noise of any quantile taken from the norms.
    """
    split = head_tail_split(variances, m)
    rng = make_rng(rng)

    k = split.head_size
    w = np.asarray(variances, dtype=np.float64)[split.head].astype(np.float32)
    block = min(m, max(1, block_bytes // (max(k, 1) * 4)))
    buf = np.empty((block, k), dtype=np.float32)
    out = np.empty(m, dtype=np.float64)
    for start in range(0, m, block):
        z = buf[: min(block, m - start)]
        rng.standard_normal(out=z, dtype=np.float32)
        np.multiply(z, z, out=z)
        out[start:start + z.shape[0]] = np.einsum("ij,j->i", z, w, dtype=np.float32)
    out += split.tail_mean
    return np.sqrt(out)


def lawmu_scales(i_max: int) -> np.ndarray:
    """Coordinate decay (k * log(k+1)**2)**(-1/2) of the recentring proposal.

    The log argument is shifted by one so the k = 1 coordinate is finite;
    the resulting sequence is square-summable, so proposals stay in ell_2.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    k = np.arange(1, i_max + 1, dtype=np.float64)
    return 1.0 / np.sqrt(k * np.log(k + 1.0) ** 2)


def draw_lawmu(
    center: CoefficientSequence,
    a: float,
    ball,
    rng,
    max_attempts: int = 10_000,
) -> CoefficientSequence:
    """Rejection draw of a recentring point conditioned to lie in a ball.

    Proposes mu_k = center_k + a * xi_k * (k log(k+1)**2)**(-1/2) with
    xi iid standard normal and accepts the first proposal the ball
    contains.  Raises ProposalExhausted when max_attempts proposals all
    land outside, which signals that a is too large relative to the ball
    radius.
    """
    from .credible_set import contains

    if a <= 0:
        raise ValueError("a must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    rng = make_rng(rng)
    decay = a * lawmu_scales(center.i_max)
    for _ in range(max_attempts):
        xi = rng.standard_normal(center.i_max)
        mu = CoefficientSequence(center.values + decay * xi)
        if contains(ball, mu):
            return mu
    raise ProposalExhausted(max_attempts)
