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
    "squared_normals",
    "recentered_radii",
    "lawmu_scales",
    "draw_lawmu",
]

# Draw matrices are streamed through one buffer, with the sampler's scratch,
# of roughly this many bytes, so the peak footprint stays flat no matter how
# many radii are requested.
_BLOCK_BYTES = 1 << 20

# Maps a 32-bit integer v to the angle 2 pi v / 2**32 in float32.
_ANGLE_STEP = np.float32(2.0 * np.pi / 2.0**32)

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
    first; they are the columns, in that order, of the matrix of squared
    normals that recentered_radii draws.
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
    order.  k equal variances drop at most 0.01 k / m of them, so fewer
    than 100 m keep every coordinate.
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


def _fill_squared_normals(rng: np.random.Generator, flat: np.ndarray) -> None:
    """Fill the 1-d float32 array flat with iid chi-square(1) variates; see squared_normals."""
    # PCG64's raw outputs (random_raw) for the package's generators; unlike
    # random_raw, this also gives whole 64-bit words from 32-bit MT19937
    words = rng.integers(0, 2**64, (flat.size + 1) // 2, dtype=np.uint64)
    halves = words.view(np.uint32).reshape(-1, 2)
    # E = -log u is Exp(1), with u = (first half + 1) / 2**32 in (0, 1]
    e = np.add(halves[:, 0], 1.0, dtype=np.float32, casting="unsafe")
    e *= 2.0**-32
    np.log(e, out=e)
    np.negative(e, out=e)
    # E C with C = cos(2 pi v), v = second half / 2**32; |C| <= 1 keeps both members >= 0
    c = np.multiply(halves[:, 1], _ANGLE_STEP, dtype=np.float32, casting="unsafe")
    np.cos(c, out=c)
    c *= e
    np.add(e, c, out=flat[0::2])
    second = flat.size // 2
    np.subtract(e[:second], c[:second], out=flat[1::2])


def squared_normals(rng, shape) -> np.ndarray:
    """Float32 array of iid chi-square(1) variates, the squares of standard normals.

    Each 64-bit word of the generator gives one pair, as in a squared
    Box-Muller transform: its two 32-bit halves make u in (0, 1] and v in
    [0, 1), E = -log u is Exp(1) and C = cos(2 pi v), and E (1 + C) and
    E (1 - C) are two independent chi-square(1) draws, computed in float32.
    They fill the array in flat (row-major) order: the variate at flat
    position p is member p % 2 of word p // 2, so it depends only on the
    generator and on p, and an odd size leaves one member unused.

    Every variate is finite and at least 0, and none exceeds
    -2 log 2**-32 = 64 log 2, about 44.36 (u >= 2**-32); a chi-square(1)
    variate exceeds that with probability about 3e-11.  float32 log and
    cos run in SIMD code chosen by CPU, so the bits can differ between
    numpy versions and CPUs, never between reruns on one machine.
    """
    out = np.empty(shape, dtype=np.float32)
    _fill_squared_normals(make_rng(rng), out.reshape(-1))
    return out


def recentered_radii(variances, m: int, rng, *, block_bytes: int = _BLOCK_BYTES) -> np.ndarray:
    """Norms of m independent draws from the centred law  ⊗_i N(0, var_i).

    Returns a float64 vector of the m Euclidean norms.  Only the head
    coordinates chosen by head_tail_split are simulated; the squared norm
    of each draw is their sum var_i X_i, with X_i iid chi-square(1)
    variates (squared normals), plus the tail's exact mean, added in
    float64.  When no tail is dropped the draws are the full law.

    The m x k head matrix of the X_i (columns in head order) is
    squared_normals(rng, (m, k)), made block by block into one reused
    float32 buffer and reduced with a single-threaded einsum.  Blocks hold
    an even number of rows, so each but the last starts on a fresh word;
    the result thus depends neither on block_bytes nor on BLAS threading,
    and buffer plus sampler scratch stay near block_bytes (or two rows, if
    larger) whatever m is.  Relative to a float64 sum of the same variates,
    the float32 accumulation over the head is off by at most 3.0e-7 at 44
    coordinates, 1.1e-6 at 1201 and 2.2e-6 at 5510 (largest over 20 x 1e4
    draws), 3.0e-6 at 9983 (4 x 1e4 draws) and 5.4e-6 for 1e5 flat ones
    (3 x 2000 draws).  All of these are far below the Monte Carlo noise of
    any quantile taken from the norms.
    """
    split = head_tail_split(variances, m)
    rng = make_rng(rng)

    k = split.head_size
    w = np.asarray(variances, dtype=np.float64)[split.head].astype(np.float32)
    # 4 bytes of buffer and 8 of sampler scratch per variate
    rows = max(2, block_bytes // (12 * max(k, 1))) // 2 * 2
    block = min(m, rows)
    buf = np.empty((block, k), dtype=np.float32)
    out = np.empty(m, dtype=np.float64)
    for start in range(0, m, block):
        z = buf[: min(block, m - start)]
        _fill_squared_normals(rng, z.reshape(-1))
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
