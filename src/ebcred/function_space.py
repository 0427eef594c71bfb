"""Curves on [0, 1] from coefficient sequences, via the cosine SVD basis.

The signal-side singular functions of the integration operator are
e_i(x) = sqrt(2) * cos((i - 1/2) * pi * x), the basis in which the
sequence model lives.  Reconstruction maps a coefficient slice back to
curve values on a grid, for plotting.
"""

from __future__ import annotations

import numpy as np

from .sequence_model import CoefficientSequence

__all__ = [
    "PLOT_GRID_POINTS",
    "uniform_grid",
    "reconstruct",
]

PLOT_GRID_POINTS = 512

# Coefficient chunk width in reconstruct; bounds the basis matrix at
# roughly grid_points * 2048 * 8 bytes.
_CHUNK = 2048


def _valid_grid(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("grid points must lie in [0, 1]")
    if xs.size > 1 and np.any(np.diff(xs) <= 0):
        raise ValueError("grid points must be strictly increasing")
    return xs


def uniform_grid(points: int = PLOT_GRID_POINTS) -> np.ndarray:
    """Uniform grid on [0, 1] including both endpoints."""
    if points < 2:
        raise ValueError("a grid needs at least 2 points")
    return np.linspace(0.0, 1.0, points)


def reconstruct(theta: CoefficientSequence, xs) -> np.ndarray:
    """Partial sum f(x) = sum_i theta_i e_i(x) over the stored coefficients.

    Returns the values at the grid points xs.  Basis columns are
    materialised in chunks so large i_max never builds the full
    (grid x i_max) matrix.
    """
    xs = _valid_grid(xs)
    values = np.zeros(xs.size)
    coef = theta.values
    for start in range(0, coef.size, _CHUNK):
        stop = min(start + _CHUNK, coef.size)
        freq = (np.arange(start + 1, stop + 1, dtype=np.float64) - 0.5) * np.pi
        block = np.sqrt(2.0) * np.cos(np.outer(xs, freq))
        values += block @ coef[start:stop]
    return values
