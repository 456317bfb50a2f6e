"""Gaussian kernel density estimation with the Silverman rule."""

from __future__ import annotations

import numpy as np


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 * sigma_hat * R^(-1/5); raises on degenerate samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least 2 samples")
    sigma = samples.std(ddof=1)
    if sigma == 0:
        raise ValueError("zero bandwidth")
    return float(1.06 * sigma * samples.size ** (-0.2))


_KDE_ROWS = 64  # grid points per chunk: keeps the temporaries near 64 x R


def kde(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian KDE of the samples evaluated on the (1-d) grid.

    The grid goes in chunks of rows, each summed as in the one-pass
    formula, so the values are bitwise those of evaluating it whole.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    grid = np.asarray(grid, dtype=float)
    h = silverman_bandwidth(samples)
    sums = np.empty(grid.shape)
    for start in range(0, grid.size, _KDE_ROWS):
        u = (grid[start:start + _KDE_ROWS, None] - samples[None, :]) / h
        sums[start:start + _KDE_ROWS] = np.exp(-0.5 * u * u).sum(axis=1)
    return sums / (samples.size * h * np.sqrt(2 * np.pi))

