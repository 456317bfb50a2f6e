"""Eigenvector-weighted empirical spectral objects.

Projecting a fixed unit vector onto the eigenbasis yields weights
w_i = |<u_i, x>|^2 that sum to one; placing mass w_i at eigenvalue
lambda_i gives the weighted empirical distribution whose gap to the
equal-weight one drives everything measured here.  ``weighted_spectrum``,
``y_process`` and ``w_statistic`` also take a stacked decomposition and
work row by row: row i is bitwise the result for matrix i alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenSystem


@dataclass(frozen=True)
class WeightedSpectrum:
    """Eigenvalues (ascending) with projection weights; weights sum to one.

    The weight order follows the ascending-eigenvalue order of the
    decomposition, and that same fixed order is used for the partial-sum
    process.  A stacked decomposition gives one row of each per matrix.
    """

    lambdas: np.ndarray
    weights: np.ndarray

    @classmethod
    def uniform(cls, lambdas) -> "WeightedSpectrum":
        lam = np.asarray(lambdas, dtype=float)
        return cls(lambdas=lam, weights=np.full(lam.size, 1.0 / lam.size))


def weighted_spectrum(es: EigenSystem, x: np.ndarray) -> WeightedSpectrum:
    """Projection weights of x onto the eigenbasis, paired with eigenvalues."""
    x, n = np.asarray(x), es.lambdas.shape[-1]
    if x.shape != (n,):
        raise ValueError(f"direction has shape {x.shape}, expected ({n},)")
    y = es.vectors.conj().swapaxes(-1, -2) @ x
    w = np.abs(y) ** 2
    total = w.sum(axis=-1)
    if not np.all(np.abs(total - 1.0) <= 1e-10):
        raise ValueError(f"projection weights sum to {total!r}; direction not unit "
                         "or eigenbasis not orthonormal")
    return WeightedSpectrum(lambdas=np.asarray(es.lambdas, dtype=float), weights=w)


def y_process(ws: WeightedSpectrum, t: float):
    """Normalized partial-sum process of the centered weights at time t.

    sqrt(n/2) * sum_{i <= floor(n t)} (w_i - 1/n); zero at both endpoints
    because the weights sum to one.  A float, or one per matrix of a stack.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("time must lie in [0, 1]")
    n = ws.lambdas.shape[-1]
    k = int(np.floor(n * t))
    return np.sqrt(n / 2.0) * (ws.weights[..., :k].sum(axis=-1) - k / n)


def w_statistic(es: EigenSystem):
    """Log-determinant statistic: sum of log eigenvalues, a float or one per
    matrix of a stack."""
    if np.any(es.lambdas <= 1e-300):
        raise ValueError("singular sample covariance")
    return np.log(es.lambdas).sum(axis=-1)
