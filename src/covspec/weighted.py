"""Eigenvector-weighted empirical spectral objects.

Projecting a fixed unit vector onto the eigenbasis yields weights
w_i = |<u_i, x>|^2 that sum to one; placing mass w_i at eigenvalue
lambda_i gives the weighted empirical distribution whose gap to the
equal-weight one drives everything measured here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenSystem
from .functionals import FunctionalSpec


@dataclass(frozen=True)
class WeightedSpectrum:
    """Eigenvalues (ascending) with projection weights; weights sum to one.

    The weight order follows the ascending-eigenvalue order of the
    decomposition, and that same fixed order is used for the partial-sum
    process.  ``uniform_weights`` marks the equal-weight variant.
    """

    lambdas: np.ndarray
    weights: np.ndarray
    uniform_weights: bool = False

    @property
    def n(self) -> int:
        return self.lambdas.size

    @classmethod
    def uniform(cls, lambdas) -> "WeightedSpectrum":
        lam = np.asarray(lambdas, dtype=float)
        return cls(lambdas=lam, weights=np.full(lam.size, 1.0 / lam.size),
                   uniform_weights=True)


def weighted_spectrum(es: EigenSystem, x: np.ndarray) -> WeightedSpectrum:
    """Projection weights of x onto the eigenbasis, paired with eigenvalues."""
    x = np.asarray(x)
    if x.shape != (es.n,):
        raise ValueError(f"direction has shape {x.shape}, expected ({es.n},)")
    y = es.vectors.conj().T @ x
    w = np.abs(y) ** 2
    total = w.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"projection weights sum to {total!r}; direction not unit "
                         "or eigenbasis not orthonormal")
    return WeightedSpectrum(lambdas=np.asarray(es.lambdas, dtype=float), weights=w)


def eval_cdf(ws: WeightedSpectrum, x: float) -> float:
    """Right-continuous step CDF: total weight on eigenvalues <= x."""
    k = np.searchsorted(ws.lambdas, x, side="right")
    return float(ws.weights[:k].sum())


def y_process(ws: WeightedSpectrum, t: float) -> float:
    """Normalized partial-sum process of the centered weights at time t.

    sqrt(n/2) * sum_{i <= floor(n t)} (w_i - 1/n); zero at both endpoints
    because the weights sum to one.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("time must lie in [0, 1]")
    n = ws.n
    k = int(np.floor(n * t))
    return float(np.sqrt(n / 2.0) * (ws.weights[:k].sum() - k / n))


def x_process(es: EigenSystem, x: np.ndarray, x_arg: float) -> float:
    """Scaled gap between weighted and uniform empirical CDFs at x_arg."""
    ws = weighted_spectrum(es, x)
    uni = WeightedSpectrum.uniform(es.lambdas)
    return float(np.sqrt(es.n / 2.0) * (eval_cdf(ws, x_arg) - eval_cdf(uni, x_arg)))


def w_statistic(es: EigenSystem) -> float:
    """Log-determinant statistic: sum of log eigenvalues."""
    if np.any(es.lambdas <= 1e-300):
        raise ValueError("singular sample covariance")
    return float(np.log(es.lambdas).sum())


def functional_gap(es: EigenSystem, x: np.ndarray, g: FunctionalSpec) -> tuple[float, float]:
    """Gap sum_i w_i g(lambda_i) - mean_i g(lambda_i), raw and sqrt(n/2)-scaled."""
    if g.needs_positive_support and es.lambdas[0] <= 0:
        raise ValueError("log functional needs strictly positive eigenvalues")
    ws = weighted_spectrum(es, x)
    gvals = np.asarray(g(ws.lambdas), dtype=float)
    gap = float(np.dot(ws.weights, gvals) - gvals.mean())
    return gap, float(np.sqrt(es.n / 2.0) * gap)

