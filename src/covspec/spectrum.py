"""Discrete population spectral distributions.

A population covariance is described by the distribution of its eigenvalues:
a finite set of nonnegative atoms with positive weights summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete probability measure on [0, inf): atoms ``t_k`` with weights ``w_k``.

    Atoms are canonicalized at construction: sorted ascending, exact
    duplicates merged, zero-weight atoms dropped, weights renormalized to
    sum to one (construction fails if they are off by more than 1e-12).
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms, weights):
        atoms = np.asarray(atoms, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if atoms.size == 0:
            raise ValueError("measure needs at least one atom")
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have equal length")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("atoms and weights must be finite")
        if np.any(atoms < 0):
            raise ValueError("atoms must be nonnegative")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        keep = weights > 0
        atoms, weights = atoms[keep], weights[keep]
        order = np.argsort(atoms)
        atoms, weights = atoms[order], weights[order]
        # merge exact duplicates
        uniq, inverse = np.unique(atoms, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, weights)
        merged /= merged.sum()
        uniq.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "atoms", uniq)
        object.__setattr__(self, "weights", merged)

    @classmethod
    def point(cls, t: float) -> "SpectralMeasure":
        """Degenerate measure with all mass at ``t``."""
        return cls([t], [1.0])

    @classmethod
    def empirical(cls, values) -> "SpectralMeasure":
        """Empirical measure of a sample (equal mass on each value)."""
        values = np.asarray(values, dtype=float).ravel()
        uniq, counts = np.unique(values, return_counts=True)
        return cls(uniq, counts / values.size)

    @property
    def t_max(self) -> float:
        return float(self.atoms[-1])

    @property
    def is_degenerate(self) -> bool:
        return self.atoms.size == 1

    def moment(self, k: int) -> float:
        return float(np.sum(self.weights * self.atoms ** k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralMeasure):
            return NotImplemented
        return (self.atoms.shape == other.atoms.shape
                and np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.atoms.tobytes(), self.weights.tobytes()))
