"""Hermitian eigendecomposition and brute-force quadratic-form oracles.

The two oracles here deliberately avoid the eigendecomposition: weighted
spectral moments can be cross-checked against repeated matrix-vector
products, and the resolvent quadratic form against a direct shifted solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""

    lambdas: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.size


def _hermitian_defect(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max())


def _require_hermitian(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if _hermitian_defect(a) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    return a


def eig_decompose(a: np.ndarray, check: bool = True) -> EigenSystem:
    """Spectral decomposition of a Hermitian nonnegative definite matrix.

    Validates hermiticity of the input and, on the output, orthonormality,
    reconstruction, and nonnegativity of the spectrum (up to roundoff).
    """
    a = _require_hermitian(a)
    try:
        lams, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eig did not converge") from exc
    es = EigenSystem(lambdas=lams, vectors=u)
    if check:
        n = es.n
        eye_defect = np.linalg.norm(u.conj().T @ u - np.eye(n), "fro")
        if eye_defect > 1e-8 * np.sqrt(n):
            raise RuntimeError("eigenvector matrix lost orthonormality")
        recon = np.linalg.norm(a - (u * lams) @ u.conj().T, "fro")
        if recon > 1e-8 * max(1.0, np.linalg.norm(a, "fro")):
            raise RuntimeError("eigendecomposition reconstruction failed")
        if lams[0] < -1e-10:
            raise RuntimeError(f"matrix is not nonnegative definite (min eig {lams[0]:g})")
    return es


def cholesky_logdet(a: np.ndarray) -> float:
    """log det of a Hermitian positive definite matrix from its Cholesky factor.

    Equals the sum of log eigenvalues without computing them; a failed
    factorization raises ValueError("singular sample covariance").
    """
    a = _require_hermitian(a)
    try:
        pivots = np.linalg.cholesky(a).diagonal().real
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular sample covariance") from exc
    return float(2.0 * np.log(pivots).sum())


def quad_form_power(a: np.ndarray, x: np.ndarray, m: int):
    """x* A^m x by repeated matrix-vector products (no eigendecomposition)."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    v = np.asarray(x)
    for _ in range(m):
        v = a @ v
    out = np.vdot(x, v)
    return out if np.iscomplexobj(out) and abs(out.imag) > 1e-12 * max(1.0, abs(out.real)) else out.real


def resolvent_quad_form(a: np.ndarray, x: np.ndarray, z: complex) -> complex:
    """x* (A - zI)^(-1) x via a direct shifted linear solve.

    Independent of any eigendecomposition; requires Im z != 0.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("shift must be off the real axis")
    a = np.asarray(a)
    n = a.shape[0]
    shifted = a.astype(complex, copy=True)
    shifted[np.diag_indices(n)] -= z
    try:
        w = np.linalg.solve(shifted, np.asarray(x, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("shifted solve failed") from exc
    return complex(np.vdot(x, w))
