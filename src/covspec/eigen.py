"""Hermitian eigendecomposition, a Lanczos Gauss rule, and quadratic-form oracles.

``eig_decompose`` gives every eigenpair; ``gauss_rule`` gives the Gauss
quadrature rule of the measure sum_i |u_i* x|^2 delta_{lambda_i} without
eigenvectors, enough for any statistic linear in that measure.  The two
oracles here deliberately avoid the eigendecomposition: weighted
spectral moments can be cross-checked against repeated matrix-vector
products, and the resolvent quadratic form against a direct shifted solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""

    lambdas: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.size


def _require_hermitian(a, stack: bool = False) -> np.ndarray:
    """a as an array if it is a Hermitian matrix, or with ``stack`` a
    (..., n, n) stack of them; each matrix is checked on its own scale."""
    a = np.asarray(a)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if a.size:
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        if np.any(defect > 1e-10 * scale):
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


def gauss_rule(a: np.ndarray, x: np.ndarray, fn: Callable) -> Optional[tuple]:
    """Gauss rule for x* g(A) x by Lanczos from x: (nodes, weights, fn value), or None.

    k Lanczos steps on the Hermitian nonnegative definite A from the unit
    vector x give a real tridiagonal T_k.  Its eigenvalues (the Ritz
    values, ascending) carrying the squared first components of its
    eigenvectors form a k-node rule for the measure
    sum_i |u_i* x|^2 delta_{lambda_i} that is exact for every polynomial of
    degree up to 2k-1 (Golub & Welsch 1969).  Every step reorthogonalises
    against all earlier vectors by two classical Gram-Schmidt passes.  T_k
    is decomposed at k = 24, 32, 40, ..., and the rule stops at the first
    of these where every output of ``fn(nodes, weights)`` moved by at most
    1e-12 max(1, |value|) since the previous one (its move), or on breakdown
    (beta <= 1e-12 |A|_F: the Krylov space is invariant and the rule exact).

    The steps needed grow with the condition number of A (a log functional
    at c = n/N = 0.5 settles at 40-48 steps, at c = 0.9 only after about
    150), and past about n/3 steps the rule costs more than
    ``eig_decompose``.  So the rule keeps within n/4 steps: it returns None
    at once when n < 128 (two checkpoints do not fit), and at the first
    checkpoint from k = 40 on where the last two moves, extrapolated
    geometrically, stay above 1e-12 at the last checkpoint within n/4
    steps.  The caller then takes the full eigendecomposition.

    Checks, as ``eig_decompose``: A Hermitian and x unit; Ritz values
    >= -1e-10 at every decomposition; |Q*Q - I|_F <= 1e-8 sqrt(k) and the
    Krylov relation |AQ - QT - beta q e_k^T|_F <= 1e-8 max(1, |A|_F) at the
    end.  The weights sum to |x|^2 = 1, as the rows of T_k's orthogonal
    eigenvector matrix have unit norm.
    """
    a = _require_hermitian(a)
    x = np.asarray(x)
    n = a.shape[0]
    if x.shape != (n,):
        raise ValueError(f"direction has shape {x.shape}, expected ({n},)")
    if not abs(np.vdot(x, x).real - 1.0) <= 1e-10:
        raise ValueError("direction not unit")
    last = n // 32 * 8  # the last checkpoint within n/4 steps
    if last < 32:
        return None
    norm_a = np.linalg.norm(a)
    q = np.empty((last + 1, n), dtype=np.result_type(a, x, float))  # Lanczos vectors as rows
    q[0] = x
    alpha, beta = np.empty(last), np.empty(last)
    previous = change = None
    for k in range(1, last + 1):  # k steps done once this one ends
        w = a @ q[k - 1]
        basis = q[:k]
        # h = basis^* w, conjugating the vector rather than the basis
        h1 = (basis @ w.conj()).conj()
        w -= h1 @ basis
        h2 = (basis @ w.conj()).conj()
        w -= h2 @ basis
        alpha[k - 1] = (h1[-1] + h2[-1]).real
        beta[k - 1] = np.linalg.norm(w)
        breakdown = beta[k - 1] <= 1e-12 * norm_a
        if breakdown or (k >= 24 and k % 8 == 0):
            t = np.diag(alpha[:k]) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
            nodes, s = np.linalg.eigh(t)
            if nodes[0] < -1e-10:
                raise RuntimeError(f"matrix is not nonnegative definite (min Ritz value {nodes[0]:g})")
            weights = s[0] ** 2
            out = fn(nodes, weights)
            value = np.asarray(out, dtype=float)
            if breakdown:
                break
            if previous is not None:
                moved = float(np.max(np.abs(value - previous) / np.maximum(1.0, np.abs(value))))
                if moved <= 1e-12:
                    break
                # the last two moves, extrapolated geometrically, miss 1e-12 by the last checkpoint
                if change is not None and (moved >= change or
                                           moved * (moved / change) ** ((last - k) // 8) > 1e-12):
                    return None
                change = moved
            previous = value
        q[k] = w / beta[k - 1]
    else:
        return None
    basis = q[:k]
    defect = np.linalg.norm(basis.conj() @ basis.T - np.eye(k))
    if defect > 1e-8 * np.sqrt(k):
        raise RuntimeError("Lanczos vectors lost orthonormality")
    residual = a @ basis.T - basis.T @ t
    residual[:, -1] -= w  # beta_k q_{k+1}, left unnormalised
    if np.linalg.norm(residual) > 1e-8 * max(1.0, norm_a):
        raise RuntimeError("Lanczos Krylov relation failed")
    return nodes, weights, out


def cholesky_logdet(a: np.ndarray):
    """log det of a Hermitian positive definite matrix from its Cholesky factor.

    Equals the sum of log eigenvalues without computing them.  A (..., n, n)
    stack gives one log det per matrix, by one batched factorization whose
    values are bitwise those of factoring each matrix alone.  A failed
    factorization of any matrix raises ValueError("singular sample
    covariance").
    """
    a = _require_hermitian(a, stack=True)
    try:
        pivots = np.linalg.cholesky(a).diagonal(axis1=-2, axis2=-1).real
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular sample covariance") from exc
    return 2.0 * np.log(pivots).sum(axis=-1)


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
