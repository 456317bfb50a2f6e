"""Hermitian eigendecomposition, a Lanczos Gauss rule, and spectral moments by products.

``eig_decompose`` gives every eigenpair, ``gauss_rule`` the Gauss rule of
the measure sum_i |u_i* x|^2 delta_{lambda_i} without eigenvectors (enough
for a statistic linear in it) and ``cholesky_logdet`` the log determinant,
of one matrix or of each matrix of a stack, bitwise as for it alone.
``quad_form_power`` gives the weighted spectral moment x* A^m x by repeated
matrix-vector products, without the eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian matrix, or of each matrix of a stack along the leading axes."""

    lambdas: np.ndarray
    vectors: np.ndarray


def _require_hermitian(a) -> np.ndarray:
    """a as an array if it is a Hermitian matrix or a (..., n, n) stack of
    them; each matrix is checked on its own scale."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    a_h = a.conj().swapaxes(-1, -2)
    # an exactly Hermitian stack, as the sample covariances are, needs no scale
    if a.size and not (a == a_h).all():
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        defect = np.abs(a - a_h).max(axis=(-2, -1))
        if np.any(defect > 1e-10 * scale):
            raise ValueError("matrix is not Hermitian")
    return a


def eig_decompose(a: np.ndarray, check: bool = True) -> EigenSystem:
    """Spectral decomposition of a Hermitian nonnegative definite matrix, or
    of each matrix of a (..., n, n) stack by one ``eigh`` call, bitwise the
    eigenpairs of that matrix alone.  Checks the input's
    hermiticity and, for each matrix, |U*U - I|_F <= 1e-8 sqrt(n),
    |A - U diag(lambda) U*|_F <= 1e-8 max(1, |A|_F) and lambda_min >= -1e-10.
    """
    a = _require_hermitian(a)
    try:
        lams, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eig did not converge") from exc
    if check:
        n, u_h = a.shape[-1], u.conj().swapaxes(-1, -2)
        if np.any(np.linalg.matrix_norm(u_h @ u - np.eye(n)) > 1e-8 * np.sqrt(n)):
            raise RuntimeError("eigenvector matrix lost orthonormality")
        recon = np.linalg.matrix_norm(a - (u * lams[..., None, :]) @ u_h)
        if np.any(recon > 1e-8 * np.maximum(1.0, np.linalg.matrix_norm(a))):
            raise RuntimeError("eigendecomposition reconstruction failed")
        if np.any(lams[..., 0] < -1e-10):
            raise RuntimeError(f"matrix is not nonnegative definite (min eig {lams.min():g})")
    return EigenSystem(lambdas=lams, vectors=u)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the m x L array v, bitwise np.linalg.norm of the row."""
    if np.iscomplexobj(v):
        return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return np.sqrt(np.vecdot(v, v))


def gauss_rule(a: np.ndarray, x: np.ndarray, fn: Callable):
    """Gauss rule for x* g(A) x by Lanczos from x: (nodes, weights, fn row), or None.

    k Lanczos steps on the Hermitian nonnegative definite A from the unit
    vector x give a real tridiagonal T_k.  Its eigenvalues (the Ritz
    values, ascending) carrying the squared first components of its
    eigenvectors form a k-node rule for the measure
    sum_i |u_i* x|^2 delta_{lambda_i} that is exact for every polynomial of
    degree up to 2k-1 (Golub & Welsch 1969).  Every step reorthogonalises
    against all earlier vectors by two classical Gram-Schmidt passes.  T_k
    is decomposed at k = 24, 32, 40, ..., and the rule stops at the first
    of these where every entry of its row of ``fn(nodes, weights)`` moved
    by at most 1e-12 max(1, |value|) since the previous one (its move), or
    on breakdown (beta <= 1e-12 |A|_F: the Krylov space is invariant and
    the rule exact).

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

    A (b, n, n) stack gives a list of b results, one per matrix.  Lanczos
    runs on the stack's m still-running matrices together: one batched
    product for each matrix-vector product, Gram-Schmidt pass and norm, and
    per decomposition one stacked ``eigh`` and one call of ``fn`` on the
    (m, k) Ritz values and weights, which returns an (m, p) array whose
    row i depends on row i alone (else ValueError).  Each is bitwise the
    operation on that matrix alone, and only a checkpoint moves a matrix's
    record of its values (a breakdown decomposes every matrix), so its
    result does not depend on the stack it comes in.
    """
    a = _require_hermitian(a)
    if a.ndim > 3:
        raise ValueError("expected a matrix or a stack of matrices")
    single = a.ndim == 2
    a = a[None] if single else a
    b, n = a.shape[0], a.shape[-1]
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValueError(f"direction has shape {x.shape}, expected ({n},)")
    if not abs(np.vdot(x, x).real - 1.0) <= 1e-10:
        raise ValueError("direction not unit")
    last = n // 32 * 8  # the last checkpoint within n/4 steps
    rules = [None] * b if last < 32 else _lanczos_rules(a, x, fn, last)
    return rules[0] if single else rules


def _lanczos_rules(a: np.ndarray, x: np.ndarray, fn: Callable, last: int) -> list:
    """``gauss_rule`` on each matrix of the stack a, within ``last`` steps."""
    b, n = a.shape[0], a.shape[-1]
    norm_a = _norms(a.reshape(b, -1))
    q = np.empty((b, last + 1, n), dtype=np.result_type(a, x, float))  # Lanczos vectors as rows
    q[:, 0] = x
    alpha, beta = np.empty((b, last)), np.empty((b, last))
    rules = [None] * b
    run = np.arange(b)  # the stack index of each still-running matrix
    # value at the previous checkpoint and last move: NaN, false in every comparison, before one
    previous, change = np.full((b, 1), np.nan), np.full(b, np.nan)
    for k in range(1, last + 1):  # k steps done once this one ends
        w = np.matvec(a, q[:, k - 1])
        basis = q[:, :k]
        # h = basis^* w, conjugating the vector rather than the basis
        h1 = np.matvec(basis, w.conj()).conj()
        w -= np.matmul(h1[:, None], basis)[:, 0]
        h2 = np.matvec(basis, w.conj()).conj()
        w -= np.matmul(h2[:, None], basis)[:, 0]
        alpha[:, k - 1] = (h1[:, -1] + h2[:, -1]).real
        beta[:, k - 1] = _norms(w)
        breakdown = beta[:, k - 1] <= 1e-12 * norm_a
        checkpoint = k >= 24 and k % 8 == 0
        if checkpoint or breakdown.any():
            t = np.zeros((run.size, k, k))
            i = np.arange(k)
            t[:, i, i] = alpha[:, :k]
            t[:, i[:-1], i[1:]] = t[:, i[1:], i[:-1]] = beta[:, :k - 1]
            nodes, s = np.linalg.eigh(t)
            if np.any(nodes[:, 0] < -1e-10):
                raise RuntimeError("matrix is not nonnegative definite "
                                   f"(min Ritz value {nodes[:, 0].min():g})")
            weights = s[:, 0] ** 2
            value = np.asarray(fn(nodes, weights), dtype=float)
            if value.ndim != 2 or value.shape[0] != run.size:
                raise ValueError(f"fn gave shape {value.shape} for {run.size} matrices, "
                                 f"not one row each")
            stop = leave = breakdown
            if checkpoint:
                moved = np.max(np.abs(value - previous) / np.maximum(1.0, np.abs(value)), axis=1)
                stop = breakdown | (moved <= 1e-12)
                # the last two moves, extrapolated geometrically, miss 1e-12 by the last
                # checkpoint (a move that did not shrink always misses)
                shrink = np.minimum(moved / change, 1.0)
                leave = stop | (moved * shrink ** ((last - k) // 8) > 1e-12)
                previous, change = value, moved
            for j in np.flatnonzero(stop):
                rules[run[j]] = nodes[j], weights[j], value[j]
            if stop.any():
                # all stopping at once is the common case: check them without copying the stack
                pick = slice(None) if stop.all() else stop
                _check_lanczos(a[pick], q[pick, :k], t[pick], w[pick], norm_a[pick])
            if leave.all():
                break
            if leave.any():
                a, q, w, run, alpha, beta, norm_a, previous, change = (
                    v[~leave] for v in (a, q, w, run, alpha, beta, norm_a, previous, change))
        np.divide(w, beta[:, k - 1, None], out=q[:, k])
    return rules


def _check_lanczos(a, basis, t, w, norm_a) -> None:
    """Raise unless each stopped run's Lanczos vectors (the rows of its
    basis) are orthonormal and satisfy the Krylov relation with its T_k."""
    m, k = basis.shape[:2]
    basis_t = basis.swapaxes(1, 2)
    defect = _norms((np.matmul(basis.conj(), basis_t) - np.eye(k)).reshape(m, -1))
    if np.any(defect > 1e-8 * np.sqrt(k)):
        raise RuntimeError("Lanczos vectors lost orthonormality")
    residual = np.matmul(a, basis_t) - np.matmul(basis_t, t)
    residual[:, :, -1] -= w  # beta_k q_{k+1}, left unnormalised
    if np.any(_norms(residual.reshape(m, -1)) > 1e-8 * np.maximum(1.0, norm_a)):
        raise RuntimeError("Lanczos Krylov relation failed")


def cholesky_logdet(a: np.ndarray):
    """log det of a Hermitian positive definite matrix from its Cholesky factor.

    Equals the sum of log eigenvalues without computing them.  A (..., n, n)
    stack gives one log det per matrix, by one batched factorization whose
    values are bitwise those of factoring each matrix alone.  A failed
    factorization of any matrix raises ValueError("singular sample
    covariance").
    """
    a = _require_hermitian(a)
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
