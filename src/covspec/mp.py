"""Generalized Marchenko-Pastur equation solver and related transforms.

Everything here is phrased in terms of the companion Stieltjes transform
``mbar`` of the limiting sample spectrum: the unique upper-half-plane
solution of

    mbar = -1 / (z - c * integral t / (1 + t*mbar) dH(t)),

where H is the population spectral measure and c the dimension ratio of
a ``law.LimitLaw``, which checks them.  The transform of the
n-dimensional spectrum itself is ``m = (mbar + (1 - c)/z) / c``.

H is discrete, so the equation is algebraic: in y = -1/mbar its k+1 roots,
for k positive atoms, are the eigenvalues of a real-arrowhead matrix of
order k+1.  The solver takes the root with the largest imaginary part, the
only one in the upper half-plane for Im z > 0 (Silverstein & Bai 1995),
and polishes it by two Newton steps; there is no iteration to converge.
At real z it gives the density (``law.density``); stationary points of the
equation give the exact support (``support``).  The cost per point is
O(k^3): on a 2-core machine 4000 points take 0.08 s at 5 atoms, 0.9 s at
20 and 5.3 s at 50.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import ConfigError

if TYPE_CHECKING:  # law imports this module
    from .law import LimitLaw

DEFAULT_TOL = 1e-12
_NEWTON_STEPS = 2
# bound on points * (k+1)^2 per batched eigenvalue call, k the atom count
_CHUNK_ENTRIES = 1 << 18


class ConvergenceError(RuntimeError):
    """The solved transform misses the residual bound; carries the worst residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def _arrowhead_parts(law: LimitLaw):
    """(t, u, shift) of the equation in y = -1/mbar over the positive atoms t.

    In y the equation reads z = y + shift + sum_k u_k^2 / (y - t_k), with
    u_k = t_k * sqrt(c * w_k) and shift = c * sum_k w_k t_k.
    """
    pos = law.H.atoms > 0
    t, w = law.H.atoms[pos], law.H.weights[pos]
    return t, t * np.sqrt(law.c * w), law.c * np.sum(w * t)


def _arrowhead_roots(z, law: LimitLaw) -> np.ndarray:
    """Every root y = -1/mbar of the equation at each point of the 1-d array z.

    The k+1 roots of z = y + shift + sum_k u_k^2 / (y - t_k) (see
    ``_arrowhead_parts``) are the eigenvalues of the arrowhead matrix
    [[diag(t), u], [-u^T, z - shift]].  Returns shape (len(z), k+1).  Real z
    gives real matrices, whose roots are exactly real or exact conjugate
    pairs.
    """
    t, u, shift = _arrowhead_parts(law)
    k = t.size
    base = np.zeros((k + 1, k + 1), dtype=np.result_type(z, float))
    base[np.arange(k), np.arange(k)] = t
    base[:k, k] = u
    base[k, :k] = -u
    base[k, k] = -shift
    roots = np.empty((z.size, k + 1), dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // (k + 1) ** 2)
    for s in range(0, z.size, chunk):
        mats = np.repeat(base[None], min(chunk, z.size - s), axis=0)
        mats[:, k, k] += z[s:s + chunk]
        roots[s:s + chunk] = np.linalg.eigvals(mats)
    return roots


def _newton_terms(m, z, law: LimitLaw):
    """g(m) = m + 1/(z - c*I(m)) and its derivative, I(m) = integral t/(1+t*m) dH."""
    t = law.H.atoms[:, None]
    w = law.H.weights[:, None]
    f = 1.0 + t * m[None, :]
    denom = z - law.c * np.sum(w * t / f, axis=0)
    g = m + 1.0 / denom
    # t^2 / f^2 overflows at atoms near 1e154: safe, as _upper_root refuses a non-finite g'
    with np.errstate(over="ignore", invalid="ignore"):
        gp = 1.0 - law.c * np.sum(w * t * t / f ** 2, axis=0) / denom ** 2
    return g, gp


def _upper_root(z, law: LimitLaw):
    """Upper-half-plane root mbar at each point of the 1-d array z, Im z >= 0, z != 0.

    Takes the arrowhead root with the largest imaginary part (for Im z > 0
    the unique root with Im mbar > 0, Silverstein & Bai 1995), then polishes
    it by Newton steps on g, keeping a step only if g' is finite, the step
    lowers the residual |g| and it stays in the closed upper half-plane
    (next to a double root, at a spectral edge, g' nearly vanishes and a
    step can overshoot).  Raises ConvergenceError when a residual exceeds
    DEFAULT_TOL.  Returns (mbar, residual, Newton steps taken).
    """
    y = _arrowhead_roots(z, law)
    m = -1.0 / y[np.arange(z.size), np.argmax(y.imag, axis=1)]
    g, gp = _newton_terms(m, z, law)
    steps = np.zeros(z.size, dtype=int)
    for _ in range(_NEWTON_STEPS):
        finite = np.isfinite(gp)
        cand = m - g / np.where(finite & (gp != 0), gp, 1.0)
        g_cand, gp_cand = _newton_terms(cand, z, law)
        ok = finite & (np.abs(g_cand) < np.abs(g)) & (cand.imag >= 0)
        m, g, gp = np.where(ok, cand, m), np.where(ok, g_cand, g), np.where(ok, gp_cand, gp)
        steps += ok
    res = np.abs(g) / np.maximum(1.0, np.abs(m)) ** 2
    worst = int(np.argmax(res)) if res.size else 0
    if res.size and not res[worst] <= DEFAULT_TOL:
        raise ConvergenceError(f"Stieltjes root inaccurate at z={complex(z[worst])}",
                               float(res[worst]))
    return m, res, steps


def solve_mbar_grid(z, law: LimitLaw):
    """Companion transform at an array of points off the real axis.

    Parameters
    ----------
    z : array_like of complex
        Evaluation points, none on the real axis.  Points in the lower
        half-plane are solved at the conjugate and conjugated back.
    law : LimitLaw
        The limit law: its ratio c and population measure H.

    Returns
    -------
    (mbar, residual, iterations) arrays of the same shape as ``z``: the
    residual |g| / max(1, |mbar|)^2 of g = mbar + 1/(z - c*I(mbar)), at
    most DEFAULT_TOL, and the number of Newton polish steps taken.

    Raises
    ------
    ConvergenceError
        When a residual exceeds DEFAULT_TOL.

    Notes
    -----
    No iteration: the root is selected among the eigenvalues of an
    arrowhead matrix of order k+1 for k positive atoms, at O(k^3) cost per
    point (see ``_arrowhead_roots``).
    """
    z = np.asarray(z, dtype=complex)
    zf = z.ravel()
    if np.any(zf.imag == 0):
        raise ValueError("boundary evaluation requires density()")
    flip = zf.imag < 0
    m, res, steps = _upper_root(np.where(flip, zf.conj(), zf), law)
    m = np.where(flip, m.conj(), m)
    return m.reshape(z.shape), res.reshape(z.shape), steps.reshape(z.shape)


def support(law: LimitLaw) -> tuple[tuple[float, float], ...]:
    """Exact bulk of the limiting law: disjoint intervals (lo, hi), ascending.

    The candidate edges are the real stationary values of the inverse map
    (Silverstein & Choi 1995): in y = -1/mbar, z(y) = y + shift +
    sum_k u_k^2/(y - t_k) is stationary where sum_k u_k^2/(y - t_k)^2 = 1,
    i.e. at the real eigenvalues of [[D, -I], [-u u^T, D]], D = diag(t),
    the linearization of (D - y)^2 x = u u^T x.  Consecutive candidates
    whose midpoint has positive density bound one interval.  When c times
    the weight of the positive atoms is 1 the lower edge is exactly 0, which
    is decided from the input because z(y) there is 0 only to rounding.
    A population without a positive atom has no bulk and is a ConfigError.
    """
    H, c = law.H, law.c
    if H.t_max <= 0:
        raise ConfigError("population needs an atom t > 0 of positive weight")
    # u_k^2 overflows exactly when u_k = t_k sqrt(c w_k) >= 2^512; scaling t_k
    # by 2^-512 first is exact, so this decides it without forming u_k
    if np.any(H.atoms * 2.0 ** -512 * np.sqrt(c * H.weights) >= 1.0):
        raise ArithmeticError(f"support: c w_k t_k^2 overflows, so no edge can be computed, "
                              f"at the population atoms {H.atoms.tolist()}")
    t, u, shift = _arrowhead_parts(law)
    d, eye = np.diag(t), np.eye(t.size)
    y = np.linalg.eigvals(np.block([[d, -eye], [-np.outer(u, u), d]]))
    # a conjugate pair is complex on the atoms' own scale, not on an absolute one
    y = y[np.abs(y.imag) < 1e-9 * (t.max() + np.abs(y.real))].real
    gap = y[:, None] - t
    if np.any(gap == 0):
        # u_k^2 underflowed (u_k below about 1e-162) or is below the rounding of
        # t_k: the edges t_k +- about u_k are lost, and so is every interval
        raise ArithmeticError(f"support: no bulk interval, its edges are lost to rounding "
                              f"at the population atoms {t.tolist()}")
    edges = np.unique(y + shift + np.sum(u ** 2 / gap, axis=1))
    if abs(c * H.weights[H.atoms > 0].sum() - 1.0) <= 1e-12:  # up to rounding of n/N
        edges[0] = 0.0
    mbar, _, _ = _upper_root((edges[:-1] + edges[1:]) / 2.0, law)
    return tuple((float(a), float(b))
                 for a, b, inside in zip(edges[:-1], edges[1:], mbar.imag > 0) if inside)
