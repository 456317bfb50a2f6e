"""Generalized Marchenko-Pastur equation solver and related transforms.

Everything here is phrased in terms of the companion Stieltjes transform
``mbar`` of the limiting sample spectrum: the unique upper-half-plane
solution of

    mbar = -1 / (z - c * integral t / (1 + t*mbar) dH(t)),

where H is the population spectral measure and c the dimension ratio.
The transform of the n-dimensional spectrum itself is recovered through
``m = (mbar + (1 - c)/z) / c``.

H is discrete, so the equation is algebraic: in y = -1/mbar its k+1 roots,
for k positive atoms, are the eigenvalues of a real-arrowhead matrix of
order k+1.  The solver takes the root with the largest imaginary part, the
only one in the upper half-plane for Im z > 0 (Silverstein & Bai 1995),
and polishes it by two Newton steps; there is no iteration to converge.
The same selection at real z gives the density (``law.density``).  The
cost per point is O(k^3): on a 2-core machine 4000 points take 0.08 s at
5 atoms, 0.9 s at 20 and 5.3 s at 50.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import SpectralMeasure

DEFAULT_TOL = 1e-12
_NEWTON_STEPS = 2
# bound on points * (k+1)^2 per batched eigenvalue call, k the atom count
_CHUNK_ENTRIES = 1 << 18


class ConvergenceError(RuntimeError):
    """The solved transform misses the residual bound; carries the worst residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class StieltjesSolution:
    """Solution of the self-consistent equation at one point z."""

    z: complex
    mbar: complex
    m: complex
    residual: float
    iterations: int


def _arrowhead_parts(H: SpectralMeasure, c: float):
    """(t, u, shift) of the equation in y = -1/mbar over the positive atoms t.

    In y the equation reads z = y + shift + sum_k u_k^2 / (y - t_k), with
    u_k = t_k * sqrt(c * w_k) and shift = c * sum_k w_k t_k.
    """
    pos = H.atoms > 0
    t, w = H.atoms[pos], H.weights[pos]
    return t, t * np.sqrt(c * w), c * np.sum(w * t)


def _arrowhead_roots(z, H: SpectralMeasure, c: float) -> np.ndarray:
    """Every root y = -1/mbar of the equation at each point of the 1-d array z.

    The k+1 roots of z = y + shift + sum_k u_k^2 / (y - t_k) (see
    ``_arrowhead_parts``) are the eigenvalues of the arrowhead matrix
    [[diag(t), u], [-u^T, z - shift]].  Returns shape (len(z), k+1).  Real z
    gives real matrices, whose roots are exactly real or exact conjugate
    pairs.
    """
    t, u, shift = _arrowhead_parts(H, c)
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


def _newton_terms(m, z, H: SpectralMeasure, c: float):
    """g(m) = m + 1/(z - c*I(m)) and its derivative, I(m) = integral t/(1+t*m) dH."""
    t = H.atoms[:, None]
    w = H.weights[:, None]
    f = 1.0 + t * m[None, :]
    denom = z - c * np.sum(w * t / f, axis=0)
    g = m + 1.0 / denom
    gp = 1.0 - c * np.sum(w * t * t / f ** 2, axis=0) / denom ** 2
    return g, gp


def _upper_root(z, H: SpectralMeasure, c: float):
    """Upper-half-plane root mbar at each point of the 1-d array z, Im z >= 0, z != 0.

    Takes the arrowhead root with the largest imaginary part (for Im z > 0
    the unique root with Im mbar > 0, Silverstein & Bai 1995), then polishes
    it by Newton steps on g, keeping a step only if it lowers the residual
    |g| and stays in the closed upper half-plane (next to a double root, at
    a spectral edge, g' nearly vanishes and a step can overshoot).  Raises
    ConvergenceError when a residual exceeds DEFAULT_TOL.  Returns (mbar,
    residual, Newton steps taken).
    """
    y = _arrowhead_roots(z, H, c)
    m = -1.0 / y[np.arange(z.size), np.argmax(y.imag, axis=1)]
    g, gp = _newton_terms(m, z, H, c)
    steps = np.zeros(z.size, dtype=int)
    for _ in range(_NEWTON_STEPS):
        cand = m - g / np.where(gp == 0, 1.0, gp)
        g_cand, gp_cand = _newton_terms(cand, z, H, c)
        ok = (np.abs(g_cand) < np.abs(g)) & (cand.imag >= 0)
        m, g, gp = np.where(ok, cand, m), np.where(ok, g_cand, g), np.where(ok, gp_cand, gp)
        steps += ok
    res = np.abs(g) / np.maximum(1.0, np.abs(m)) ** 2
    worst = int(np.argmax(res)) if res.size else 0
    if res.size and not res[worst] <= DEFAULT_TOL:
        raise ConvergenceError(f"Stieltjes root inaccurate at z={complex(z[worst])}",
                               float(res[worst]))
    return m, res, steps


def solve_mbar_grid(z, H: SpectralMeasure, c: float):
    """Companion transform at an array of points off the real axis.

    Parameters
    ----------
    z : array_like of complex
        Evaluation points, none on the real axis.  Points in the lower
        half-plane are solved at the conjugate and conjugated back.
    H : SpectralMeasure
        Population spectral measure.
    c : float
        Dimension ratio, > 0.

    Returns
    -------
    (mbar, residual, iterations) arrays of the same shape as ``z``: the
    residual |mbar + 1/(z - c*I(mbar))|, at most DEFAULT_TOL, and the
    number of Newton polish steps taken.

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
    if c <= 0:
        raise ValueError("ratio c must be positive")
    z = np.asarray(z, dtype=complex)
    zf = z.ravel()
    if np.any(zf.imag == 0):
        raise ValueError("boundary evaluation requires density()")
    flip = zf.imag < 0
    m, res, steps = _upper_root(np.where(flip, zf.conj(), zf), H, c)
    m = np.where(flip, m.conj(), m)
    return m.reshape(z.shape), res.reshape(z.shape), steps.reshape(z.shape)


def solve_mbar(z: complex, H: SpectralMeasure, c: float) -> StieltjesSolution:
    """Solve the self-consistent equation at one point; raises ConvergenceError."""
    zc = complex(z)
    mbar, res, steps = solve_mbar_grid(np.array([zc]), H, c)
    mb = complex(mbar[0])
    return StieltjesSolution(z=zc, mbar=mb, m=companion_transform(mb, zc, c, "to_m"),
                             residual=float(res[0]), iterations=int(steps[0]))


def companion_transform(value: complex, z: complex, c: float, direction: str) -> complex:
    """Convert between the two Stieltjes transforms.

    ``to_mbar``: mbar = -(1-c)/z + c*m, ``to_m``: the inverse map.
    """
    if z == 0:
        raise ValueError("transform relation is singular at z = 0")
    if direction == "to_mbar":
        return -(1.0 - c) / z + c * value
    if direction == "to_m":
        return (value + (1.0 - c) / z) / c
    raise ValueError("direction must be 'to_mbar' or 'to_m'")


def inverse_z(mbar: complex, H: SpectralMeasure, c: float) -> complex:
    """Explicit inverse map z(mbar) = -1/mbar + c * integral t/(1 + t*mbar) dH."""
    mbar = complex(mbar)
    if mbar == 0:
        raise ValueError("inverse map is singular at mbar = 0")
    factors = 1.0 + H.atoms * mbar
    if np.any(np.abs(factors) < 1e-14):
        raise ValueError("pole: 1 + t*mbar vanishes at an atom")
    return -1.0 / mbar + c * np.sum(H.weights * H.atoms / factors)


def closed_form_mp(z: complex, c: float, t: float = 1.0) -> complex:
    """Companion transform for a single-atom population, by quadratic formula.

    For atom t the equation reduces (after rescaling) to
    w*u^2 + (w + 1 - c)*u + 1 = 0 at w = z/t, with the root chosen in the
    upper half-plane; test oracle only.
    """
    if t <= 0:
        raise ValueError("atom must be positive")
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("closed form expects Im z > 0")
    w = z / t
    b = w + 1.0 - c
    disc = np.sqrt(b * b - 4.0 * w)
    r1 = (-b + disc) / (2.0 * w)
    r2 = (-b - disc) / (2.0 * w)
    root = r1 if r1.imag > 0 else r2
    return complex(root) / t


def support_interval(H: SpectralMeasure, c: float) -> tuple[float, float]:
    """Interval certain to contain the limiting spectrum.

    Lower endpoint is t_min*(1-sqrt(c))^2 for 0 < c < 1 and zero otherwise
    (zero eigenvalues appear once c >= 1); upper is t_max*(1+sqrt(c))^2.
    """
    if c <= 0:
        raise ValueError("ratio c must be positive")
    root = np.sqrt(c)
    lo = H.t_min * (1.0 - root) ** 2 if 0 < c < 1 else 0.0
    hi = H.t_max * (1.0 + root) ** 2
    return float(lo), float(hi)


def continuous_support(H: SpectralMeasure, c: float) -> tuple[float, float]:
    """Edges of the continuous spectral bulk, ignoring any mass at zero."""
    root = np.sqrt(c)
    return (float(H.t_min * (1.0 - root) ** 2), float(H.t_max * (1.0 + root) ** 2))
