"""The limiting spectral law: density, distribution function, moments.

The law is pinned down by the ratio c and the population measure H.  Its
density on the real line is the boundary value f(x) = Im mbar(x)/(c*pi) of
the companion transform (Silverstein & Choi 1995), taken directly at real x
by the same arrowhead root selection that ``mp`` uses off the axis, so
there is no offset above the axis and no extrapolation.  Each point costs
O(k^3) for k atoms.  The distribution function, the moments by density
and the log mean integrate a shape-preserving cubic (PCHIP) interpolant of
the density on a cached edge-clustered grid, in numpy.  The distribution
function adds the point mass max(0, 1 - 1/c) at zero that appears once the
dimension exceeds the sample count.  A LimitLaw builds that grid once,
under a lock, so one instance can serve every replicate worker, each of
which draws into its own ``model.Workspace``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .functionals import FunctionalSpec
from .kernels import contour_around_support
from .mp import (_arrowhead_parts, _upper_root, continuous_support, solve_mbar_grid,
                 support_interval)
from .spectrum import SpectralMeasure


@dataclass
class LimitLaw:
    """Limiting sample-spectrum distribution for ratio c and population H.

    Density and CDF grids are built on first use, under a lock, and
    published together; means are cached under the same lock.  Instances
    are safe to share across threads.
    """

    c: float
    H: SpectralMeasure
    grid_points: int = 2001
    pad: float = 0.05
    # (x, f, F, antiderivative of f), set once by ensure_grids
    _grids: Optional[tuple] = field(default=None, repr=False, compare=False)
    _mean_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("ratio c must be positive")

    @property
    def atom_at_zero(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.c)

    def bulk_window(self) -> tuple[float, float]:
        """Padded interval around the continuous part of the spectrum."""
        lo, hi = continuous_support(self.H, self.c)
        span = hi - lo if hi > lo else hi
        floor = lo / 2.0 if lo > 0 else 1e-9
        return max(lo - self.pad * span, floor), hi + self.pad * span

    def ensure_grids(self) -> tuple:
        if self._grids is None:
            with self._lock:
                if self._grids is None:
                    x = _edge_clustered_grid(self, self.grid_points)
                    f = density(x, self)
                    spline = _PchipAntiderivative(x, f)
                    self._grids = (x, f, self.atom_at_zero + spline.values, spline)
        return self._grids

    def _cached_mean(self, key, compute) -> float:
        """Value cached under key, computed outside the lock on a miss."""
        if key not in self._mean_cache:
            val = compute()
            with self._lock:
                self._mean_cache.setdefault(key, val)
        return self._mean_cache[key]

    @property
    def density_grid(self) -> tuple[np.ndarray, np.ndarray]:
        x, f, _, _ = self.ensure_grids()
        return x, f

    @property
    def cdf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        x, _, F, _ = self.ensure_grids()
        return x, F

    def total_mass(self) -> float:
        return float(self.cdf_grid[1][-1])

    def continuous_cdf(self, x) -> np.ndarray:
        """Mass of the continuous part up to x."""
        grid, _, _, spline = self.ensure_grids()
        return spline(np.clip(np.asarray(x, dtype=float), grid[0], grid[-1]))


def _bulk_edges(H: SpectralMeasure, c: float) -> np.ndarray:
    """Real stationary values of the inverse map: candidate bulk edges.

    In y = -1/mbar the inverse map z(y) = y + shift + sum_k u_k^2/(y - t_k)
    is stationary where sum_k u_k^2/(y - t_k)^2 = 1.  Those y solve the
    quadratic eigenproblem (D - y)^2 x = u u^T x, D = diag(t), whose
    linearization is the matrix [[D, -I], [-u u^T, D]]; its real eigenvalues
    map through z(y) to the edges, where the density has square-root
    behavior.
    """
    t, u, shift = _arrowhead_parts(H, c)
    d, eye = np.diag(t), np.eye(t.size)
    y = np.linalg.eigvals(np.block([[d, -eye], [-np.outer(u, u), d]]))
    y = y[np.abs(y.imag) < 1e-9 * (1 + np.abs(y.real))].real
    return np.unique(y + shift + np.sum(u ** 2 / (y[:, None] - t), axis=1))


def _edge_clustered_grid(law: LimitLaw, total: int) -> np.ndarray:
    """Composite cosine grid refined at every candidate spectral edge."""
    lo, hi = law.bulk_window()
    span = hi - lo
    inner = [e for e in _bulk_edges(law.H, law.c) if lo + 1e-9 * span < e < hi - 1e-9 * span]
    breaks = np.array([lo] + sorted(inner) + [hi])
    # drop near-coincident breakpoints
    keep = np.concatenate([[True], np.diff(breaks) > 1e-9 * span])
    breaks = breaks[keep]
    lengths = np.diff(breaks)
    counts = np.maximum((total * lengths / lengths.sum()).astype(int), 65)
    pieces = []
    for (a, b), npts in zip(zip(breaks[:-1], breaks[1:]), counts):
        theta = np.linspace(np.pi, 0.0, npts)
        pieces.append(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta))
    return np.unique(np.concatenate(pieces))


def density(x, law: LimitLaw):
    """Density of the limiting law at x (scalar or array), nonnegative.

    f(x) = max(0, Im mbar(x))/(c*pi) with mbar the root of the equation at
    real x whose imaginary part is largest: inside the bulk the roots include
    one conjugate pair, outside it every root is real and f is exactly 0.
    Zero lies below the bulk for c < 1, where f(0) = 0; for c >= 1 the law
    has an atom or an unbounded density there, and zero is rejected.
    """
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    at_zero = xx == 0
    if law.c >= 1 and np.any(at_zero):
        raise ValueError("density undefined at zero for c >= 1; use cdf_limit")
    out = np.zeros_like(xx)
    mbar, _, _ = _upper_root(xx[~at_zero], law.H, law.c)
    out[~at_zero] = np.maximum(mbar.imag, 0.0) / (law.c * np.pi)
    return float(out[0]) if scalar else out


def cdf_limit(x, law: LimitLaw):
    """Distribution function of the limiting law at x, in [0, 1]."""
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.clip(law.continuous_cdf(xx), 0.0, 1.0) + law.atom_at_zero * (xx >= 0)
    out = np.minimum(out, 1.0)
    return float(out[0]) if scalar else out


def _degenerate_moment(k: int, c: float, t: float) -> float:
    # classic Marchenko-Pastur moments, scaled by the atom
    if k == 0:
        return 1.0
    s = sum(comb(k, r) * comb(k - 1, r) / (r + 1) * c ** r for r in range(k))
    return t ** k * s


def limit_moments(law: LimitLaw, k: int) -> float:
    """k-th moment of the limiting law.

    Closed form for a degenerate population, grid quadrature otherwise.
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k == 0:
        return 1.0
    if law.H.is_degenerate:
        return _degenerate_moment(k, law.c, law.H.t_min)
    x, _ = law.density_grid
    return _density_integral(law, x ** k)


def _density_integral(law: LimitLaw, vals) -> float:
    """Integral of vals * f over the density grid, vals given at the grid points."""
    x, f = law.density_grid
    return float(_PchipAntiderivative(x, f * vals).values[-1])


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    # one-sided three-point rule, limited so the end cell does not overshoot
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _PchipAntiderivative:
    """Antiderivative, zero at x[0], of the PCHIP interpolant of (x, y).

    The interpolant is the shape-preserving piecewise cubic Hermite of
    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980).  Its node slopes are
    the Fritsch-Butland weighted harmonic mean of the adjacent secants
    inside, 0 where those differ in sign or one vanishes, and a limited
    one-sided three-point rule at both ends (Moler, Numerical Computing with
    MATLAB, 3.6); with two points the interpolant is the line.  ``values``
    holds the antiderivative at the nodes; calls evaluate it anywhere,
    extrapolating the end cells.  Sums run in the order of scipy's
    ``PchipInterpolator(x, y).antiderivative()``, which this reproduces.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("PCHIP needs 1-D x and y of equal length, at least 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("PCHIP data must be finite")
        h = np.diff(x)
        if np.any(h <= 0):
            raise ValueError("PCHIP nodes must be strictly increasing")
        m = np.diff(y) / h
        d = np.empty_like(x)
        if m.size == 1:
            d[:] = m[0]
        else:
            d[1:-1] = 0.0
            inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
            w1 = (2.0 * h[1:] + h[:-1])[inner]
            w2 = (h[1:] + 2.0 * h[:-1])[inner]
            d[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner]) / (w1 + w2))
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # on cell i the interpolant is y_i + d_i s + b_i s^2 + a_i s^3 with
        # s = x - x_i, b_i = (m_i - d_i)/h_i - t_i, a_i = t_i/h_i; _coef holds
        # the coefficients of s, s^2, s^3, s^4 in its integral from x_i
        self._coef = (y[:-1], d[:-1] / 2.0, ((m - d[:-1]) / h - t) / 3.0, t / h / 4.0)
        self.x = x
        # each node value is the previous one plus the cell's terms, one at a time
        cells = zip(*(term.tolist() for term in self._terms(slice(None), h)))
        self.values = np.fromiter(itertools.accumulate(cells, _add_terms, initial=0.0),
                                  dtype=float, count=x.size)

    def _terms(self, i, s):
        s2 = s * s
        s3 = s2 * s
        return tuple(coef[i] * power for coef, power in zip(self._coef, (s, s2, s3, s3 * s)))

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        return _add_terms(self.values[i], self._terms(i, xq - self.x[i]))


def _add_terms(total, terms):
    for term in terms:
        total = total + term
    return total


def mean_functional_density(law: LimitLaw, g: FunctionalSpec) -> float:
    """Integral of g against the law by quadrature on the cached density grid."""
    if g.needs_positive_support:
        _require_positive_support(law)
    x, _ = law.density_grid
    val = _density_integral(law, np.asarray(g(x), dtype=float))
    if law.atom_at_zero > 0:
        val += law.atom_at_zero * float(g(0.0))
    return val


def _require_positive_support(law: LimitLaw):
    if support_interval(law.H, law.c)[0] <= 0:
        raise ValueError("log functional needs the spectrum bounded away from zero")


def mean_functional(law: LimitLaw, g: FunctionalSpec, method: str = "auto") -> float:
    """Integral of g against the limiting law.

    'auto' uses exact moments for polynomials under a degenerate population,
    density quadrature for log (whose guard keeps the grid away from zero,
    where it is accurate), and otherwise a contour integral of g(z) m(z)
    around the support.
    """
    def compute():
        if method == "density" or g.needs_positive_support:
            return mean_functional_density(law, g)
        if g.kind == "poly" and law.H.is_degenerate:
            return float(sum(coef * limit_moments(law, d) for d, coef in enumerate(g.coeffs)))
        return _mean_functional_contour(law, g)

    return law._cached_mean((g.kind, g.coeffs, method), compute)


def _mean_functional_contour(law: LimitLaw, g: FunctionalSpec, nodes_per_side: int = 1024) -> float:
    if g.needs_positive_support:
        _require_positive_support(law)
    contour = contour_around_support(law.H, law.c, margin=0.05, v0=1.0,
                                     nodes_per_side=nodes_per_side)
    z, w = contour.nodes()
    mbar, _, _ = solve_mbar_grid(z, law.H, law.c)
    m = (mbar + (1.0 - law.c) / z) / law.c
    total = np.sum(g(z) * m * w)
    val = (-total / (2j * np.pi)).real
    if law.atom_at_zero > 0 and contour.u_l > 0:
        # contour misses the mass at zero; add it back
        val += law.atom_at_zero * float(g(0.0))
    return float(val)
