"""The limiting spectral law: density, distribution function, moments.

The law is pinned down by the ratio c and the population measure H.  Its
density on the real line is the boundary value f(x) = Im mbar(x)/(c*pi) of
the companion transform (Silverstein & Choi 1995), taken directly at real x
by the same arrowhead root selection that ``mp`` uses off the axis, so
there is no offset above the axis and no extrapolation.  Each point costs
O(k^3) for k atoms.  The distribution function adds the point mass
max(0, 1 - 1/c) at zero that appears once the dimension exceeds the sample
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .functionals import FunctionalSpec
from .kernels import contour_around_support
from .mp import (_arrowhead_parts, _upper_root, continuous_support, solve_mbar_grid,
                 support_interval)
from .spectrum import SpectralMeasure


@dataclass
class LimitLaw:
    """Limiting sample-spectrum distribution for ratio c and population H.

    Density and CDF grids are built lazily on first use and then reused;
    instances are read-only after that, so sharing across threads is safe.
    """

    c: float
    H: SpectralMeasure
    grid_points: int = 2001
    pad: float = 0.05
    _grid_x: Optional[np.ndarray] = field(default=None, repr=False)
    _grid_f: Optional[np.ndarray] = field(default=None, repr=False)
    _grid_F: Optional[np.ndarray] = field(default=None, repr=False)
    _cdf_spline: Optional[object] = field(default=None, repr=False)
    _mean_cache: dict = field(default_factory=dict, repr=False)

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

    def ensure_grids(self):
        if self._grid_x is not None:
            return
        x = _edge_clustered_grid(self, self.grid_points)
        f = density(x, self)
        spline = PchipInterpolator(x, f).antiderivative()
        self._grid_x = x
        self._grid_f = f
        self._cdf_spline = spline
        self._grid_F = self.atom_at_zero + np.asarray(spline(x)) - float(spline(x[0]))

    @property
    def density_grid(self) -> tuple[np.ndarray, np.ndarray]:
        self.ensure_grids()
        return self._grid_x, self._grid_f

    @property
    def cdf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        self.ensure_grids()
        return self._grid_x, self._grid_F

    def total_mass(self) -> float:
        self.ensure_grids()
        return float(self._grid_F[-1])

    def continuous_cdf(self, x) -> np.ndarray:
        """Mass of the continuous part up to x."""
        self.ensure_grids()
        lo, hi = self._grid_x[0], self._grid_x[-1]
        xx = np.clip(np.asarray(x, dtype=float), lo, hi)
        return np.asarray(self._cdf_spline(xx)) - float(self._cdf_spline(lo))


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
    antiderivative = PchipInterpolator(x, f * vals).antiderivative()
    return float(antiderivative(x[-1]) - antiderivative(x[0]))


def mean_functional_density(law: LimitLaw, g: FunctionalSpec) -> float:
    """Integral of g against the law by quadrature on the cached density grid."""
    if g.needs_positive_support:
        lo, _ = law.bulk_window()
        if lo <= 0 or law.atom_at_zero > 0:
            raise ValueError("log functional needs the spectrum bounded away from zero")
    x, _ = law.density_grid
    val = _density_integral(law, np.asarray(g(x), dtype=float))
    if law.atom_at_zero > 0:
        val += law.atom_at_zero * float(g(0.0))
    return val


def mean_functional(law: LimitLaw, g: FunctionalSpec, method: str = "auto") -> float:
    """Integral of g against the limiting law.

    'auto' uses exact moments for polynomials under a degenerate population
    and otherwise a contour integral of g(z) m(z) around the support.
    """
    key = (g.kind, g.coeffs, method)
    if key in law._mean_cache:
        return law._mean_cache[key]
    if method == "density":
        val = mean_functional_density(law, g)
    elif g.kind == "poly" and law.H.is_degenerate:
        val = float(sum(coef * limit_moments(law, d) for d, coef in enumerate(g.coeffs)))
    else:
        val = _mean_functional_contour(law, g)
    law._mean_cache[key] = val
    return val


def _mean_functional_contour(law: LimitLaw, g: FunctionalSpec, nodes_per_side: int = 1024) -> float:
    lo, hi = support_interval(law.H, law.c)
    if g.needs_positive_support and (lo <= 0 or law.atom_at_zero > 0):
        raise ValueError("log functional needs the spectrum bounded away from zero")
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
