"""The limiting spectral law: density, distribution function, moments.

The law is pinned down by the ratio c and the population measure H.  Its
density on the real line is the boundary value f(x) = Im mbar(x)/(c*pi) of
the companion transform (Silverstein & Choi 1995), taken directly at real x
by the same arrowhead root selection that ``mp`` uses off the axis, at
O(k^3) per point for k atoms.  Every integral against the density runs on
one rule.  On each interval (a, b) of the exact support (``mp.support``),
x = (a+b)/2 - (b-a)/2 cos(theta) turns f dx into h(theta) dtheta with h
even, periodic and analytic: f is sqrt((x-a)(b-x)) times an analytic
function, or x^(-1/2) times one at a zero lower edge (c times the weight of
the positive atoms is 1).  The midpoint rule in theta, with the node count
of the contour ellipses (``mp._node_count``), therefore converges
geometrically, and the distribution function is the cosine interpolant of
the same samples of h, integrated term by term.  It adds the point mass at
zero, max(w_0, 1 - 1/c) for a zero atom of weight w_0.  A LimitLaw builds
its rule and its distribution function once each, under a lock, so one
instance can serve every replicate worker.  Means are not kept: the mean of
a polynomial is a sum of exact moments, from the power series of mbar in
1/z (``limit_moments``), and never builds the rule; the mean of the log is
one dot product with the rule's masses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functionals import FunctionalSpec
from .model import ConfigError
from .mp import _lower_end, _mass_at_zero, _node_count, _upper_root, support
from .spectrum import SpectralMeasure

# padding of the density window beyond the support, as a share of its width
_WINDOW_PAD = 0.05
# bound on queries * terms per block of a sine-series evaluation
_SERIES_ENTRIES = 1 << 16


@dataclass
class LimitLaw:
    """Limiting sample-spectrum distribution for ratio c and population H.

    The quadrature nodes and their masses are built on first use, under a
    lock, and published together; the distribution function is built on
    first use under the same lock.  Instances are safe to share across
    threads.
    """

    c: float
    H: SpectralMeasure
    # (x, q, pieces), set once by ensure_grids
    _grids: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # per interval (a, b, c0, coef), set once by _cdf_series
    _cdf: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("ratio c must be positive")

    @property
    def atom_at_zero(self) -> float:
        return _mass_at_zero(self.H, self.c)

    def bulk_window(self) -> tuple[float, float]:
        """Interval around the support, padded by a share of its width, never below 0."""
        bulk = support(self.H, self.c)
        lo, hi = bulk[0][0], bulk[-1][1]
        span = hi - lo
        return max(lo - _WINDOW_PAD * span, lo / 2.0), hi + _WINDOW_PAD * span

    def ensure_grids(self) -> tuple:
        if self._grids is None:
            with self._lock:
                if self._grids is None:
                    self._grids = _midpoint_rule(self)
        return self._grids

    def _cdf_series(self) -> tuple:
        # the means need only q: building the series apart, on first use, keeps
        # numpy.fft (and its memory) out of runs that never ask for F
        if self._cdf is None:
            pieces = self.ensure_grids()[2]
            with self._lock:
                if self._cdf is None:
                    self._cdf = _cosine_cdf(pieces)
        return self._cdf

    @property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes x and masses q: the integral of v against the density is q @ v(x)."""
        x, q, _ = self.ensure_grids()
        return x, q

    def total_mass(self) -> float:
        return self.atom_at_zero + float(self.quadrature[1].sum())

    def continuous_cdf(self, x) -> np.ndarray:
        """Mass of the continuous part up to x."""
        xx = np.asarray(x, dtype=float)
        out = np.zeros(xx.shape)
        for a, b, c0, coef in self._cdf_series():
            inside = (xx > a) & (xx < b)
            theta = np.arccos(np.clip((a + b - 2.0 * xx[inside]) / (b - a), -1.0, 1.0))
            out[inside] += np.clip(c0 * theta + _sine_series(coef, theta), 0.0, c0 * np.pi)
            out[xx >= b] += c0 * np.pi
        return out


def _midpoint_rule(law: LimitLaw) -> tuple:
    """(x, q, pieces): on each support interval (a, b), M nodes
    x_j = a + (b-a) sin^2(theta_j/2) at theta_j = pi (j+1/2)/M with masses
    q_j = (pi/M) h_j, h_j = (b-a)/2 sin(theta_j) f(x_j); pieces holds
    (a, b, h) per interval.  All densities come from one call."""
    bulk = support(law.H, law.c)
    thetas = [np.pi * (np.arange(M) + 0.5) / M for M in (_node_count(a, b)[1] for a, b in bulk)]
    # a + (b-a) sin^2(theta/2) is (a+b)/2 - (b-a)/2 cos(theta), accurate next to a
    xs = [a + (b - a) * np.sin(theta / 2.0) ** 2 for (a, b), theta in zip(bulk, thetas)]
    f = density(np.concatenate(xs), law)
    fs = np.split(f, np.cumsum([theta.size for theta in thetas])[:-1])
    pieces = tuple((a, b, (b - a) / 2.0 * np.sin(theta) * fi)
                   for (a, b), theta, fi in zip(bulk, thetas, fs))
    q = np.concatenate([np.pi / h.size * h for _, _, h in pieces])
    return np.concatenate(xs), q, pieces


def _cosine_cdf(pieces) -> tuple:
    """Per interval (a, b, c0, coef), with c0 theta + sum_k coef_k sin(k theta)
    the mass of the interval up to angle theta, the integral of the cosine
    interpolant of h; c0 pi is the interval's mass, the sum of its q."""
    return tuple((a, b, h.sum() / h.size, _cosine_antiderivative(h)) for a, b, h in pieces)


def _cosine_antiderivative(h) -> np.ndarray:
    """coef_k, k = 1..M-1, of the sine terms of the integral from 0 of the
    cosine interpolant sum_k a_k cos(k theta) of h at the M midpoint angles.

    a_k = (2/M) sum_j h_j cos(k theta_j) is a DCT-II, taken from the FFT of
    h followed by its mirror image; coef_k = a_k/k.
    """
    M = h.size
    k = np.arange(1, M)
    spectrum = np.fft.fft(np.concatenate([h, h[::-1]]))[1:M]
    return (np.exp(-0.5j * np.pi * k / M) * spectrum).real / (M * k)


def _sine_series(coef, theta) -> np.ndarray:
    """sum_k coef_k sin(k theta) at any angles, in blocks of bounded size."""
    k = np.arange(1, coef.size + 1)
    step = max(1, _SERIES_ENTRIES // k.size)
    out = np.empty(theta.size)
    for start in range(0, theta.size, step):
        out[start:start + step] = np.sin(np.outer(theta[start:start + step], k)) @ coef
    return out


def density(x, law: LimitLaw):
    """Density of the limiting law at x (scalar or array), nonnegative.

    f(x) = max(0, Im mbar(x))/(c*pi) with mbar the root of the equation at
    real x whose imaginary part is largest: inside the bulk the roots include
    one conjugate pair, outside it every root is real and f is exactly 0.
    At zero f is +inf where the lower edge is zero; below a positive lower
    edge it is 0, and zero is rejected if the law has a point mass there.
    """
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    at_zero = xx == 0
    out = np.zeros_like(xx)
    if np.any(at_zero):
        zero_edge = support(law.H, law.c)[0][0] == 0
        if law.atom_at_zero > 0 and not zero_edge:
            raise ConfigError("density undefined at the point mass at zero; use cdf_limit")
        out[at_zero] = np.inf if zero_edge else 0.0
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


def limit_moments(law: LimitLaw, k: int) -> float:
    """k-th moment of the limiting law, exact for every discrete H.

    With u = -mbar the equation z = -1/mbar + c int t dH(t)/(1 + t mbar)
    reads u = psi(u)/z, psi(u) = 1 + c sum_j H.moment(j) u^j.  Lagrange
    inversion gives the coefficient of z^-(k+1) in u, the k-th moment of the
    companion law (1-c) delta_0 + c F, as [u^k] psi^(k+1)/(k+1); the law's
    moment is that divided by c (Yin 1986; Bai & Silverstein 2010, ch. 3).
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k == 0:
        return 1.0
    psi = np.array([1.0] + [law.c * law.H.moment(j) for j in range(1, k + 1)])
    power = np.ones(1)
    for _ in range(k + 1):
        power = np.convolve(power, psi)[:k + 1]
    return float(power[k] / (k + 1) / law.c)


def mean_functional_density(law: LimitLaw, g: FunctionalSpec) -> float:
    """Integral of g against the law by the cached midpoint rule."""
    if g.needs_positive_support and _lower_end(law.H, law.c) <= 0:
        raise ConfigError("log functional needs the spectrum bounded away from zero")
    x, q = law.quadrature
    val = float(q @ np.asarray(g(x), dtype=float))
    if law.atom_at_zero > 0:
        val += law.atom_at_zero * float(g(0.0))
    return val


def mean_functional(law: LimitLaw, g: FunctionalSpec) -> float:
    """Integral of g against the limiting law: exact moments for a
    polynomial, the midpoint rule for the log."""
    if g.kind == "poly":
        return float(sum(coef * limit_moments(law, d) for d, coef in enumerate(g.coeffs)))
    return mean_functional_density(law, g)
