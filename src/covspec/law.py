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
the positive atoms is 1).  The midpoint rule in theta, on the node count
that the contour ellipses take too (``_node_count``), therefore converges
geometrically, and the distribution function is the cosine interpolant of
the same samples of h, integrated term by term.  It adds the point mass at
zero, max(w_0, 1 - 1/c) for a zero atom of weight w_0.  A LimitLaw is
frozen, and the solver (``mp``) takes the law, so c is checked once.  It
keeps its support (``LimitLaw.bulk``), which the rule, the density, the
window and the contour's lower focus (``LimitLaw.lower_focus``, the one
check of the functionals' domain) read, and its rule, built under a lock;
each is made on first use, and the distribution function takes its
coefficients from the rule at each call.  A polynomial's mean is a sum of
exact moments, from the power series of mbar in 1/z (``limit_moments``),
and needs neither; any other mean is one dot product with the rule's masses.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functionals import FunctionalSpec
from .model import ConfigError
from .mp import _upper_root, support
from .spectrum import SpectralMeasure

# padding of the density window beyond the support, as a share of its width
_WINDOW_PAD = 0.05
# bound on queries * terms per block of a sine-series evaluation
_SERIES_ENTRIES = 1 << 16
_MAX_NODES = 2048
# the periodic rules in the angle of an ellipse with foci a, b (the contour's
# trapezoid rule, the density's midpoint rule) err like a power of rho^(-M),
# rho the ellipse parameter of the nearest singularity: M = 2*54/ln(rho)
# puts that power at e^-36 or below
_DECAY = 54.0


@dataclass(frozen=True)
class LimitLaw:
    """Limiting sample-spectrum distribution for ratio c and population H.

    The support (``bulk``) is solved on first use, and so are the quadrature
    nodes and their masses, under a lock and published together; nothing
    else is cached.  Instances are frozen and safe to share across threads.
    """

    c: float
    H: SpectralMeasure
    # (x, q, pieces), set once by ensure_grids
    _grids: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"ratio c must be finite and positive (got {self.c!r})")

    @property
    def atom_at_zero(self) -> float:
        """Point mass at zero: max(w_0, 1 - 1/c), w_0 the weight of a zero atom."""
        return max(float(self.H.weights[self.H.atoms == 0].sum()), 1.0 - 1.0 / self.c)

    @functools.cached_property
    def bulk(self) -> tuple[tuple[float, float], ...]:
        """The exact support, ``mp.support(law)``, solved once."""
        return support(self)

    def lower_focus(self, gs) -> float:
        """Lower focus of the contour ellipses for the functionals gs: 0 unless
        some g needs positive support (the log's branch point at 0), else the
        law's lowest point, which must not be 0.  The kernel is analytic at 0,
        and a focus there keeps rho at 2 where a lower edge near 0 would push
        rho towards 1 and M past its cap: for H = delta_1 at c = 0.999 capped
        ellipses around the support miss the polynomial covariances by 1.4
        times the largest entry."""
        if not any(g.needs_positive_support for g in gs):
            return 0.0
        if self.atom_at_zero > 0 or self.bulk[0][0] <= 0:
            raise ConfigError("log functional needs the spectrum bounded away from zero")
        return self.bulk[0][0]

    def bulk_window(self) -> tuple[float, float]:
        """Interval around the support, padded by a share of its width, never below 0."""
        lo, hi = self.bulk[0][0], self.bulk[-1][1]
        span = hi - lo
        return max(lo - _WINDOW_PAD * span, lo / 2.0), hi + _WINDOW_PAD * span

    def ensure_grids(self) -> tuple:
        if self._grids is None:
            with self._lock:
                if self._grids is None:
                    object.__setattr__(self, "_grids", _midpoint_rule(self))
        return self._grids

    @property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes x and masses q: the integral of v against the density is q @ v(x)."""
        x, q, _ = self.ensure_grids()
        return x, q

    def integral(self, v) -> float:
        """Integral of v against the law: the midpoint rule on the bulk, plus
        the point mass at zero times v(0) where there is one."""
        x, q = self.quadrature
        val = float(q @ np.asarray(v(x), dtype=float))
        if self.atom_at_zero > 0:
            val += self.atom_at_zero * float(v(0.0))
        return val


def _node_count(a: float, b: float) -> tuple[float, int]:
    """(rho, M) of a periodic rule around [a, b]: rho the parameter of the
    ellipse with foci a, b through 0, capped at 2 (2 when a = 0), and
    M = min(2048, 2*ceil(54/ln rho))."""
    rho = 2.0
    if a > 0:
        rho = min((np.sqrt(b) + np.sqrt(a)) / (np.sqrt(b) - np.sqrt(a)), 2.0)
    return rho, min(_MAX_NODES, 2 * int(np.ceil(_DECAY / np.log(rho))))


def _midpoint_rule(law: LimitLaw) -> tuple:
    """(x, q, pieces): on each support interval (a, b), M nodes
    x_j = a + (b-a) sin^2(theta_j/2) at theta_j = pi (j+1/2)/M with masses
    q_j = (pi/M) h_j, h_j = (b-a)/2 sin(theta_j) f(x_j); pieces holds
    (a, b, h) per interval.  All densities come from one call."""
    bulk = law.bulk
    thetas = [np.pi * (np.arange(M) + 0.5) / M for M in (_node_count(a, b)[1] for a, b in bulk)]
    # a + (b-a) sin^2(theta/2) is (a+b)/2 - (b-a)/2 cos(theta), accurate next to a
    xs = [a + (b - a) * np.sin(theta / 2.0) ** 2 for (a, b), theta in zip(bulk, thetas)]
    f = density(np.concatenate(xs), law)
    fs = np.split(f, np.cumsum([theta.size for theta in thetas])[:-1])
    pieces = tuple((a, b, (b - a) / 2.0 * np.sin(theta) * fi)
                   for (a, b), theta, fi in zip(bulk, thetas, fs))
    q = np.concatenate([np.pi / h.size * h for _, _, h in pieces])
    return np.concatenate(xs), q, pieces


def _mass_to_angle(h, theta) -> np.ndarray:
    """Mass of an interval up to each angle theta, clipped to [0, c0 pi]: the
    integral from 0 of the cosine interpolant of h at its M midpoint angles,
    c0 theta + sum_k (a_k/k) sin(k theta), with c0 the mean of h and c0 pi
    the interval's mass, the sum of its q.

    a_k = (2/M) sum_j h_j cos(k theta_j) is a DCT-II, taken from the FFT of
    h followed by its mirror image.  The sines come by angle addition in
    blocks of b = floor(sqrt M) terms: the block from k0 adds
    sin(k0 theta) sum_j cos(j theta) a_(k0+j)/(k0+j) + cos(k0 theta) sum_j
    sin(j theta) a_(k0+j)/(k0+j) over j < b, so each theta takes about
    4 sqrt M sines and cosines instead of M.  The angles go in chunks of
    bounded size.
    """
    M = h.size
    k = np.arange(1, M)
    spectrum = np.fft.fft(np.concatenate([h, h[::-1]]))[1:M]
    coef = (np.exp(-0.5j * np.pi * k / M) * spectrum).real / (M * k)
    b = math.isqrt(M)
    blocks = -(-k.size // b)
    # column i holds the coefficients of the block from k0 = 1 + i b, zero-padded
    by_block = np.zeros(blocks * b)
    by_block[:k.size] = coef
    by_block = by_block.reshape(blocks, b).T
    j, k0 = np.arange(b), 1 + b * np.arange(blocks)
    step = max(1, _SERIES_ENTRIES // max(b, blocks))
    series = np.empty(theta.size)
    for start in range(0, theta.size, step):
        t = theta[start:start + step, None]
        jt, kt = t * j, t * k0
        series[start:start + step] = (np.sin(kt) * (np.cos(jt) @ by_block)
                                      + np.cos(kt) * (np.sin(jt) @ by_block)).sum(axis=1)
    c0 = h.sum() / M
    return np.clip(c0 * theta + series, 0.0, c0 * np.pi)


def density(x, law: LimitLaw):
    """Density of the limiting law at x (scalar or array), nonnegative.

    Strictly inside an interval of the exact support (``LimitLaw.bulk``),
    f(x) = max(0, Im mbar(x))/(c*pi), mbar the root of the equation at real
    x with the largest imaginary part; elsewhere, edges included, f is 0.
    At zero f is +inf where the lower edge is zero, and zero is rejected if
    the law has a point mass there.
    """
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    bulk = law.bulk
    at_zero = xx == 0
    out = np.zeros_like(xx)
    if np.any(at_zero):
        zero_edge = bulk[0][0] == 0
        if law.atom_at_zero > 0 and not zero_edge:
            raise ConfigError("density undefined at the point mass at zero; use cdf_limit")
        out[at_zero] = np.inf if zero_edge else 0.0
    inside = np.any([(xx > a) & (xx < b) for a, b in bulk], axis=0)
    mbar, _, _ = _upper_root(xx[inside], law)
    out[inside] = np.maximum(mbar.imag, 0.0) / (law.c * np.pi)
    return float(out[0]) if scalar else out


def cdf_limit(x, law: LimitLaw):
    """Distribution function of the limiting law at x, in [0, 1]: on each
    support interval (a, b) of the rule, the integral of the cosine
    interpolant of its h up to the angle of x, plus the point mass at zero."""
    scalar = np.isscalar(x)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    cont = np.zeros(xx.shape)
    for a, b, h in law.ensure_grids()[2]:
        inside = (xx > a) & (xx < b)
        theta = np.arccos(np.clip((a + b - 2.0 * xx[inside]) / (b - a), -1.0, 1.0))
        cont[inside] += _mass_to_angle(h, theta)
        cont[xx >= b] += h.sum() / h.size * np.pi
    out = np.minimum(np.clip(cont, 0.0, 1.0) + law.atom_at_zero * (xx >= 0), 1.0)
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


def mean_functional(law: LimitLaw, g: FunctionalSpec) -> float:
    """Integral of g against the limiting law: exact moments for a
    polynomial, ``LimitLaw.integral`` for any other g."""
    if g.kind == "poly":
        return float(sum(coef * limit_moments(law, d) for d, coef in enumerate(g.coeffs)))
    law.lower_focus([g])  # refuses a log where the law reaches 0
    return law.integral(g)
