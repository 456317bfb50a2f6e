"""Rectangular spectral contours and theoretical covariance kernels.

The limiting Gaussian fluctuation of eigenvector-weighted spectral
statistics has a covariance expressed through the companion transform at
pairs of points off the real axis, taken on rectangles around the support
envelope (``contour_around_support``).  This module evaluates that kernel,
the two auxiliary kernels of its derivation, and the homogeneity residual
that decides whether the simplified (degenerate-population) formula applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mp import solve_mbar, solve_mbar_grid
from .spectrum import SpectralMeasure

_MIN_SEPARATION = 1e-8


@dataclass(frozen=True)
class Contour:
    """Closed rectangle with corners u_l +/- i*v0 and u_r +/- i*v0."""

    u_l: float
    u_r: float
    v0: float
    nodes_per_side: int = 512

    def __post_init__(self):
        if self.u_r <= self.u_l:
            raise ValueError("contour needs u_r > u_l")
        if self.v0 <= 0:
            raise ValueError("contour needs v0 > 0")
        if self.nodes_per_side < 64:
            raise ValueError("insufficient resolution")

    def nodes(self, offset: float = 0.5):
        """Quadrature nodes and complex weights, counterclockwise.

        Midpoint-shifted composite trapezoid per side; the half-step shift
        keeps nodes off the corners and off the real axis, and makes the
        node set conjugate-symmetric for even counts.
        """
        corners = [self.u_l - 1j * self.v0, self.u_r - 1j * self.v0,
                   self.u_r + 1j * self.v0, self.u_l + 1j * self.v0]
        zs, ws = [], []
        nside = self.nodes_per_side
        for k in range(4):
            z0, z1 = corners[k], corners[(k + 1) % 4]
            tt = (np.arange(nside) + offset) / nside
            zs.append(z0 + (z1 - z0) * tt)
            ws.append(np.full(nside, (z1 - z0) / nside))
        return np.concatenate(zs), np.concatenate(ws)

    def encloses(self, other: "Contour") -> bool:
        return (self.u_l < other.u_l and self.u_r > other.u_r
                and self.v0 > other.v0)

    def intersects(self, other: "Contour") -> bool:
        """True unless one rectangle strictly contains the other."""
        return not (self.encloses(other) or other.encloses(self))


def contour_around_support(H: SpectralMeasure, c: float, margin: float = 0.05,
                           v0: float = 1.0, nodes_per_side: int = 512) -> Contour:
    """Rectangle around the envelope [t_min(1-sqrt(c))^2, t_max(1+sqrt(c))^2] with a margin.

    The envelope contains the exact support (``mp.support``); rectangles on
    the exact hull were 5-10x less accurate at 512 nodes per side against an
    8192-node reference.  For c >= 1 the envelope starts at zero and u_l
    goes negative by the margin relative to the upper edge.
    """
    if c <= 0:
        raise ValueError("ratio c must be positive")
    root = np.sqrt(c)
    lo = H.t_min * (1.0 - root) ** 2 if c < 1 else 0.0
    hi = H.t_max * (1.0 + root) ** 2
    u_r = hi * (1.0 + margin)
    u_l = lo * (1.0 - margin) if lo > 0 else -margin * hi
    return Contour(u_l=u_l, u_r=u_r, v0=v0, nodes_per_side=nodes_per_side)


def contour_pair(H: SpectralMeasure, c: float, nodes_per_side: int = 512) -> tuple[Contour, Contour]:
    """Default disjoint pair: a nested inner rectangle inside an outer one."""
    outer = contour_around_support(H, c, margin=0.08, v0=1.0, nodes_per_side=nodes_per_side)
    inner = contour_around_support(H, c, margin=0.04, v0=0.5, nodes_per_side=nodes_per_side)
    return outer, inner


def kernel_from_mbar(z1, mbar1, z2, mbar2, c: float, case: str = "real"):
    """Covariance kernel assembled from precomputed transform values.

    Broadcasts over arrays; the 'complex' case is half the 'real' one.
    """
    num = (z2 * mbar2 - z1 * mbar1) ** 2
    den = c ** 2 * z1 * z2 * (z2 - z1) * (mbar2 - mbar1)
    k = 2.0 * num / den
    if case == "real":
        return k
    if case == "complex":
        return k / 2.0
    raise ValueError("case must be 'real' or 'complex'")


def cov_kernel(z1: complex, z2: complex, H: SpectralMeasure, c: float,
               case: str = "real") -> complex:
    """Covariance kernel of the limiting Gaussian spectral process at (z1, z2)."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1 - z2) < _MIN_SEPARATION:
        raise ValueError("use offset contours")
    m1 = solve_mbar(z1, H, c).mbar
    m2 = solve_mbar(z2, H, c).mbar
    if abs(m1 - m2) < 1e-14:
        raise ValueError("transform values coincide; use offset contours")
    return complex(kernel_from_mbar(z1, m1, z2, m2, c, case))


@dataclass(frozen=True)
class ProofKernels:
    """The two auxiliary kernels, each in integral and algebraic form."""

    d_integral: complex
    d_algebraic: complex
    h_integral: complex
    h_algebraic: complex

    @property
    def d(self) -> complex:
        return self.d_integral

    @property
    def h(self) -> complex:
        return self.h_integral


def proof_kernels(z1: complex, z2: complex, H: SpectralMeasure, c: float) -> ProofKernels:
    """Auxiliary kernels d and h whose ratio h/(1-d) rebuilds the covariance kernel.

    d = c * integral t^2 m1 m2 / ((1+t m1)(1+t m2)) dH
      = 1 + m1 m2 (z1 - z2) / (m2 - m1),
    h = (m1 m2 / (z1 z2)) * (integral t / ((1+t m1)(1+t m2)) dH)^2
      = (m1 m2 / (z1 z2)) * ((z1 m1 - z2 m2) / (c (m2 - m1)))^2.
    """
    z1, z2 = complex(z1), complex(z2)
    if abs(z1 - z2) < _MIN_SEPARATION:
        raise ValueError("use offset contours")
    m1 = solve_mbar(z1, H, c).mbar
    m2 = solve_mbar(z2, H, c).mbar
    if abs(m1 - m2) < 1e-14:
        raise ValueError("transform values coincide; use offset contours")
    t, w = H.atoms, H.weights
    f1 = 1.0 + t * m1
    f2 = 1.0 + t * m2
    d_int = c * np.sum(w * t * t * m1 * m2 / (f1 * f2))
    d_alg = 1.0 + m1 * m2 * (z1 - z2) / (m2 - m1)
    cross = np.sum(w * t / (f1 * f2))
    h_int = (m1 * m2 / (z1 * z2)) * cross ** 2
    h_alg = (m1 * m2 / (z1 * z2)) * ((z1 * m1 - z2 * m2) / (c * (m2 - m1))) ** 2
    return ProofKernels(d_integral=complex(d_int), d_algebraic=complex(d_alg),
                        h_integral=complex(h_int), h_algebraic=complex(h_alg))


def homogeneity_residual(z1: complex, z2: complex, H: SpectralMeasure, c: float) -> complex:
    """Defect of the product rule for 1/(1+t*mbar); zero iff H is a point mass.

    Returns integral dH/((1+t m1)(1+t m2)) minus the product of the two
    single-argument integrals.  Choosing z2 = conj(z1) makes it a real,
    strictly positive Cauchy-Schwarz defect for any non-degenerate H.
    """
    z1, z2 = complex(z1), complex(z2)
    if abs(z1 - z2) < _MIN_SEPARATION:
        raise ValueError("use offset contours")
    m1 = solve_mbar(z1, H, c).mbar
    m2 = solve_mbar(z2, H, c).mbar
    t, w = H.atoms, H.weights
    f1 = 1.0 + t * m1
    f2 = 1.0 + t * m2
    joint = np.sum(w / (f1 * f2))
    return complex(joint - np.sum(w / f1) * np.sum(w / f2))


def mbar_on_nodes(contour: Contour, H: SpectralMeasure, c: float):
    """Companion transform on the contour's quadrature nodes."""
    z, w = contour.nodes()
    mbar, _, _ = solve_mbar_grid(z, H, c)
    return z, w, mbar
