"""Elliptic contours around the exact support and theoretical covariance kernels.

The limiting Gaussian fluctuation of eigenvector-weighted spectral
statistics has a covariance expressed through the companion transform at
pairs of points off the real axis, integrated over two nested contours
around the support (Bai & Silverstein 2004).  The contours are confocal
ellipses whose foci are the exact support ends (``mp.support``), or 0 and
the upper end where no log is integrated, with the periodic trapezoid
rule on each; that rule converges geometrically in the
ellipse parameter (Trefethen & Weideman 2014), so the node count follows
from H and c (``contour_nodes``).  This module also evaluates the kernel,
the two auxiliary kernels of its derivation, and the homogeneity residual
that decides whether the simplified (degenerate-population) formula applies.
All are on the real-entry scale; ``harness.run_clt`` divides by beta = 2
for complex entries (Bai & Silverstein 2004).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mp import _lower_end, _node_count, solve_mbar_grid, support
from .spectrum import SpectralMeasure

_MIN_SEPARATION = 1e-8


def contour_nodes(H: SpectralMeasure, c: float, enclose_zero: bool = False):
    """Nodes and weights ((z_out, w_out), (z_in, w_in)) of the two contour ellipses.

    Both ellipses have foci a and b: b the upper support edge, a the lower
    one, or 0 when the law has a point mass there or ``enclose_zero`` is
    set.  With rho the ellipse parameter at which the ellipse reaches 0,
    capped at 2 (2 when a = 0), the outer ellipse has parameter rho^(2/3)
    and the inner rho^(1/3), so the support, the other ellipse and 0 each
    lie at least a factor rho^(1/3) away from either ellipse in that
    parameter.  Each carries M = min(2048, 2*ceil(54/ln rho)) nodes at
    theta_j = 2 pi (j+1/2)/M, z = centre + half (r e^(i theta) +
    e^(-i theta)/r)/2, counterclockwise, with weights dz/dtheta * 2 pi/M;
    the node sets are conjugate-symmetric.

    The covariance kernel is analytic at 0, so ``enclose_zero`` suits every
    integrand but the log, whose branch point must stay outside.  It keeps
    rho at 2 where a lower edge close to 0 would push rho towards 1 and M
    past its cap: for H = delta_1 at c = 0.999 the capped ellipses around
    (a, b) miss the polynomial covariances by 1.4 times the largest entry.
    """
    a, b = 0.0 if enclose_zero else _lower_end(H, c), support(H, c)[-1][1]
    # each ellipse sits a factor rho^(1/3) from its nearest singularity, so the
    # trapezoid rule on M nodes errs like rho^(-M/3): e^-36 at the M of _node_count
    return _ellipses(a, b, *_node_count(a, b))


def _ellipses(a: float, b: float, rho: float, M: int):
    """The ellipses with foci a, b and parameters rho^(2/3), rho^(1/3), M nodes each."""
    theta = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    centre, half = (a + b) / 2.0, (b - a) / 2.0
    ellipses = []
    for r in (rho ** (2.0 / 3.0), rho ** (1.0 / 3.0)):
        e = r * np.exp(1j * theta)
        z = centre + half * (e + 1.0 / e) / 2.0
        w = 1j * half * (e - 1.0 / e) / 2.0 * (2.0 * np.pi / M)
        ellipses.append((z, w))
    return tuple(ellipses)


def kernel_from_mbar(z1, mbar1, z2, mbar2, c: float):
    """Covariance kernel (real-entry scale) from precomputed transform values; broadcasts."""
    num = (z2 * mbar2 - z1 * mbar1) ** 2
    den = c ** 2 * z1 * z2 * (z2 - z1) * (mbar2 - mbar1)
    return 2.0 * num / den


def _mbar_pair(z1, z2, H: SpectralMeasure, c: float):
    """(z1, z2, mbar(z1), mbar(z2)) from one solve; rejects near-coincident points."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1 - z2) < _MIN_SEPARATION:
        raise ValueError("use offset contours")
    m1, m2 = solve_mbar_grid(np.array([z1, z2]), H, c)[0]
    return z1, z2, complex(m1), complex(m2)


def cov_kernel(z1: complex, z2: complex, H: SpectralMeasure, c: float) -> complex:
    """Covariance kernel (real-entry scale) of the limiting Gaussian process at (z1, z2)."""
    z1, z2, m1, m2 = _mbar_pair(z1, z2, H, c)
    if abs(m1 - m2) < 1e-14:
        raise ValueError("transform values coincide; use offset contours")
    return complex(kernel_from_mbar(z1, m1, z2, m2, c))


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
    z1, z2, m1, m2 = _mbar_pair(z1, z2, H, c)
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
    _, _, m1, m2 = _mbar_pair(z1, z2, H, c)
    t, w = H.atoms, H.weights
    f1 = 1.0 + t * m1
    f2 = 1.0 + t * m2
    joint = np.sum(w / (f1 * f2))
    return complex(joint - np.sum(w / f1) * np.sum(w / f2))
