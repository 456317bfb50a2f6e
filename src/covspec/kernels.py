"""Elliptic contours around the exact support and theoretical covariance kernels.

The limiting Gaussian fluctuation of eigenvector-weighted spectral
statistics has a covariance expressed through the companion transform at
pairs of points off the real axis, integrated over two nested contours
around the support (Bai & Silverstein 2004).  The contours are confocal
ellipses with foci the upper support edge and the law's lower focus for
the functionals (``LimitLaw.lower_focus``: the lower edge where a log is
integrated, else 0), with the periodic trapezoid rule on each; it converges
geometrically in the ellipse parameter (Trefethen & Weideman 2014), so the
node count follows from the law (``contour_nodes``, by ``law._node_count``).
``kernel_from_mbar`` evaluates the kernel from transform values at the
nodes, on the real-entry scale; ``harness.run_clt`` divides by beta = 2
for complex entries (Bai & Silverstein 2004).  The kernel at one pair of
points, the two auxiliary kernels of its derivation and the homogeneity
residual are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .law import LimitLaw, _node_count


def contour_nodes(law: LimitLaw, gs):
    """Nodes and weights ((z_out, w_out), (z_in, w_in)) of the contour ellipses for gs.

    Both ellipses have foci a and b: b the upper support edge and a the
    law's lower focus for gs (``LimitLaw.lower_focus``), its lowest point
    where a log is integrated and 0 otherwise.  With rho the ellipse
    parameter at which the ellipse reaches 0, capped at 2 (2 when a = 0),
    the outer ellipse has parameter rho^(2/3) and the inner rho^(1/3), so
    the support, the other ellipse and 0 each lie at least a factor
    rho^(1/3) away from either ellipse in that parameter.  Each carries
    M = min(2048, 2*ceil(54/ln rho)) nodes at theta_j = 2 pi (j+1/2)/M,
    z = centre + half (r e^(i theta) + e^(-i theta)/r)/2, counterclockwise,
    with weights dz/dtheta * 2 pi/M; the node sets are conjugate-symmetric.
    """
    a, b = law.lower_focus(gs), law.bulk[-1][1]
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
