"""Reference code the tests compare the package against, each by an independent
route; no command or benchmark calls it (``tests/test_package_surface.py``)."""

from dataclasses import dataclass
from math import comb

import numpy as np

import covspec.kernels
from covspec.kernels import kernel_from_mbar
from covspec.law import LimitLaw
from covspec.model import ModelConfig, draw_entries, realize_population, replicate_rng
from covspec.mp import solve_mbar_grid
from covspec.spectrum import SpectralMeasure
from covspec.weighted import WeightedSpectrum

_MIN_SEPARATION = 1e-8


def _mbar_pair(z1, z2, H: SpectralMeasure, c: float):
    """(z1, z2, mbar(z1), mbar(z2)) from one solve; rejects near-coincident points."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1 - z2) < _MIN_SEPARATION:
        raise ValueError("use offset contours")
    m1, m2 = solve_mbar_grid(np.array([z1, z2]), LimitLaw(c=c, H=H))[0]
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
    upper half-plane.
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


def narayana_moment(k, c, t):
    """k-th moment of the Marchenko-Pastur law of ratio c scaled by t: t^k
    sum_r C(k, r) C(k-1, r) c^r / (r+1), the Narayana polynomial."""
    return t ** k * sum(comb(k, r) * comb(k - 1, r) / (r + 1) * c ** r for r in range(k))


def mp_closed_density(x, c):
    a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.maximum((b - x) * (x - a), 0.0)) / (2 * np.pi * c * x)
    return out


def total_mass(law) -> float:
    """Mass of a LimitLaw: its point mass at zero plus the masses of its midpoint rule."""
    return law.atom_at_zero + float(law.quadrature[1].sum())


def resolvent_quad_form(a: np.ndarray, x: np.ndarray, z: complex) -> complex:
    """x* (A - zI)^(-1) x via a direct shifted linear solve.

    Independent of any eigendecomposition; requires Im z != 0.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("shift must be off the real axis")
    a = np.asarray(a)
    n = a.shape[0]
    shifted = a.astype(complex, copy=True)
    shifted[np.diag_indices(n)] -= z
    try:
        w = np.linalg.solve(shifted, np.asarray(x, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("shifted solve failed") from exc
    return complex(np.vdot(x, w))


def eval_cdf(ws: WeightedSpectrum, x: float) -> float:
    """Right-continuous step CDF: total weight on eigenvalues <= x."""
    k = np.searchsorted(ws.lambdas, x, side="right")
    return float(ws.weights[:k].sum())


def companion_sample_cov(cfg: ModelConfig, replicate: int = 0) -> np.ndarray:
    """The N x N companion (1/N) X* T X sharing the nonzero spectrum of A."""
    tdiag = realize_population(cfg.population, cfg.n)
    rng = replicate_rng(cfg.seed, replicate)
    x = draw_entries(cfg.entry_dist, cfg.n, cfg.N, rng)
    y = np.sqrt(tdiag)[:, None] * x
    b = (y.conj().T @ y) / cfg.N
    return (b + b.conj().T) / 2.0


def perturbed_contour(monkeypatch, node_factor=1, rho_power=1.0):
    """Make contour_nodes use node_factor times the nodes, or rho**rho_power
    with the node count the rule gives for it."""
    ellipses = covspec.kernels._ellipses

    def replaced(a, b, rho, M):
        if rho_power != 1.0:
            rho = rho ** rho_power
            M = min(2048, 2 * int(np.ceil(54.0 / np.log(rho))))
        return ellipses(a, b, rho, M * node_factor)

    monkeypatch.setattr(covspec.kernels, "_ellipses", replaced)


class Reciprocal:
    """g(x) = 1/x, a functional the package does not build in: a callable with
    the kind, label and needs_positive_support that the theory reads.  Its
    pole at 0 must stay outside the contour, as the log's branch point does."""

    kind = "reciprocal"
    label = "1/x"
    needs_positive_support = True

    def __call__(self, x):
        return 1.0 / np.asarray(x)


class Entire:
    """A g analytic on the whole plane that the package does not build in
    (exp, or the constant 1): a callable with the kind, label and
    needs_positive_support that the theory reads.  Its mean counts the
    law's point mass at zero."""

    needs_positive_support = False

    def __init__(self, label, fn):
        self.kind = self.label = label
        self.fn = fn

    def __call__(self, x):
        return self.fn(np.asarray(x))


EXP = Entire("exp", np.exp)
ONE = Entire("1", lambda x: np.ones_like(x * 1.0))


def logdet_moments(n: int, N: int) -> tuple[float, float]:
    """Exact mean and variance of W = log det A, A = X X^T / N with X an n x N
    matrix of real standard Gaussian entries (T = I).

    By Bartlett's decomposition N^n det A is a product of independent
    chi-square variables with N - i + 1 degrees of freedom, i = 1..n
    (Muirhead 1982, Thm 3.2.14), and log chi2_k has mean psi(k/2) + log 2
    and variance psi'(k/2).
    """
    from scipy.special import digamma, polygamma  # a test-only dependency

    half = (N - np.arange(1, n + 1) + 1) / 2.0
    mean = float(np.sum(digamma(half) + np.log(2.0)) - n * np.log(N))
    return mean, float(np.sum(polygamma(1, half)))
