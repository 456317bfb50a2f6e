"""Monte Carlo replication harness and theoretical covariance evaluation.

Every replicate loop runs through ``map_replicates``.  Replicates are
mutually independent, seeded by (seed, replicate), and may run on any
number of worker threads, each drawing into and multiplying in buffers it
reuses from one replicate to the next (``model.Workspace``); while they
run, numpy's OpenBLAS is pinned to one thread, so each worker does its
linear algebra serially and the results depend neither on scheduling nor
on the BLAS thread setting.  Theory comes in two independently computed
flavors: a double contour integral of the covariance kernel, and the
simplified variance formula available when the population spectrum is a
single point mass.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .eigen import cholesky_logdet, eig_decompose
from .functionals import FunctionalSpec, poly_product
from .kernels import Contour, contour_pair, kernel_from_mbar, mbar_on_nodes
from .law import LimitLaw, _density_integral, mean_functional
from .model import (ModelConfig, Workspace, build_sample_cov, realize_direction,
                    realize_population)
from .mp import solve_mbar, support_interval
from .spectrum import SpectralMeasure
from .weighted import weighted_spectrum, y_process

WORKERS_ENV = "COVSPEC_WORKERS"
IMAG_WARN = 1e-6  # contour covariance imaginary residue that triggers a warning

# (get, set) thread-count entry points: numpy's bundled scipy-openblas with
# its symbol suffix first, then a plain OpenBLAS build
_OPENBLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"))


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@functools.cache
def _find_openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(os.path.realpath(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _BlasPin:
    """Holds numpy's OpenBLAS at one thread while any replicate loop runs.

    The OpenBLAS thread count is process-wide, so this bookkeeping is too:
    the first loop to enter saves the count and sets 1, the last to leave
    restores it.  The library is looked up on first use, not at import.
    Without an OpenBLAS the loops run unpinned.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    @contextmanager
    def pinned(self):
        api = _find_openblas()
        if api is None:
            yield
            return
        get, set_ = api
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_BLAS = _BlasPin()


@dataclass(frozen=True)
class Statistic:
    """A per-replicate statistic and the decomposition it needs.

    ``needs="weights"``: ``fn`` gets the WeightedSpectrum of the config's
    direction, from ``eig_decompose`` (with its self-checks) and
    ``weighted_spectrum``.  ``needs="logdet"``: ``fn`` gets log det A from a
    Cholesky factorization.  ``fn`` returns a number or a fixed-length
    sequence of numbers.
    """

    needs: str
    fn: Callable

    def __post_init__(self):
        if self.needs not in ("weights", "logdet"):
            raise ValueError(f"statistic needs 'weights' or 'logdet' (got {self.needs!r})")


def map_replicates(cfg: ModelConfig, stat: Statistic, R: int,
                   workers: Optional[int] = None) -> np.ndarray:
    """``stat`` on replicates 0..R-1, stacked in replicate order (R or R x k).

    Replicate r draws from the stream keyed on (cfg.seed, r).  The loop runs
    on ``workers`` threads (default: COVSPEC_WORKERS, else the CPU count),
    each reusing one Workspace for its draws and products, with numpy's
    OpenBLAS pinned to one thread throughout, so the result is
    bitwise independent of the worker count and, where numpy bundles
    OpenBLAS, of OPENBLAS_NUM_THREADS.
    A failure raises RuntimeError("replicate r failed: ...").
    """
    x = realize_direction(cfg.direction, cfg.n) if stat.needs == "weights" else None
    local = threading.local()  # one Workspace per thread running replicates

    def one(r: int):
        try:
            if stat.needs == "logdet" and cfg.n > cfg.N:  # A has rank at most N < n
                raise ValueError("singular sample covariance")
            if not hasattr(local, "workspace"):
                local.workspace = Workspace(cfg)
            a = build_sample_cov(cfg, replicate=r, workspace=local.workspace)
            if stat.needs == "logdet":
                return stat.fn(cholesky_logdet(a))
            return stat.fn(weighted_spectrum(eig_decompose(a), x))
        except Exception as exc:
            raise RuntimeError(f"replicate {r} failed: {exc}") from exc

    nworkers = _worker_count(workers)
    with _BLAS.pinned():
        if nworkers == 1:
            rows = [one(r) for r in range(R)]
        else:
            pool = ThreadPoolExecutor(max_workers=nworkers)
            try:
                rows = list(pool.map(one, range(R)))
            finally:
                pool.shutdown(cancel_futures=True)
    return np.asarray(rows, dtype=float)


def realized_law(cfg: ModelConfig) -> LimitLaw:
    """Limit law at the realized ratio n/N and realized population measure."""
    tdiag = realize_population(cfg.population, cfg.n)
    return LimitLaw(c=cfg.n / cfg.N, H=SpectralMeasure.empirical(tdiag))


def run_replications(cfg: ModelConfig, gs: Sequence[FunctionalSpec], R: int,
                     workers: Optional[int] = None) -> np.ndarray:
    """R x k matrix of linear spectral statistics, one replicate per row.

    Entry (r, j) is sqrt(N) * (sum_i w_i g_j(lambda_i) - integral g_j dF)
    on replicate r, centered at the finite-n limit law.
    """
    if R < 2:
        raise ValueError("need at least 2 replications")
    gs = list(gs)
    law = realized_law(cfg)
    if any(g.needs_positive_support for g in gs) and not (0 < cfg.ratio < 1):
        raise ValueError("log functionals need 0 < n/N < 1")
    means = np.array([mean_functional(law, g) for g in gs])
    rootN = np.sqrt(cfg.N)

    def lss(ws):
        return [rootN * (np.dot(ws.weights, np.asarray(g(ws.lambdas), dtype=float)) - m)
                for g, m in zip(gs, means)]

    return map_replicates(cfg, Statistic("weights", lss), R, workers=workers)


def estimate_mean_cov(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean vector and unbiased covariance matrix of the rows."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("need an R x k matrix with R >= 2")
    mean = values.mean(axis=0)
    cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    return mean, cov


def _contour_cov(gs1: Sequence[FunctionalSpec], gs2: Sequence[FunctionalSpec],
                 H: SpectralMeasure, c: float, contour1: Contour, contour2: Contour,
                 case: str) -> np.ndarray:
    """Complex matrix whose entry (i, j) pairs gs1[i] on contour1 with gs2[j] on contour2.

    One pass over the kernel: the transform is solved once per contour, and
    each 1024-row chunk of the node-by-node kernel is evaluated once and
    contracted with every functional pair by matrix products.
    """
    if contour1.intersects(contour2):
        raise ValueError("contours intersect; use nested rectangles")
    lo, hi = support_interval(H, c)
    needs_positive = any(g.needs_positive_support for g in (*gs1, *gs2))
    for cont in (contour1, contour2):
        if not (cont.u_l < lo if lo > 0 else cont.u_l < 0) or cont.u_r <= hi:
            raise ValueError("contour does not enclose the support")
        if needs_positive and cont.u_l <= 0:
            raise ValueError("log functional needs contours with u_l > 0")
    z1, w1, m1 = mbar_on_nodes(contour1, H, c)
    z2, w2, m2 = mbar_on_nodes(contour2, H, c)
    gw1 = np.array([g(z1) * w1 for g in gs1])
    gw2 = np.array([g(z2) * w2 for g in gs2])
    total = np.zeros((len(gs1), len(gs2)), dtype=complex)
    chunk = 1024
    for start in range(0, z1.size, chunk):
        sl = slice(start, start + chunk)
        k = kernel_from_mbar(z1[sl, None], m1[sl, None], z2[None, :], m2[None, :],
                             c, case=case)
        total += gw1[:, sl] @ (k @ gw2.T)
    return -total / (4.0 * np.pi ** 2)


def _real_part(val: complex, imag_warn: float) -> float:
    if abs(val.imag) > imag_warn:
        warnings.warn(f"contour covariance imaginary residue {val.imag:.2e}")
    return float(val.real)


def theoretical_cov_contour(g1: FunctionalSpec, g2: FunctionalSpec,
                            H: SpectralMeasure, c: float,
                            contour1: Optional[Contour] = None,
                            contour2: Optional[Contour] = None,
                            case: str = "real",
                            imag_warn: float = IMAG_WARN) -> float:
    """Theoretical covariance by double contour integration of the kernel.

    The two rectangles must be disjoint (one strictly inside the other),
    both enclosing the support.  Composite trapezoid on midpoint-shifted
    nodes; the conjugate-symmetric node sets make the imaginary part cancel,
    and any residue beyond ``imag_warn`` triggers a warning.  g1 is
    integrated on contour1, g2 on contour2.
    """
    if contour1 is None or contour2 is None:
        c1, c2 = contour_pair(H, c)
        contour1 = contour1 or c1
        contour2 = contour2 or c2
    cov = _contour_cov([g1], [g2], H, c, contour1, contour2, case)
    return _real_part(cov[0, 0], imag_warn)


def theoretical_cov_simplified(g1: FunctionalSpec, g2: FunctionalSpec,
                               law: LimitLaw) -> float:
    """Simplified covariance (2/c) * (E[g1 g2] - E[g1] E[g2]) under the law.

    Valid only for a degenerate population spectrum; exact through moments
    for polynomials, density quadrature when logs are involved.
    """
    if not law.H.is_degenerate:
        raise ValueError("simplified covariance requires a degenerate population spectrum")
    if g1.kind == "poly" and g2.kind == "poly":
        cross = mean_functional(law, poly_product(g1, g2))
        m1 = mean_functional(law, g1)
        m2 = mean_functional(law, g2)
    else:
        x, _ = law.density_grid
        g1v = np.asarray(g1(x), dtype=float)
        g2v = np.asarray(g2(x), dtype=float)
        cross = _density_integral(law, g1v * g2v)
        m1 = _density_integral(law, g1v)
        m2 = _density_integral(law, g2v)
    return float(2.0 / law.c * (cross - m1 * m2))


def bb_samples(cfg: ModelConfig, grid: Sequence[float], R: int,
               workers: Optional[int] = None) -> np.ndarray:
    """R x len(grid) matrix of partial-sum process values across replicates."""
    grid = np.asarray(grid, dtype=float)
    stat = Statistic("weights", lambda ws: [y_process(ws, t) for t in grid])
    return map_replicates(cfg, stat, R, workers=workers)


def bb_covariance(cfg: ModelConfig, grid: Sequence[float], R: int,
                  workers: Optional[int] = None) -> np.ndarray:
    """Empirical covariance of the partial-sum process on a time grid.

    Only meaningful in the exactly-rotation-invariant case: real Gaussian
    entries with a scalar population matrix.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any((grid <= 0) | (grid >= 1)):
        raise ValueError("grid values must lie strictly inside (0, 1)")
    if cfg.entry_dist != "real-gaussian" or not cfg.population.spectrum.is_degenerate:
        raise ValueError("bridge check needs real-gaussian entries and a scalar population")
    samples = bb_samples(cfg, grid, R, workers=workers)
    return np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))


def bb_target(grid: Sequence[float]) -> np.ndarray:
    """Brownian-bridge covariance min(s,t) - s*t on the grid."""
    g = np.asarray(grid, dtype=float)
    return np.minimum(g[:, None], g[None, :]) - g[:, None] * g[None, :]


@dataclass
class MCReport:
    """Summary of one Monte Carlo covariance verification run."""

    R: int
    functionals: list
    sample_mean: np.ndarray
    sample_cov: np.ndarray
    theory_cov_contour: np.ndarray
    theory_cov_simplified: Optional[np.ndarray]
    standard_errors: np.ndarray
    n: int
    N: int
    seed: int
    entry_dist: str
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "R": self.R,
            "functionals": list(self.functionals),
            "sample_mean": self.sample_mean.tolist(),
            "sample_cov": self.sample_cov.tolist(),
            "theory_cov_contour": self.theory_cov_contour.tolist(),
            "theory_cov_simplified": (None if self.theory_cov_simplified is None
                                      else self.theory_cov_simplified.tolist()),
            "standard_errors": self.standard_errors.tolist(),
            "n": self.n,
            "N": self.N,
            "seed": self.seed,
            "entry_dist": self.entry_dist,
            "wall_time": self.wall_time,
        }


def run_clt(cfg: ModelConfig, gs: Sequence[FunctionalSpec], R: int,
            workers: Optional[int] = None, nodes_per_side: int = 512) -> MCReport:
    """Full verification run: replicate, estimate, and evaluate both theory paths."""
    t0 = time.perf_counter()
    gs = list(gs)
    values = run_replications(cfg, gs, R, workers=workers)
    mean, cov = estimate_mean_cov(values)
    law = realized_law(cfg)
    case = "complex" if cfg.entry_dist == "complex-gaussian" else "real"
    k = len(gs)
    theory = np.empty((k, k))
    c1, c2 = contour_pair(law.H, law.c, nodes_per_side=nodes_per_side)
    contour = _contour_cov(gs, gs, law.H, law.c, c1, c2, case)
    for i in range(k):
        for j in range(i, k):
            theory[i, j] = theory[j, i] = _real_part(contour[i, j], IMAG_WARN)
    simplified = None
    if law.H.is_degenerate:
        simplified = np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                val = theoretical_cov_simplified(gs[i], gs[j], law)
                if case == "complex":
                    val /= 2.0
                simplified[i, j] = simplified[j, i] = val
    return MCReport(
        R=R,
        functionals=[g.label for g in gs],
        sample_mean=mean,
        sample_cov=cov,
        theory_cov_contour=theory,
        theory_cov_simplified=simplified,
        standard_errors=np.sqrt(np.diag(cov) / R),
        n=cfg.n,
        N=cfg.N,
        seed=cfg.seed,
        entry_dist=cfg.entry_dist,
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class Tolerances:
    abs_tol: float = 0.0
    rel_tol: float = 0.0

    @classmethod
    def monte_carlo(cls, R: int) -> "Tolerances":
        # 3 standard errors of a variance estimate plus a finite-n allowance
        return cls(abs_tol=0.0, rel_tol=3.0 * np.sqrt(2.0 / R) + 0.10)


@dataclass
class CompareVerdict:
    passed: bool
    failures: list


def compare_report(mc: MCReport, tolerances: Tolerances) -> CompareVerdict:
    """Entrywise |sample - theory| <= abs_tol + rel_tol*|theory| verdict."""
    sample = np.asarray(mc.sample_cov)
    theory = np.asarray(mc.theory_cov_contour)
    if sample.shape != theory.shape:
        raise ValueError("sample and theory covariance shapes differ")
    failures = []
    k = sample.shape[0]
    for i in range(k):
        for j in range(k):
            bound = tolerances.abs_tol + tolerances.rel_tol * abs(theory[i, j])
            if abs(sample[i, j] - theory[i, j]) > bound:
                failures.append({"entry": (i, j), "sample": float(sample[i, j]),
                                 "theory": float(theory[i, j]), "bound": float(bound)})
    return CompareVerdict(passed=not failures, failures=failures)


def direction_condition_gap(tdiag: np.ndarray, x: np.ndarray, mbar: complex, N: int) -> float:
    """Finite-n mismatch between the direction's resolvent weight and its average.

    sqrt(N) * | x*(mbar T + I)^(-1) x  -  integral dH_n/(mbar t + 1) |;
    identically zero for scalar T, required to vanish asymptotically for the
    Gaussian limit to hold for a given (population, direction) pair.
    """
    tdiag = np.asarray(tdiag, dtype=float)
    lhs = np.sum(np.abs(x) ** 2 / (mbar * tdiag + 1.0))
    h = SpectralMeasure.empirical(tdiag)
    rhs = np.sum(h.weights / (mbar * h.atoms + 1.0))
    return float(np.sqrt(N) * abs(lhs - rhs))


def condition_profile(population, direction, c: float, z: complex,
                      ns: Sequence[int] = (100, 200, 400)) -> list[float]:
    """Direction-condition gap across dimensions; warns if it is not decreasing."""
    gaps = []
    for n in ns:
        N = int(round(n / c))
        tdiag = realize_population(population, n)
        x = realize_direction(direction, n)
        h = SpectralMeasure.empirical(tdiag)
        sol = solve_mbar(z, h, n / N)
        gaps.append(direction_condition_gap(tdiag, x, sol.mbar, N))
    if any(b > a for a, b in zip(gaps, gaps[1:])):
        warnings.warn(f"direction-condition gap is not decreasing across n={tuple(ns)}: {gaps}")
    return gaps
