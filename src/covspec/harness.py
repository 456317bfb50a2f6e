"""Monte Carlo replication harness and theoretical covariance evaluation.

Every replicate loop runs through ``map_replicates(cfg, fn, R)``, which
calls ``fn(A)`` on each replicate's sample covariance A and stacks the
results.  Replicates are mutually independent, seeded by (seed,
replicate), and may run on any number of worker threads, each drawing into
and multiplying in buffers it reuses from one replicate to the next
(``model.Workspace``); A is that worker's Gram buffer, valid only during
the call.  While they run, numpy's OpenBLAS is pinned to one thread, so
each worker does its linear algebra serially and the results depend
neither on scheduling nor on the BLAS thread setting.  Each caller does
the decomposition its statistic needs: ``run_replications`` evaluates
x* g(A) x by a Lanczos Gauss rule (``eigen.gauss_rule``) where it settles
within n/4 steps and from the full eigendecomposition otherwise,
``bb_samples`` takes the eigenvector weights in eigenvalue order
(``eig_decompose``), and the figures take a Cholesky log-determinant.
Theory comes in two independently computed flavors: a double contour
integral of the covariance kernel on two ellipses around the exact
support, with an error estimate from halving the node count, and the
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .eigen import eig_decompose, gauss_rule
from .functionals import FunctionalSpec, poly_product
from .kernels import contour_nodes, kernel_from_mbar
from .law import LimitLaw, mean_functional
from .model import (ConfigError, ModelConfig, Workspace, build_sample_cov,
                    realize_direction, realize_population)
from .mp import _lower_end, solve_mbar_grid
from .spectrum import SpectralMeasure
from .weighted import weighted_spectrum, y_process

WORKERS_ENV = "COVSPEC_WORKERS"

# (get, set) thread-count entry points: numpy's bundled scipy-openblas with
# its symbol suffix first, then a plain OpenBLAS build
_OPENBLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"))


def _env_workers() -> Optional[int]:
    """COVSPEC_WORKERS as a positive int, None when unset or empty."""
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return None
    if not (env.isdecimal() and int(env) >= 1):
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer (got {env!r})")
    return int(env)


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    return _env_workers() or os.cpu_count() or 1


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


def map_replicates(cfg: ModelConfig, fn: Callable, R: int,
                   workers: Optional[int] = None) -> np.ndarray:
    """``fn(A)`` on replicates 0..R-1, stacked in replicate order (R or R x k).

    A is replicate r's sample covariance, drawn from the stream keyed on
    (cfg.seed, r) into the running thread's Workspace: ``fn`` may read or
    decompose it but must not keep it, and returns a number or a
    fixed-length sequence of numbers.  The loop runs on ``workers`` threads
    (default: COVSPEC_WORKERS, else the CPU count) with numpy's OpenBLAS
    pinned to one thread throughout, so the result is bitwise independent
    of the worker count and, where numpy bundles OpenBLAS, of
    OPENBLAS_NUM_THREADS.
    A failure raises RuntimeError("replicate r failed: ..."), except a
    ConfigError, which passes unchanged.
    """
    local = threading.local()  # one Workspace per thread running replicates

    def one(r: int):
        try:
            if not hasattr(local, "workspace"):
                local.workspace = Workspace(cfg)
            return fn(build_sample_cov(cfg, replicate=r, workspace=local.workspace))
        except ConfigError:
            raise
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

    Entry (r, j) is sqrt(N) * (x* g_j(A) x - integral g_j dF) on replicate
    r, centered at the finite-n limit law, with x* g_j(A) x =
    sum_i w_i g_j(lambda_i) evaluated by the Lanczos Gauss rule, or from
    the full eigendecomposition where the rule does not settle.
    """
    if R < 2:
        raise ConfigError("need at least 2 replications")
    gs = list(gs)
    law = realized_law(cfg)
    if any(g.needs_positive_support for g in gs) and not (0 < cfg.ratio < 1):
        raise ConfigError("log functionals need 0 < n/N < 1")
    means = np.array([mean_functional(law, g) for g in gs])
    rootN = np.sqrt(cfg.N)
    x = realize_direction(cfg.direction, cfg.n)

    def lss(lambdas, weights):
        return [rootN * (np.dot(weights, np.asarray(g(lambdas), dtype=float)) - m)
                for g, m in zip(gs, means)]

    def fn(a):
        rule = gauss_rule(a, x, lss)
        if rule is not None:
            return rule[2]
        ws = weighted_spectrum(eig_decompose(a), x)
        return lss(ws.lambdas, ws.weights)

    return map_replicates(cfg, fn, R, workers=workers)


def estimate_mean_cov(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean vector and unbiased covariance matrix of the rows."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("need an R x k matrix with R >= 2")
    mean = values.mean(axis=0)
    cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    return mean, cov


def theoretical_cov_contour(gs: Sequence[FunctionalSpec], H: SpectralMeasure, c: float,
                            case: str = "real") -> tuple[np.ndarray, float]:
    """Theoretical covariance matrix by double contour integration of the kernel.

    Entry (i, j) integrates gs[i] on the outer and gs[j] on the inner ellipse
    of ``contour_nodes``, which enclose 0 unless a functional is a log; the
    returned real matrix is the symmetric average of the two orders.  The
    transform is solved once on both node sets, and each 1024-row chunk of the node-by-node kernel is evaluated once and
    contracted with every functional pair by matrix products.  Returns
    (matrix, err), err the larger of the largest |Q_M - Q_M/2| and |Im Q_M|,
    where Q_M/2 is the same sum over every other node of both ellipses.
    """
    gs = list(gs)
    log = any(g.needs_positive_support for g in gs)
    if log and _lower_end(H, c) <= 0:
        raise ConfigError("log functional needs the spectrum bounded away from zero")
    (z1, w1), (z2, w2) = contour_nodes(H, c, enclose_zero=not log)
    m1, m2 = np.split(solve_mbar_grid(np.concatenate([z1, z2]), H, c)[0], [z1.size])
    gw1 = np.array([g(z1) * w1 for g in gs])
    gw2 = np.array([g(z2) * w2 for g in gs])
    full = np.zeros((len(gs), len(gs)), dtype=complex)
    half = np.zeros_like(full)
    chunk = 1024
    for start in range(0, z1.size, chunk):
        sl = slice(start, start + chunk)
        k = kernel_from_mbar(z1[sl, None], m1[sl, None], z2[None, :], m2[None, :],
                             c, case=case)
        full += gw1[:, sl] @ (k @ gw2.T)
        # chunks start at even rows, so the chunk's even rows are the global ones
        half += 4.0 * gw1[:, sl][:, ::2] @ (k[::2, ::2] @ gw2[:, ::2].T)
    full, half = -full / (4.0 * np.pi ** 2), -half / (4.0 * np.pi ** 2)
    err = max(float(np.max(np.abs(full - half))), float(np.max(np.abs(full.imag))))
    return (full.real + full.real.T) / 2.0, err


def theoretical_cov_simplified(g1: FunctionalSpec, g2: FunctionalSpec,
                               law: LimitLaw) -> float:
    """Simplified covariance (2/c) * (E[g1 g2] - E[g1] E[g2]) under the law.

    Valid only for a degenerate population spectrum; exact through moments
    for polynomials, density quadrature when logs are involved.  A log
    needs the law bounded away from zero: a point mass there raises.
    """
    if not law.H.is_degenerate:
        raise ValueError("simplified covariance requires a degenerate population spectrum")
    if (g1.needs_positive_support or g2.needs_positive_support) and _lower_end(law.H, law.c) <= 0:
        raise ConfigError("log functional needs the spectrum bounded away from zero")
    if g1.kind == "poly" and g2.kind == "poly":
        cross = mean_functional(law, poly_product(g1, g2))
        m1 = mean_functional(law, g1)
        m2 = mean_functional(law, g2)
    else:
        x, q = law.quadrature
        g1v = np.asarray(g1(x), dtype=float)
        g2v = np.asarray(g2(x), dtype=float)
        cross, m1, m2 = q @ (g1v * g2v), q @ g1v, q @ g2v
    return float(2.0 / law.c * (cross - m1 * m2))


def bb_samples(cfg: ModelConfig, grid: Sequence[float], R: int,
               workers: Optional[int] = None) -> np.ndarray:
    """R x len(grid) matrix of partial-sum process values across replicates."""
    grid = np.asarray(grid, dtype=float)
    x = realize_direction(cfg.direction, cfg.n)

    def fn(a):
        ws = weighted_spectrum(eig_decompose(a), x)
        return [y_process(ws, t) for t in grid]

    return map_replicates(cfg, fn, R, workers=workers)


def bb_covariance(cfg: ModelConfig, grid: Sequence[float], R: int,
                  workers: Optional[int] = None) -> np.ndarray:
    """Empirical covariance of the partial-sum process on a time grid.

    Only meaningful in the exactly-rotation-invariant case: real Gaussian
    entries with a scalar population matrix.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any((grid <= 0) | (grid >= 1)):
        raise ConfigError("grid values must lie strictly inside (0, 1)")
    if cfg.entry_dist != "real-gaussian" or not cfg.population.spectrum.is_degenerate:
        raise ConfigError("bridge check needs real-gaussian entries and a scalar population")
    if R < 2:
        raise ConfigError("need at least 2 replications")
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
    theory_err: Optional[float] = None  # error estimate of theory_cov_contour

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
            "theory_err": self.theory_err,
        }


def run_clt(cfg: ModelConfig, gs: Sequence[FunctionalSpec], R: int,
            workers: Optional[int] = None) -> MCReport:
    """Full verification run: replicate, estimate, and evaluate both theory paths."""
    t0 = time.perf_counter()
    gs = list(gs)
    values = run_replications(cfg, gs, R, workers=workers)
    mean, cov = estimate_mean_cov(values)
    law = realized_law(cfg)
    case = "complex" if cfg.entry_dist == "complex-gaussian" else "real"
    theory, theory_err = theoretical_cov_contour(gs, law.H, law.c, case)
    k = len(gs)
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
        theory_err=theory_err,
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
