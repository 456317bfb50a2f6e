"""Monte Carlo replication harness and theoretical covariance evaluation.

Every replicate loop runs through ``map_replicates(cfg, fn, R)``, which
splits replicates 0..R-1 into fixed blocks, calls ``fn`` once on each
block's stacked sample covariances and stacks the rows it returns.  The
block size B = max(1, floor(BLOCK_BYTES / bytes of one replicate's Gram))
depends only on n, N and the entry distribution: 3 at n = 200, N = 400,
13 at n = 100, N = 500.  Replicates are mutually independent, seeded by
(seed, replicate), and blocks may run on any number of worker threads,
each drawing every replicate of its block into one draw buffer and
writing the replicate's Gram into the block's stack, in buffers it reuses
from one block to the next (``model.Workspace``); the stack is that
worker's Gram buffer, valid only during the call.  While they run,
numpy's OpenBLAS is pinned to one thread, so each worker does its linear
algebra serially and the results depend neither on scheduling nor on the
BLAS thread setting.  Each caller does the decomposition its statistic
needs once per block, on the stack: ``run_replications`` evaluates
x* g(A) x by a Lanczos Gauss rule (``eigen.gauss_rule``) where it settles
within n/4 steps and by ``eig_decompose`` of the matrices it leaves.  Its
statistic has the contract of ``fn``, a stack in and one row per matrix
out: the rule calls it once per decomposition on the (m, k) Ritz values
and weights of its m running matrices, the fall-back once on its spectra.
``bb_samples`` takes the eigenvector weights in eigenvalue order
(``eig_decompose``), and the figures a Cholesky log-determinant.
Theory comes in two independently computed flavors, each returning the
whole k x k matrix for k functionals, whose domain the law checks
(``LimitLaw.lower_focus``): a double contour integral of the covariance
kernel around the exact support, with an error estimate from halving the
node count, and the simplified variance formula at a one-atom population.
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
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .eigen import eig_decompose, gauss_rule
from .functionals import FunctionalSpec
from .kernels import contour_nodes, kernel_from_mbar
from .law import LimitLaw, mean_functional
from .model import (ConfigError, ModelConfig, Workspace, _is_int, entry_dtype,
                    realize_direction, realize_population, sample_cov_block)
from .mp import solve_mbar_grid
from .spectrum import SpectralMeasure
from .weighted import weighted_spectrum, y_process

WORKERS_ENV = "COVSPEC_WORKERS"

BLOCK_BYTES = 1 << 20  # budget for the stacked Grams of one block of replicates

# contour-kernel rows per block (even): keeps the kernel's temporaries near 64 x M
_KERNEL_ROWS = 64

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
        if not (_is_int(workers) and workers >= 1):
            raise ConfigError(f"workers must be a positive integer (got {workers!r})")
        return int(workers)
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


def _block_size(cfg: ModelConfig) -> int:
    """Replicates per block: as many as fit their Grams in BLOCK_BYTES, and
    at least one.  It depends only on n, N and the entry distribution,
    never on R or the worker count."""
    return max(1, BLOCK_BYTES // Workspace.replicate_bytes(cfg))


def map_replicates(cfg: ModelConfig, fn: Callable, R: int,
                   workers: Optional[int] = None) -> np.ndarray:
    """``fn`` on the stacked sample covariances of each block of replicates
    0..R-1, its rows stacked in replicate order (R or R x k).

    Block b holds replicates [bB, min(R, (b+1)B)), with B = ``_block_size``:
    max(1, floor(BLOCK_BYTES / bytes of one replicate's Gram)).  A block
    draws each replicate r from the stream keyed on (cfg.seed, r) into the
    running thread's Workspace and writes its Gram into the block's stack
    (``model.sample_cov_block``), and calls ``fn`` once on the b x n x n
    stack.  ``fn`` may read or decompose the stack but must not keep it,
    and returns b rows, each a number or a fixed-length sequence of
    numbers.  The blocks run on ``workers`` threads (default:
    COVSPEC_WORKERS, else the CPU count) with numpy's OpenBLAS pinned to one
    thread throughout, so the result is bitwise independent of the worker
    count and, where numpy bundles OpenBLAS, of OPENBLAS_NUM_THREADS.
    A failure raises RuntimeError("replicate r failed: ..."): a block that
    fails is rerun one matrix at a time, so r names the replicate.  A
    ConfigError passes unchanged.
    """
    B = _block_size(cfg)
    local = threading.local()  # one Workspace per thread running blocks

    def run(block: range) -> np.ndarray:
        try:
            if not hasattr(local, "workspace"):
                local.workspace = Workspace(cfg, size=min(B, R))
            rows = np.asarray(fn(sample_cov_block(cfg, block, local.workspace)), dtype=float)
            if rows.shape[:1] != (len(block),):
                raise ValueError(f"fn gave shape {rows.shape} for {len(block)} matrices, "
                                 f"not one row each")
        except ConfigError:
            raise
        except Exception as exc:
            if len(block) == 1:
                raise RuntimeError(f"replicate {block.start} failed: {exc}") from exc
            return np.concatenate([run(range(r, r + 1)) for r in block])
        return rows

    blocks = [range(start, min(R, start + B)) for start in range(0, R, B)]
    nworkers = min(_worker_count(workers), len(blocks))
    with _BLAS.pinned():
        if nworkers <= 1:
            rows = [run(block) for block in blocks]
        else:
            pool = ThreadPoolExecutor(max_workers=nworkers)
            try:
                rows = list(pool.map(run, blocks))
            finally:
                pool.shutdown(cancel_futures=True)
    return np.concatenate(rows) if rows else np.empty(0)


def realized_law(cfg: ModelConfig) -> LimitLaw:
    """Limit law at the realized ratio n/N and realized population measure."""
    tdiag = realize_population(cfg.population, cfg.n)
    return LimitLaw(c=cfg.n / cfg.N, H=SpectralMeasure.empirical(tdiag))


def run_replications(cfg: ModelConfig, gs: Sequence[FunctionalSpec], R: int,
                     workers: Optional[int] = None, *,
                     law: Optional[LimitLaw] = None) -> np.ndarray:
    """R x k matrix of linear spectral statistics, one replicate per row.

    Entry (r, j) is sqrt(N) * (x* g_j(A) x - integral g_j dF) on replicate
    r, centered at the finite-n limit law (``law``, by default
    ``realized_law(cfg)``), with x* g_j(A) x = sum_i w_i g_j(lambda_i)
    evaluated by the Lanczos Gauss rule, one call per block of replicates,
    or by one eigendecomposition of the matrices where it does not settle.
    """
    if R < 2:
        raise ConfigError("need at least 2 replications")
    gs = list(gs)
    if not gs:
        raise ConfigError("need at least one functional")
    law = realized_law(cfg) if law is None else law
    means = np.array([mean_functional(law, g) for g in gs])
    rootN = np.sqrt(cfg.N)
    x = realize_direction(cfg.direction, cfg.n)

    def lss(lambdas, weights):
        sums = [np.vecdot(weights, np.asarray(g(lambdas), dtype=float)) for g in gs]
        return rootN * (np.stack(sums, axis=-1) - means)

    def rows(stack):
        rules = gauss_rule(stack, x, lss)
        left = [rule is None for rule in rules]
        if any(left):  # one decomposition for the matrices the rule leaves
            ws = weighted_spectrum(eig_decompose(stack[left]), x)
            fallback = iter(lss(ws.lambdas, ws.weights))
        return [next(fallback) if rule is None else rule[2] for rule in rules]

    return map_replicates(cfg, rows, R, workers=workers)


def estimate_mean_cov(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean vector and unbiased covariance matrix of the rows."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("need an R x k matrix with R >= 2")
    mean = values.mean(axis=0)
    cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    return mean, cov


def theoretical_cov_contour(gs: Sequence[FunctionalSpec],
                            law: LimitLaw) -> tuple[np.ndarray, float]:
    """Theoretical covariance matrix (real-entry scale) by double contour integration.

    Entry (i, j) integrates gs[i] on the outer and gs[j] on the inner ellipse
    of ``contour_nodes(law, gs)``, which enclose 0 unless a functional is a log; the
    returned real matrix is the symmetric average of the two orders.  The
    transform is solved once on both node sets.  The node-by-node kernel is
    evaluated in blocks of 64 rows, so memory stays near 64 x M entries at
    any node count M; each block is contracted with the inner functionals
    at once, and the outer functionals contract the M x k result by one
    matrix product at the end.  Returns (matrix, err), err the
    larger of the largest |Q_M - Q_M/2| and |Im Q_M|, where Q_M/2 is the
    same sum over every other node of both ellipses.
    """
    gs = list(gs)
    if not gs:
        raise ConfigError("need at least one functional")
    (z1, w1), (z2, w2) = contour_nodes(law, gs)
    m1, m2 = np.split(solve_mbar_grid(np.concatenate([z1, z2]), law)[0], [z1.size])
    gw1 = np.array([g(z1) * w1 for g in gs])
    gw2 = np.array([g(z2) * w2 for g in gs])
    # kernel rows contracted with the inner functionals: every node, and
    # every other node of both ellipses for the half rule
    kg = np.empty((z1.size, len(gs)), dtype=complex)
    kg_half = np.empty(((z1.size + 1) // 2, len(gs)), dtype=complex)
    for start in range(0, z1.size, _KERNEL_ROWS):
        sl = slice(start, start + _KERNEL_ROWS)
        k = kernel_from_mbar(z1[sl, None], m1[sl, None], z2[None, :], m2[None, :], law.c)
        kg[sl] = k @ gw2.T
        # blocks start at even rows, so the block's even rows are the global ones
        kg_half[start // 2:(start + _KERNEL_ROWS) // 2] = k[::2, ::2] @ gw2[:, ::2].T
    full = -(gw1 @ kg) / (4.0 * np.pi ** 2)
    half = -(4.0 * gw1[:, ::2] @ kg_half) / (4.0 * np.pi ** 2)
    err = max(float(np.max(np.abs(full - half))), float(np.max(np.abs(full.imag))))
    return (full.real + full.real.T) / 2.0, err


def theoretical_cov_simplified(gs: Sequence[FunctionalSpec], law: LimitLaw) -> np.ndarray:
    """Simplified covariance matrix, entry (i, j) = (2/c) * (E[g_i g_j] - E[g_i] E[g_j]).

    Real-entry scale, valid only for a degenerate population spectrum; exact
    through moments for a pair of polynomials, ``LimitLaw.integral`` (means
    included) for any other pair.  A log needs the law bounded away from zero: a point
    mass there raises, from ``LimitLaw.lower_focus``.
    """
    if not law.H.is_degenerate:
        raise ValueError("simplified covariance requires a degenerate population spectrum")
    gs = list(gs)
    means = [mean_functional(law, g) for g in gs]
    cov = np.empty((len(gs), len(gs)))
    for i, j in zip(*np.triu_indices(len(gs))):
        if gs[i].kind == "poly" and gs[j].kind == "poly":
            product = FunctionalSpec.poly(np.convolve(gs[i].coeffs, gs[j].coeffs))
            cross, m1, m2 = mean_functional(law, product), means[i], means[j]
        else:
            gi, gj = gs[i], gs[j]
            cross = law.integral(lambda x: gi(x) * gj(x))
            m1, m2 = law.integral(gi), law.integral(gj)
        cov[i, j] = cov[j, i] = 2.0 / law.c * (cross - m1 * m2)
    return cov


def bb_samples(cfg: ModelConfig, grid: Sequence[float], R: int) -> np.ndarray:
    """R x len(grid) matrix of partial-sum process values across replicates."""
    grid = np.asarray(grid, dtype=float)
    x = realize_direction(cfg.direction, cfg.n)

    def rows(stack):
        ws = weighted_spectrum(eig_decompose(stack), x)
        return np.stack([y_process(ws, t) for t in grid], axis=-1)

    return map_replicates(cfg, rows, R)


def bb_covariance(cfg: ModelConfig, grid: Sequence[float], R: int) -> np.ndarray:
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
    samples = bb_samples(cfg, grid, R)
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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def run_clt(cfg: ModelConfig, gs: Sequence[FunctionalSpec], R: int) -> MCReport:
    """Full verification run: evaluate both theory paths, then replicate and
    estimate.  The theory is on the real-entry scale; for complex entries
    (beta = 2) the report holds it and ``theory_err`` halved, exactly.  The
    theory comes first, so a law it cannot solve fails before any replicate."""
    t0 = time.perf_counter()
    gs = list(gs)
    law = realized_law(cfg)  # built once: it gives both theories and centres the replicates
    beta = 2.0 if entry_dtype(cfg.entry_dist).kind == "c" else 1.0
    theory, theory_err = theoretical_cov_contour(gs, law)
    simplified = theoretical_cov_simplified(gs, law) / beta if law.H.is_degenerate else None
    values = run_replications(cfg, gs, R, law=law)
    mean, cov = estimate_mean_cov(values)
    return MCReport(
        R=R,
        functionals=[g.label for g in gs],
        sample_mean=mean,
        sample_cov=cov,
        theory_cov_contour=theory / beta,
        theory_cov_simplified=simplified,
        standard_errors=np.sqrt(np.diag(cov) / R),
        n=cfg.n,
        N=cfg.N,
        seed=cfg.seed,
        entry_dist=cfg.entry_dist,
        wall_time=time.perf_counter() - t0,
        theory_err=theory_err / beta,
    )


@dataclass(frozen=True)
class Tolerances:
    rel_tol: float = 0.0

    @classmethod
    def monte_carlo(cls, R: int) -> "Tolerances":
        # 3 standard errors of a variance estimate plus a finite-n allowance
        return cls(rel_tol=3.0 * np.sqrt(2.0 / R) + 0.10)


@dataclass
class CompareVerdict:
    passed: bool
    failures: list


def compare_report(mc: MCReport, tolerances: Tolerances) -> CompareVerdict:
    """Entrywise |sample - theory| <= rel_tol*|theory| verdict."""
    sample = np.asarray(mc.sample_cov)
    theory = np.asarray(mc.theory_cov_contour)
    if sample.shape != theory.shape:
        raise ValueError("sample and theory covariance shapes differ")
    failures = []
    k = sample.shape[0]
    for i in range(k):
        for j in range(k):
            bound = tolerances.rel_tol * abs(theory[i, j])
            if abs(sample[i, j] - theory[i, j]) > bound:
                failures.append({"entry": (i, j), "sample": float(sample[i, j]),
                                 "theory": float(theory[i, j]), "bound": float(bound)})
    return CompareVerdict(passed=not failures, failures=failures)
