"""Random matrix model: population realization, directions, sample covariance.

The model draws an n x N matrix X of i.i.d. standardized entries, and forms
the sample covariance A = (1/N) T^(1/2) X X* T^(1/2) for a diagonal
nonnegative population matrix T realized from a discrete spectral measure.
Replicates are seeded through a counter-based generator keyed on
(seed, replicate) so results never depend on execution order.  A
``Workspace`` holds one worker's buffers for a block of replicates: one draw
buffer that every replicate of the block is drawn into, and the block's
stacked Grams.  It is reused from one block to the next without changing
any value; ``sample_cov_block`` fills it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectrum import SpectralMeasure

ENTRY_DISTS = ("real-gaussian", "complex-gaussian", "rademacher", "uniform-rescaled")

_SQRT3 = np.sqrt(3.0)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class ConfigError(ValueError):
    """A configuration the model or the theory cannot take; maps to exit code 2."""


def _is_int(v) -> bool:
    # a bool is an int to Python, but true or false must not pass as 1 or 0
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class PopulationSpec:
    """Population covariance description: the spectral measure of T."""

    spectrum: SpectralMeasure

    @classmethod
    def identity(cls) -> "PopulationSpec":
        return cls(SpectralMeasure.point(1.0))


@dataclass(frozen=True)
class DirectionSpec:
    """How to pick the fixed unit vector the eigenvector weights project onto.

    ``basis(i)`` gives the i-th standard basis vector, ``uniform()`` the
    constant vector (1,...,1)/sqrt(n), ``custom(v)`` normalizes ``v``.
    """

    kind: str
    index: int = 0
    vector: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("basis", "uniform", "custom"):
            raise ValueError(f"unknown direction kind {self.kind!r}")
        if self.kind == "custom":
            if self.vector is None or len(self.vector) == 0:
                raise ValueError("custom direction needs a vector")

    @classmethod
    def basis(cls, index: int = 0) -> "DirectionSpec":
        return cls(kind="basis", index=index)

    @classmethod
    def uniform(cls) -> "DirectionSpec":
        return cls(kind="uniform")

    @classmethod
    def custom(cls, vector) -> "DirectionSpec":
        return cls(kind="custom", vector=tuple(np.asarray(vector).tolist()))


@dataclass(frozen=True)
class ModelConfig:
    """Full experiment description for one sample covariance draw."""

    n: int
    N: int
    entry_dist: str
    population: PopulationSpec
    direction: DirectionSpec
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 1):
            raise ConfigError("n must be >= 1")
        if not (_is_int(self.N) and self.N >= 1):
            raise ConfigError("N must be >= 1")
        if self.entry_dist not in ENTRY_DISTS:
            raise ConfigError(f"entries must be one of {ENTRY_DISTS} (got {self.entry_dist!r})")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must be a 64-bit unsigned integer")

    @property
    def ratio(self) -> float:
        """Dimension-to-sample ratio c_n = n/N."""
        return self.n / self.N


def replicate_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    """Counter-based generator for one replicate, keyed on (seed, replicate)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate),))
    return np.random.Generator(np.random.Philox(ss))


def realize_population(spec: PopulationSpec, n: int) -> np.ndarray:
    """Diagonal of T: atom multiplicities by largest-remainder rounding of n*w.

    Ties among remainders go to the smaller atom.  Raises if n is smaller
    than the number of atoms carrying positive weight.
    """
    meas = spec.spectrum
    k = meas.atoms.size
    if n < k:
        raise ConfigError("dimension too small")
    ideal = n * meas.weights
    counts = np.floor(ideal).astype(int)
    leftover = n - counts.sum()
    if leftover > 0:
        remainders = ideal - counts
        # stable sort on (-remainder, atom): largest remainder first, ties to smaller atom
        order = np.lexsort((meas.atoms, -remainders))
        counts[order[:leftover]] += 1
    return np.repeat(meas.atoms, counts)


def realize_direction(spec: DirectionSpec, n: int) -> np.ndarray:
    """Unit vector of length n according to the direction spec."""
    if spec.kind == "basis":
        if not (0 <= spec.index < n):
            raise ConfigError(f"basis index {spec.index} out of range for n={n}")
        x = np.zeros(n)
        x[spec.index] = 1.0
        return x
    if spec.kind == "uniform":
        return np.full(n, 1.0 / np.sqrt(n))
    v = np.asarray(spec.vector, dtype=complex if np.iscomplexobj(spec.vector) else float)
    if v.size != n:
        raise ConfigError(f"custom vector has length {v.size}, expected {n}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigError("custom direction vector is zero")
    return v / norm


def entry_dtype(entry_dist: str) -> np.dtype:
    """The dtype an entry law draws: complex for complex-gaussian, else float."""
    return np.dtype(complex if entry_dist == "complex-gaussian" else float)


def draw_entries(entry_dist: str, n: int, N: int, rng: np.random.Generator,
                 out: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """n x N matrix of i.i.d. entries with mean 0 and unit second absolute moment.

    ``out`` (C-ordered n x N, of dtype ``entry_dtype(entry_dist)``)
    receives the draw in place; complex-gaussian draws its real and
    imaginary parts through ``scratch`` (C-ordered n x N float).  Each is
    allocated when not given; the values do not depend on it.
    """
    if entry_dist not in ENTRY_DISTS:
        raise ValueError(f"unknown entry distribution {entry_dist!r}")
    if out is None:
        out = np.empty((n, N), dtype=entry_dtype(entry_dist))
    if entry_dist == "real-gaussian":
        rng.standard_normal(out=out)
    elif entry_dist == "complex-gaussian":
        scratch = np.empty((n, N)) if scratch is None else scratch
        for part in (out.real, out.imag):
            rng.standard_normal(out=scratch)
            np.multiply(scratch, _INV_SQRT2, out=part)
    elif entry_dist == "rademacher":
        np.multiply(rng.integers(0, 2, size=(n, N)), 2.0, out=out)
        out -= 1.0
    else:  # uniform-rescaled: uniform on [-sqrt 3, sqrt 3)
        rng.random(out=out)
        out *= 2.0 * _SQRT3
        out -= _SQRT3
    return out


class Workspace:
    """Buffers one worker reuses for the sample covariances of one config.

    Holds the population root (None when T = I), one n x N entry buffer
    (for complex entries also an n x N float draw buffer and an n x N
    conjugate buffer), shared by the replicates of a block, and the
    stacked size x n x n Grams of a block of up to ``size`` replicates:
    each replicate is drawn into the one entry buffer, and only its Gram
    is kept.  One thread at a time may use it.
    """

    def __init__(self, cfg: ModelConfig, dtype=None, size: int = 1):
        draw = entry_dtype(cfg.entry_dist)
        dtype = draw if dtype is None else np.dtype(dtype)
        n, N = cfg.n, cfg.N
        tdiag = realize_population(cfg.population, n)
        self.root = None if np.all(tdiag == 1.0) else np.sqrt(tdiag)[:, None]
        self.entries = np.empty((n, N), dtype)
        self.scratch = np.empty((n, N)) if draw.kind == "c" else None
        self.conj = np.empty((n, N), dtype) if dtype.kind == "c" else None
        self.gram = np.empty((size, n, n), dtype)

    @staticmethod
    def replicate_bytes(cfg: ModelConfig) -> int:
        """Bytes the buffers above grow by per replicate of a block: one Gram
        of the config's entries."""
        return entry_dtype(cfg.entry_dist).itemsize * cfg.n * cfg.n


def _gram(cfg: ModelConfig, ws: Workspace, out: np.ndarray) -> np.ndarray:
    """The sample covariance of the draw in ``ws.entries``, written to ``out``."""
    y = ws.entries
    if ws.root is not None:
        y *= ws.root
    y_conj = y if ws.conj is None else np.conjugate(y, out=ws.conj)
    a = np.matmul(y, y_conj.T, out=out)
    a /= cfg.N
    # force exact Hermitian symmetry against roundoff; the real product
    # (a symmetric rank-k update) already has it, and for real a the
    # conjugate transpose is a view of a, so nothing is copied
    a_h = a.conj().T
    if (a != a_h).any():
        a += a_h
        a /= 2.0
    return a


def sample_cov_block(cfg: ModelConfig, replicates: range, ws: Workspace) -> np.ndarray:
    """Stacked sample covariances of ``replicates``, b x n x n for b of them.

    Replicate r draws from the stream keyed on (cfg.seed, r), so each
    matrix is bitwise the one ``build_sample_cov`` gives it, whatever block
    it comes in.  The stack is the Gram buffer of ``ws`` (of size b or
    more), overwritten by its next use.
    """
    b = len(replicates)
    if ws.gram.shape[0] < b:
        raise ValueError(f"workspace holds {ws.gram.shape[0]} replicates, "
                         f"fewer than the block's {b}")
    for a, r in zip(ws.gram, replicates):
        draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, r),
                     out=ws.entries, scratch=ws.scratch)
        _gram(cfg, ws, a)
    return ws.gram[:b]


def build_sample_cov(cfg: ModelConfig, replicate: int = 0,
                     entries: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample covariance A = (1/N) T^(1/2) X X* T^(1/2), Hermitian nonnegative.

    The Gram step of ``sample_cov_block`` for one replicate, on fresh buffers.
    ``entries`` overrides the random draw with a fixed n x N matrix (test
    hook).
    """
    if entries is None:
        ws = Workspace(cfg)
        draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, replicate),
                     out=ws.entries, scratch=ws.scratch)
    else:
        entries = np.asarray(entries)
        if entries.shape != (cfg.n, cfg.N):
            raise ValueError(f"entries must have shape {(cfg.n, cfg.N)}")
        ws = Workspace(cfg, dtype=np.result_type(entries, float))
        ws.entries[...] = entries
    return _gram(cfg, ws, ws.gram[0])


def companion_sample_cov(cfg: ModelConfig, replicate: int = 0) -> np.ndarray:
    """The N x N companion (1/N) X* T X sharing the nonzero spectrum of A."""
    tdiag = realize_population(cfg.population, cfg.n)
    rng = replicate_rng(cfg.seed, replicate)
    x = draw_entries(cfg.entry_dist, cfg.n, cfg.N, rng)
    y = np.sqrt(tdiag)[:, None] * x
    b = (y.conj().T @ y) / cfg.N
    return (b + b.conj().T) / 2.0
