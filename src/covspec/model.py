"""Random matrix model: population realization, directions, sample covariance.

The model draws an n x N matrix X of i.i.d. standardized entries, and forms
the sample covariance A = (1/N) T^(1/2) X X* T^(1/2) for a diagonal
nonnegative population matrix T realized from a discrete spectral measure.
Each replicate draws from its own SFC64 stream, keyed on (seed, replicate)
through ``SeedSequence``, so results never depend on execution order.  The
draw fills X in stream order, so a config reads the first n*N draws of its
replicate's stream: as in the paper, where every X_n is the upper-left
corner of one double array, the configs of one seed and entry law are
nested prefixes of one stream, and one draw serves them all.  A
``Workspace`` holds one worker's buffers for one config and a block of
replicates: one draw buffer that every replicate of the block is drawn
into, and the block's stacked Grams.  It is reused from one block to the
next without changing any value; ``sample_cov_block`` fills the workspaces
of a block's configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    """The generator of one replicate: SFC64 seeded by ``SeedSequence`` keyed on
    (seed, replicate).

    The stream is a function of the pair alone, so no output depends on the
    worker count, the block size or the order replicates run in.  SFC64 is
    the cheapest of numpy's bit generators per normal, and the draw is the
    largest cost of a replicate.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate),))
    return np.random.Generator(np.random.SFC64(ss))


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
    if not np.all(np.isfinite(v)):
        raise ConfigError("custom direction vector must be finite")
    # an exact power of two brings the largest real or imaginary part into [1/2, 1):
    # the norm cannot overflow or underflow, and v / norm keeps its bits wherever
    # nothing underflows; a factor 2**-e would overflow for a subnormal largest part
    parts = v.view(float)
    v = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(v.dtype)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigError("custom direction vector is zero")
    return v / norm


def entry_dtype(entry_dist: str) -> np.dtype:
    """The dtype an entry law draws: complex for complex-gaussian, else float."""
    return np.dtype(complex if entry_dist == "complex-gaussian" else float)


def draw_entries(entry_dist: str, n: int, N: int, rng: np.random.Generator,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """n x N matrix of i.i.d. entries with mean 0 and unit second absolute moment.

    ``out`` (C-ordered n x N, of dtype ``entry_dtype(entry_dist)``)
    receives the draw in place; it is allocated when not given, and the
    values do not depend on it.  complex-gaussian fills the real and
    imaginary parts of each entry in turn, in one pass over the stream.
    """
    if entry_dist not in ENTRY_DISTS:
        raise ValueError(f"unknown entry distribution {entry_dist!r}")
    if out is None:
        out = np.empty((n, N), dtype=entry_dtype(entry_dist))
    if entry_dist == "real-gaussian":
        rng.standard_normal(out=out)
    elif entry_dist == "complex-gaussian":
        rng.standard_normal(out=out.view(np.float64))
        out *= _INV_SQRT2
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
    of the entry law's dtype (for complex entries also an n x N conjugate
    buffer), shared by a block, and the stacked size x n x n Grams of a
    block of up to ``size`` replicates: each replicate is drawn into (or
    copied from a larger config's draw into) the one entry buffer, and
    only its Gram is kept.  One thread at a time may use it.
    """

    def __init__(self, cfg: ModelConfig, size: int = 1):
        dtype = entry_dtype(cfg.entry_dist)
        n, N = cfg.n, cfg.N
        tdiag = realize_population(cfg.population, n)
        self.root = None if np.all(tdiag == 1.0) else np.sqrt(tdiag)[:, None]
        self.entries = np.empty((n, N), dtype)
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


def sample_cov_block(cfgs: Sequence[ModelConfig], replicates: range,
                     workspaces: Sequence[Workspace]) -> list[np.ndarray]:
    """Stacked sample covariances of ``replicates`` for each config, one
    b x n x n stack per config for b replicates.

    The configs share one seed and entry law.  Replicate r's stream, keyed
    on (seed, r), is drawn once, into the entry buffer of the config with
    the most entries; each other config copies the first n*N of them, which
    are bitwise its own draw because ``draw_entries`` fills its output in
    stream order.  The copies come before any Gram, which scales its
    entries by T^(1/2) in place.  So each matrix is bitwise the one
    ``build_sample_cov`` gives it, whatever block or configs it comes with.
    Each stack is the Gram buffer of its config's workspace (of size b or
    more), overwritten by its next use.
    """
    b = len(replicates)
    for ws in workspaces:
        if ws.gram.shape[0] < b:
            raise ValueError(f"workspace holds {ws.gram.shape[0]} replicates, "
                             f"fewer than the block's {b}")
    sizes = [cfg.n * cfg.N for cfg in cfgs]
    head = sizes.index(max(sizes))
    cfg, entries = cfgs[head], workspaces[head].entries
    flat = entries.reshape(-1)
    copies = [(ws.entries.reshape(-1), size)
              for i, (ws, size) in enumerate(zip(workspaces, sizes)) if i != head]
    for j, r in enumerate(replicates):
        draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, r), out=entries)
        for dest, size in copies:
            dest[...] = flat[:size]
        for c, ws in zip(cfgs, workspaces):
            _gram(c, ws, ws.gram[j])
    return [ws.gram[:b] for ws in workspaces]


def build_sample_cov(cfg: ModelConfig, replicate: int = 0,
                     entries: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample covariance A = (1/N) T^(1/2) X X* T^(1/2), Hermitian nonnegative.

    The Gram step of ``sample_cov_block`` for one replicate, on fresh buffers.
    ``entries`` overrides the random draw with a fixed n x N matrix of the
    entry law's dtype (``entry_dtype``); it is a test hook.
    """
    ws = Workspace(cfg)
    if entries is None:
        draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, replicate),
                     out=ws.entries)
    else:
        entries = np.asarray(entries)
        if entries.shape != ws.entries.shape or entries.dtype != ws.entries.dtype:
            raise ValueError(f"entries must be a {(cfg.n, cfg.N)} array of {ws.entries.dtype}")
        ws.entries[...] = entries
    return _gram(cfg, ws, ws.gram[0])
