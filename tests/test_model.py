import numpy as np
import pytest

from covspec import (ENTRY_DISTS, ConfigError, DirectionSpec, ModelConfig, PopulationSpec,
                     SpectralMeasure, Workspace, build_sample_cov, draw_entries,
                     eig_decompose, realize_direction, realize_population, replicate_rng)
from covspec.model import sample_cov_block
from oracles import companion_sample_cov


def _cfg(n=20, N=40, dist="real-gaussian", pop=None, seed=0, direction=None):
    return ModelConfig(n=n, N=N, entry_dist=dist,
                       population=pop or PopulationSpec.identity(),
                       direction=direction or DirectionSpec.basis(0), seed=seed)


@pytest.mark.parametrize("field, value, message", [
    ("n", 0, "n must be >= 1"), ("n", True, "n must be >= 1"), ("N", 2.0, "N must be >= 1"),
    ("dist", "cauchy", "entries must be one of"), ("seed", 1.5, "seed must be a 64-bit"),
    ("seed", True, "seed must be a 64-bit"), ("seed", 2 ** 64, "seed must be a 64-bit")])
def test_model_config_rejects(field, value, message):
    # int(1.5) once let a fractional seed through
    with pytest.raises(ConfigError, match=message):
        _cfg(**{field: value})


class TestRealizePopulation:
    def test_single_atom(self):
        spec = PopulationSpec(SpectralMeasure.point(1.0))
        np.testing.assert_array_equal(realize_population(spec, 4), np.ones(4))

    def test_even_split(self):
        spec = PopulationSpec(SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        np.testing.assert_array_equal(realize_population(spec, 4), [1, 1, 2, 2])

    def test_tie_goes_to_smaller_atom(self):
        spec = PopulationSpec(SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        diag = realize_population(spec, 5)
        assert diag.tolist() == [1, 1, 1, 2, 2]
        # total variation from the ideal measure stays below 1/n
        emp = np.array([(diag == 1).mean(), (diag == 2).mean()])
        tv = 0.5 * np.abs(emp - 0.5).sum()
        assert tv <= 1.0 / 5

    def test_counts_sum_and_tv_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            k = rng.integers(1, 5)
            atoms = np.sort(rng.uniform(0.1, 5.0, size=k))
            w = rng.dirichlet(np.ones(k))
            try:
                meas = SpectralMeasure(atoms, w)
            except ValueError:
                continue
            n = int(rng.integers(meas.atoms.size, 60))
            diag = realize_population(PopulationSpec(meas), n)
            assert diag.size == n
            tv = 0.0
            for t, wk in zip(meas.atoms, meas.weights):
                tv += abs((diag == t).mean() - wk)
            assert tv / 2 <= meas.atoms.size / (2 * n) + 1e-12

    def test_dimension_too_small(self):
        spec = PopulationSpec(SpectralMeasure([1.0, 2.0, 3.0], [0.3, 0.3, 0.4]))
        with pytest.raises(ValueError, match="dimension too small"):
            realize_population(spec, 2)


class TestRealizeDirection:
    def test_basis(self):
        np.testing.assert_array_equal(realize_direction(DirectionSpec.basis(0), 3),
                                      [1.0, 0.0, 0.0])

    def test_uniform(self):
        np.testing.assert_allclose(realize_direction(DirectionSpec.uniform(), 4),
                                   [0.5, 0.5, 0.5, 0.5])

    def test_custom_normalized(self):
        np.testing.assert_allclose(realize_direction(DirectionSpec.custom([3.0, 4.0]), 2),
                                   [0.6, 0.8])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (2, 7, 33):
            v = rng.standard_normal(n)
            x = realize_direction(DirectionSpec.custom(v), n)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            realize_direction(DirectionSpec.basis(5), 3)
        with pytest.raises(ValueError):
            realize_direction(DirectionSpec.custom([0.0, 0.0]), 2)
        with pytest.raises(ValueError):
            DirectionSpec(kind="nope")

    @pytest.mark.parametrize("v", [[np.inf, 1.0, 0.0], [1.0, np.nan, 0.0], [1j * np.inf, 1.0, 0.0]])
    def test_non_finite_custom_vector_is_config_error(self, v):
        with pytest.raises(ConfigError, match="custom direction vector must be finite"):
            realize_direction(DirectionSpec.custom(v), 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v, want", [
        ([1e200, 1e200, 0.0, 0.0], [0.5 ** 0.5, 0.5 ** 0.5, 0.0, 0.0]),
        ([1e-200, 1e-200, 0.0, 0.0], [0.5 ** 0.5, 0.5 ** 0.5, 0.0, 0.0]),
        ([5e-324, 0.0], [1.0, 0.0]),
        ([1e200j, -1e200, 0.0], [0.5 ** 0.5 * 1j, -(0.5 ** 0.5), 0.0])],
        ids=["1e200", "1e-200", "subnormal", "complex-1e200"])
    def test_custom_vector_far_from_unit_scale(self, v, want):
        # the squares of these entries overflow or underflow, their norm does not
        np.testing.assert_allclose(realize_direction(DirectionSpec.custom(v), len(v)), want,
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_custom_vector_bitwise_the_plain_quotient(self, dtype):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 33, 200):
            for scale in (1e-3, 1.0, 1e3):
                v = scale * rng.standard_normal(n)
                if dtype is complex:
                    v = v + 1j * scale * rng.standard_normal(n)
                x = realize_direction(DirectionSpec.custom(v), n)
                assert x.dtype == dtype
                np.testing.assert_array_equal(x, v / np.linalg.norm(v))


class TestBuildSampleCov:
    def test_fixed_entry_hook(self):
        cfg = _cfg(n=1, N=1)
        a = build_sample_cov(cfg, entries=np.array([[2.0]]))
        np.testing.assert_allclose(a, [[4.0]])

    def test_zero_population(self):
        pop = PopulationSpec(SpectralMeasure.point(0.0))
        a = build_sample_cov(_cfg(n=3, N=5, pop=pop))
        np.testing.assert_array_equal(a, np.zeros((3, 3)))

    def test_trace_scale(self):
        cfg = _cfg(n=50, N=100, seed=123)
        a = build_sample_cov(cfg)
        assert 0.8 <= np.trace(a).real / 50 <= 1.2

    def test_determinism(self):
        cfg = _cfg(seed=99)
        a1 = build_sample_cov(cfg, replicate=3)
        a2 = build_sample_cov(cfg, replicate=3)
        assert a1.tobytes() == a2.tobytes()
        a3 = build_sample_cov(cfg, replicate=4)
        assert a1.tobytes() != a3.tobytes()

    def test_hermitian_nonneg(self):
        for dist in ("real-gaussian", "complex-gaussian", "rademacher", "uniform-rescaled"):
            a = build_sample_cov(_cfg(dist=dist, seed=5))
            np.testing.assert_allclose(a, a.conj().T)
            assert np.linalg.eigvalsh(a)[0] >= -1e-10

    def test_entries_shape_checked(self):
        with pytest.raises(ValueError):
            build_sample_cov(_cfg(n=2, N=2), entries=np.ones((3, 2)))

    @pytest.mark.parametrize("dist, dtype", [("real-gaussian", complex), ("real-gaussian", int),
                                             ("rademacher", np.float32),
                                             ("complex-gaussian", float)])
    def test_entries_of_another_dtype_refused(self, dist, dtype):
        # the Gram is formed in the entry law's dtype, never in the entries' own
        with pytest.raises(ValueError, match="entries must be a \\(2, 3\\) array of"):
            build_sample_cov(_cfg(n=2, N=3, dist=dist), entries=np.ones((2, 3), dtype))


def _direct_draw(dist, n, N, rng):
    # the distributions written out as fresh-array numpy expressions
    if dist == "real-gaussian":
        return rng.standard_normal((n, N))
    if dist == "complex-gaussian":
        # real and imaginary parts of each entry are consecutive normals
        z = rng.standard_normal((n, N, 2))
        return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    if dist == "rademacher":
        return rng.integers(0, 2, size=(n, N)).astype(float) * 2.0 - 1.0
    return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, N))


class TestWorkspace:
    @pytest.mark.parametrize("dist", ENTRY_DISTS)
    def test_draw_into_buffer_is_the_fresh_stream(self, dist):
        ws = Workspace(_cfg(n=7, N=11, dist=dist))
        for r in range(3):
            want = _direct_draw(dist, 7, 11, replicate_rng(5, r))
            got = draw_entries(dist, 7, 11, replicate_rng(5, r), out=ws.entries)
            assert got is ws.entries
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert draw_entries(dist, 7, 11, replicate_rng(5, r)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dist", ENTRY_DISTS)
    @pytest.mark.parametrize("seed, r", [(0, 0), (7, 3), (2 ** 64 - 1, 11)])
    def test_draws_are_prefixes_of_one_stream(self, dist, seed, r):
        # the shared draw rests on this: an n x N draw is the first n*N
        # entries of any larger draw of the stream; (3, 7) has an odd count
        # of entries, which a buffered draw of Rademacher signs must not shift
        full = draw_entries(dist, 100, 500, replicate_rng(seed, r)).reshape(-1)
        for n, N in [(4, 20), (20, 100), (40, 200), (100, 500), (3, 7), (1, 1), (99, 501)]:
            got = draw_entries(dist, n, N, replicate_rng(seed, r))
            assert got.tobytes() == full[:n * N].tobytes(), (n, N)

    @pytest.mark.parametrize("dist", ENTRY_DISTS)
    @pytest.mark.parametrize("atoms", [([1.0], [1.0]), ([1.0, 3.0], [0.5, 0.5])])
    def test_reused_workspace_matches_fresh_build(self, dist, atoms):
        cfg = _cfg(n=24, N=40, dist=dist, pop=PopulationSpec(SpectralMeasure(*atoms)), seed=8)
        ws = Workspace(cfg)
        assert (ws.root is None) == (len(atoms[0]) == 1)
        for r in range(4):
            a = sample_cov_block([cfg], range(r, r + 1), [ws])[0][0]
            assert a.base is ws.gram and a.ctypes.data == ws.gram.ctypes.data  # its first buffer
            fresh = build_sample_cov(cfg, replicate=r)
            assert a.tobytes() == fresh.tobytes()
            assert np.array_equal(a, a.conj().T)

    def test_fresh_build_matches_direct_formula(self):
        pop = PopulationSpec(SpectralMeasure([1.0, 3.0], [0.5, 0.5]))
        for dist in ENTRY_DISTS:
            cfg = _cfg(n=16, N=30, dist=dist, pop=pop, seed=4)
            root = np.sqrt(realize_population(pop, 16))
            y = root[:, None] * _direct_draw(dist, 16, 30, replicate_rng(4, 2))
            a = (y @ y.conj().T) / 30
            want = (a + a.conj().T) / 2.0
            assert build_sample_cov(cfg, replicate=2).tobytes() == want.tobytes()

    def test_entries_hook_leaves_input_alone(self):
        x = replicate_rng(0, 0).standard_normal((3, 5))
        before = x.copy()
        pop = PopulationSpec(SpectralMeasure([1.0, 4.0], [0.5, 0.5]))
        build_sample_cov(_cfg(n=3, N=5, pop=pop), entries=x)
        np.testing.assert_array_equal(x, before)


def test_entry_moments():
    rng = replicate_rng(0, 0)
    for dist, fourth in [("real-gaussian", 3.0), ("complex-gaussian", 2.0),
                         ("rademacher", 1.0), ("uniform-rescaled", 1.8)]:
        x = draw_entries(dist, 200, 500, replicate_rng(1, 0)).ravel()
        assert abs(x.mean()) < 0.02
        np.testing.assert_allclose(np.mean(np.abs(x) ** 2), 1.0, atol=0.01)
        np.testing.assert_allclose(np.mean(np.abs(x) ** 4), fourth, atol=0.05)
    z = draw_entries("complex-gaussian", 100, 1000, rng).ravel()
    assert abs(np.mean(z ** 2)) < 0.01  # EX^2 = 0 in the complex case


def test_replicate_rng_streams():
    a = replicate_rng(7, 0).standard_normal(4)
    b = replicate_rng(7, 0).standard_normal(4)
    c = replicate_rng(7, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, r", [(0, 0), (7, 3), (2 ** 64 - 1, 0), (2 ** 64 - 1, 10 ** 6)])
def test_replicate_rng_is_sfc64_keyed_on_seed_and_replicate(seed, r):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
    want = np.random.Generator(np.random.SFC64(ss)).standard_normal(64)
    assert replicate_rng(seed, r).standard_normal(64).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, r", [(0, 0), (7, 41), (2 ** 64 - 2, 999)])
def test_neighbouring_streams_uncorrelated(seed, r):
    # for independent streams the sample correlation of m normals has sd
    # 1/sqrt(m): each bound fails by chance with probability 5.7e-7
    m = 10 ** 5
    x = replicate_rng(seed, r).standard_normal(m)
    for other in (replicate_rng(seed, r + 1), replicate_rng(seed + 1, r)):
        rho = np.corrcoef(x, other.standard_normal(m))[0, 1]
        assert abs(rho) <= 5.0 / np.sqrt(m)


def test_streams_of_one_seed_start_apart():
    first = [replicate_rng(11, r).standard_normal() for r in range(1000)]
    assert len(set(first)) == 1000


def test_companion_spectrum_identity():
    # number-weighted transform of A agrees with the trace-resolvent of the
    # N x N companion, after accounting for the |n - N| zero eigenvalues
    cfg = _cfg(n=12, N=30, seed=21)
    a = build_sample_cov(cfg)
    b = companion_sample_cov(cfg)
    n, N = cfg.n, cfg.N
    for z in (0.5 + 0.5j, 1.5 + 0.2j, -0.3 + 1.0j):
        m_a = np.mean(1.0 / (np.linalg.eigvalsh(a) - z))
        m_b = np.mean(1.0 / (np.linalg.eigvalsh(b) - z))
        lhs = -(1 - n / N) / z + (n / N) * m_a
        assert abs(lhs - m_b) <= 1e-8


def test_wishart_projection_mean():
    # rotation invariance: |<u_1, x>|^2 averages to 1/n across replicates
    n, R = 20, 2000
    cfg = _cfg(n=n, N=2 * n, seed=13)
    x = realize_direction(cfg.direction, n)
    vals = np.empty(R)
    for r in range(R):
        es = eig_decompose(build_sample_cov(cfg, replicate=r))
        vals[r] = abs(np.vdot(es.vectors[:, 0], x)) ** 2
    se = vals.std(ddof=1) / np.sqrt(R)
    assert abs(vals.mean() - 1.0 / n) <= 3 * se
