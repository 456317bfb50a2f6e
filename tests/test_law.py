import csv
import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from covspec import (DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, build_sample_cov, cdf_limit,
                     density, limit_moments, mean_functional)
from covspec.cli import main
import covspec.law as law_module
from covspec.law import _PchipAntiderivative, mean_functional_density

MP1 = SpectralMeasure.point(1.0)
# (population atoms (t, w), n, N) of the benchmark's density calls
BENCH_DENSITY = [
    ([(1.0, 1.0)], 100, 400),
    ([(1.0, 1.0)], 90, 100),
    ([(1.0, 0.5), (3.0, 0.5)], 200, 100),
    ([(0.5, 0.2), (1.0, 0.2), (2.0, 0.2), (4.0, 0.2), (8.0, 0.2)], 100, 200),
]


def mp_closed_density(x, c):
    a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.maximum((b - x) * (x - a), 0.0)) / (2 * np.pi * c * x)
    return out


class TestDensity:
    def test_reference_point(self):
        law = LimitLaw(c=0.25, H=MP1)
        assert abs(density(1.0, law) - 0.61637) <= 1e-4

    def test_outside_support(self):
        law = LimitLaw(c=0.25, H=MP1)
        assert abs(density(5.0, law)) <= 1e-6
        assert abs(density(0.1, law)) <= 1e-6

    def test_matches_closed_form_pointwise(self):
        law = LimitLaw(c=0.25, H=MP1)
        xs = np.linspace(0.3, 2.2, 100)
        np.testing.assert_allclose(density(xs, law), mp_closed_density(xs, 0.25),
                                   atol=1e-4)

    def test_nonnegative(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        x, f = law.density_grid
        assert np.all(f >= 0)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_closed_form_over_whole_support(self, c):
        # both edges included; there the root is double and only ~sqrt(eps)
        # accurate, inside it is simple
        law = LimitLaw(c=c, H=MP1)
        xs = np.linspace((1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2, 2001)
        err = np.abs(density(xs, law) - mp_closed_density(xs, c))
        assert err[1:-1].max() <= 1e-12
        assert max(err[0], err[-1]) <= 1e-7
        assert np.all(law.density_grid[1] >= 0)

    @pytest.mark.parametrize("c", [0.999, 1.001])
    def test_lower_edge_near_zero(self, c):
        # |mbar| reaches ~1e3 at the grid's lower edge, where the root is
        # double; the scaled residual check must pass and the mass hold
        law = LimitLaw(c=c, H=MP1)
        assert abs(law.total_mass() - 1.0) <= 1e-3
        xs = np.linspace((1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2, 2001)[1:-1]
        ref = mp_closed_density(xs, c)
        assert np.max(np.abs(density(xs, law) - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("atoms,n,N", BENCH_DENSITY)
    def test_cli_density_nonnegative(self, tmp_path, atoms, n, N):
        doc = {"n": n, "N": N, "entries": "real-gaussian",
               "population": {"atoms": [{"t": t, "w": w} for t, w in atoms]},
               "direction": {"kind": "e", "index": 0}, "seed": 1}
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps(doc))
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "density.csv", newline="") as fh:
            f = np.array([float(row["f"]) for row in csv.DictReader(fh)])
        assert f.size == 400 and np.all(f >= 0)

    def test_two_atom_against_simulation(self):
        # mean histogram mass of the spectrum near x = 1 over 40 replicates
        h = SpectralMeasure([1.0, 2.0], [0.5, 0.5])
        law = LimitLaw(c=0.25, H=h)
        n, N, reps, width = 1000, 4000, 40, 0.05
        cfg = ModelConfig(n=n, N=N, entry_dist="real-gaussian",
                          population=PopulationSpec(h),
                          direction=DirectionSpec.basis(0), seed=2024)
        count = 0.0
        for r in range(reps):
            lam = np.linalg.eigvalsh(build_sample_cov(cfg, replicate=r))
            count += np.sum((lam >= 1 - width / 2) & (lam < 1 + width / 2))
        emp = count / (reps * n * width)
        theo = density(1.0, law)
        assert abs(emp - theo) <= 0.1 * theo


def _assert_matches_scipy_pchip(x, y):
    # scipy's PCHIP antiderivative is the oracle, at the nodes and between them
    ref = PchipInterpolator(x, y).antiderivative()
    ours = _PchipAntiderivative(x, y)
    span = x[-1] - x[0]
    query = np.concatenate([x, np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span, 997)])
    want = ref(query)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(ours(query) - want)) <= 1e-13 * scale
    assert np.max(np.abs(ours.values - ref(x))) <= 1e-13 * scale
    assert ours(x[0]) == 0.0
    assert float(ours(2.0 * x[-1] - x[0])) == pytest.approx(float(ref(2.0 * x[-1] - x[0])),
                                                              rel=1e-13)


class TestPchipAntiderivative:
    @pytest.mark.parametrize("size", [3, 4, 17, 500])
    def test_random_data(self, size):
        rng = np.random.default_rng(size)
        x = np.sort(rng.uniform(-3.0, 5.0, size))
        _assert_matches_scipy_pchip(x, rng.normal(size=size))
        _assert_matches_scipy_pchip(x, np.exp(rng.normal(size=size)))

    def test_two_points_is_the_line(self):
        x, y = np.array([1.0, 3.0]), np.array([2.0, -1.0])
        _assert_matches_scipy_pchip(x, y)
        ours = _PchipAntiderivative(x, y)
        assert float(ours(3.0)) == pytest.approx(1.0, rel=1e-15)

    def test_flat_runs(self):
        x = np.arange(24.0) ** 1.3
        y = np.repeat([0.0, 2.0, 2.0, 5.0, 5.0, 0.0], 4)
        _assert_matches_scipy_pchip(x, y)
        _assert_matches_scipy_pchip(x, np.zeros(24))

    def test_sign_changes(self):
        x = np.linspace(0.0, 7.0, 41) + 0.01 * np.sin(np.arange(41.0))
        _assert_matches_scipy_pchip(x, np.sin(3.0 * x))
        # end-slope limiter cases: secants of opposite sign at both ends
        _assert_matches_scipy_pchip(np.array([0.0, 0.1, 1.0, 1.1]), np.array([0.0, 1.0, -1.0, 5.0]))
        _assert_matches_scipy_pchip(np.array([0.0, 1.0, 1.2, 5.0]), np.array([1.0, 2.0, 0.0, 0.5]))

    @pytest.mark.parametrize("atoms,n,N", BENCH_DENSITY)
    def test_limit_law_grids(self, atoms, n, N):
        law = LimitLaw(c=n / N, H=SpectralMeasure([t for t, _ in atoms], [w for _, w in atoms]))
        x, f = law.density_grid
        _assert_matches_scipy_pchip(x, f)
        _assert_matches_scipy_pchip(x, f * np.log(x))

    @pytest.mark.parametrize("x,y", [
        ([1.0], [1.0]),
        ([], []),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, 2.0]),
    ])
    def test_rejects_what_scipy_rejects(self, x, y):
        with pytest.raises(ValueError):
            PchipInterpolator(np.array(x), np.array(y))
        with pytest.raises(ValueError):
            _PchipAntiderivative(x, y)


class TestThreadSafety:
    def test_grids_built_once_while_another_thread_reads(self, monkeypatch):
        import threading
        import time

        calls, entered = [], threading.Event()
        real_density = law_module.density

        def slow_density(x, law):
            calls.append(threading.get_ident())
            entered.set()
            time.sleep(0.3)
            return real_density(x, law)

        monkeypatch.setattr(law_module, "density", slow_density)
        law = LimitLaw(c=0.25, H=MP1)
        seen = {}
        builder = threading.Thread(target=lambda: seen.setdefault("builder", law.cdf_grid))
        builder.start()
        assert entered.wait(timeout=30)
        seen["reader"] = law.cdf_grid   # the builder is inside density now
        builder.join(timeout=60)
        assert not builder.is_alive()
        assert len(calls) == 1
        for x, F in seen.values():
            assert x is not None and F is not None and F.shape == x.shape
        assert seen["reader"][1] is seen["builder"][1]

    def test_stress_one_build_one_mean_per_law(self, monkeypatch):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        calls = []
        real_density = law_module.density

        def counting_density(x, law):
            calls.append(1)
            return real_density(x, law)

        monkeypatch.setattr(law_module, "density", counting_density)
        g = FunctionalSpec.monomial(2)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                calls.clear()
                law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 3.0], [0.5, 0.5]))
                work = lambda _: (law.cdf_grid[1], mean_functional(law, g))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    seen = list(pool.map(work, range(16), timeout=60))
                assert len(calls) == 1
                assert all(F is seen[0][0] for F, _ in seen)
                assert len({val for _, val in seen}) == 1
                assert list(law._mean_cache.values()) == [seen[0][1]]
        finally:
            sys.setswitchinterval(old_interval)


class TestCdf:
    def test_boundaries(self):
        law = LimitLaw(c=0.25, H=MP1)
        assert cdf_limit(0.2, law) == 0.0
        assert abs(cdf_limit(2.26, law) - 1.0) <= 1e-4
        assert abs(cdf_limit(10.0, law) - 1.0) <= 1e-4

    def test_median_region_against_quadrature(self):
        law = LimitLaw(c=0.25, H=MP1)
        ref, _ = quad(lambda t: mp_closed_density(t, 0.25), 0.25, 1.0, limit=200)
        assert abs(cdf_limit(1.0, law) - ref) <= 1e-4

    def test_monotone_on_grid(self):
        for h, c in [(MP1, 0.5), (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 0.5)]:
            law = LimitLaw(c=c, H=h)
            _, F = law.cdf_grid
            assert np.all(np.diff(F) >= -1e-12)

    @pytest.mark.parametrize("atoms,c", [
        ([(1.0, 1.0)], 0.5), ([(1.0, 1.0)], 2.0), ([(1.0, 1.0)], 1.0),
        ([(1.0, 0.5), (3.0, 0.5)], 0.5), ([(1.0, 0.5), (3.0, 0.5)], 2.0),
        ([(0.5, 0.2), (1.0, 0.2), (2.0, 0.2), (4.0, 0.2), (8.0, 0.2)], 0.5),
    ])
    def test_grid_cells_not_degenerate(self, atoms, c):
        # every cosine piece ends exactly at its breakpoints, so no cell of
        # rounding size sits at an edge (the sqrt(x) head is cosine-spaced in
        # s, so its cells in x shrink quadratically and are left out)
        law = LimitLaw(c=c, H=SpectralMeasure([t for t, _ in atoms], [w for _, w in atoms]))
        x, head = law_module._edge_clustered_grid(law)
        np.testing.assert_array_equal(x, law.density_grid[0])
        assert np.diff(x[max(head - 1, 0):]).min() >= 1e-12 * (x[-1] - x[0])

    def test_total_mass(self):
        # at c = 1 the lower edge is 0, where f ~ x^(-1/2)
        for h, c in [(MP1, 0.25), (MP1, 0.5), (MP1, 1.0), (MP1, 2.0),
                     (SpectralMeasure([1.0, 2.0], [0.5, 0.5]), 0.25),
                     (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 0.5),
                     (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 1.0)]:
            law = LimitLaw(c=c, H=h)
            assert abs(law.total_mass() - 1.0) <= 1e-6

    def test_atom_at_zero(self):
        law = LimitLaw(c=2.0, H=MP1)
        assert law.atom_at_zero == pytest.approx(0.5)
        assert cdf_limit(-0.5, law) == 0.0
        assert cdf_limit(0.0, law) == pytest.approx(0.5)
        assert abs(cdf_limit(10.0, law) - 1.0) <= 1e-6

    def test_zero_population_atom(self):
        # the zero rows of T put mass max(w_0, 1 - 1/c) = 0.5 at zero
        law = LimitLaw(c=0.5, H=SpectralMeasure([0.0, 1.0], [0.5, 0.5]))
        assert abs(law.total_mass() - 1.0) <= 1e-6
        assert cdf_limit(0.0, law) == 0.5
        assert abs(mean_functional(law, FunctionalSpec.poly([1.0, 1.0])) - 1.5) <= 1e-8
        with pytest.raises(ValueError):
            mean_functional(law, FunctionalSpec.log())


def test_density_integrates_to_continuous_mass():
    # adaptive quadrature of the density itself over the support interval
    law = LimitLaw(c=0.25, H=MP1)
    val, _ = quad(lambda t: density(float(t), law), 0.2, 2.3, limit=60)
    assert abs(val - 1.0) <= 1e-4


def test_density_integrates_to_one_minus_atom():
    law = LimitLaw(c=2.0, H=MP1)
    lo, hi = law.bulk_window()
    val, _ = quad(lambda t: density(float(t), law), lo, hi, limit=60)
    assert abs(val - (1.0 - law.atom_at_zero)) <= 1e-4


class TestMoments:
    def test_degenerate_closed_form(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert limit_moments(law, 0) == 1.0
        assert limit_moments(law, 1) == pytest.approx(1.0)
        assert limit_moments(law, 2) == pytest.approx(1.5)
        assert limit_moments(law, 3) == pytest.approx(2.75)

    def test_atom_scaling(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure.point(2.0))
        assert limit_moments(law, 2) == pytest.approx(4 * 1.5)

    def test_closed_form_vs_density_quadrature(self):
        law = LimitLaw(c=0.5, H=MP1)
        for k in (1, 2, 3, 4):
            g = FunctionalSpec.monomial(k)
            assert abs(limit_moments(law, k) - mean_functional_density(law, g)) <= 1e-4 * max(
                1.0, limit_moments(law, k))

    def test_moments_match_density_integral(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        x, f = law.density_grid
        for k in (1, 2, 3, 4):
            ref = np.trapezoid(f * x ** k, x)
            assert abs(limit_moments(law, k) - ref) <= 1e-3 * max(1.0, abs(ref))


class TestMeanFunctional:
    def test_poly_uses_moments(self):
        law = LimitLaw(c=0.5, H=MP1)
        g = FunctionalSpec.poly([1.0, 2.0, 3.0])
        expected = 1.0 + 2.0 * 1.0 + 3.0 * 1.5
        assert mean_functional(law, g) == pytest.approx(expected)

    @pytest.mark.parametrize("h,c", [
        (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 0.5),
        (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 1.0),
        (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 2.0),
        (SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5), 0.5),
    ], ids=["atoms1-3_c0.5", "atoms1-3_c1", "atoms1-3_c2", "atoms5_c0.5"])
    def test_poly_means_match_exact_moments(self, h, c):
        # first two moments of the limit law: H.m1 and H.m2 + c H.m1^2
        law = LimitLaw(c=c, H=h)
        assert abs(mean_functional(law, FunctionalSpec.monomial(1)) - h.moment(1)) <= 1e-8
        got2 = mean_functional(law, FunctionalSpec.monomial(2))
        assert abs(got2 - (h.moment(2) + c * h.moment(1) ** 2)) <= 1e-8

    def test_log_functional(self):
        law = LimitLaw(c=0.2, H=MP1)
        got = mean_functional(law, FunctionalSpec.log())
        d = (0.2 - 1) / 0.2 * np.log(1 - 0.2) - 1  # known limit of the mean log eigenvalue
        assert abs(got - d) <= 1e-6

    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_log_functional_closed_form(self, c):
        law = LimitLaw(c=c, H=MP1)
        closed = -1.0 - (1.0 - c) / c * np.log(1.0 - c)
        assert abs(mean_functional(law, FunctionalSpec.log()) - closed) <= 1e-8

    def test_log_needs_positive_support(self):
        law = LimitLaw(c=2.0, H=MP1)
        with pytest.raises(ValueError):
            mean_functional(law, FunctionalSpec.log())


def test_density_errors_at_atom():
    for law in (LimitLaw(c=2.0, H=MP1), LimitLaw(c=0.5, H=SpectralMeasure([0.0, 1.0], [0.5, 0.5]))):
        with pytest.raises(ValueError):
            density(0.0, law)
    # a zero lower edge, where f grows like x^(-1/2), with or without a point mass
    assert density(0.0, LimitLaw(c=1.0, H=MP1)) == np.inf
    assert density(0.0, LimitLaw(c=2.0, H=SpectralMeasure([0.0, 1.0], [0.5, 0.5]))) == np.inf
    assert density(0.0, LimitLaw(c=0.5, H=MP1)) == 0.0
