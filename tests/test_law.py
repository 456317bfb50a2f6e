import csv
import dataclasses
import importlib
import json
import pkgutil

import numpy as np
import pytest
from scipy.integrate import quad

import covspec
from covspec import (ConfigError, DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, build_sample_cov, cdf_limit,
                     density, limit_moments, mean_functional, support)
from covspec.cli import main
import covspec.law as law_module
from oracles import mp_closed_density, narayana_moment, total_mass

MP1 = SpectralMeasure.point(1.0)
H13 = SpectralMeasure([1.0, 3.0], [0.5, 0.5])
H5 = SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5)
H013 = SpectralMeasure([0.0, 1.0, 3.0], [1 / 3] * 3)
H50 = SpectralMeasure(np.geomspace(0.1, 10.0, 50), np.full(50, 1 / 50))
# (population atoms (t, w), n, N) of the benchmark's density calls
BENCH_DENSITY = [
    ([(1.0, 1.0)], 100, 400),
    ([(1.0, 1.0)], 90, 100),
    ([(1.0, 0.5), (3.0, 0.5)], 200, 100),
    ([(0.5, 0.2), (1.0, 0.2), (2.0, 0.2), (4.0, 0.2), (8.0, 0.2)], 100, 200),
]


class TestDensity:
    def test_reference_point(self):
        law = LimitLaw(c=0.25, H=MP1)
        assert abs(density(1.0, law) - 0.61637) <= 1e-4

    def test_outside_support(self):
        law = LimitLaw(c=0.25, H=MP1)
        assert abs(density(5.0, law)) <= 1e-6
        assert abs(density(0.1, law)) <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_in_the_gap_above_a_point_mass_at_zero(self):
        law = LimitLaw(c=0.5, H=H013)
        lo = support(LimitLaw(c=0.5, H=H013))[0][0]
        assert 0.2 < lo < 0.3
        # the lower edge itself is off the open interval
        assert density(np.array([1e-300, 1e-20, lo / 2, lo]), law).tolist() == [0.0] * 4
        assert density(1e-20, LimitLaw(c=2.0, H=MP1)) == 0.0

    def test_matches_closed_form_pointwise(self):
        law = LimitLaw(c=0.25, H=MP1)
        xs = np.linspace(0.3, 2.2, 100)
        np.testing.assert_allclose(density(xs, law), mp_closed_density(xs, 0.25),
                                   atol=1e-4)

    def test_nonnegative(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        assert np.all(density(law.quadrature[0], law) >= 0)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_closed_form_over_whole_support(self, c):
        # both edges included; there the root is double and only ~sqrt(eps)
        # accurate, inside it is simple
        law = LimitLaw(c=c, H=MP1)
        xs = np.linspace((1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2, 2001)
        err = np.abs(density(xs, law) - mp_closed_density(xs, c))
        assert err[1:-1].max() <= 1e-12
        assert max(err[0], err[-1]) <= 1e-7
        assert np.all(density(law.quadrature[0], law) >= 0)

    @pytest.mark.parametrize("c", [0.999, 1.001])
    def test_lower_edge_near_zero(self, c):
        # |mbar| reaches ~1e3 next to the lower edge, where the root is
        # double; the scaled residual check must pass and the mass hold
        law = LimitLaw(c=c, H=MP1)
        assert abs(total_mass(law) - 1.0) <= 2e-4
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
            rows = list(csv.DictReader(fh))
        f = np.array([float(row["f"]) for row in rows])
        F = np.array([float(row["F"]) for row in rows])
        assert f.size == 400 and np.all(f >= 0)
        assert np.all(np.diff(F) >= 0)

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
        xs = np.linspace(0.0, 2.5, 11)
        seen = {}
        builder = threading.Thread(target=lambda: seen.setdefault("builder", cdf_limit(xs, law)))
        builder.start()
        assert entered.wait(timeout=30)
        seen["reader"] = cdf_limit(xs, law)   # the builder is inside density now
        builder.join(timeout=60)
        assert not builder.is_alive()
        assert len(calls) == 1
        assert seen["reader"].shape == xs.shape
        np.testing.assert_array_equal(seen["reader"], seen["builder"])

    def test_stress_one_build_per_law(self, monkeypatch):
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
                xs = np.linspace(0.0, 6.0, 13)
                work = lambda _: (cdf_limit(xs, law), mean_functional(law, g))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    seen = list(pool.map(work, range(16), timeout=60))
                assert len(calls) == 1
                assert all(np.array_equal(F, seen[0][0]) for F, _ in seen)
                assert len({val for _, val in seen}) == 1
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
            F = cdf_limit(law.quadrature[0], law)
            assert np.all(np.diff(F) >= -1e-12)

    def test_total_mass(self):
        # at c = 1 the lower edge is 0, where f ~ x^(-1/2)
        for h, c in [(MP1, 0.25), (MP1, 0.5), (MP1, 1.0), (MP1, 2.0),
                     (SpectralMeasure([1.0, 2.0], [0.5, 0.5]), 0.25),
                     (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 0.5),
                     (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 1.0)]:
            law = LimitLaw(c=c, H=h)
            assert abs(total_mass(law) - 1.0) <= 1e-13

    @pytest.mark.parametrize("atoms,n,N", BENCH_DENSITY + [([(1.0, 1.0)], 100, 100)])
    def test_against_quadrature(self, atoms, n, N):
        # scipy quad of the density over each support interval up to x; for
        # H = delta_1 of the closed form, with the square-root (or, at c = 1,
        # inverse square-root) edge factor as quad's algebraic weight
        c = n / N
        law = LimitLaw(c=c, H=SpectralMeasure([t for t, _ in atoms], [w for _, w in atoms]))
        lo, hi = law.bulk_window()
        xs = np.linspace(lo, hi, 11)[1:-1]
        got = cdf_limit(xs, law)
        for x, F in zip(xs, got):
            want = law.atom_at_zero
            for a, b in support(law):
                if x > a:
                    want += _mass_by_quad(law, a, b, min(x, b), len(atoms) == 1)
            assert abs(F - want) <= 1e-12

    def test_atom_at_zero(self):
        law = LimitLaw(c=2.0, H=MP1)
        assert law.atom_at_zero == pytest.approx(0.5)
        assert cdf_limit(-0.5, law) == 0.0
        assert cdf_limit(0.0, law) == pytest.approx(0.5)
        assert abs(cdf_limit(10.0, law) - 1.0) <= 1e-6

    def test_zero_population_atom(self):
        # the zero rows of T put mass max(w_0, 1 - 1/c) = 0.5 at zero
        law = LimitLaw(c=0.5, H=SpectralMeasure([0.0, 1.0], [0.5, 0.5]))
        assert abs(total_mass(law) - 1.0) <= 1e-13
        assert cdf_limit(0.0, law) == 0.5
        assert abs(mean_functional(law, FunctionalSpec.poly([1.0, 1.0])) - 1.5) <= 1e-13
        with pytest.raises(ValueError):
            mean_functional(law, FunctionalSpec.log())


def _mass_by_quad(law, a, b, x, closed_form):
    """Mass of the density on [a, x], a <= x <= b the ends of a support interval."""
    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    if not closed_form:
        return quad(lambda t: density(float(t), law), a, x, **opts)[0]
    c = law.c
    if a == 0:
        # sqrt((b - t) t)/(2 pi c t) = sqrt(b - t)/(2 pi c) * t^(-1/2)
        return quad(lambda t: np.sqrt(b - t) / (2 * np.pi * c), a, x, weight="alg",
                    wvar=(-0.5, 0.0), **opts)[0]
    return quad(lambda t: np.sqrt(b - t) / (2 * np.pi * c * t), a, x, weight="alg",
                wvar=(0.5, 0.0), **opts)[0]


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
            assert abs(limit_moments(law, k) - law.integral(g)) <= 1e-4 * max(
                1.0, limit_moments(law, k))

    def test_moments_match_density_integral(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        x = law.quadrature[0]
        f = density(x, law)
        for k in (1, 2, 3, 4):
            ref = np.trapezoid(f * x ** k, x)
            assert abs(limit_moments(law, k) - ref) <= 1e-3 * max(1.0, abs(ref))

    @pytest.mark.parametrize("h,c", [
        (H13, 0.5), (H13, 1.0), (H13, 2.0), (H5, 0.5), (H013, 1.0), (H013, 2.0), (H50, 0.5),
    ], ids=["atoms1-3_c0.5", "atoms1-3_c1", "atoms1-3_c2", "atoms5_c0.5", "atoms0-1-3_c1",
            "atoms0-1-3_c2", "atoms50_c0.5"])
    def test_exact_moments_match_rule(self, h, c):
        # the series in 1/z against the midpoint rule on the density
        law = LimitLaw(c=c, H=h)
        for k in range(1, 7):
            exact = limit_moments(law, k)
            rule = law.integral(FunctionalSpec.monomial(k))
            assert abs(exact - rule) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.9, 1.0, 2.0, 4.0])
    def test_point_mass_matches_narayana_sum(self, t, c):
        law = LimitLaw(c=c, H=SpectralMeasure.point(t))
        for k in range(1, 9):
            want = narayana_moment(k, c, t)
            assert abs(limit_moments(law, k) - want) <= 1e-14 * want

    def test_first_moment_is_the_population_mean(self):
        # the trace identity, also where the rule misses the mass by 6e-8
        law = LimitLaw(c=0.5, H=H013)
        assert limit_moments(law, 1) == H013.moment(1)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_ratio_must_be_finite_and_positive(c):
    # a nan ratio passed a bare c <= 0 check and centred every replicate at nan
    with pytest.raises(ConfigError, match="^ratio c must be finite and positive"):
        LimitLaw(c=c, H=MP1)


def test_law_is_frozen():
    # a ratio changed after the support was solved would pair one law's
    # support with another's moments
    law = LimitLaw(c=0.5, H=MP1)
    bulk = law.bulk
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.c = 2.0
    assert law.c == 0.5 and law.bulk == bulk
    assert mean_functional(law, FunctionalSpec.monomial(2)) == pytest.approx(1.5)


def _count_support(monkeypatch) -> list:
    """Record each call of mp.support made through any covspec module that binds it."""
    calls, solve = [], covspec.mp.support

    def counted(law):
        calls.append(law.c)
        return solve(law)

    for name in ["covspec"] + [f"covspec.{m.name}" for m in pkgutil.iter_modules(covspec.__path__)]:
        module = importlib.import_module(name)
        if getattr(module, "support", None) is solve:
            monkeypatch.setattr(module, "support", counted)
    return calls


class TestSupportSolvedOnce:
    # the rule, the density, the window, the log guard and both ellipses read LimitLaw.bulk
    def test_run_clt(self, monkeypatch):
        calls = _count_support(monkeypatch)
        cfg = ModelConfig(n=60, N=120, entry_dist="real-gaussian", population=PopulationSpec(MP1),
                          direction=DirectionSpec.basis(0), seed=3)
        gs = [FunctionalSpec.monomial(1), FunctionalSpec.monomial(2), FunctionalSpec.log()]
        covspec.run_clt(cfg, gs, 4)
        assert calls == [0.5]

    def test_density_command(self, monkeypatch, tmp_path):
        calls = _count_support(monkeypatch)
        doc = {"n": 90, "N": 100, "entries": "real-gaussian",
               "population": {"atoms": [{"t": 1.0, "w": 1.0}]},
               "direction": {"kind": "e", "index": 0}, "seed": 1}
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps(doc))
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert calls == [0.9]


class TestNoPositiveAtom:
    # delta_0 has no bulk: the theory refuses it as a fault of the config
    LAW = LimitLaw(c=0.5, H=SpectralMeasure.point(0.0))

    def test_bulk_window(self):
        with pytest.raises(ConfigError, match="^population needs an atom t > 0"):
            self.LAW.bulk_window()

    def test_cdf_limit(self):
        with pytest.raises(ConfigError, match="^population needs an atom t > 0"):
            cdf_limit(1.0, self.LAW)

    def test_moments_stay_exact(self):
        assert [limit_moments(self.LAW, k) for k in range(4)] == [1.0, 0.0, 0.0, 0.0]


class TestMeanFunctional:
    def test_poly_uses_moments(self):
        law = LimitLaw(c=0.5, H=MP1)
        g = FunctionalSpec.poly([1.0, 2.0, 3.0])
        expected = 1.0 + 2.0 * 1.0 + 3.0 * 1.5
        assert mean_functional(law, g) == pytest.approx(expected)

    def test_poly_builds_no_rule(self):
        # a polynomial takes exact moments under any population, so the
        # density rule is never built
        law = LimitLaw(c=0.5, H=H5)
        got = mean_functional(law, FunctionalSpec.poly([1.0, 2.0, 3.0]))
        assert law._grids is None
        want = 1.0 + 2.0 * H5.moment(1) + 3.0 * (H5.moment(2) + 0.5 * H5.moment(1) ** 2)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("h,c", [
        (H13, 0.5), (H13, 1.0), (H13, 2.0), (H5, 0.5),
        (MP1, 0.25), (MP1, 0.5), (MP1, 0.9), (MP1, 1.0), (MP1, 2.0),
        (SpectralMeasure([1.0, 10.0], [0.5, 0.5]), 0.05),
    ], ids=["atoms1-3_c0.5", "atoms1-3_c1", "atoms1-3_c2", "atoms5_c0.5", "delta1_c0.25",
            "delta1_c0.5", "delta1_c0.9", "delta1_c1", "delta1_c2", "atoms1-10_c0.05"])
    def test_poly_means_match_exact_moments(self, h, c):
        # the midpoint rule in the angle of each support interval integrates
        # 1, x and x^2 to rounding: mass 1 and the first two moments of the
        # limit law, H.m1 and H.m2 + c H.m1^2 (law.integral runs
        # the rule where mean_functional takes exact moments; {1, 10} at
        # c = 0.05 has two support intervals)
        law = LimitLaw(c=c, H=h)
        assert abs(total_mass(law) - 1.0) <= 1e-13
        got1 = law.integral(FunctionalSpec.monomial(1))
        assert abs(got1 - h.moment(1)) <= 1e-13
        got2 = law.integral(FunctionalSpec.monomial(2))
        assert abs(got2 - (h.moment(2) + c * h.moment(1) ** 2)) <= 1e-13

    def test_log_functional(self):
        law = LimitLaw(c=0.2, H=MP1)
        got = mean_functional(law, FunctionalSpec.log())
        d = (0.2 - 1) / 0.2 * np.log(1 - 0.2) - 1  # known limit of the mean log eigenvalue
        assert abs(got - d) <= 1e-6

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.9])
    def test_log_functional_closed_form(self, c):
        law = LimitLaw(c=c, H=MP1)
        closed = -1.0 - (1.0 - c) / c * np.log(1.0 - c)
        assert abs(mean_functional(law, FunctionalSpec.log()) - closed) <= 1e-12

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
