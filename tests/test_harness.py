import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import covspec
from covspec import (Contour, DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, Statistic, Tolerances, bb_covariance,
                     bb_samples, bb_target, build_sample_cov, compare_report,
                     condition_profile, contour_pair, direction_condition_gap,
                     eig_decompose, estimate_mean_cov, map_replicates, run_clt,
                     run_replications, theoretical_cov_contour,
                     theoretical_cov_simplified, w_statistic)
from covspec.cli import FIGURE_ONE_SIZES, FIGURE_SMALL

MP1 = SpectralMeasure.point(1.0)
G1 = FunctionalSpec.monomial(1)
G2 = FunctionalSpec.monomial(2)


def _cfg(n=40, N=80, dist="real-gaussian", seed=0):
    return ModelConfig(n=n, N=N, entry_dist=dist,
                       population=PopulationSpec.identity(),
                       direction=DirectionSpec.basis(0), seed=seed)


class TestRunReplications:
    def test_zero_functional(self):
        vals = run_replications(_cfg(), [FunctionalSpec.poly([0.0])], 2, workers=1)
        np.testing.assert_array_equal(vals, np.zeros((2, 1)))

    def test_deterministic(self):
        vals1 = run_replications(_cfg(seed=5), [G1], 6, workers=1)
        vals2 = run_replications(_cfg(seed=5), [G1], 6, workers=1)
        assert vals1.tobytes() == vals2.tobytes()

    def test_worker_count_invariance(self):
        vals1 = run_replications(_cfg(seed=9), [G1, G2], 8, workers=1)
        vals4 = run_replications(_cfg(seed=9), [G1, G2], 8, workers=4)
        assert vals1.tobytes() == vals4.tobytes()

    def test_mean_near_zero(self):
        vals = run_replications(_cfg(n=50, N=100, seed=31), [G1], 100)
        mean, cov = estimate_mean_cov(vals)
        se = np.sqrt(cov[0, 0] / 100)
        assert abs(mean[0]) <= 3 * se

    def test_log_needs_c_below_one(self):
        cfg = _cfg(n=80, N=40)
        with pytest.raises(ValueError):
            run_replications(cfg, [FunctionalSpec.log()], 2)

    def test_r_lower_bound(self):
        with pytest.raises(ValueError):
            run_replications(_cfg(), [G1], 1)


_HASH_SCRIPT = """
import hashlib
from covspec import DirectionSpec, FunctionalSpec, ModelConfig, PopulationSpec, run_replications
cfg = ModelConfig(n=300, N=600, entry_dist="real-gaussian", population=PopulationSpec.identity(),
                  direction=DirectionSpec.basis(0), seed=7)
gs = [FunctionalSpec.parse(g) for g in ("poly:0,1", "poly:0,0,1", "log")]
for workers in (1, 2):
    print(hashlib.sha256(run_replications(cfg, gs, 8, workers=workers).tobytes()).hexdigest())
"""


class TestMapReplicates:
    def test_bytes_independent_of_blas_threads(self):
        src = str(Path(covspec.__file__).resolve().parents[1])
        hashes = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.split()
            assert len(lines) == 2
            hashes.update(lines)
        assert len(hashes) == 1

    def test_blas_pinned_during_replicates_and_restored(self):
        from covspec.harness import _find_openblas

        api = _find_openblas()
        if api is None:
            pytest.skip("numpy does not use a bundled OpenBLAS")
        get, set_ = api
        before = get()
        try:
            set_(2)
            seen = []
            stat = Statistic("logdet", lambda logdet: seen.append(get()) or logdet)
            for workers in (1, 2):
                map_replicates(_cfg(n=10, N=20), stat, 4, workers=workers)
                assert get() == 2
            assert seen == [1] * 8
        finally:
            set_(before)

    @pytest.mark.parametrize("n, N", [(round(0.2 * N), N) for N in FIGURE_ONE_SIZES]
                             + list(FIGURE_SMALL.values()))
    def test_logdet_matches_eigenvalue_sum(self, n, N):
        cfg = _cfg(n=n, N=N, seed=4)
        got = map_replicates(cfg, Statistic("logdet", float), 6, workers=2)
        want = [w_statistic(eig_decompose(build_sample_cov(cfg, replicate=r))) for r in range(6)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_singular_logdet_names_replicate(self):
        with pytest.raises(RuntimeError, match="replicate 0 failed: singular"):
            map_replicates(_cfg(n=20, N=10), Statistic("logdet", float), 3, workers=2)

    def test_unknown_need_rejected(self):
        with pytest.raises(ValueError, match="logdet"):
            Statistic("eigvals", float)


class TestEstimateMeanCov:
    def test_hand_example(self):
        mean, cov = estimate_mean_cov(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(mean, [1.0, 1.0])
        np.testing.assert_allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_rows(self):
        mean, cov = estimate_mean_cov(np.ones((5, 3)))
        np.testing.assert_allclose(cov, np.zeros((3, 3)), atol=1e-15)

    def test_known_sampling_distribution(self):
        rng = np.random.default_rng(2)
        mean, cov = estimate_mean_cov(rng.standard_normal((10000, 1)))
        assert abs(cov[0, 0] - 1.0) <= 0.05

    def test_symmetry_psd(self):
        rng = np.random.default_rng(3)
        _, cov = estimate_mean_cov(rng.standard_normal((50, 4)))
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10


class TestTheoreticalCovContour:
    def test_linear_pair(self):
        got = theoretical_cov_contour(G1, G1, MP1, 0.5)
        assert abs(got - 2.0) <= 1e-3

    def test_mixed_pair(self):
        got = theoretical_cov_contour(G1, G2, MP1, 0.5)
        assert abs(got - 5.0) <= 5e-3

    def test_complex_case_half(self):
        got = theoretical_cov_contour(G1, G1, MP1, 0.5, case="complex")
        assert abs(got - 1.0) <= 1e-3

    def test_real_is_twice_complex(self):
        for g1, g2 in [(G1, G1), (G1, G2)]:
            full = theoretical_cov_contour(g1, g2, MP1, 0.25, case="real")
            half = theoretical_cov_contour(g1, g2, MP1, 0.25, case="complex")
            assert abs(full - 2 * half) <= 1e-12

    def test_intersecting_contours_rejected(self):
        c1, _ = contour_pair(MP1, 0.5)
        shifted = Contour(u_l=c1.u_l, u_r=c1.u_r, v0=c1.v0 / 2)
        with pytest.raises(ValueError, match="intersect"):
            theoretical_cov_contour(G1, G1, MP1, 0.5, c1, shifted)

    def test_contour_must_enclose_support(self):
        small = Contour(u_l=0.5, u_r=1.0, v0=1.0)
        tiny = Contour(u_l=0.6, u_r=0.9, v0=0.5)
        with pytest.raises(ValueError, match="enclose"):
            theoretical_cov_contour(G1, G1, MP1, 0.5, small, tiny)

    def test_log_requires_positive_left_edge(self):
        glog = FunctionalSpec.log()
        outer = Contour(u_l=-0.5, u_r=5.0, v0=1.0)
        inner = Contour(u_l=-0.25, u_r=4.5, v0=0.5)
        with pytest.raises(ValueError, match="log"):
            theoretical_cov_contour(glog, G1, MP1, 0.5, outer, inner)

    def test_log_pair_matches_simplified(self):
        glog = FunctionalSpec.log()
        law = LimitLaw(c=0.2, H=MP1)
        via_contour = theoretical_cov_contour(glog, glog, MP1, 0.2)
        via_grid = theoretical_cov_simplified(glog, glog, law)
        assert abs(via_contour - via_grid) <= 1e-3


class TestTheoreticalCovSimplified:
    def test_linear(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert theoretical_cov_simplified(G1, G1, law) == pytest.approx(2.0)

    def test_constant(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert theoretical_cov_simplified(FunctionalSpec.poly([1.0]),
                                          FunctionalSpec.poly([1.0]), law) == 0.0

    def test_mixed(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert theoretical_cov_simplified(G1, G2, law) == pytest.approx(5.0)

    def test_rejects_non_degenerate(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(ValueError, match="degenerate"):
            theoretical_cov_simplified(G1, G1, law)


class TestBrownianBridge:
    def test_target_values(self):
        t = bb_target([0.25, 0.5])
        assert t[0, 1] == pytest.approx(0.125)
        assert t[1, 1] == pytest.approx(0.25)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            bb_covariance(_cfg(), [0.0, 0.5], 10)
        with pytest.raises(ValueError):
            bb_covariance(_cfg(dist="complex-gaussian"), [0.5], 10)

    def test_small_run_close_to_target(self):
        cov = bb_covariance(_cfg(n=100, N=200, seed=17), [0.25, 0.5], 200)
        assert abs(cov[0, 1] - 0.125) <= 0.05
        assert abs(cov[1, 1] - 0.25) <= 0.06

    def test_samples_shape(self):
        vals = bb_samples(_cfg(n=20, N=40), [0.3, 0.6, 0.9], 5, workers=1)
        assert vals.shape == (5, 3)


class TestCompareReport:
    def test_exact_pass_and_fail(self):
        report = run_clt(_cfg(n=30, N=60, seed=1), [G1], 50, workers=2)
        verdict = compare_report(report, Tolerances(abs_tol=100.0))
        assert verdict.passed
        strict = compare_report(report, Tolerances(abs_tol=0.0, rel_tol=0.0))
        assert not strict.passed
        assert strict.failures[0]["entry"] == (0, 0)

    def test_shape_mismatch(self):
        report = run_clt(_cfg(n=30, N=60, seed=1), [G1], 10, workers=2)
        report.sample_cov = np.eye(2)
        with pytest.raises(ValueError):
            compare_report(report, Tolerances())


def test_run_clt_report_fields():
    cfg = _cfg(n=30, N=60, seed=3)
    report = run_clt(cfg, [G1, G2], 20, workers=2)
    assert report.R == 20
    assert report.functionals == ["poly:0,1", "poly:0,0,1"]
    assert report.sample_cov.shape == (2, 2)
    assert report.theory_cov_contour.shape == (2, 2)
    assert report.theory_cov_simplified is not None
    np.testing.assert_allclose(report.theory_cov_contour,
                               report.theory_cov_simplified, atol=5e-3)
    assert report.wall_time > 0
    d = report.to_dict()
    assert d["n"] == 30 and len(d["sample_mean"]) == 2


def test_seed_band_consistency():
    # two disjoint seed ranges agree within joint Monte Carlo error
    R = 150
    v1 = run_replications(_cfg(n=50, N=100, seed=100), [G1], R)
    v2 = run_replications(_cfg(n=50, N=100, seed=200), [G1], R)
    var1 = v1.var(ddof=1)
    var2 = v2.var(ddof=1)
    joint_se = np.hypot(var1 * np.sqrt(2.0 / R), var2 * np.sqrt(2.0 / R))
    assert abs(var1 - var2) <= 4 * joint_se


def test_worker_env_variable(monkeypatch):
    from covspec.harness import WORKERS_ENV, _worker_count

    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _worker_count(None) == 3
    assert _worker_count(2) == 2  # explicit argument wins
    monkeypatch.delenv(WORKERS_ENV)
    assert _worker_count(None) >= 1


def test_condition_gap_zero_for_scalar_population():
    tdiag = np.ones(30)
    x = np.zeros(30)
    x[0] = 1.0
    assert direction_condition_gap(tdiag, x, 0.3 + 0.4j, 60) == 0.0


def test_condition_profile_runs_quietly():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaps = condition_profile(PopulationSpec.identity(), DirectionSpec.basis(0),
                                 0.5, 1 + 1j, ns=(20, 40, 80))
    assert all(g == 0.0 for g in gaps)


def test_thread_scaling_informational():
    # informational only: prints the measured speedup
    cfg = _cfg(n=60, N=120, seed=77)
    t0 = time.perf_counter()
    run_replications(cfg, [G1], 16, workers=1)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_replications(cfg, [G1], 16, workers=2)
    t2 = time.perf_counter() - t0
    print(f"thread scaling: 1 worker {t1:.3f}s, 2 workers {t2:.3f}s")
