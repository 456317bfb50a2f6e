import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import covspec
from covspec import (ConfigError, DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, Tolerances, bb_covariance,
                     bb_samples, bb_target, build_sample_cov, cholesky_logdet, compare_report,
                     eig_decompose, estimate_mean_cov, gauss_rule, limit_moments, map_replicates,
                     mean_functional, quad_form_power, realize_direction, realized_law, run_clt,
                     run_replications, theoretical_cov_contour, theoretical_cov_simplified,
                     w_statistic, weighted_spectrum, y_process)
from covspec.harness import _block_size
from covspec.kernels import contour_nodes, kernel_from_mbar
from covspec.mp import solve_mbar_grid
from covspec.model import sample_cov_block
from covspec.cli import FIGURE_ONE_SIZES, FIGURES, _figure_samples
from oracles import EXP, ONE, Reciprocal, logdet_moments, perturbed_contour

MP1 = SpectralMeasure.point(1.0)
G1 = FunctionalSpec.monomial(1)
G2 = FunctionalSpec.monomial(2)
G3 = FunctionalSpec.monomial(3)
GLOG = FunctionalSpec.log()


def _cfg(n=40, N=80, dist="real-gaussian", seed=0):
    return ModelConfig(n=n, N=N, entry_dist=dist,
                       population=PopulationSpec.identity(),
                       direction=DirectionSpec.basis(0), seed=seed)


class TestRunReplications:
    def test_zero_functional(self):
        vals = run_replications(_cfg(), [FunctionalSpec.poly([0.0])], 2, workers=1)
        np.testing.assert_array_equal(vals, np.zeros((2, 1)))

    def test_identity_population_linear(self):
        # row r is sqrt(N) (x*A_r x - 1): the centering is the exact first moment
        cfg = _cfg(n=60, N=120, seed=42)
        vals = run_replications(cfg, [G1], 3, workers=1)
        x = realize_direction(cfg.direction, cfg.n)
        for r in range(3):
            a = build_sample_cov(cfg, replicate=r)
            expected = np.sqrt(cfg.N) * (quad_form_power(a, x, 1) - 1.0)
            assert abs(vals[r, 0] - expected) <= 1e-6

    @pytest.mark.parametrize("n, N, index", [(60, 120, 0), (200, 400, 0), (200, 400, 199)])
    def test_rademacher_basis_direction_is_exact(self, n, N, index):
        # x*Ax is the mean of N squared signs, exactly 1: the anchor of the
        # fourth-cumulant theory.  n = 60 takes the eigh fall-back, n = 200
        # the Gauss rule
        cfg = ModelConfig(n=n, N=N, entry_dist="rademacher", population=PopulationSpec.identity(),
                          direction=DirectionSpec.basis(index), seed=3)
        vals = run_replications(cfg, [G1, G2], 20, workers=2)
        assert np.max(np.abs(vals[:, 0])) <= 1e-12
        assert np.max(np.abs(vals[:, 1])) > 0.1

    def test_deterministic(self):
        vals1 = run_replications(_cfg(seed=5), [G1], 6, workers=1)
        vals2 = run_replications(_cfg(seed=5), [G1], 6, workers=1)
        assert vals1.tobytes() == vals2.tobytes()

    def test_worker_count_invariance(self):
        # n = 40 takes eig_decompose, n = 200 the Gauss rule
        for cfg in (_cfg(seed=9), _cfg(n=200, N=400, seed=9)):
            vals1 = run_replications(cfg, [G1, G2, GLOG], 8, workers=1)
            vals4 = run_replications(cfg, [G1, G2, GLOG], 8, workers=4)
            assert vals1.tobytes() == vals4.tobytes()

    def test_mean_near_zero(self):
        vals = run_replications(_cfg(n=50, N=100, seed=31), [G1], 100)
        mean, cov = estimate_mean_cov(vals)
        se = np.sqrt(cov[0, 0] / 100)
        assert abs(mean[0]) <= 3 * se

    @pytest.mark.parametrize("dist, R, beta", [("real-gaussian", 20000, 1),
                                               ("complex-gaussian", 10000, 2)])
    def test_exact_finite_n_moments(self, dist, R, beta):
        # T = I and x = e_1: x*Ax is a mean of N squared entries and x*A^2 x =
        # sum_i |A_i1|^2, so at every n, with no limit theory, N Var(x*Ax) =
        # 2/beta and E x*A^2 x = 1 + (n - 1 + 2/beta)/N.  Centred at 1 and at
        # 1 + n/N, the x column has mean 0 and variance 2/beta, and the x^2
        # column mean (2/beta - 1)/sqrt(N): N^(-1/2) real, 0 complex.  Each is
        # checked at 4 standard errors (seed 11, fixed before the first run);
        # against 0 the real x^2 mean sits about 5 of them away.  The
        # variance's error is taken from the sample fourth moment
        cfg = _cfg(n=20, N=40, dist=dist, seed=11)
        vals = run_replications(cfg, [G1, G2], R)
        mean = vals.mean(axis=0)
        z_mean = (mean - [0.0, (2.0 / beta - 1.0) / np.sqrt(cfg.N)]) / (
            vals.std(axis=0, ddof=1) / np.sqrt(R))
        dev = vals[:, 0] - mean[0]
        var = dev @ dev / (R - 1)
        z_var = (var - 2.0 / beta) / np.sqrt((np.mean(dev ** 4) - var ** 2) / R)
        assert np.all(np.abs(z_mean) <= 4.0) and abs(z_var) <= 4.0, (z_mean, var, z_var)

    def test_log_needs_c_below_one(self):
        cfg = _cfg(n=80, N=40)
        with pytest.raises(ValueError):
            run_replications(cfg, [FunctionalSpec.log()], 2)

    def test_r_lower_bound(self):
        with pytest.raises(ValueError):
            run_replications(_cfg(), [G1], 1)


_HASH_SCRIPT = """
import hashlib, json, os, re, tempfile
from pathlib import Path
from covspec import DirectionSpec, FunctionalSpec, ModelConfig, PopulationSpec, run_replications
from covspec.cli import main
cfg = ModelConfig(n=300, N=600, entry_dist="real-gaussian", population=PopulationSpec.identity(),
                  direction=DirectionSpec.basis(0), seed=7)
gs = [FunctionalSpec.parse(g) for g in ("poly:0,1", "poly:0,0,1", "log")]
for workers in (1, 2):
    print(hashlib.sha256(run_replications(cfg, gs, 8, workers=workers).tobytes()).hexdigest())
doc = {"n": 200, "N": 400, "entries": "real-gaussian", "seed": 0, "reps": 8,
       "population": {"atoms": [{"t": 1.0, "w": 1.0}]}, "direction": {"kind": "e", "index": 0},
       "functionals": ["poly:0,1", "poly:0,0,1", "log"]}
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(doc))
    for workers in ("1", "2"):
        os.environ["COVSPEC_WORKERS"] = workers
        assert main(["clt", "--config", str(config), "--out", tmp]) == 0
        report = (Path(tmp) / "report.json").read_bytes()
        print(hashlib.sha256(re.sub(rb'"wall_time": [^,\\n}]*', b"", report)).hexdigest())
"""


_SIMULATE_SCRIPT = """
import hashlib, json, tempfile
from pathlib import Path
from covspec.cli import main
doc = {"n": 300, "N": 600, "entries": "real-gaussian", "seed": 3,
       "population": {"atoms": [{"t": 1.0, "w": 0.5}, {"t": 3.0, "w": 0.5}]},
       "direction": {"kind": "uniform"}}
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config), "--out", tmp]) == 0
    for name in ("spectrum.csv", "summary.json"):
        print(hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
"""


def _stdout_per_blas_threads(script: str) -> list:
    """Stdout lines of ``script`` run in a fresh interpreter at 1 and at 2 OpenBLAS threads."""
    src = str(Path(covspec.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    return outputs


class TestMapReplicates:
    def test_bytes_independent_of_blas_threads(self):
        # run_replications, then the clt report without its wall time, each at 1 and 2 workers
        one, two = _stdout_per_blas_threads(_HASH_SCRIPT)
        assert len(one) == 4 and one == two
        assert one[0] == one[1] and one[2] == one[3]

    def test_simulate_bytes_independent_of_blas_threads(self):
        one, two = _stdout_per_blas_threads(_SIMULATE_SCRIPT)
        assert len(one) == 2
        assert one == two

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workspace_draws_match_fresh_build(self, monkeypatch, workers):
        # every pool thread reuses one Workspace; each replicate's matrix must
        # still be bitwise the one a fresh build_sample_cov gives
        import covspec.harness as harness

        seen, workspaces = {}, set()

        def recording_block(cfg, replicates, workspace=None):
            stack = sample_cov_block(cfg, replicates, workspace)
            for r, a in zip(replicates, stack):
                seen[r] = a.copy()
            workspaces.add(id(workspace))
            return stack

        monkeypatch.setattr(harness, "sample_cov_block", recording_block)
        pop = PopulationSpec(SpectralMeasure([1.0, 3.0], [0.5, 0.5]))
        for dist in covspec.ENTRY_DISTS:
            seen.clear()
            workspaces.clear()
            cfg = ModelConfig(n=30, N=50, entry_dist=dist, population=pop,
                              direction=DirectionSpec.basis(0), seed=12)
            map_replicates(cfg, cholesky_logdet, 7, workers=workers)
            assert sorted(seen) == list(range(7))
            assert id(None) not in workspaces and len(workspaces) <= workers
            with harness._BLAS.pinned():
                for r, a in seen.items():
                    assert a.tobytes() == build_sample_cov(cfg, replicate=r).tobytes(), (dist, r)

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
            for workers in (1, 2):
                map_replicates(_cfg(n=10, N=20), lambda s: [seen.append(get()) or 0.0 for a in s],
                               4, workers=workers)
                assert get() == 2
            assert seen == [1] * 8
        finally:
            set_(before)

    @pytest.mark.parametrize("n, N", [(n, N) for table in FIGURES.values() for n, N, _ in table])
    def test_logdet_matches_eigenvalue_sum(self, n, N):
        cfg = _cfg(n=n, N=N, seed=4)
        got = _figure_samples(cfg, n, N, 6, scale=1.0)
        want = [w_statistic(eig_decompose(build_sample_cov(cfg, replicate=r))) for r in range(6)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_singular_logdet_names_replicate(self):
        # n > N is refused before any replicate: Cholesky can factor a
        # rank-deficient A in floating point and give a finite log det
        with pytest.raises(ValueError, match="^singular sample covariance$"):
            _figure_samples(_cfg(), 20, 10, 3, scale=1.0)
        with pytest.raises(RuntimeError, match="replicate 0 failed: singular"):
            map_replicates(_cfg(n=20, N=10), lambda a: cholesky_logdet(0.0 * a), 3, workers=2)

    @pytest.mark.parametrize("n, N", [(20, 100), (50, 250)])
    def test_logdet_matches_exact_law(self, n, N):
        # the figures' engine against the exact finite-n law of W = log det A;
        # seed 18 was fixed before the first run
        R = 4000
        w = map_replicates(_cfg(n=n, N=N, seed=18), cholesky_logdet, R)
        mean, var = logdet_moments(n, N)
        dev = w - w.mean()
        s2 = dev @ dev / (R - 1)
        # SE of the sample variance from the sample fourth moment
        var_se = np.sqrt((np.mean(dev ** 4) - s2 ** 2) / R)
        assert abs(w.mean() - mean) <= 4.0 * np.sqrt(s2 / R)
        assert abs(s2 - var) <= 4.0 * var_se

    @pytest.mark.parametrize("dist", ["real-gaussian", "complex-gaussian"])
    def test_gauss_matches_weights(self, dist):
        cfg = _cfg(n=200, N=400, dist=dist, seed=6)
        x = realize_direction(cfg.direction, cfg.n)

        def sums(lambdas, weights):
            return np.stack([np.vecdot(weights, g(lambdas)) for g in (G1, G2, G3, GLOG)], axis=-1)

        def eig_sums(a):
            ws = weighted_spectrum(eig_decompose(a), x)
            return sums(ws.lambdas[None], ws.weights[None])[0]

        got = map_replicates(cfg, lambda s: [gauss_rule(a, x, sums)[2] for a in s], 5, workers=2)
        want = map_replicates(cfg, lambda s: [eig_sums(a) for a in s], 5, workers=2)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_gauss_falls_back_to_weights(self):
        # at c = 0.9 the log takes the rule past n/4 steps: eig_decompose takes over
        cfg = _cfg(n=200, N=222, seed=6)
        x = realize_direction(cfg.direction, cfg.n)
        law = realized_law(cfg)
        means = np.array([mean_functional(law, g) for g in (G1, GLOG)])
        assert gauss_rule(build_sample_cov(cfg), x,
                          lambda nodes, w: np.vecdot(w, np.log(nodes))[:, None]) is None

        def eig_lss(a):
            ws = weighted_spectrum(eig_decompose(a), x)
            return [np.sqrt(cfg.N) * (np.dot(ws.weights, np.asarray(g(ws.lambdas), dtype=float))
                                      - m) for g, m in zip((G1, GLOG), means)]

        got = run_replications(cfg, [G1, GLOG], 3, workers=2)
        want = map_replicates(cfg, lambda s: [eig_lss(a) for a in s], 3, workers=2)
        assert got.tobytes() == want.tobytes()

    def test_block_mixing_rule_and_fallback_rows_match_each_alone(self, monkeypatch):
        # replicate 4, the middle of the block [3, 4, 5], is swapped for a
        # c = 0.9 matrix, where the log takes the rule past n/4 steps
        cfg = _cfg(n=200, N=400, seed=2)
        slow = build_sample_cov(_cfg(n=200, N=222, seed=6))
        x = realize_direction(cfg.direction, cfg.n)
        means = np.array([mean_functional(realized_law(cfg), g) for g in (G1, GLOG)])

        def mixed_block(cfg, replicates, workspace):
            stack = sample_cov_block(cfg, replicates, workspace)
            if 4 in replicates:
                stack[replicates.index(4)] = slow
            return stack

        def lss(nodes, weights):
            sums = [np.vecdot(weights, g(nodes)) for g in (G1, GLOG)]
            return np.sqrt(cfg.N) * (np.stack(sums, axis=-1) - means)

        def eig_lss(a):
            ws = weighted_spectrum(eig_decompose(a), x)
            return [np.sqrt(cfg.N) * (np.dot(ws.weights, g(ws.lambdas)) - m)
                    for g, m in zip((G1, GLOG), means)]

        monkeypatch.setattr(covspec.harness, "sample_cov_block", mixed_block)
        got = run_replications(cfg, [G1, GLOG], 6, workers=1)
        for r in range(6):
            a = slow if r == 4 else build_sample_cov(cfg, replicate=r)
            rule = gauss_rule(a, x, lss)
            assert (rule is None) == (r == 4)
            want = np.asarray(eig_lss(a) if rule is None else rule[2], dtype=float)
            assert got[r].tobytes() == want.tobytes(), r

    def test_replications_need_no_eigendecomposition(self, monkeypatch):
        calls = []  # the matrices passed to each call of the rule

        def no_eig(a):
            raise AssertionError("eig_decompose called")

        def counted(*args):
            calls.append(len(args[0]))
            return covspec.eigen.gauss_rule(*args)

        monkeypatch.setattr(covspec.harness, "eig_decompose", no_eig)
        monkeypatch.setattr(covspec.harness, "gauss_rule", counted)
        vals = run_replications(_cfg(n=200, N=400, seed=2), [G1, G2, GLOG], 7, workers=2)
        assert vals.shape == (7, 3) and sorted(calls) == [1, 3, 3]  # one call per block of B = 3

    def test_failed_gauss_rule_names_replicate(self, monkeypatch):
        # a symmetric indefinite matrix in place of the sample covariance
        g = np.random.default_rng(1).standard_normal((200, 200))
        monkeypatch.setattr(covspec.harness, "sample_cov_block", lambda *a, **k: (g + g.T)[None])
        monkeypatch.setattr(covspec.harness, "eig_decompose", None)  # the rule fails first
        with pytest.raises(RuntimeError, match="replicate 0 failed: matrix is not nonnegative "
                                               "definite \\(min Ritz value"):
            run_replications(_cfg(n=200, N=400), [G1], 3, workers=2)

    def test_failed_matrix_mid_block_names_replicate(self, monkeypatch):
        # replicate 4 is the middle of the block [3, 4, 5]: the rule runs on
        # the whole block, fails, and the rerun one matrix at a time names it
        g = np.random.default_rng(1).standard_normal((200, 200))

        def bad_block(cfg, replicates, workspace=None):
            stack = sample_cov_block(cfg, replicates, workspace)
            for a, r in zip(stack, replicates):
                if r == 4:
                    a[...] = g + g.T
            return stack

        monkeypatch.setattr(covspec.harness, "sample_cov_block", bad_block)
        monkeypatch.setattr(covspec.harness, "eig_decompose", None)  # the rule fails first
        with pytest.raises(RuntimeError, match="^replicate 4 failed: matrix is not nonnegative "
                                               "definite \\(min Ritz value"):
            run_replications(_cfg(n=200, N=400), [G1], 6, workers=1)


class TestBlocks:
    """Blocks of replicates: each Gram into the block's stack, one call of fn per block."""

    @staticmethod
    def _rows(stack):
        # each matrix's log det and its every entry, so a row shows its matrix's bytes
        flat = stack.reshape(len(stack), -1)
        return np.column_stack([cholesky_logdet(stack), flat.real, flat.imag])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_match_fresh_builds(self, workers):
        pop = PopulationSpec(SpectralMeasure([1.0, 3.0], [0.5, 0.5]))
        for dist in covspec.ENTRY_DISTS:
            cfg = ModelConfig(n=12, N=30, entry_dist=dist, population=pop,
                              direction=DirectionSpec.basis(0), seed=3)
            B = _block_size(cfg)
            # a partial last block of 5 after three full blocks, and R < B
            for R in (3 * B + 5, B - 2):
                got = map_replicates(cfg, self._rows, R, workers=workers)
                assert got.shape == (R, 1 + 2 * 12 * 12)
                for r in range(R):
                    want = self._rows(build_sample_cov(cfg, replicate=r)[None])[0]
                    assert got[r].tobytes() == want.tobytes(), (dist, R, r)

    def test_failure_mid_block_names_replicate(self):
        cfg = _cfg(n=10, N=20, seed=9)
        assert _block_size(cfg) > 8
        bad = build_sample_cov(cfg, replicate=5)
        calls = []

        def fn(stack):
            calls.append(len(stack))
            if any(np.array_equal(a, bad) for a in stack):
                raise ValueError("boom")
            return np.zeros(len(stack))

        with pytest.raises(RuntimeError, match="^replicate 5 failed: boom$"):
            map_replicates(cfg, fn, 8, workers=1)
        assert calls == [8, 1, 1, 1, 1, 1, 1]  # the block, then replicates 0..5 alone

    def test_rows_must_match_matrices(self):
        # a block giving the wrong row count is rerun one matrix at a time,
        # which names the first replicate
        with pytest.raises(RuntimeError, match=r"^replicate 0 failed: fn gave shape \(2,\) "
                                               r"for 1 matrices"):
            map_replicates(_cfg(n=10, N=20), lambda s: np.zeros(len(s) + 1), 3, workers=1)

    def test_block_size(self):
        # one n x n Gram per replicate against the 1 MiB budget
        assert _block_size(_cfg(n=200, N=400)) == 3  # the clt config
        assert _block_size(_cfg(n=300, N=600)) == 1  # the benchmark's BLAS probe
        sizes = [_block_size(_cfg(n=round(0.2 * N), N=N)) for N in FIGURE_ONE_SIZES]
        assert sizes == [8192, 327, 81, 13]
        complex_cfg = _cfg(n=20, N=100, dist="complex-gaussian")
        assert 1 < _block_size(complex_cfg) < sizes[1]


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
        got, err = theoretical_cov_contour([G1], LimitLaw(c=0.5, H=MP1))
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - 2.0) <= 1e-12
        assert err <= 1e-8

    def test_mixed_pair(self):
        got, _ = theoretical_cov_contour([G1, G2], LimitLaw(c=0.5, H=MP1))
        assert abs(got[0, 1] - 5.0) <= 1e-12
        assert got[0, 1] == got[1, 0]

    def test_complex_case_half(self, monkeypatch):
        # complex entries: run_clt halves the real-scale theory, (2/c) Var(x) / 2 = 1 at c = 0.5
        monkeypatch.setenv("COVSPEC_WORKERS", "1")
        report = run_clt(_cfg(dist="complex-gaussian"), [G1], 2)
        assert abs(report.theory_cov_contour[0, 0] - 1.0) <= 1e-12

    def test_real_is_twice_complex(self, monkeypatch):
        monkeypatch.setenv("COVSPEC_WORKERS", "1")
        full = run_clt(_cfg(n=20, N=80), [G1, G2], 2)
        half = run_clt(_cfg(n=20, N=80, dist="complex-gaussian"), [G1, G2], 2)
        assert np.abs(full.theory_cov_contour - 2 * half.theory_cov_contour).max() <= 1e-12
        assert full.theory_err == 2 * half.theory_err

    @pytest.mark.parametrize("case", ["real", "complex"])
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.999, 2.0])
    def test_poly_pairs_match_exact_moments(self, c, case, monkeypatch):
        # at c = 0.999 the lower edge is 2.5e-7: ellipses kept right of 0
        # would need far more than the 2048-node cap
        gs = [G1, G2, G3]
        law = LimitLaw(c=c, H=MP1)
        want = theoretical_cov_simplified(gs, law)
        if case == "real":
            got, err = theoretical_cov_contour(gs, law)
        else:  # the theory run_clt reports for complex entries at n / N = c
            n, N = {0.25: (20, 80), 0.5: (40, 80), 0.999: (999, 1000), 2.0: (80, 40)}[c]
            monkeypatch.setenv("COVSPEC_WORKERS", "1")
            report = run_clt(_cfg(n=n, N=N, dist="complex-gaussian"), gs, 2)
            got, err, want = report.theory_cov_contour, report.theory_err, 0.5 * want
        assert np.abs(got - want).max() <= 1e-12
        assert err <= 1e-9

    def test_log_requires_positive_left_edge(self):
        for c in (1.0, 2.0):
            with pytest.raises(ValueError, match="log"):
                theoretical_cov_contour([GLOG, G1], LimitLaw(c=c, H=MP1))

    def test_log_pair_matches_simplified(self):
        for c in (0.2, 0.5):
            law = LimitLaw(c=c, H=MP1)
            via_contour, _ = theoretical_cov_contour([GLOG, G1], law)
            via_grid = theoretical_cov_simplified([GLOG, G1], law)
            assert np.abs(via_contour - via_grid).max() <= 1e-12

    def test_log_pair_against_quadrature(self):
        # (2/c) Var_F(log) under the closed-form Marchenko-Pastur density at
        # c = 0.9, where the lower edge 0.0026 nearly touches the log's branch point
        from scipy.integrate import quad

        c = 0.9
        a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
        moments = [quad(lambda x, k=k: np.log(x) ** k / (2 * np.pi * c * x), a, b,
                        weight="alg", wvar=(0.5, 0.5), epsabs=1e-13, epsrel=1e-13,
                        limit=200)[0] for k in (1, 2)]
        want = 2 / c * (moments[1] - moments[0] ** 2)
        got, err = theoretical_cov_contour([GLOG], LimitLaw(c=c, H=MP1))
        assert abs(got[0, 0] - want) <= 1e-10
        assert err <= 1e-8

    @pytest.mark.parametrize("h,c,M", [
        (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 0.3, 254),
        (MP1, 0.5, 312),
        (SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5), 0.5, 710),
        (MP1, 0.9, 2048),
    ], ids=["atoms1-3_c0.3", "delta1_c0.5", "atoms5_c0.5", "delta1_c0.9"])
    def test_blocks_match_one_shot_kernel(self, h, c, M):
        # oracle: the whole M x M kernel at once, then the same two contractions
        gs = [G1, G2, GLOG]
        law = LimitLaw(c=c, H=h)
        (z1, w1), (z2, w2) = contour_nodes(law, gs)
        assert z1.size == M
        m1, m2 = np.split(solve_mbar_grid(np.concatenate([z1, z2]), law)[0], [M])
        gw1 = np.array([g(z1) * w1 for g in gs])
        gw2 = np.array([g(z2) * w2 for g in gs])
        k = kernel_from_mbar(z1[:, None], m1[:, None], z2[None, :], m2[None, :], c)
        full = -(gw1 @ (k @ gw2.T)) / (4.0 * np.pi ** 2)
        half = -(4.0 * gw1[:, ::2] @ (k[::2, ::2] @ gw2[:, ::2].T)) / (4.0 * np.pi ** 2)
        want = (full.real + full.real.T) / 2.0
        want_err = max(float(np.max(np.abs(full - half))), float(np.max(np.abs(full.imag))))
        got, err = theoretical_cov_contour(gs, law)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert abs(err - want_err) <= 1e-14
        if M == 312:  # the benchmark's clt config gives bitwise the one-shot result
            assert got.tobytes() == want.tobytes() and err == want_err

    @pytest.mark.parametrize("h,c,gs", [
        (SpectralMeasure([1.0, 2.0], [0.5, 0.5]), 0.5, [G1, G2, GLOG]),
        (SpectralMeasure([1.0, 2.0], [0.5, 0.5]), 0.5, [G1, G2, G3]),
        (SpectralMeasure([1.0, 3.0], [0.5, 0.5]), 2.0, [G1, G2]),
        (SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5), 0.5, [G1, G2, GLOG]),
    ], ids=["atoms1-2_c0.5", "atoms1-2_c0.5_poly", "atoms1-3_c2", "atoms5_c0.5"])
    def test_independent_of_the_contour(self, monkeypatch, h, c, gs):
        base, _ = theoretical_cov_contour(gs, LimitLaw(c=c, H=h))
        with monkeypatch.context() as m:
            perturbed_contour(m, node_factor=2)
            doubled, _ = theoretical_cov_contour(gs, LimitLaw(c=c, H=h))
        with monkeypatch.context() as m:
            perturbed_contour(m, rho_power=0.75)
            narrower, _ = theoretical_cov_contour(gs, LimitLaw(c=c, H=h))
        scale = np.abs(base).max()
        assert np.abs(doubled - base).max() <= 1e-12 * scale
        assert np.abs(narrower - base).max() <= 1e-12 * scale


class TestTheoreticalCovSimplified:
    def test_linear(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert theoretical_cov_simplified([G1], law)[0, 0] == pytest.approx(2.0)

    def test_constant(self):
        law = LimitLaw(c=0.5, H=MP1)
        assert theoretical_cov_simplified([FunctionalSpec.poly([1.0])], law)[0, 0] == 0.0

    def test_mixed(self):
        law = LimitLaw(c=0.5, H=MP1)
        got = theoretical_cov_simplified([G1, G2], law)
        assert got[0, 1] == pytest.approx(5.0)
        assert got[1, 0] == got[0, 1]

    def test_rejects_non_degenerate(self):
        law = LimitLaw(c=0.5, H=SpectralMeasure([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(ValueError, match="degenerate"):
            theoretical_cov_simplified([G1], law)

    def test_log_rejects_mass_at_zero(self):
        # at c = 2 the law has an atom of mass 1/2 at zero, where log is undefined
        law = LimitLaw(c=2.0, H=MP1)
        for gs in ([GLOG, GLOG], [GLOG, G1], [G1, GLOG]):
            with pytest.raises(ValueError, match="log functional needs the spectrum bounded"):
                theoretical_cov_simplified(gs, law)
        got = theoretical_cov_simplified([G1, G2], law)
        assert got[0, 1] == pytest.approx(4.0 + 2.0 * 2.0)  # 4 + 2c


class TestReciprocalFunctional:
    # 1/x is not built in: both theory paths and the mean read only its call,
    # kind and needs_positive_support.  At H = delta_1, Var(1/x) = 2/(1-c)^3,
    # Cov(1/x, x) = -2/(1-c), Var(x) = 2, and the mean of 1/x is 1/(1-c).
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_closed_forms(self, c):
        law = LimitLaw(c=c, H=MP1)
        gs = [Reciprocal(), G1]
        want = np.array([[2.0 / (1 - c) ** 3, -2.0 / (1 - c)], [-2.0 / (1 - c), 2.0]])
        got, err = theoretical_cov_contour(gs, law)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        assert err >= np.max(np.abs(got - want))
        simplified = theoretical_cov_simplified(gs, law)
        assert np.max(np.abs(simplified - want) / np.abs(want)) <= 1e-12
        assert abs(mean_functional(law, Reciprocal()) * (1 - c) - 1.0) <= 1e-13

    def test_pole_at_mass_at_zero(self):
        # at c = 2 the law has a point mass at the pole
        law = LimitLaw(c=2.0, H=MP1)
        for theory in (theoretical_cov_contour, theoretical_cov_simplified):
            with pytest.raises(ConfigError, match="^log functional needs the spectrum bounded "
                                                  "away from zero$"):
                theory([Reciprocal(), G1], law)


class TestEntireFunctional:
    # at c > 1 the law has the point mass 1 - 1/c at zero, which the bulk's
    # midpoint rule does not see: a g that is not a polynomial takes g(0) times it
    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_mean_counts_the_mass_at_zero(self, c):
        law = LimitLaw(c=c, H=MP1)
        assert abs(mean_functional(law, ONE) - 1.0) <= 1e-13
        # the exponential series of the exact moments, an oracle that reads no rule
        series = sum(limit_moments(law, k) / math.factorial(k) for k in range(80))
        assert abs(mean_functional(law, EXP) - series) <= 1e-12 * series

    def test_constant_has_no_variance(self):
        law = LimitLaw(c=2.0, H=MP1)
        assert abs(theoretical_cov_simplified([ONE], law)[0, 0]) <= 1e-13

    def test_contour_matches_simplified_with_mass_at_zero(self):
        law = LimitLaw(c=2.0, H=MP1)
        gs = [EXP, G1]
        contour, _ = theoretical_cov_contour(gs, law)
        simplified = theoretical_cov_simplified(gs, law)
        assert np.max(np.abs(contour - simplified) / np.abs(contour)) <= 1e-12


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

    def test_single_replicate_rejected(self):
        # one replicate has no sample covariance: np.cov would return NaN
        with pytest.raises(ConfigError, match="at least 2"):
            bb_covariance(_cfg(), [0.5], 1)

    def test_small_run_close_to_target(self):
        cov = bb_covariance(_cfg(n=100, N=200, seed=17), [0.25, 0.5], 200)
        assert abs(cov[0, 1] - 0.125) <= 0.05
        assert abs(cov[1, 1] - 0.25) <= 0.06

    def test_samples_shape(self, monkeypatch):
        monkeypatch.setenv("COVSPEC_WORKERS", "1")
        vals = bb_samples(_cfg(n=20, N=40), [0.3, 0.6, 0.9], 5)
        assert vals.shape == (5, 3)

    @pytest.mark.parametrize("dist, n", [("real-gaussian", 181), ("complex-gaussian", 128)])
    def test_samples_are_each_matrix_alone(self, monkeypatch, dist, n):
        # one decomposition per block of B = 4: blocks 0-3, 4-7 and the partial 8-9
        cfg = ModelConfig(n=n, N=2 * n, entry_dist=dist, population=PopulationSpec.identity(),
                          direction=DirectionSpec.uniform(), seed=7)
        assert _block_size(cfg) == 4
        grid = [0.1, 0.5, 0.9]
        x = realize_direction(cfg.direction, n)
        want = np.empty((10, len(grid)))
        with covspec.harness._BLAS.pinned():  # one BLAS thread, as in every replicate
            for r in range(10):
                ws = weighted_spectrum(eig_decompose(build_sample_cov(cfg, replicate=r)), x)
                want[r] = [y_process(ws, t) for t in grid]
        for workers in (1, 2, 3):
            monkeypatch.setenv("COVSPEC_WORKERS", str(workers))
            assert bb_samples(cfg, grid, 10).tobytes() == want.tobytes(), workers


class TestCompareReport:
    def test_exact_pass_and_fail(self, monkeypatch):
        monkeypatch.setenv("COVSPEC_WORKERS", "2")
        report = run_clt(_cfg(n=30, N=60, seed=1), [G1], 50)
        verdict = compare_report(report, Tolerances(rel_tol=100.0))
        assert verdict.passed
        strict = compare_report(report, Tolerances(rel_tol=0.0))
        assert not strict.passed
        assert strict.failures[0]["entry"] == (0, 0)

    def test_shape_mismatch(self, monkeypatch):
        monkeypatch.setenv("COVSPEC_WORKERS", "2")
        report = run_clt(_cfg(n=30, N=60, seed=1), [G1], 10)
        report.sample_cov = np.eye(2)
        with pytest.raises(ValueError):
            compare_report(report, Tolerances())


def test_run_clt_report_fields(monkeypatch):
    monkeypatch.setenv("COVSPEC_WORKERS", "2")
    cfg = _cfg(n=30, N=60, seed=3)
    report = run_clt(cfg, [G1, G2], 20)
    assert report.R == 20
    assert report.functionals == ["poly:0,1", "poly:0,0,1"]
    assert report.sample_cov.shape == (2, 2)
    assert report.theory_cov_contour.shape == (2, 2)
    assert report.theory_cov_simplified is not None
    np.testing.assert_allclose(report.theory_cov_contour,
                               report.theory_cov_simplified, atol=1e-12)
    assert 0 <= report.theory_err <= 1e-8
    assert report.wall_time > 0
    d = report.to_dict()
    assert d["n"] == 30 and len(d["sample_mean"]) == 2
    assert list(d) == ["R", "functionals", "sample_mean", "sample_cov", "theory_cov_contour",
                       "theory_cov_simplified", "standard_errors", "n", "N", "seed",
                       "entry_dist", "wall_time", "theory_err"]
    assert d["theory_err"] == report.theory_err


def test_run_clt_complex_entries_halve_the_real_scale_theory(monkeypatch):
    # complex entries (E|X|^4 = 2): the limiting covariance is the real-entry one over beta = 2
    monkeypatch.setenv("COVSPEC_WORKERS", "1")
    cfg = _cfg(n=40, N=80, dist="complex-gaussian", seed=4)
    report = run_clt(cfg, [G1, G2], 6)
    law = realized_law(cfg)
    contour, err = theoretical_cov_contour([G1, G2], law)
    simplified = theoretical_cov_simplified([G1, G2], law)
    assert report.theory_cov_contour.tobytes() == (contour / 2.0).tobytes()
    assert report.theory_err == err / 2.0
    assert report.theory_cov_simplified.tobytes() == (simplified / 2.0).tobytes()
    assert abs(report.theory_cov_contour[0, 0] - 1.0) <= 1e-12  # (2/c) Var(x) / 2 = 1 at c = 0.5


def test_run_clt_builds_the_density_rule_once(monkeypatch):
    # the law that centres the replicates also gives both theory paths
    import covspec.law

    builds = []
    rule = covspec.law._midpoint_rule
    monkeypatch.setattr(covspec.law, "_midpoint_rule", lambda law: builds.append(1) or rule(law))
    monkeypatch.setenv("COVSPEC_WORKERS", "1")
    run_clt(_cfg(n=100, N=200, seed=3), [G1, GLOG], 4)
    assert len(builds) == 1


def test_run_clt_theory_failure_runs_no_replicate(monkeypatch):
    # support refuses the atom, so the replicates never square it
    calls = []
    monkeypatch.setattr(covspec.harness, "map_replicates", lambda *a, **k: calls.append(a))
    cfg = ModelConfig(n=40, N=80, entry_dist="real-gaussian",
                      population=PopulationSpec(SpectralMeasure.point(1e160)),
                      direction=DirectionSpec.basis(0), seed=0)
    with pytest.raises(ArithmeticError, match="^support: c w_k t_k"):
        run_clt(cfg, [G1], 4)
    assert calls == []


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


def test_run_clt_non_finite_direction_draws_no_replicate(monkeypatch):
    # refused at once: no replicate may meet a NaN direction
    monkeypatch.setattr(covspec.harness, "sample_cov_block", None)
    cfg = ModelConfig(n=3, N=12, entry_dist="real-gaussian", population=PopulationSpec.identity(),
                      direction=DirectionSpec.custom([np.inf, 1.0, 0.0]))
    with pytest.raises(ConfigError, match="custom direction vector must be finite"):
        run_clt(cfg, [G1], 4)


def test_run_clt_no_positive_atom_draws_no_replicate(monkeypatch):
    # the theory comes first and refuses a population without bulk
    monkeypatch.setattr(covspec.harness, "sample_cov_block", None)
    cfg = ModelConfig(n=3, N=12, entry_dist="real-gaussian",
                      population=PopulationSpec(SpectralMeasure.point(0.0)),
                      direction=DirectionSpec.basis(0))
    with pytest.raises(ConfigError, match="^population needs an atom t > 0"):
        run_clt(cfg, [G1], 4)


def test_contour_theory_no_positive_atom():
    with pytest.raises(ConfigError, match="^population needs an atom t > 0"):
        theoretical_cov_contour([G1], LimitLaw(c=0.5, H=SpectralMeasure.point(0.0)))


@pytest.mark.parametrize("entry", ["run_replications", "run_clt", "theoretical_cov_contour"])
def test_no_functional_is_a_config_error(monkeypatch, entry):
    # refused before any draw, not reported as a failed replicate or a matmul error
    monkeypatch.setattr(covspec.harness, "sample_cov_block", None)
    call = {"run_replications": lambda: run_replications(_cfg(), [], 4),
            "run_clt": lambda: run_clt(_cfg(), [], 4),
            "theoretical_cov_contour": lambda: theoretical_cov_contour([], LimitLaw(c=0.5, H=MP1))}
    with pytest.raises(ConfigError, match="^need at least one functional$"):
        call[entry]()


@pytest.mark.parametrize("workers", [0, -2, 1.5, True])
def test_bad_workers_argument_draws_no_replicate(monkeypatch, workers):
    # the argument is checked like COVSPEC_WORKERS: a config error before any draw
    drawn = []
    block = covspec.harness.sample_cov_block
    monkeypatch.setattr(covspec.harness, "sample_cov_block",
                        lambda cfg, reps, ws: drawn.append(reps) or block(cfg, reps, ws))
    with pytest.raises(ConfigError, match="^workers must be a positive integer"):
        map_replicates(_cfg(), lambda stack: np.zeros(len(stack)), 4, workers=workers)
    assert drawn == []
    map_replicates(_cfg(), lambda stack: np.zeros(len(stack)), 4, workers=np.int64(2))
    assert drawn  # the hook sees the draws of a valid run


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
