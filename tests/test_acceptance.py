"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the
Monte Carlo criteria use fixed seeds so the suite is reproducible.
"""

import json
import time

import numpy as np
from covspec import (DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, Tolerances, bb_samples,
                     build_sample_cov, cdf_limit, compare_report, density,
                     eig_decompose, estimate_mean_cov, quad_form_power,
                     realize_direction, run_clt, run_replications, solve_mbar_grid,
                     support, theoretical_cov_contour,
                     theoretical_cov_simplified, w_statistic, weighted_spectrum,
                     y_process)
from covspec.cli import main
from oracles import (closed_form_mp, cov_kernel, eval_cdf, homogeneity_residual, inverse_z,
                     perturbed_contour, proof_kernels, resolvent_quad_form)

MP1 = SpectralMeasure.point(1.0)
H12 = SpectralMeasure([1.0, 2.0], [0.5, 0.5])
X1 = FunctionalSpec.monomial(1)
X2 = FunctionalSpec.monomial(2)
X3 = FunctionalSpec.monomial(3)


def _report(name: str, detail: str = ""):
    print(f"{name}: PASS {detail}".rstrip())


def _cfg(n, N, dist="real-gaussian", pop=None, direction=None, seed=0):
    return ModelConfig(n=n, N=N, entry_dist=dist,
                       population=pop or PopulationSpec.identity(),
                       direction=direction or DirectionSpec.basis(0), seed=seed)


def test_a1_log_det_drift():
    t0 = time.perf_counter()
    cfg = _cfg(100, 500, seed=11)
    vals = np.empty(100)
    for r in range(100):
        vals[r] = w_statistic(eig_decompose(build_sample_cov(cfg, replicate=r))) / cfg.n
    target = -0.1074258
    assert abs(vals.mean() - target) <= 0.03
    assert time.perf_counter() - t0 <= 30
    _report("A1 log-determinant drift", f"(mean {vals.mean():+.5f}, target {target})")


def test_a2_weighted_esd_converges():
    t0 = time.perf_counter()
    # scalar population, basis direction
    cfg = _cfg(400, 800, seed=3)
    es = eig_decompose(build_sample_cov(cfg))
    ws = weighted_spectrum(es, realize_direction(cfg.direction, 400))
    law = LimitLaw(c=0.5, H=MP1)
    grid = np.linspace(0.0, 3.5, 200)
    F = cdf_limit(grid, law)
    sup1 = max(abs(eval_cdf(ws, x) - F[i]) for i, x in enumerate(grid))
    assert sup1 <= 0.1
    # two-atom population, uniform direction
    cfg2 = _cfg(400, 800, pop=PopulationSpec(H12),
                direction=DirectionSpec.uniform(), seed=3)
    es2 = eig_decompose(build_sample_cov(cfg2))
    ws2 = weighted_spectrum(es2, realize_direction(cfg2.direction, 400))
    law2 = LimitLaw(c=0.5, H=H12)
    grid2 = np.linspace(0.0, 6.0, 200)
    F2 = cdf_limit(grid2, law2)
    sup2 = max(abs(eval_cdf(ws2, x) - F2[i]) for i, x in enumerate(grid2))
    assert sup2 <= 0.1
    assert time.perf_counter() - t0 <= 20
    _report("A2 weighted ESD limit", f"(sup gaps {sup1:.3f}, {sup2:.3f} <= 0.1)")


def test_a3_moment_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    for _ in range(50):
        n = int(rng.integers(2, 51))
        g = rng.standard_normal((n, n))
        a = g @ g.T / n
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ws = weighted_spectrum(eig_decompose(a), x)
        for r in range(6):
            lhs = np.dot(ws.weights, ws.lambdas ** r)
            rhs = quad_form_power(a, x, r)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
    assert time.perf_counter() - t0 <= 5
    _report("A3 weighted-moment oracle", "(r = 0..5, 50 instances, 1e-8 relative)")


def test_a4_resolvent_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        g = rng.standard_normal((n, n))
        a = g @ g.T / n
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ws = weighted_spectrum(eig_decompose(a), x)
        for _ in range(20):
            z = complex(rng.uniform(-1, 4), rng.choice([-1, 1]) * rng.uniform(0.05, 2))
            eigen_sum = np.sum(ws.weights / (ws.lambdas - z))
            direct = resolvent_quad_form(a, x, z)
            assert abs(eigen_sum - direct) <= 1e-8
    assert time.perf_counter() - t0 <= 5
    _report("A4 resolvent oracle", "(20 z x 20 instances, 1e-8)")


def test_a5_mp_solver():
    t0 = time.perf_counter()
    for c in (0.25, 0.5):
        (lo, hi), = support(LimitLaw(c=c, H=MP1))
        re = np.linspace(lo * 0.9, hi * 1.1, 20)
        im = np.geomspace(1e-2, 10, 20)
        zs = (re[:, None] + 1j * im[None, :]).ravel()
        mbar, res, _ = solve_mbar_grid(zs, LimitLaw(c=c, H=MP1))
        assert res.max() <= 1e-12
        closed = np.array([closed_form_mp(z, c) for z in zs])
        assert np.max(np.abs(mbar - closed)) <= 1e-10
        back = np.array([inverse_z(m, MP1, c) for m in mbar])
        assert np.max(np.abs(back - zs)) <= 1e-8
    law = LimitLaw(c=0.25, H=MP1)
    assert abs(density(1.0, law) - 0.61637) <= 1e-4
    assert time.perf_counter() - t0 <= 5
    _report("A5 MP solver", "(quadratic oracle 1e-10, round trip 1e-8, density 1e-4)")


def test_a6_clt_real_case():
    t0 = time.perf_counter()
    cfg = _cfg(200, 400, seed=7)
    report = run_clt(cfg, [X1, X2], 400)
    mean, cov = report.sample_mean, report.sample_cov
    se = report.standard_errors
    assert abs(mean[0]) <= 3 * se[0]
    assert abs(mean[1]) <= 3 * se[1]
    assert 1.6 <= cov[0, 0] <= 2.4
    assert 3.75 <= cov[0, 1] <= 6.25
    verdict = compare_report(report, Tolerances.monte_carlo(400))
    assert verdict.passed
    assert time.perf_counter() - t0 <= 180
    _report("A6 CLT real case",
            f"(var {cov[0, 0]:.2f} in [1.6, 2.4], cov {cov[0, 1]:.2f} in [3.75, 6.25])")


def test_a7_clt_complex_case():
    t0 = time.perf_counter()
    cfg = _cfg(200, 400, dist="complex-gaussian", seed=7)
    vals = run_replications(cfg, [X1], 400)
    mean, cov = estimate_mean_cov(vals)
    se = np.sqrt(cov[0, 0] / 400)
    assert abs(mean[0]) <= 3 * se
    assert 0.8 <= cov[0, 0] <= 1.2
    assert time.perf_counter() - t0 <= 180
    _report("A7 CLT complex case", f"(var {cov[0, 0]:.2f} in [0.8, 1.2])")


def test_a8_contour_equals_simplified(monkeypatch):
    t0 = time.perf_counter()
    gs = [X1, X2, X3]
    for c in (0.25, 0.5):
        law = LimitLaw(c=c, H=MP1)
        via_moments = theoretical_cov_simplified(gs, law)
        via_contour, _ = theoretical_cov_contour(gs, law)
        assert np.abs(via_contour - via_moments).max() <= 1e-12
    # contour independence: double the node count, then narrow the ellipses
    base, _ = theoretical_cov_contour(gs, LimitLaw(c=0.5, H=MP1))
    with monkeypatch.context() as m:
        perturbed_contour(m, node_factor=2)
        fine, _ = theoretical_cov_contour(gs, LimitLaw(c=0.5, H=MP1))
    with monkeypatch.context() as m:
        perturbed_contour(m, rho_power=0.75)
        narrow, _ = theoretical_cov_contour(gs, LimitLaw(c=0.5, H=MP1))
    assert np.abs(base - fine).max() <= 1e-12
    assert np.abs(base - narrow).max() <= 1e-12
    assert time.perf_counter() - t0 <= 30
    _report("A8 contour vs simplified covariance",
            "(all monomial pairs within 1e-12, node doubling and narrower ellipses within 1e-12)")


def test_a9_homogeneity_criterion():
    for t in (0.25, 0.5, 1.0, 2.0, 5.0):
        r = homogeneity_residual(1 + 1j, 2 + 1j, SpectralMeasure.point(t), 0.5)
        assert abs(r) <= 1e-14
    r = homogeneity_residual(1 + 1j, 2 + 1j, H12, 0.5)
    assert abs(r) > 1e-4
    rc = homogeneity_residual(1 + 1j, 1 - 1j, H12, 0.5)
    assert abs(rc.imag) <= 1e-14 and rc.real > 0
    _report("A9 homogeneity criterion",
            f"(point-mass residual < 1e-14, two-atom {abs(r):.4f} > 1e-4, conjugate defect {rc.real:.4f} > 0)")


def test_a10_brownian_bridge():
    cfg = _cfg(200, 400, seed=5)
    samples = bb_samples(cfg, [0.25, 0.5], 300)
    cov = np.cov(samples, rowvar=False, ddof=1)
    assert abs(cov[0, 1] - 0.125) <= 0.03
    assert abs(cov[1, 1] - 0.25) <= 0.04
    # the process returns to zero at t = 1 in every replicate
    x = realize_direction(cfg.direction, cfg.n)
    for r in range(300):
        ws = weighted_spectrum(eig_decompose(build_sample_cov(cfg, replicate=r)), x)
        assert abs(y_process(ws, 1.0)) <= 1e-10
    _report("A10 Brownian bridge",
            f"(cov {cov[0, 1]:.3f} ~ 0.125, var {cov[1, 1]:.3f} ~ 0.25, Y(1) = 0)")


def test_a11_figure_data(tmp_path):
    config = {
        "n": 100, "N": 500, "entries": "real-gaussian",
        "population": {"atoms": [{"t": 1.0, "w": 1.0}]},
        "direction": {"kind": "e", "index": 0}, "seed": 1,
    }
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps(config))
    code = main(["figures", "--config", str(cfgfile), "--out", str(tmp_path),
                 "--which", "1"])
    assert code == 0
    with open(tmp_path / "fig1.csv", newline="") as fh:
        import csv as _csv
        reader = _csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    assert header == ["x", "kde_N20", "kde_N100", "kde_N200", "kde_N500"]
    xs = rows[:, 0]
    modes = []
    for j in range(1, 5):
        series = rows[:, j]
        mass = np.trapezoid(series, xs)
        assert abs(mass - 1.0) <= 0.02
        modes.append(xs[np.argmax(series)])
    assert all(b < a for a, b in zip(modes, modes[1:]))
    _report("A11 figure data", f"(modes {['%.1f' % m for m in modes]} strictly decreasing)")


def test_a12_proof_kernel_identities():
    rng = np.random.default_rng(1201)
    for h in (MP1, H12):
        for _ in range(50):
            z1 = complex(rng.uniform(0.2, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
            z2 = complex(rng.uniform(0.2, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
            if abs(z1 - z2) < 1e-3:
                continue
            pk = proof_kernels(z1, z2, h, 0.5)
            assert abs(pk.d_integral - pk.d_algebraic) <= 1e-9
            assert abs(pk.h_integral - pk.h_algebraic) <= 1e-9
            kernel_half = cov_kernel(z1, z2, h, 0.5) / 2
            assert abs(pk.h_integral / (1 - pk.d_integral) - kernel_half) <= 1e-9
    _report("A12 proof-kernel identities", "(integral = algebraic = kernel/2 at 1e-9)")
