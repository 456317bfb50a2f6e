import numpy as np
import pytest

from covspec import (DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig,
                     PopulationSpec, SpectralMeasure, WeightedSpectrum,
                     build_sample_cov, eig_decompose, eval_cdf, mean_functional,
                     quad_form_power, realize_direction, resolvent_quad_form,
                     w_statistic, weighted_spectrum, y_process)


def _random_instance(n=20, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g @ g.T / n
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    return a, x


class TestWeightedSpectrum:
    def test_diagonal_basis_direction(self):
        es = eig_decompose(np.diag([3.0, 1.0, 2.0]))
        ws = weighted_spectrum(es, np.array([1.0, 0.0, 0.0]))
        # all weight lands on the eigenvalue of the first diagonal entry
        np.testing.assert_allclose(ws.weights, [0.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(ws.lambdas, [1.0, 2.0, 3.0])

    def test_eigenvector_direction(self):
        a, _ = _random_instance(seed=2)
        es = eig_decompose(a)
        ws = weighted_spectrum(es, es.vectors[:, 2])
        expected = np.zeros(20)
        expected[2] = 1.0
        np.testing.assert_allclose(ws.weights, expected, atol=1e-12)

    def test_moment_identity(self):
        a, x = _random_instance(seed=3)
        ws = weighted_spectrum(eig_decompose(a), x)
        for m in range(6):
            lhs = np.dot(ws.weights, ws.lambdas ** m)
            rhs = quad_form_power(a, x, m)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_stieltjes_identity(self):
        a, x = _random_instance(seed=4)
        ws = weighted_spectrum(eig_decompose(a), x)
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = complex(rng.uniform(-1, 4), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
            lhs = np.sum(ws.weights / (ws.lambdas - z))
            rhs = resolvent_quad_form(a, x, z)
            assert abs(lhs - rhs) <= 1e-8

    def test_weights_sum_to_one(self):
        a, x = _random_instance(seed=6)
        ws = weighted_spectrum(eig_decompose(a), x)
        assert abs(ws.weights.sum() - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        es = eig_decompose(np.eye(3))
        with pytest.raises(ValueError):
            weighted_spectrum(es, np.array([1.0, 0.0]))


class TestEvalCdf:
    def test_step_values(self):
        ws = WeightedSpectrum(lambdas=np.array([1.0, 3.0]),
                              weights=np.array([0.25, 0.75]))
        assert eval_cdf(ws, 0.5) == 0.0
        assert eval_cdf(ws, 2.0) == 0.25
        assert eval_cdf(ws, 3.0) == 1.0  # right-continuous at the jump
        assert eval_cdf(ws, np.inf) == 1.0

    def test_uniform_variant(self):
        ws = WeightedSpectrum.uniform([1.0, 2.0, 3.0])
        assert eval_cdf(ws, 2.5) == pytest.approx(2.0 / 3.0)


class TestYProcess:
    def test_endpoints(self):
        ws = WeightedSpectrum(lambdas=np.array([1.0, 2.0]),
                              weights=np.array([0.75, 0.25]))
        assert y_process(ws, 0.0) == 0.0
        assert abs(y_process(ws, 1.0)) <= 1e-10

    def test_half_time(self):
        ws = WeightedSpectrum(lambdas=np.array([1.0, 2.0]),
                              weights=np.array([0.75, 0.25]))
        assert y_process(ws, 0.5) == pytest.approx(0.25)

    def test_domain(self):
        ws = WeightedSpectrum.uniform([1.0, 2.0])
        with pytest.raises(ValueError):
            y_process(ws, 1.5)

    def test_vanishes_at_one_for_random_instances(self):
        for seed in range(5):
            a, x = _random_instance(seed=seed)
            ws = weighted_spectrum(eig_decompose(a), x)
            assert abs(y_process(ws, 1.0)) <= 1e-10


class TestWStatistic:
    def test_identity(self):
        assert w_statistic(eig_decompose(np.eye(4))) == 0.0

    def test_exponential_eigenvalues(self):
        es = eig_decompose(np.diag([np.e, np.e ** 2]))
        assert w_statistic(es) == pytest.approx(3.0)

    def test_singular(self):
        es = eig_decompose(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="singular"):
            w_statistic(es)

    def test_fixed_entry_model(self):
        cfg = ModelConfig(n=1, N=1, entry_dist="real-gaussian",
                          population=PopulationSpec.identity(),
                          direction=DirectionSpec.basis(0), seed=0)
        a = build_sample_cov(cfg, entries=np.array([[2.0]]))
        assert w_statistic(eig_decompose(a)) == pytest.approx(np.log(4.0))


def _diag_moment_gap(n, N, m, seed):
    cfg = ModelConfig(n=n, N=N, entry_dist="real-gaussian",
                      population=PopulationSpec.identity(),
                      direction=DirectionSpec.basis(0), seed=seed)
    a = build_sample_cov(cfg)
    law = LimitLaw(c=n / N, H=SpectralMeasure.point(1.0))
    power = a
    for _ in range(m - 1):
        power = power @ a
    from covspec import limit_moments
    return np.abs(np.diag(power) - limit_moments(law, m)).max()


@pytest.mark.xfail(strict=True,
                   reason="stated 0.15 bound is unattainable for m=2 at n=400: "
                          "the max over n diagonal entries fluctuates at "
                          "~2*sqrt(2/N)*sqrt(2 ln n) ~ 0.35 (see decisions ledger)")
def test_diagonal_moments_uniform_bound_as_stated():
    assert _diag_moment_gap(400, 800, 1, seed=3) <= 0.15
    assert _diag_moment_gap(400, 800, 2, seed=3) <= 0.15


def test_diagonal_moments_uniform_convergence():
    # the attainable content: the uniform gap shrinks with dimension and the
    # first-moment gap meets the stated bound
    assert _diag_moment_gap(400, 800, 1, seed=3) <= 0.15
    for m in (1, 2):
        small = _diag_moment_gap(100, 200, m, seed=3)
        large = _diag_moment_gap(400, 800, m, seed=3)
        assert large < small


class TestGnFunctional:
    def test_zero_functional(self):
        # sqrt(N) (sum_i w_i g(lambda_i) - integral g dF) is exactly 0 for g = 0
        a, x = _random_instance(seed=11)
        ws = weighted_spectrum(eig_decompose(a), x)
        law = LimitLaw(c=0.5, H=SpectralMeasure.point(1.0))
        g = FunctionalSpec.poly([0.0])
        gn = np.sqrt(40) * (np.dot(ws.weights, g(ws.lambdas)) - mean_functional(law, g))
        assert gn == 0.0
