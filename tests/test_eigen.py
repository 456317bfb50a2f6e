import numpy as np
import pytest

from covspec import (cholesky_logdet, eig_decompose, quad_form_power, resolvent_quad_form,
                     weighted_spectrum)


def test_diagonal_permutation():
    es = eig_decompose(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(es.lambdas, [1.0, 2.0, 3.0])
    # columns are signed standard basis vectors
    np.testing.assert_allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_identity():
    es = eig_decompose(np.eye(5))
    np.testing.assert_allclose(es.lambdas, np.ones(5))
    recon = (es.vectors * es.lambdas) @ es.vectors.conj().T
    np.testing.assert_allclose(recon, np.eye(5), atol=1e-12)


def test_two_by_two():
    es = eig_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(es.lambdas, [1.0, 3.0])
    v0, v1 = es.vectors[:, 0], es.vectors[:, 1]
    np.testing.assert_allclose(np.abs(v0), [1, 1] / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(v1), [1, 1] / np.sqrt(2), atol=1e-12)
    assert abs(np.dot(v0, [1, -1]) / np.sqrt(2)) > 0.999  # up to phase


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_complex_hermitian():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    es = eig_decompose(a)
    np.testing.assert_allclose(es.lambdas, [1.0, 3.0])


def test_reconstruction_idempotent():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((15, 15))
    a = g @ g.T / 15
    es = eig_decompose(a)
    recon = (es.vectors * es.lambdas) @ es.vectors.conj().T
    es2 = eig_decompose(recon)
    np.testing.assert_allclose(es.lambdas, es2.lambdas, atol=1e-10)


class TestCholeskyLogdet:
    def test_two_by_two(self):
        assert cholesky_logdet(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(np.log(3.0))

    def test_complex_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        assert cholesky_logdet(a) == pytest.approx(np.log(3.0))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            cholesky_logdet(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular sample covariance"):
            cholesky_logdet(np.diag([1.0, 0.0, 2.0]))


class TestQuadFormPower:
    def test_power_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        np.testing.assert_allclose(quad_form_power(a, x, 0), 1.0)

    def test_diag_example(self):
        a = np.diag([2.0, 3.0])
        np.testing.assert_allclose(quad_form_power(a, np.array([1.0, 0.0]), 2), 4.0)

    def test_matches_weighted_moments(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((20, 20))
        a = g @ g.T / 20
        x = rng.standard_normal(20)
        x /= np.linalg.norm(x)
        ws = weighted_spectrum(eig_decompose(a), x)
        for m in (1, 2, 3):
            expected = np.dot(ws.weights, ws.lambdas ** m)
            assert abs(quad_form_power(a, x, m) - expected) <= 1e-8 * abs(expected)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            quad_form_power(np.eye(2), np.array([1.0, 0.0]), -1)


class TestResolventQuadForm:
    def test_scalar(self):
        for aval, z in [(2.0, 1j), (0.5, 0.3 + 0.7j)]:
            got = resolvent_quad_form(np.array([[aval]]), np.array([1.0]), z)
            np.testing.assert_allclose(got, 1.0 / (aval - z))

    def test_identity(self):
        x = np.array([0.6, 0.8])
        got = resolvent_quad_form(np.eye(2), x, 1j)
        np.testing.assert_allclose(got, 0.5 + 0.5j)

    def test_matches_eigen_sum(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((20, 20))
        a = g @ g.T / 20
        x = rng.standard_normal(20)
        x /= np.linalg.norm(x)
        ws = weighted_spectrum(eig_decompose(a), x)
        z = 0.5 + 0.1j
        expected = np.sum(ws.weights / (ws.lambdas - z))
        assert abs(resolvent_quad_form(a, x, z) - expected) <= 1e-8

    def test_imag_sign(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((10, 10))
        a = g @ g.T / 10
        x = rng.standard_normal(10)
        x /= np.linalg.norm(x)
        assert resolvent_quad_form(a, x, 1.0 + 0.5j).imag > 0
        assert resolvent_quad_form(a, x, 1.0 - 0.5j).imag < 0

    def test_real_shift_rejected(self):
        with pytest.raises(ValueError):
            resolvent_quad_form(np.eye(2), np.array([1.0, 0.0]), 1.0)
