import itertools
import re

import numpy as np
import pytest

import covspec
from covspec import (DirectionSpec, FunctionalSpec, ModelConfig, PopulationSpec,
                     SpectralMeasure, build_sample_cov, cholesky_logdet, eig_decompose,
                     gauss_rule, map_replicates, quad_form_power, realize_direction,
                     weighted_spectrum)
from covspec.eigen import _check_lanczos
from covspec.harness import _block_size
from covspec.model import ENTRY_DISTS
from oracles import resolvent_quad_form


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


class TestEigDecomposeStack:
    @pytest.mark.parametrize("dist", ["real-gaussian", "complex-gaussian"])
    def test_stack_matches_each_matrix_alone(self, dist):
        cfg = ModelConfig(n=9, N=20, entry_dist=dist, population=PopulationSpec.identity(),
                          direction=DirectionSpec.basis(0), seed=2)
        stack = np.stack([build_sample_cov(cfg, replicate=r) for r in range(6)]).reshape(2, 3, 9, 9)
        es = eig_decompose(stack)
        assert es.lambdas.shape == (2, 3, 9) and es.vectors.shape == (2, 3, 9, 9)
        for i, j in itertools.product(range(2), range(3)):
            alone = eig_decompose(stack[i, j])
            assert es.lambdas[i, j].tobytes() == alone.lambdas.tobytes()
            assert es.vectors[i, j].tobytes() == alone.vectors.tobytes()

    def test_stack_hermitian_check_on_each_matrix_scale(self):
        skew = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-8], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            eig_decompose(skew)


# each self-check of eig_decompose and how to trip it on the matrices whose
# (0, 0) entry is the mark: a spoiled input, or eigenvectors spoiled by eigh
_EIG_FAULTS = {
    "eigenvector matrix lost orthonormality": (None, lambda u: u * (1.0 + 1e-6)),
    # the columns reversed stay orthonormal but pair with the wrong eigenvalues
    "eigendecomposition reconstruction failed": (None, lambda u: u[..., ::-1]),
    "matrix is not nonnegative definite (min eig": (lambda a: -a, None),
}


class TestEigDecomposeChecks:
    CFG = ModelConfig(n=6, N=12, entry_dist="real-gaussian", population=PopulationSpec.identity(),
                      direction=DirectionSpec.basis(0), seed=4)

    @staticmethod
    def _spoil(monkeypatch, fault, mark):
        """The input spoiler for ``fault``, with eigh patched where the fault is in its vectors."""
        spoil_input, spoil_vectors = _EIG_FAULTS[fault]
        if spoil_vectors is not None:
            eigh = np.linalg.eigh

            def spoiled(a):
                lams, u = eigh(a)
                bad = a[..., 0, 0] == mark
                u[bad] = spoil_vectors(u[bad])
                return lams, u

            monkeypatch.setattr(covspec.eigen.np.linalg, "eigh", spoiled)

        def spoil(stack):
            if spoil_input is None:
                return stack
            bad = (stack[..., 0, 0] == mark)[..., None, None]
            return np.where(bad, spoil_input(stack), stack)
        return spoil

    @pytest.mark.parametrize("fault", list(_EIG_FAULTS))
    def test_check_fires_alone_and_mid_stack(self, monkeypatch, fault):
        stack = np.stack([build_sample_cov(self.CFG, replicate=r) for r in range(3)])
        spoil = self._spoil(monkeypatch, fault, stack[1, 0, 0])
        eig_decompose(spoil(stack[[0, 2]]))  # the other two pass
        for a in (stack[1], stack):
            with pytest.raises(RuntimeError, match=re.escape(fault)):
                eig_decompose(spoil(a))

    @pytest.mark.parametrize("fault", list(_EIG_FAULTS))
    def test_failure_names_the_replicate(self, monkeypatch, fault):
        assert _block_size(self.CFG) > 5  # replicate 2 is the middle of one block
        spoil = self._spoil(monkeypatch, fault, build_sample_cov(self.CFG, replicate=2)[0, 0])
        with pytest.raises(RuntimeError, match="^replicate 2 failed: " + re.escape(fault)):
            map_replicates(self.CFG, lambda s: eig_decompose(spoil(s)).lambdas, 5, workers=1)


    def test_failed_eigh_is_a_runtime_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(covspec.eigen.np.linalg, "eigh", no_convergence)
        with pytest.raises(RuntimeError, match="^eig did not converge$"):
            eig_decompose(np.eye(3))


class TestLanczosCheck:
    """Three diagonal matrices whose first two Lanczos vectors are unit
    vectors satisfy both checks exactly; spoiling the middle one must fail."""

    @staticmethod
    def _runs():
        d = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 5.0, 7.0], [0.5, 1.5, 2.5, 3.5]])
        a = np.stack([np.diag(row) for row in d])
        t = np.stack([np.diag(row[:2]) for row in d])
        basis = np.tile(np.eye(4)[:2], (3, 1, 1))
        return a, basis, t, np.zeros((3, 4)), np.linalg.matrix_norm(a)

    def test_exact_runs_pass(self):
        _check_lanczos(*self._runs())

    def test_middle_basis_not_orthonormal(self):
        a, basis, t, w, norm_a = self._runs()
        basis[1, 1] = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        with pytest.raises(RuntimeError, match="^Lanczos vectors lost orthonormality$"):
            _check_lanczos(a, basis, t, w, norm_a)

    def test_middle_krylov_relation_broken(self):
        a, basis, t, w, norm_a = self._runs()
        t[1, 0, 0] += 1e-3
        with pytest.raises(RuntimeError, match="^Lanczos Krylov relation failed$"):
            _check_lanczos(a, basis, t, w, norm_a)


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


    def test_stack_checks_each_matrix(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((5, 4, 9))
        stack = y @ y.transpose(0, 2, 1)
        got = cholesky_logdet(stack)
        assert got.shape == (5,)
        for a, value in zip(stack, got):
            assert value == cholesky_logdet(a)
        # a defect small against the stack's largest entry but not against its own matrix
        skew = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-8], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            cholesky_logdet(skew)
        with pytest.raises(ValueError, match="singular sample covariance"):
            cholesky_logdet(np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0])]))


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


POLYS = [FunctionalSpec.monomial(d) for d in (1, 2, 5)]
WITH_LOG = POLYS + [FunctionalSpec.log()]
FIVE_ATOMS = SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5)


def _sums(gs):
    return lambda nodes, weights: np.stack([np.vecdot(weights, g(nodes)) for g in gs], axis=-1)


def _gauss_against_eigh(a, x, gs):
    """The Gauss rule's sums and the eigendecomposition's, and the rule itself."""
    rule = gauss_rule(a, x, _sums(gs))
    assert rule is not None, "the rule gave up"
    nodes, weights, got = rule
    ws = weighted_spectrum(eig_decompose(a), x)
    return got, _sums(gs)(ws.lambdas[None], ws.weights[None])[0], nodes, weights


def _sample_cov(n, N, dist="real-gaussian", h=None, direction=None, seed=3):
    cfg = ModelConfig(n=n, N=N, entry_dist=dist,
                      population=PopulationSpec(h or SpectralMeasure.point(1.0)),
                      direction=direction or DirectionSpec.basis(0), seed=seed)
    return build_sample_cov(cfg), realize_direction(cfg.direction, n)


SEED_CAP = 20  # of seeds 0-19, 11 stop at k = 48 along e_0 and 6 along a uniform direction


def _stopping_at(k, direction=None):
    """The first n = 200, N = 400 sample covariance, scanning seeds 0, 1, ...,
    SEED_CAP - 1, whose Gauss rule for WITH_LOG stops at k steps; and the direction."""
    for seed in range(SEED_CAP):
        a, x = _sample_cov(200, 400, direction=direction, seed=seed)
        rule = gauss_rule(a, x, _sums(WITH_LOG))
        if rule is not None and rule[0].size == k:
            return a, x
    raise AssertionError(f"no seed below {SEED_CAP} gives a rule that stops at k = {k}")


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


class TestGaussRule:
    # at n = 200 the rule may take up to 48 steps, at n = 400 up to 96
    @pytest.mark.parametrize("case", [
        dict(dist=dist) for dist in ENTRY_DISTS] + [
        dict(dist="real-gaussian", direction=DirectionSpec.custom(
            np.arange(1, 201) * np.exp(0.3j * np.arange(200)))),
        dict(dist="complex-gaussian", direction=DirectionSpec.custom(
            np.cos(np.arange(200)) + 1j * np.sin(3 * np.arange(200)))),
        dict(n=400, N=800, h=FIVE_ATOMS, direction=DirectionSpec.uniform()),
    ], ids=[*ENTRY_DISTS, "complex-direction", "complex-entries-and-direction", "five-atoms"])
    def test_matches_eigendecomposition(self, case):
        case = dict(dict(n=200, N=400), **case)
        a, x = _sample_cov(**case)
        got, want, nodes, weights = _gauss_against_eigh(a, x, WITH_LOG)
        assert _close(got, want)
        assert nodes.size <= case["n"] // 4 and abs(weights.sum() - 1.0) <= 1e-12

    def test_singular_matrix_polynomials(self):
        # c = 2: A has rank N = n/2, and its zero eigenvalue carries weight
        a, x = _sample_cov(200, 100)
        got, want, _, _ = _gauss_against_eigh(a, x, POLYS)
        assert _close(got, want)

    def test_krylov_space_exhausted_before_first_checkpoint(self):
        # four distinct eigenvalues: the Krylov space of any x has dimension 4
        a = np.diag(np.repeat([0.5, 1.0, 2.0, 4.0], 50))
        x = np.linspace(1.0, 2.0, 200)
        got, want, nodes, _ = _gauss_against_eigh(a, x / np.linalg.norm(x), WITH_LOG)
        np.testing.assert_allclose(nodes, [0.5, 1.0, 2.0, 4.0], rtol=1e-14)
        assert _close(got, want)

    def test_eigenvector_direction_breaks_down_at_step_one(self):
        a = np.diag(np.linspace(2.0, 3.0, 200))
        nodes, weights, got = gauss_rule(a, np.eye(200)[0], _sums(WITH_LOG))
        np.testing.assert_array_equal(nodes, [2.0])
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_allclose(got, [2.0, 4.0, 32.0, np.log(2.0)], rtol=1e-15)

    @pytest.mark.parametrize("n", [200, 400])
    def test_gives_up_where_eigh_is_cheaper(self, n):
        # c = 0.9: log needs about 150 steps, past n/4; the moves at k = 32 and
        # 40 show it, so the rule gives up at k = 40, the third decomposition
        a, x = _sample_cov(n, int(n / 0.9))
        sums, calls = _sums(WITH_LOG), []
        assert gauss_rule(a, x, lambda *rule: calls.append(1) or sums(*rule)) is None
        assert len(calls) == 3
        got, want, _, _ = _gauss_against_eigh(a, x, POLYS)  # polynomials settle early
        assert _close(got, want)

    def test_below_two_checkpoints_gives_up_at_once(self):
        a, x = _sample_cov(127, 254)
        assert gauss_rule(a, x, _sums(POLYS)) is None

    def test_indefinite_matrix_rejected(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((200, 200))
        x = rng.standard_normal(200)
        with pytest.raises(RuntimeError, match="not nonnegative definite"):
            gauss_rule(g + g.T, x / np.linalg.norm(x), _sums(POLYS))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            gauss_rule(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.0]), _sums(POLYS))

    def test_stack_results_match_each_matrix_alone(self):
        # one matrix stops at k = 40, one at k = 48, one gives up (c = 0.9)
        # and one breaks down at step 1; the rule on any stack of them gives
        # each matrix bitwise its own result
        stops_40, x = _stopping_at(40)
        mats = [stops_40, _stopping_at(48)[0], _sample_cov(200, 222)[0], 2.0 * np.eye(200)]
        sums = _sums(WITH_LOG)

        def as_bytes(rule):
            return None if rule is None else [np.asarray(part).tobytes() for part in rule]

        alone = [gauss_rule(a, x, sums) for a in mats]
        assert [None if rule is None else rule[0].size for rule in alone] == [40, 48, None, 1]
        want = [as_bytes(rule) for rule in alone]
        stacks = [order for size in (2, 3, 4) for order in itertools.permutations(range(4), size)]
        for order in stacks:
            got = gauss_rule(np.stack([mats[i] for i in order]), x, sums)
            assert [as_bytes(rule) for rule in got] == [want[i] for i in order], order

    def test_fn_sees_running_matrices_once_per_decomposition(self):
        stops_40, x = _stopping_at(40)
        sums, shapes = _sums(WITH_LOG), []

        def fn(nodes, weights):
            shapes.append((nodes.shape, weights.shape))
            return sums(nodes, weights)

        gauss_rule(np.stack([stops_40, _stopping_at(48)[0]]), x, fn)
        assert shapes == [((2, 24),) * 2, ((2, 32),) * 2, ((2, 40),) * 2, ((1, 48),) * 2]

    def test_breakdown_between_checkpoints_moves_no_other_record(self):
        # 36 distinct eigenvalues: the diagonal matrix breaks down at step 36,
        # which decomposes the whole stack, but the sample covariance's
        # record moves only at checkpoints, so it still stops at k = 48
        a, x = _stopping_at(48, DirectionSpec.uniform())
        exhausted = np.diag(np.resize(np.linspace(0.1, 10.0, 36), 200))
        sums, shapes = _sums(WITH_LOG), []

        def fn(nodes, weights):
            shapes.append(nodes.shape)
            return sums(nodes, weights)

        alone = [gauss_rule(m, x, sums) for m in (a, exhausted)]
        got = gauss_rule(np.stack([a, exhausted]), x, fn)
        assert shapes == [(2, 24), (2, 32), (2, 36), (1, 40), (1, 48)]
        for rule, want in zip(got, alone):
            assert [part.tobytes() for part in rule] == [part.tobytes() for part in want]

    @pytest.mark.parametrize("fn, shape", [
        (lambda nodes, weights: np.vecdot(weights, nodes), "(2,)"),
        (lambda nodes, weights: np.ones((1, 3)), "(1, 3)"),
        (lambda nodes, weights: np.ones((3, 1)), "(3, 1)"),
    ], ids=["number-per-matrix", "too-few-rows", "too-many-rows"])
    def test_fn_must_give_one_row_per_matrix(self, fn, shape):
        a, x = _sample_cov(200, 400)
        with pytest.raises(ValueError, match=f"^fn gave shape {re.escape(shape)} for 2 matrices, "
                                             "not one row each$"):
            gauss_rule(np.stack([a, a]), x, fn)

    def test_stack_with_indefinite_matrix_rejected(self):
        a, x = _sample_cov(200, 400)
        g = np.random.default_rng(2).standard_normal((200, 200))
        with pytest.raises(RuntimeError, match="min Ritz value"):
            gauss_rule(np.stack([a, g + g.T, a]), x, _sums(POLYS))

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="direction not unit"):
            gauss_rule(np.eye(3), np.array([1.0, 1.0, 0.0]), _sums(POLYS))
