import numpy as np
import pytest

from covspec import (DirectionSpec, FunctionalSpec, LimitLaw, ModelConfig, PopulationSpec,
                     SpectralMeasure, contour_nodes, run_clt, solve_mbar_grid, support)
from covspec.kernels import kernel_from_mbar
from oracles import closed_form_mp, cov_kernel, homogeneity_residual, proof_kernels

MP1 = SpectralMeasure.point(1.0)
G1 = FunctionalSpec.monomial(1)
GLOG = FunctionalSpec.log()
H12 = SpectralMeasure([1.0, 2.0], [0.5, 0.5])
H13 = SpectralMeasure([1.0, 3.0], [0.5, 0.5])
H5 = SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5)
# (H, c) with a positive lower edge, then with a point mass at zero
CONTOUR_CASES = [(MP1, 0.25), (MP1, 0.9), (H12, 0.5), (H5, 0.5), (MP1, 2.0), (H13, 2.0)]


class TestCovKernel:
    def test_symmetry(self):
        a = cov_kernel(1 + 1j, 1 - 2j, MP1, 0.5)
        b = cov_kernel(1 - 2j, 1 + 1j, MP1, 0.5)
        assert a == b

    def test_conjugation(self):
        a = cov_kernel(0.8 + 0.7j, 2 + 0.3j, MP1, 0.5)
        b = cov_kernel(0.8 - 0.7j, 2 - 0.3j, MP1, 0.5)
        np.testing.assert_allclose(b, np.conj(a), rtol=1e-12)

    def test_against_quadratic_oracle(self):
        z1, z2, c = 1 + 1j, 1 - 2j, 0.5
        m1, m2 = closed_form_mp(z1, c), np.conj(closed_form_mp(np.conj(z2), c))
        expected = 2 * (z2 * m2 - z1 * m1) ** 2 / (c ** 2 * z1 * z2 * (z2 - z1) * (m2 - m1))
        assert abs(cov_kernel(z1, z2, MP1, c) - expected) <= 1e-10

    def test_complex_case_is_half(self, monkeypatch):
        # run_clt puts complex entries at beta = 2 over the real-scale kernel: the
        # quadratic oracle then loses its factor 2
        monkeypatch.setenv("COVSPEC_WORKERS", "1")
        reports = [run_clt(ModelConfig(n=40, N=80, entry_dist=dist, population=PopulationSpec.identity(),
                                       direction=DirectionSpec.basis(0), seed=0), [G1], 2)
                   for dist in ("real-gaussian", "complex-gaussian")]
        beta = reports[0].theory_cov_contour[0, 0] / reports[1].theory_cov_contour[0, 0]
        assert beta == 2.0
        z1, z2, c = 1 + 1j, 1 - 2j, 0.5
        m1, m2 = closed_form_mp(z1, c), np.conj(closed_form_mp(np.conj(z2), c))
        expected = (z2 * m2 - z1 * m1) ** 2 / (c ** 2 * z1 * z2 * (z2 - z1) * (m2 - m1))
        assert abs(cov_kernel(z1, z2, MP1, c) / beta - expected) <= 1e-10

    def test_coincident_arguments_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            cov_kernel(1 + 1j, 1 + 1j + 1e-10, MP1, 0.5)


class TestProofKernels:
    def test_integral_equals_algebraic(self):
        pk = proof_kernels(0.5 + 1j, 2 + 0.5j, MP1, 0.5)
        assert abs(pk.d_integral - pk.d_algebraic) <= 1e-9
        assert abs(pk.h_integral - pk.h_algebraic) <= 1e-9

    def test_random_pairs_both_populations(self):
        rng = np.random.default_rng(8)
        for h in (MP1, H12):
            for _ in range(25):
                z1 = complex(rng.uniform(0.2, 3), rng.uniform(0.2, 2))
                z2 = complex(rng.uniform(0.2, 3), -rng.uniform(0.2, 2))
                pk = proof_kernels(z1, z2, h, 0.5)
                assert abs(pk.d_integral - pk.d_algebraic) <= 1e-9
                assert abs(pk.h_integral - pk.h_algebraic) <= 1e-9

    def test_ratio_rebuilds_kernel(self):
        z1, z2, c = 0.5 + 1j, 2 + 0.5j, 0.5
        pk = proof_kernels(z1, z2, MP1, c)
        kernel_half = cov_kernel(z1, z2, MP1, c) / 2
        assert abs(pk.h_integral / (1 - pk.d_integral) - kernel_half) <= 1e-9

    def test_d_bounded_away_from_one_near_conjugate(self):
        z1 = 1.5 + 1j
        for delta in (0.5, 0.1, 0.01, 1e-3, 1e-5):
            pk = proof_kernels(z1, np.conj(z1) + delta, MP1, 0.5)
            assert abs(1 - pk.d_integral) > 0.05


class TestHomogeneityResidual:
    def test_degenerate_vanishes(self):
        for t in (0.5, 1.0, 2.0, 3.0):
            h = SpectralMeasure.point(t)
            r = homogeneity_residual(1 + 1j, 2 + 1j, h, 0.5)
            assert abs(r) <= 1e-14

    def test_two_atom_nonzero(self):
        r = homogeneity_residual(1 + 1j, 2 + 1j, H12, 0.5)
        assert abs(r) > 1e-4

    def test_conjugate_pair_positive(self):
        r = homogeneity_residual(1 + 1j, 1 - 1j, H12, 0.5)
        assert abs(r.imag) <= 1e-14
        assert r.real > 0


class TestContour:
    def test_around_support(self):
        for h, c in CONTOUR_CASES:
            law = LimitLaw(c=c, H=h)
            bulk = support(law)
            a, b = (bulk[0][0], bulk[-1][1]) if c < 1 else (0.0, bulk[-1][1])
            (z_out, _), (z_in, _) = contour_nodes(law, [GLOG] if c < 1 else [G1])
            # the inner ellipse surrounds [a, b], the outer surrounds the inner
            assert z_in.real.min() < a and z_in.real.max() > b
            assert z_out.real.min() < z_in.real.min() and z_out.real.max() > z_in.real.max()
            assert np.abs(z_out.imag).max() > np.abs(z_in.imag).max() > 0
            if c < 1:
                assert z_out.real.min() > 0  # log stays analytic inside
            else:
                assert z_in.real.max() > 0 > z_in.real.min()  # the point mass at zero inside
            (z_out, _), (z_in, _) = contour_nodes(law, [G1])
            assert z_in.real.min() < 0 and z_in.real.max() > b
            assert z_out.real.min() < z_in.real.min() and z_out.real.max() > z_in.real.max()

    def test_nodes_conjugate_symmetric(self):
        for h, c in CONTOUR_CASES:
            law = LimitLaw(c=c, H=h)
            for z, w in contour_nodes(law, [GLOG] if c < 1 else [G1]) + contour_nodes(law, [G1]):
                # every node's conjugate is a node too
                nearest = np.abs(np.conj(z)[:, None] - z[None, :]).min(axis=1)
                assert nearest.max() <= 1e-12
                assert np.all(z.imag != 0)
                # closed path: weights sum to zero
                assert abs(w.sum()) <= 1e-12

    def test_winding_integral(self):
        # trapezoid nodes integrate 1/(z - p) to 2*pi*i for p inside, 0 outside;
        # at c = 0.9 the ellipses are thin and pass within 3e-4 of the foci
        for h, c in CONTOUR_CASES:
            law = LimitLaw(c=c, H=h)
            bulk = support(law)
            a, b = (bulk[0][0], bulk[-1][1]) if c < 1 else (0.0, bulk[-1][1])
            ellipses = contour_nodes(law, [GLOG] if c < 1 else [G1]) + contour_nodes(law, [G1])
            for z, w in ellipses:
                for p in (a, (2 * a + b) / 3, b):
                    assert abs(np.sum(w / (z - p)) - 2j * np.pi) <= 1e-11
                for p in (2.0 * b + 1.0, -b - 1.0, (a + b) / 2 + 1j * (b - a)):
                    assert abs(np.sum(w / (z - p))) <= 1e-12


def test_kernel_from_mbar_broadcasts():
    z1 = np.array([1 + 1j, 2 + 1j])
    z2 = np.array([1 - 1j, 3 - 0.5j])
    m1 = solve_mbar_grid(z1, LimitLaw(c=0.5, H=MP1))[0]
    m2 = solve_mbar_grid(z2, LimitLaw(c=0.5, H=MP1))[0]
    grid = kernel_from_mbar(z1[:, None], m1[:, None], z2[None, :], m2[None, :], 0.5)
    assert grid.shape == (2, 2)
    one = cov_kernel(z1[0], z2[1], MP1, 0.5)
    np.testing.assert_allclose(grid[0, 1], one, rtol=1e-10)
