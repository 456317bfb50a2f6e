import numpy as np
import pytest

from covspec import (ConvergenceError, LimitLaw, SpectralMeasure, closed_form_mp,
                     companion_transform, inverse_z, mp, solve_mbar, solve_mbar_grid,
                     support_interval)

MP1 = SpectralMeasure.point(1.0)
H13 = SpectralMeasure([1.0, 3.0], [0.5, 0.5])


def test_large_z_asymptotics():
    sol = solve_mbar(100j, MP1, 0.25)
    assert abs(sol.mbar - 0.01j) <= 1e-3
    assert sol.residual <= 1e-12


def test_matches_quadratic_oracle():
    for z in (2 + 0.5j, 0.7 + 0.2j, 1.5 + 3j):
        sol = solve_mbar(z, MP1, 0.25)
        assert abs(sol.mbar - closed_form_mp(z, 0.25)) <= 1e-10


def test_round_trip_through_inverse():
    sol = solve_mbar(1 + 1j, H13, 0.5)
    assert abs(inverse_z(sol.mbar, H13, 0.5) - (1 + 1j)) <= 1e-8
    sol2 = solve_mbar(0.7 + 0.2j, MP1, 0.5)
    assert abs(inverse_z(sol2.mbar, MP1, 0.5) - (0.7 + 0.2j)) <= 1e-8


def test_inverse_hand_value():
    # -1/i + 0.25 * 1/(1+i) = 0.125 + 0.875i
    got = inverse_z(1j, MP1, 0.25)
    np.testing.assert_allclose(got, 0.125 + 0.875j, atol=1e-15)


def test_inverse_degenerate_ratio():
    z = 3.0 + 2.0j
    assert inverse_z(-1.0 / z, MP1, 0.0) == pytest.approx(z)


def test_inverse_pole_rejected():
    with pytest.raises(ValueError, match="pole"):
        inverse_z(-1.0, MP1, 0.25)
    with pytest.raises(ValueError):
        inverse_z(0.0, MP1, 0.25)


def test_conjugate_symmetry():
    up = solve_mbar(1 + 0.5j, MP1, 0.25).mbar
    dn = solve_mbar(1 - 0.5j, MP1, 0.25).mbar
    np.testing.assert_allclose(dn, np.conj(up), atol=1e-12)
    assert up.imag > 0 and dn.imag < 0


def test_real_z_rejected():
    with pytest.raises(ValueError, match="density"):
        solve_mbar(1.0, MP1, 0.25)


def test_nonconvergence_error_carries_residual(monkeypatch):
    # a root far enough off that the Newton polish cannot repair it
    roots = mp._arrowhead_roots
    monkeypatch.setattr(mp, "_arrowhead_roots", lambda z, H, c: roots(z, H, c) * 1.5)
    with pytest.raises(ConvergenceError) as err:
        solve_mbar(1 + 0.01j, MP1, 0.25)
    assert err.value.residual > 0


def test_transform_linkage():
    sol = solve_mbar(2 + 0.5j, MP1, 0.25)
    assert sol.m == companion_transform(sol.mbar, sol.z, 0.25, "to_m")
    back = companion_transform(sol.m, sol.z, 0.25, "to_mbar")
    assert abs(back - sol.mbar) <= 1e-15


class TestCompanionTransform:
    def test_ratio_one_collapses(self):
        for z in (1 + 1j, 2 - 0.5j):
            m = 0.3 + 0.4j
            assert companion_transform(m, z, 1.0, "to_mbar") == m

    def test_zero_m(self):
        np.testing.assert_allclose(companion_transform(0.0, 1j, 0.5, "to_mbar"), 0.5j)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = complex(rng.standard_normal(), rng.standard_normal())
            z = complex(rng.standard_normal(), rng.uniform(0.1, 2))
            c = rng.uniform(0.05, 3)
            back = companion_transform(companion_transform(m, z, c, "to_mbar"), z, c, "to_m")
            assert abs(back - m) <= 1e-14 * max(1, abs(m))

    def test_zero_z_rejected(self):
        with pytest.raises(ValueError):
            companion_transform(0.1j, 0.0, 0.5, "to_m")


class TestClosedForm:
    def test_asymptotic(self):
        assert abs(closed_form_mp(100j, 0.25) - 0.01j) <= 1e-3

    def test_scaling_law(self):
        for z in (1 + 1j, 3 + 0.25j):
            lhs = closed_form_mp(z, 0.25, t=2.0)
            rhs = closed_form_mp(z / 2.0, 0.25, t=1.0) / 2.0
            assert abs(lhs - rhs) <= 1e-14

    def test_upper_half_plane_root(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = complex(rng.uniform(0.05, 4), rng.uniform(0.01, 3))
            assert closed_form_mp(z, 0.5).imag > 0


def _single_upper_root(zs, H, c):
    """Assert one root per point lies in the upper half-plane; return it as mbar."""
    y = mp._arrowhead_roots(zs, H, c)
    upper = y.imag > 0  # Im y > 0 exactly when Im mbar = Im(-1/y) > 0
    assert np.all(upper.sum(axis=1) == 1)
    return -1.0 / y[upper]


def test_uniqueness_across_initial_guesses():
    rng = np.random.default_rng(23)
    zs = rng.uniform(0.05, 4, 1000) + 1j * rng.uniform(0.02, 5, 1000)
    got, res, _ = solve_mbar_grid(zs, H13, 0.5)
    assert res.max() <= 1e-12
    assert np.max(np.abs(got - _single_upper_root(zs, H13, 0.5))) <= 1e-10


def test_many_atoms_root_selection():
    # no closed form at 50 atoms: check the selection by the unique upper
    # root, the explicit inverse map, and the mass of the law
    H = SpectralMeasure(np.geomspace(0.1, 10.0, 50), np.full(50, 1 / 50))
    rng = np.random.default_rng(5)
    zs = rng.uniform(0.0, 30.0, 200) + 1j * rng.uniform(0.01, 3.0, 200)
    mbar, res, _ = solve_mbar_grid(zs, H, 0.5)
    assert res.max() <= 1e-12
    assert np.max(np.abs(mbar - _single_upper_root(zs, H, 0.5))) <= 1e-10
    back = np.array([inverse_z(m, H, 0.5) for m in mbar])
    assert np.max(np.abs(back - zs)) <= 1e-10
    assert abs(LimitLaw(c=0.5, H=H).total_mass() - 1.0) <= 1e-6


def test_herglotz_properties():
    lo, hi = support_interval(MP1, 0.5)
    re = np.linspace(lo * 0.9, hi * 1.1, 20)
    im = np.geomspace(1e-2, 10, 20)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    mbar, res, _ = solve_mbar_grid(zs, MP1, 0.5)
    assert res.max() <= 1e-12
    assert np.all(mbar.imag > 0)
    assert np.all((zs * mbar).imag >= -1e-12)


def test_round_trip_on_grid():
    lo, hi = support_interval(H13, 0.5)
    re = np.linspace(lo * 0.9, hi * 1.1, 20)
    im = np.geomspace(1e-2, 10, 20)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    mbar, res, _ = solve_mbar_grid(zs, H13, 0.5)
    assert res.max() <= 1e-12
    back = np.array([inverse_z(m, H13, 0.5) for m in mbar])
    assert np.max(np.abs(back - zs)) <= 1e-8


class TestSupportInterval:
    def test_quarter(self):
        np.testing.assert_allclose(support_interval(MP1, 0.25), (0.25, 2.25))

    def test_ratio_one(self):
        np.testing.assert_allclose(support_interval(MP1, 1.0), (0.0, 4.0))

    def test_two_atoms(self):
        h = SpectralMeasure([1.0, 2.0], [0.5, 0.5])
        np.testing.assert_allclose(support_interval(h, 0.25), (0.25, 4.5))

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            support_interval(MP1, 0.0)
