import numpy as np
import pytest

from covspec import (ConvergenceError, LimitLaw, SpectralMeasure, density, mp, solve_mbar_grid,
                     support)
from oracles import closed_form_mp, inverse_z, total_mass

MP1 = SpectralMeasure.point(1.0)
H13 = SpectralMeasure([1.0, 3.0], [0.5, 0.5])


def solve_mbar(z, H, c):
    """(mbar, residual) at the one point z."""
    mbar, res, _ = solve_mbar_grid(np.array([z]), LimitLaw(c=c, H=H))
    return complex(mbar[0]), float(res[0])


def test_large_z_asymptotics():
    mbar, residual = solve_mbar(100j, MP1, 0.25)
    assert abs(mbar - 0.01j) <= 1e-3
    assert residual <= 1e-12


def test_matches_quadratic_oracle():
    for z in (2 + 0.5j, 0.7 + 0.2j, 1.5 + 3j):
        mbar, _ = solve_mbar(z, MP1, 0.25)
        assert abs(mbar - closed_form_mp(z, 0.25)) <= 1e-10


def test_round_trip_through_inverse():
    mbar, _ = solve_mbar(1 + 1j, H13, 0.5)
    assert abs(inverse_z(mbar, H13, 0.5) - (1 + 1j)) <= 1e-8
    mbar2, _ = solve_mbar(0.7 + 0.2j, MP1, 0.5)
    assert abs(inverse_z(mbar2, MP1, 0.5) - (0.7 + 0.2j)) <= 1e-8


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
    up, _ = solve_mbar(1 + 0.5j, MP1, 0.25)
    dn, _ = solve_mbar(1 - 0.5j, MP1, 0.25)
    np.testing.assert_allclose(dn, np.conj(up), atol=1e-12)
    assert up.imag > 0 and dn.imag < 0


def test_real_z_rejected():
    with pytest.raises(ValueError, match="density"):
        solve_mbar(1.0, MP1, 0.25)


def test_nonconvergence_error_carries_residual(monkeypatch):
    # a root far enough off that the Newton polish cannot repair it
    roots = mp._arrowhead_roots
    monkeypatch.setattr(mp, "_arrowhead_roots", lambda z, law: roots(z, law) * 1.5)
    with pytest.raises(ConvergenceError) as err:
        solve_mbar(1 + 0.01j, MP1, 0.25)
    assert err.value.residual > 0


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
    y = mp._arrowhead_roots(zs, LimitLaw(c=c, H=H))
    upper = y.imag > 0  # Im y > 0 exactly when Im mbar = Im(-1/y) > 0
    assert np.all(upper.sum(axis=1) == 1)
    return -1.0 / y[upper]


def test_uniqueness_across_initial_guesses():
    rng = np.random.default_rng(23)
    zs = rng.uniform(0.05, 4, 1000) + 1j * rng.uniform(0.02, 5, 1000)
    got, res, _ = solve_mbar_grid(zs, LimitLaw(c=0.5, H=H13))
    assert res.max() <= 1e-12
    assert np.max(np.abs(got - _single_upper_root(zs, H13, 0.5))) <= 1e-10


def test_many_atoms_root_selection():
    # no closed form at 50 atoms: check the selection by the unique upper
    # root, the explicit inverse map, and the mass of the law
    H = SpectralMeasure(np.geomspace(0.1, 10.0, 50), np.full(50, 1 / 50))
    rng = np.random.default_rng(5)
    zs = rng.uniform(0.0, 30.0, 200) + 1j * rng.uniform(0.01, 3.0, 200)
    mbar, res, _ = solve_mbar_grid(zs, LimitLaw(c=0.5, H=H))
    assert res.max() <= 1e-12
    assert np.max(np.abs(mbar - _single_upper_root(zs, H, 0.5))) <= 1e-10
    back = np.array([inverse_z(m, H, 0.5) for m in mbar])
    assert np.max(np.abs(back - zs)) <= 1e-10
    assert abs(total_mass(LimitLaw(c=0.5, H=H)) - 1.0) <= 1e-13


def test_herglotz_properties():
    (lo, hi), = support(LimitLaw(c=0.5, H=MP1))
    re = np.linspace(lo * 0.9, hi * 1.1, 20)
    im = np.geomspace(1e-2, 10, 20)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    mbar, res, _ = solve_mbar_grid(zs, LimitLaw(c=0.5, H=MP1))
    assert res.max() <= 1e-12
    assert np.all(mbar.imag > 0)
    assert np.all((zs * mbar).imag >= -1e-12)


def test_round_trip_on_grid():
    (lo, hi), = support(LimitLaw(c=0.5, H=H13))
    re = np.linspace(lo * 0.9, hi * 1.1, 20)
    im = np.geomspace(1e-2, 10, 20)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    mbar, res, _ = solve_mbar_grid(zs, LimitLaw(c=0.5, H=H13))
    assert res.max() <= 1e-12
    back = np.array([inverse_z(m, H13, 0.5) for m in mbar])
    assert np.max(np.abs(back - zs)) <= 1e-8


def _envelope(H, c):
    # loose bounds t_min(1-sqrt(c))^2 (0 once c >= 1) and t_max(1+sqrt(c))^2
    lo = H.atoms[0] * (1 - np.sqrt(c)) ** 2 if c < 1 else 0.0
    return lo, H.t_max * (1 + np.sqrt(c)) ** 2


def _assert_inside_envelope(H, c):
    lo, hi = _envelope(H, c)
    bulk = support(LimitLaw(c=c, H=H))
    assert all(a < b for a, b in bulk)
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(bulk, bulk[1:]))
    assert lo - 1e-14 <= bulk[0][0] and bulk[-1][1] <= hi * (1 + 1e-14)
    return bulk


H5 = SpectralMeasure([0.5, 1.0, 2.0, 4.0, 8.0], [0.2] * 5)


class TestSupportInterval:
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9, 1.0, 2.0])
    def test_point_mass(self, c):
        t = 2.5
        (lo, hi), = support(LimitLaw(c=c, H=SpectralMeasure.point(t)))
        assert abs(lo - t * (1 - np.sqrt(c)) ** 2) <= 1e-14 * t
        assert abs(hi - t * (1 + np.sqrt(c)) ** 2) <= 1e-14 * hi
        if c == 1.0:
            assert lo == 0.0

    def test_quarter(self):
        # the exact bulk is tighter than the envelope once H has two atoms
        assert _assert_inside_envelope(MP1, 0.25) == ((0.25, 2.25),)
        for h in (SpectralMeasure([1.0, 2.0], [0.5, 0.5]), H13, H5):
            bulk = _assert_inside_envelope(h, 0.25)
            env_lo, env_hi = _envelope(h, 0.25)
            assert bulk[0][0] > env_lo and bulk[-1][1] < env_hi

    def test_ratio_one(self):
        # c times the weight of the positive atoms is 1: the lower edge is exactly 0
        for h, c in ((MP1, 1.0), (H13, 1.0), (H5, 1.0),
                     (SpectralMeasure([0.0, 1.0], [0.5, 0.5]), 2.0)):
            assert _assert_inside_envelope(h, c)[0][0] == 0.0
        assert (support(LimitLaw(c=0.5, H=SpectralMeasure([0.0, 1.0], [0.5, 0.5])))
                == support(LimitLaw(c=0.25, H=MP1)))

    def test_two_atoms(self):
        (a1, b1), (a2, b2) = _assert_inside_envelope(H13, 0.05)
        assert density((b1 + a2) / 2, LimitLaw(c=0.05, H=H13)) == 0.0
        for a, b in ((a1, b1), (a2, b2)):
            assert density((a + b) / 2, LimitLaw(c=0.05, H=H13)) > 0
        assert len(_assert_inside_envelope(H13, 0.3)) == 1

    def test_bad_ratio(self):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError):
                support(LimitLaw(c=c, H=MP1))

    @pytest.mark.parametrize("h", [SpectralMeasure.point(1e160),
                                   SpectralMeasure([1.0, 1e160], [0.5, 0.5])])
    def test_overflowing_atom(self, h):
        # u_k^2 = c w_k t_k^2 overflows: refused before any product, so
        # (under error::RuntimeWarning) no overflow warning either
        with pytest.raises(ArithmeticError, match="^support: c w_k t_k") as info:
            support(LimitLaw(c=0.5, H=h))
        assert str(h.atoms.tolist()) in str(info.value)
