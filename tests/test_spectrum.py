import numpy as np
import pytest

from covspec import SpectralMeasure


def test_point_mass():
    m = SpectralMeasure.point(2.0)
    assert m.atoms.tolist() == [2.0]
    assert m.weights.tolist() == [1.0]
    assert m.is_degenerate


def test_canonicalization_sorts_and_merges():
    m = SpectralMeasure([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    assert m.atoms.tolist() == [1.0, 2.0]
    np.testing.assert_allclose(m.weights, [0.5, 0.5])


def test_zero_weight_atoms_dropped():
    m = SpectralMeasure([1.0, 5.0], [1.0, 0.0])
    assert m.atoms.tolist() == [1.0]
    assert m.is_degenerate


def test_weight_sum_validated():
    with pytest.raises(ValueError):
        SpectralMeasure([1.0], [0.5])
    with pytest.raises(ValueError):
        SpectralMeasure([1.0, 2.0], [0.7, 0.7])


def test_negative_atom_rejected():
    with pytest.raises(ValueError):
        SpectralMeasure([-1.0], [1.0])


def test_empirical():
    m = SpectralMeasure.empirical([1.0, 1.0, 2.0, 2.0, 2.0])
    assert m.atoms.tolist() == [1.0, 2.0]
    np.testing.assert_allclose(m.weights, [0.4, 0.6])


def test_moment_and_integrate():
    m = SpectralMeasure([1.0, 3.0], [0.5, 0.5])
    assert m.moment(0) == 1.0
    assert m.moment(1) == 2.0
    assert m.moment(2) == 5.0


def test_equality_and_hash():
    a = SpectralMeasure([1.0, 2.0], [0.5, 0.5])
    b = SpectralMeasure([2.0, 1.0], [0.5, 0.5])
    assert a == b
    assert hash(a) == hash(b)
    assert a != SpectralMeasure.point(1.0)
