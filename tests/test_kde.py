import numpy as np
import pytest

from covspec import default_grid, kde, silverman_bandwidth


def test_degenerate_samples():
    with pytest.raises(ValueError, match="zero bandwidth"):
        silverman_bandwidth(np.zeros(10))
    with pytest.raises(ValueError):
        kde(np.array([1.0]), np.linspace(0, 1, 5))


def test_standard_normal_peak():
    rng = np.random.default_rng(123)
    samples = rng.standard_normal(2000)
    val = kde(samples, np.array([0.0]))[0]
    assert abs(val - 0.3989) <= 0.1 * 0.3989


def test_two_point_symmetry():
    samples = np.array([-1.0, 1.0])
    xs = np.linspace(0.0, 3.0, 25)
    left = kde(samples, -xs)
    right = kde(samples, xs)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_integrates_to_one():
    rng = np.random.default_rng(7)
    for samples in (rng.standard_normal(500), rng.exponential(2.0, 800)):
        grid = default_grid(samples, points=1024)
        vals = kde(samples, grid)
        assert np.all(vals >= 0)
        assert abs(np.trapezoid(vals, grid) - 1.0) <= 0.02


def test_bandwidth_formula():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(400)
    assert silverman_bandwidth(s) == pytest.approx(1.06 * s.std(ddof=1) * 400 ** -0.2)


@pytest.mark.parametrize("R", [777, 1000, 5000])
def test_chunked_grid_matches_one_pass_formula(R):
    samples = np.random.default_rng(R).standard_normal(R)
    xs = default_grid(samples)
    h = silverman_bandwidth(samples)
    u = (xs[:, None] - samples[None, :]) / h
    want = np.exp(-0.5 * u * u).sum(axis=1) / (R * h * np.sqrt(2 * np.pi))
    assert kde(samples, xs).tobytes() == want.tobytes()
