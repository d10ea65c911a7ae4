import math

import numpy as np
import pytest
from conftest import scalar_bisect_root

from hardcoreboost._scalar import bisect_root, golden_min


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def random_monotone(rng, size):
    """Nondecreasing functions a * tanh(k (x - r)) + b (x - r)^3 with their own roots."""
    a = rng.uniform(0.1, 3.0, size)
    k = 10.0 ** rng.uniform(-2, 2, size)
    b = rng.uniform(0.0, 1.0, size) * (rng.random(size) < 0.5)
    r = rng.uniform(-12.0, 12.0, size)

    def g(x):
        d = x - r
        return a * np.tanh(k * d) + b * d**3

    def g_at(i):
        return lambda x: a[i] * math.tanh(k[i] * (x - r[i])) + b[i] * (x - r[i]) ** 3

    return g, g_at, r


class TestBisectRoot:
    def test_matches_scalar_oracle_on_mixed_brackets(self):
        rng = np.random.default_rng(0)
        size = 500
        g, g_at, r = random_monotone(rng, size)
        lo = rng.uniform(-15.0, 5.0, size)
        hi = lo + 10.0 ** rng.uniform(-3, 1.5, size)
        got = bisect_root(g, lo, hi)
        want = [scalar_bisect_root(g_at(i), lo[i], hi[i]) for i in range(size)]
        # the draw covers both early returns and interior roots
        assert np.any(r < lo) and np.any(r > hi) and np.any((lo < r) & (r < hi))
        assert np.array_equal(bits(got), bits(want))

    def test_early_returns(self):
        lo, hi = np.array([1.0, -3.0, -1.0]), np.array([2.0, -2.0, 1.0])
        got = bisect_root(lambda x: x, lo, hi)
        assert got[0] == 1.0  # g(lo) > 0 returns lo
        assert got[1] == -2.0  # g(hi) < 0 returns hi
        assert abs(got[2]) <= 1e-12

    def test_max_iter_stop_with_zero_tolerance(self):
        # with tol = 0 the bracket never reaches zero width, so every element
        # stops after max_iter halvings, as the scalar loop does
        rng = np.random.default_rng(1)
        g, g_at, _ = random_monotone(rng, 40)
        lo, hi = np.full(40, -20.0), np.full(40, 20.0)
        for max_iter in (0, 7, 400):
            got = bisect_root(g, lo, hi, tol=0.0, max_iter=max_iter)
            want = [scalar_bisect_root(g_at(i), -20.0, 20.0, 0.0, max_iter) for i in range(40)]
            assert np.array_equal(bits(got), bits(want))

    def test_scalar_bracket_broadcasts_against_array_values(self):
        targets = np.array([0.1, 0.5, 0.9])
        got = bisect_root(lambda x: x - targets, 0.0, 1.0)
        want = [scalar_bisect_root(lambda x, t=t: x - t, 0.0, 1.0) for t in targets]
        assert got.shape == (3,)
        assert np.array_equal(bits(got), bits(want))

    def test_scalar_input_returns_float(self):
        got = bisect_root(lambda x: x * x * x - 2.0, 0.0, 2.0)
        assert type(got) is float
        assert got == scalar_bisect_root(lambda x: x * x * x - 2.0, 0.0, 2.0)
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_shape_is_kept(self):
        targets = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        got = bisect_root(lambda x: x - targets, -2.0, 2.0)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, targets, atol=1e-12)


class TestGoldenMin:
    def test_quadratic(self):
        x, v = golden_min(lambda t: (t - 0.7) ** 2 + 1.5, 0.0, 2.0)
        assert x == pytest.approx(0.7, abs=1e-7)
        assert v == pytest.approx(1.5, abs=1e-12)

    def test_narrow_bracket_returns_midpoint(self):
        x, v = golden_min(lambda t: t, 1.0, 1.0 + 1e-10)
        assert x == 0.5 * (1.0 + (1.0 + 1e-10))
        assert v == x

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_min(lambda t: t, 1.0, 0.0)
