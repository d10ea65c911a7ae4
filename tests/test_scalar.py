import math

import numpy as np
import pytest
from conftest import scalar_bisect_root

from hardcoreboost import losses
from hardcoreboost._scalar import bisect_root, golden_min
from hardcoreboost.losses import Loss, psi_numeric


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def random_monotone(rng, size):
    """Nondecreasing functions a * tanh(k (x - r)) + b (x - r)^3 with their own roots,
    as g(x) -> (value, slope) from one tanh pass, and the scalar value alone."""
    a = rng.uniform(0.1, 3.0, size)
    k = 10.0 ** rng.uniform(-2, 2, size)
    b = rng.uniform(0.0, 1.0, size) * (rng.random(size) < 0.5)
    r = rng.uniform(-12.0, 12.0, size)

    def g(x):
        d = x - r
        t = np.tanh(k * d)
        return a * t + b * d**3, a * k * (1.0 - t * t) + 3.0 * b * d * d

    def g_at(i):
        return lambda x: a[i] * math.tanh(k[i] * (x - r[i])) + b[i] * (x - r[i]) ** 3

    return g, g_at, r


def counted(g):
    """g with a count of its calls in .calls."""
    def wrapped(x):
        wrapped.calls += 1
        return g(x)

    wrapped.calls = 0
    return wrapped


def assert_within_tol(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))


class TestBisectRoot:
    """The Newton kernel against the scalar bisection oracle: early returns
    exactly, interior roots within the tolerance."""

    def test_matches_scalar_oracle_on_mixed_brackets(self):
        rng = np.random.default_rng(0)
        size = 500
        g, g_at, r = random_monotone(rng, size)
        lo = rng.uniform(-15.0, 5.0, size)
        hi = lo + 10.0 ** rng.uniform(-3, 1.5, size)
        x0 = rng.uniform(lo - 1.0, hi + 1.0)  # some starts lie outside the bracket
        got = bisect_root(g, lo, hi, x0)
        want = np.array([scalar_bisect_root(g_at(i), lo[i], hi[i]) for i in range(size)])
        early = (r < lo) | (r > hi)
        # the draw covers both early returns and interior roots
        assert np.any(r < lo) and np.any(r > hi) and not np.all(early)
        # the early returns are the bracket ends, exactly
        assert np.array_equal(bits(got[early]), bits(want[early]))
        assert_within_tol(got[~early], want[~early])
        assert_within_tol(got[~early], r[~early])

    def test_early_returns(self):
        lo, hi = np.array([1.0, -3.0, -1.0]), np.array([2.0, -2.0, 1.0])
        got = bisect_root(lambda x: (x, np.ones_like(x)), lo, hi, 0.5)
        assert got[0] == 1.0  # g(lo) > 0 returns lo
        assert got[1] == -2.0  # g(hi) < 0 returns hi
        assert got[2] == 0.0

    def test_max_iter_stop_with_zero_tolerance(self):
        # with tol = 0 only an exact root or a zero Newton step stops an
        # element early; one still searching after max_iter iterations
        # returns its bracket's midpoint
        rng = np.random.default_rng(1)
        g, g_at, _ = random_monotone(rng, 40)
        lo, hi = np.full(40, -20.0), np.full(40, 20.0)
        for max_iter in (0, 7):
            gc = counted(g)
            got = bisect_root(gc, lo, hi, 1.0, tol=0.0, max_iter=max_iter)
            assert gc.calls == 2 + max_iter  # the bracket ends, then one per iteration
            assert np.all((lo <= got) & (got <= hi))
        assert np.array_equal(bisect_root(g, lo, hi, 1.0, tol=0.0, max_iter=0), np.zeros(40))
        got = bisect_root(g, lo, hi, 1.0, tol=0.0, max_iter=400)
        assert_within_tol(got, [scalar_bisect_root(g_at(i), -20.0, 20.0, 0.0, 400) for i in range(40)])

    def test_scalar_bracket_broadcasts_against_array_values(self):
        targets = np.array([0.1, 0.5, 0.9])
        got = bisect_root(lambda x: (x - targets, np.ones_like(x)), 0.0, 1.0, 0.3)
        want = [scalar_bisect_root(lambda x, t=t: x - t, 0.0, 1.0) for t in targets]
        assert got.shape == (3,)
        assert_within_tol(got, want)

    def test_scalar_input_returns_float(self):
        got = bisect_root(lambda x: (x * x * x - 2.0, 3.0 * x * x), 0.0, 2.0, 1.0)
        assert type(got) is float
        assert_within_tol(got, scalar_bisect_root(lambda x: x * x * x - 2.0, 0.0, 2.0))
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_shape_is_kept(self):
        targets = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        got = bisect_root(lambda x: (x**3 - targets, 3.0 * x * x), -2.0, 2.0, np.zeros(4))
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, np.cbrt(targets), atol=1e-12)

    def test_exact_root_stops(self):
        # the Newton step from 0 lands exactly on the root of a line; the
        # element stops there instead of bisecting away from a bracket end
        g = counted(lambda x: (x - 1.0, np.ones_like(x)))
        assert bisect_root(g, -3.0, 5.0, 0.0) == 1.0
        assert g.calls == 4  # both ends, the start and the root
        # a root where the slope vanishes too has no Newton step at all
        cube = counted(lambda x: (x**3, 3.0 * x**2))
        assert bisect_root(cube, -2.0, 3.0, 0.0) == 0.0
        assert cube.calls == 3

    def test_start_outside_bracket_falls_back_to_midpoint(self):
        def g(x):
            return x - 0.25, np.ones_like(x)

        assert bisect_root(g, -1.0, 1.0, 7.0) == 0.25
        assert bisect_root(g, -1.0, 1.0, np.nan) == 0.25


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

    def test_tol_below_one_ulp_ends(self, monkeypatch):
        # neither width can be reached in doubles, so the searches end where
        # their probes run out of room; the spy raises past 200 evaluations
        # instead of letting a search that cannot end hang
        def capped(f):
            def spy(x):
                spy.calls += 1
                if spy.calls > 200:
                    raise AssertionError("golden_min took more than 200 evaluations")
                return f(x)

            spy.calls = 0
            return spy

        x, _ = golden_min(capped(lambda t: (t - 3e5) ** 2), 0.0, 1e6, tol=1e-12)
        assert x == pytest.approx(3e5, rel=1e-15)
        searches = []

        def spied_golden_min(f, lo, hi, tol):
            searches.append(capped(f))
            return golden_min(searches[-1], lo, hi, tol)

        monkeypatch.setattr(losses, "golden_min", spied_golden_min)
        psi = psi_numeric(Loss("exp"), 0.5, tol=1e-17)
        assert len(searches) == 1
        assert psi == pytest.approx(1.0 - math.sqrt(0.75), abs=1e-12)
