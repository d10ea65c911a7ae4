import numpy as np
import pytest
from conftest import (
    decorrelation_support_oracle,
    linprog_solve,
    planted_problem,
    random_sign_problem,
)

from hardcoreboost import (
    FeatureMatrix,
    OptimizerConfig,
    bounded_representation,
    compute_hardcore,
    coordinate_descent,
    separator_certificate,
    verify_dichotomy,
)
from hardcoreboost import hardcore
from hardcoreboost.losses import Loss


def duplicated_point_fm():
    return FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))


def three_point_fm():
    # x = (1, 1, 2), labels (+, -, +), single feature h(x) = x / 2
    return FeatureMatrix(np.array([[0.5], [0.5], [1.0]]), np.array([1.0, -1.0, 1.0]))


class TestComputeHardcore:
    def test_separable_sample_empty_core(self):
        fm = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        cert = compute_hardcore(fm)
        assert cert.core.size == 0
        assert np.all(cert.p == 0.0)
        assert cert.margin > 0

    def test_duplicated_point(self):
        cert = compute_hardcore(duplicated_point_fm())
        assert np.array_equal(cert.core, [0, 1])
        assert np.allclose(cert.p, [1.0, 1.0])
        assert np.all(cert.separator == 0.0)
        assert cert.margin == np.inf

    def test_three_point_example(self):
        fm = three_point_fm()
        cert = compute_hardcore(fm)
        assert np.array_equal(cert.core, [0, 1, 2])
        # p solves 0.5 p1 - 0.5 p2 + p3 = 0 with all entries positive
        assert np.all(cert.p > 0)
        assert abs(0.5 * cert.p[0] - 0.5 * cert.p[1] + cert.p[2]) <= 1e-7
        oracle = decorrelation_support_oracle(fm.correlations)
        assert np.array_equal(cert.core, oracle)

    def test_decorrelation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            a = fm.correlations
            assert np.abs(a @ cert.p).max(initial=0.0) <= 1e-7
            mask = cert.core_mask(fm.m)
            assert np.all(cert.p[mask] > 0)
            assert np.all(cert.p[~mask] == 0)

    def test_scaling_invariance_of_core(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            fm = random_sign_problem(rng)
            base = compute_hardcore(fm).core
            scale = rng.uniform(0.2, 1.0, size=fm.n)
            scaled = FeatureMatrix(fm.features * scale, fm.labels)
            assert np.array_equal(compute_hardcore(scaled).core, base)

    def test_duplication_invariance_of_core(self):
        fm = three_point_fm()
        base_mask = compute_hardcore(fm).core_mask(fm.m)
        dup = FeatureMatrix(
            np.vstack([fm.features, fm.features[:1]]),
            np.concatenate([fm.labels, fm.labels[:1]]),
        )
        mask = compute_hardcore(dup).core_mask(dup.m)
        assert np.array_equal(mask[:3], base_mask)
        assert mask[3] == base_mask[0]

    def test_zero_weight_points_excluded(self):
        fm = FeatureMatrix(
            np.array([[1.0], [1.0], [1.0]]),
            np.array([1.0, -1.0, -1.0]),
            np.array([0.5, 0.5, 0.0]),
        )
        cert = compute_hardcore(fm)
        assert np.array_equal(cert.core, [0, 1])


class TestSeparatorCertificate:
    def test_full_core_sentinel(self):
        fm = duplicated_point_fm()
        lam, t = separator_certificate(fm, np.array([0, 1]))
        assert np.all(lam == 0.0)
        assert t == np.inf

    def test_separable_matches_max_margin(self):
        from hardcoreboost import Sample, max_margin_2d

        # the worked pair, then random samples separable by sign(<w, x>)
        samples = [(np.array([[0.875, 1.0], [1.0, 0.7]]), np.array([1.0, -1.0]))]
        rng = np.random.default_rng(6)
        while len(samples) < 30:
            w = rng.standard_normal(2)
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 25)), 2))
            pts = pts[np.abs(pts @ w) > 0.05 * np.linalg.norm(w)]
            labels = np.sign(pts @ w)
            if len(set(labels)) == 2:
                samples.append((pts, labels))
        for pts, labels in samples:
            lam, t = separator_certificate(FeatureMatrix(pts, labels), np.array([], dtype=int))
            lam_mm, t_mm = max_margin_2d(Sample(pts, labels))
            assert t > 0
            assert t == pytest.approx(t_mm, abs=1e-7)
            assert np.allclose(lam, lam_mm, atol=1e-6)

    def test_l1_norm_constraint(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            assert np.abs(cert.separator).sum() <= 1.0 + 1e-8


class TestPrimalDualAgreement:
    def test_core_equals_vertex_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            oracle = decorrelation_support_oracle(fm.correlations)
            # zero-weight convention is irrelevant here (uniform weights)
            assert np.array_equal(cert.core, oracle)
            # separator side: strictly positive margins exactly off the core
            if cert.core.size < fm.m:
                marg = fm.correlations.T @ cert.separator
                comp = ~cert.core_mask(fm.m)
                assert marg[comp].min() > 0


class TestLinprogOracle:
    """compute_hardcore against itself with every LP a fresh linprog call:
    the m per-point LPs share one program, which must not move a bit."""

    @staticmethod
    def assert_matches_linprog(fm, monkeypatch):
        cert = compute_hardcore(fm)
        with monkeypatch.context() as patch:
            patch.setattr(hardcore, "solve", linprog_solve)
            want = compute_hardcore(fm)
        for name in ("core", "p", "point_optima", "separator"):
            got, ref = getattr(cert, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        assert np.float64(cert.margin).tobytes() == np.float64(want.margin).tobytes()
        return cert

    @pytest.mark.parametrize("m, n, core_frac", [
        (160, 8, 0.0), (160, 8, 0.5), (160, 8, 1.0), (48, 6, 0.5),
    ])
    def test_planted_inputs(self, m, n, core_frac, monkeypatch):
        x, y, core = planted_problem(m, n, core_frac, np.random.default_rng(m + int(4 * core_frac)))
        cert = self.assert_matches_linprog(FeatureMatrix(x, y), monkeypatch)
        assert cert.core.tolist() == core.tolist()

    def test_random_sign_problems(self, monkeypatch):
        rng = np.random.default_rng(8)
        for _ in range(50):
            self.assert_matches_linprog(random_sign_problem(rng), monkeypatch)


class TestDichotomy:
    def test_empty_core_vacuous(self):
        fm = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        rep = verify_dichotomy(fm, np.array([], dtype=int), trials=100, seed=0)
        assert rep.violations == 0

    def test_duplicated_point(self):
        rep = verify_dichotomy(duplicated_point_fm(), np.array([0, 1]), trials=500, seed=1)
        assert rep.violations == 0

    def test_three_point(self):
        fm = three_point_fm()
        rep = verify_dichotomy(fm, np.array([0, 1, 2]), trials=1000, seed=2)
        assert rep.trials == 1000
        assert rep.violations == 0


class TestBoundedRepresentation:
    def test_empty_core_zero(self):
        fm = three_point_fm()
        out = bounded_representation(fm, np.array([], dtype=int), np.array([3.0]))
        assert np.all(out == 0.0)

    def test_pinned_single_feature(self):
        fm = duplicated_point_fm()
        out = bounded_representation(fm, np.array([0, 1]), np.array([5.0]))
        assert out == pytest.approx(np.array([5.0]), abs=1e-8)

    def test_never_larger_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            lam = rng.normal(scale=3, size=fm.n)
            out = bounded_representation(fm, cert.core, lam)
            assert np.abs(out).sum() <= np.abs(lam).sum() + 1e-7
            mask = cert.core_mask(fm.m)
            assert np.allclose(
                fm.features[mask] @ out, fm.features[mask] @ lam, atol=1e-7
            )

    def test_suboptimal_level_set_bounded(self):
        # iterates near the core-restricted optimum all admit representations
        # with a common, stable norm bound
        fm = three_point_fm()
        cert = compute_hardcore(fm)
        core = cert.core
        sub = FeatureMatrix(fm.features[core], fm.labels[core])
        rng = np.random.default_rng(5)
        norms = []
        for _ in range(20):
            init = rng.normal(size=fm.n)
            run = coordinate_descent(
                sub, Loss("exp"), OptimizerConfig(max_iters=300), init=init
            )
            rep = bounded_representation(fm, core, run.lam)
            norms.append(np.abs(rep).sum())
        norms = np.array(norms)
        assert np.all(np.isfinite(norms))
        spread = norms.max() - norms.min()
        assert norms.max() <= 2.0 * max(norms.min(), 0.5) or spread <= 0.5
