import numpy as np
import pytest
from conftest import (
    decorrelation_support_oracle,
    dichotomy_trials,
    dichotomy_violations,
    lattice_core,
    linprog_solve,
    max_margin_oracle,
    per_point_core,
    planted_problem,
    random_sign_problem,
)

from hardcoreboost import (
    FeatureMatrix,
    HardCoreInconsistencyError,
    LatticeCellClass,
    LatticeNoiseWorld,
    OptimizerConfig,
    Sample,
    bounded_representation,
    compute_hardcore,
    coordinate_descent,
    separator_certificate,
    solve,
    verify_dichotomy,
)
from hardcoreboost import hardcore
from hardcoreboost.losses import Loss


def duplicated_point_fm():
    return FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))


def count_solves(monkeypatch):
    """The argument tuples of the solves hardcore makes from here on."""
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(hardcore, "solve", counting_solve)
    return calls


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

    @pytest.mark.parametrize(
        "scale, core_frac",
        [
            pytest.param(scale, frac, id=f"{scale:g}-{frac}")
            for scale in (1.0, 1e-3, 1e-5, 1e-6, 1e-7)
            for frac in (0.0, 0.5)
        ]
        + [
            # ROADMAP items 14 and 16: the core LP sees row-scaled A and
            # finds the planted core, but its dual separator, normalized on A
            # unscaled, has margins near 3e-11, under the absolute MARGIN_FLOOR
            pytest.param(1e-9, frac, id=f"1e-09-{frac}", marks=pytest.mark.xfail(
                raises=HardCoreInconsistencyError, strict=True,
                reason="dual separator margin under the absolute floor (items 14, 16)"))
            for frac in (0.0, 0.5)
        ],
    )
    def test_planted_core_under_feature_scale(self, scale, core_frac):
        # the core of c H is the core of H for every c > 0
        x, y, core = planted_problem(160, 8, core_frac, np.random.default_rng(7))
        cert = compute_hardcore(FeatureMatrix(scale * x, y))
        assert np.array_equal(cert.core, core)

    # ROADMAP items 14 and 16: at m = 2000 the core LP finds the planted empty
    # core, but the dual separator's margins (4.2e-10 for seed 0, 1.7e-10 for
    # seed 2) fall under the absolute MARGIN_FLOOR; seed 1 (9.0e-10) sits too
    # close to the floor to pin across HiGHS builds
    @pytest.mark.xfail(raises=HardCoreInconsistencyError, strict=True,
                       reason="dual separator margin under the absolute floor (items 14, 16)")
    @pytest.mark.parametrize("seed", [0, 2])
    def test_large_planted_core_at_feature_scale_1e_7(self, seed):
        x, y, core = planted_problem(2000, 16, 0.0, np.random.default_rng(seed))
        cert = compute_hardcore(FeatureMatrix(1e-7 * x, y))
        assert np.array_equal(cert.core, core)

    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_power_of_two_feature_scale_is_exact(self, k):
        # the core LP sees A with each row scaled by a power of two, so
        # features times 2^-k give it bitwise the same program
        fms = [
            FeatureMatrix(x, y)
            for x, y, _ in (
                planted_problem(160, 8, frac, np.random.default_rng(7)) for frac in (0.0, 0.5)
            )
        ]
        rng = np.random.default_rng(9)
        fms += [random_sign_problem(rng) for _ in range(10)]
        for fm in fms:
            base = compute_hardcore(fm)
            scaled = compute_hardcore(FeatureMatrix(2.0**-k * fm.features, fm.labels))
            for name in ("core", "p", "point_optima"):
                assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name

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


class TestOneLpCore:
    """The one core LP against the per-point LPs it replaced, and against the
    lattice closed form at scale.  The LP's own core is compared, so that a
    separator failure cannot hide a mismatch."""

    @staticmethod
    def assert_matches_per_point(fm):
        mask, t, p, _ = hardcore._core_lp(fm)
        assert np.array_equal(mask, per_point_core(fm))
        # t is the 0/1 indicator of the core, and p is positive exactly on it
        assert np.array_equal(t, mask.astype(float))
        assert np.array_equal(p > 0, mask) and p.max(initial=1.0) == 1.0
        return mask

    def test_random_sign_problems(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            self.assert_matches_per_point(random_sign_problem(rng))

    def test_zero_mass_points(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            fm = random_sign_problem(rng)
            live = rng.random(fm.m) >= 0.3
            live[0] = True
            self.assert_matches_per_point(FeatureMatrix(fm.features, fm.labels, live / live.sum()))

    def test_separator_of_a_subnormal_row_is_finite(self):
        # the row's max-abs 5e-324 is scaled by 2^1073 for the LP, and its
        # dual times 2^1073 alone overflows
        fm = FeatureMatrix(np.array([[-5e-324]]), np.array([-1.0]))
        mask, _, _, lam = hardcore._core_lp(fm)
        assert not mask.any()
        assert lam.tolist() == [0.5]

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-5])
    @pytest.mark.parametrize("core_frac", [0.0, 0.5, 1.0])
    def test_planted_inputs(self, scale, core_frac):
        x, y, core = planted_problem(160, 8, core_frac, np.random.default_rng(7))
        mask = self.assert_matches_per_point(FeatureMatrix(scale * x, y))
        assert np.array_equal(np.flatnonzero(mask), core)

    @pytest.mark.parametrize("m", [4000, 10**4])
    def test_lattice_closed_form(self, m):
        # resolution 3 splits two of the four world cells, and the cells of
        # probability 1 and 0 hold one label, so the core is a strict subset;
        # a few points outside the lattice [-3, 3) join it
        cls = LatticeCellClass(3, 1)
        sample = LatticeNoiseWorld((1.0, 0.0, 0.8, 0.2)).sample(m, np.random.default_rng(m))
        x = sample.x.copy()
        x[:7] = 3.5
        sample = Sample(x, sample.y)
        cert = compute_hardcore(cls.materialize(sample))
        want = lattice_core(cls.cells(sample.x), sample.y)
        assert 0 < want.size < m
        assert np.array_equal(cert.core, want)

    def test_separator_at_feature_scale_1e_3(self):
        # a max-margin LP on A unscaled rejected its own solution here: its
        # excess of 2.5e-8 was within HiGHS's absolute 1e-7, not within
        # lp._check_feasible's 1e-8 (1 + max|x|)
        x, y, core = planted_problem(160, 8, 0.0, np.random.default_rng(20))
        cert = compute_hardcore(FeatureMatrix(1e-3 * x, y))
        assert np.array_equal(cert.core, core)
        assert cert.margin > 0

    def test_separator_at_feature_scale_1e_7(self):
        # a max-margin LP on A unscaled returned margin 0 here
        x, y, core = planted_problem(160, 8, 0.5, np.random.default_rng(3))
        cert = compute_hardcore(FeatureMatrix(1e-7 * x, y))
        assert np.array_equal(cert.core, core)
        assert cert.margin > 0

    def test_one_lp_per_certificate(self, monkeypatch):
        calls = count_solves(monkeypatch)
        fms = [duplicated_point_fm(), three_point_fm()]
        fms += [FeatureMatrix(*planted_problem(160, 8, frac, np.random.default_rng(7))[:2])
                for frac in (0.0, 0.5, 1.0)]
        for fm in fms:
            calls.clear()
            compute_hardcore(fm)
            assert len(calls) == 1

    def test_variable_limit_is_checked_before_any_solve(self, monkeypatch):
        # the core LP has 2m = 20002 variables, past lp.MAX_VARIABLES
        calls = count_solves(monkeypatch)
        m = 10**4 + 1
        fm = FeatureMatrix(np.ones((m, 1)), np.where(np.arange(m) % 2 == 0, 1.0, -1.0))
        with pytest.raises(ValueError, match="at most 20000 variables supported, got 20002"):
            compute_hardcore(fm)
        assert calls == []


class TestSeparatorCertificate:
    """The separator from the core LP's row duals: unit l1 norm, zero margins
    on the core, the reported margin its smallest margin on the live
    complement, and that margin positive and at most the max margin, which
    conftest.max_margin_oracle gives."""

    @staticmethod
    def assert_separator_properties(fm):
        cert = compute_hardcore(fm)
        mask = cert.core_mask(fm.m)
        comp = ~mask & (fm.weights > 0)
        if not comp.any():
            assert np.all(cert.separator == 0.0) and cert.margin == np.inf
            return cert
        a = fm.correlations
        marg = a.T @ cert.separator
        assert abs(np.abs(cert.separator).sum() - 1.0) <= 1e-12
        assert np.abs(marg[mask]).max(initial=0.0) <= hardcore.CORE_TOL
        assert cert.margin == marg[comp].min()
        _, t_max = max_margin_oracle(a[:, mask].T, a[:, comp].T)
        assert 0 < cert.margin <= t_max + 1e-9
        return cert

    def test_full_core_sentinel(self):
        fm = duplicated_point_fm()
        lam, t = separator_certificate(fm, np.array([0, 1]), np.ones(1))
        assert np.all(lam == 0.0)
        assert t == np.inf

    def test_random_sign_problems(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            self.assert_separator_properties(random_sign_problem(rng))

    def test_zero_mass_points(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            fm = random_sign_problem(rng)
            live = rng.random(fm.m) >= 0.3
            live[0] = True
            self.assert_separator_properties(
                FeatureMatrix(fm.features, fm.labels, live / live.sum()))

    @pytest.mark.parametrize("m, n", [(48, 6), (160, 8)])
    @pytest.mark.parametrize("core_frac", [0.0, 0.5, 1.0])
    def test_planted_inputs(self, m, n, core_frac):
        for seed in range(3):
            x, y, core = planted_problem(m, n, core_frac, np.random.default_rng(seed))
            cert = self.assert_separator_properties(FeatureMatrix(x, y))
            assert np.array_equal(cert.core, core)

    def test_separable_margin_within_max_margin(self):
        from hardcoreboost import Sample, max_margin_2d

        # the worked pair, then random samples separable by sign(<w, x>): the
        # core is empty, and the max margin is max_margin_2d's
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
            cert = self.assert_separator_properties(FeatureMatrix(pts, labels))
            assert cert.core.size == 0
            assert cert.margin <= max_margin_2d(Sample(pts, labels))[1] + 1e-9

    def test_rejects_a_weighting_that_does_not_separate(self):
        # on a supplied core of two of the three points, lam = 1 has margins
        # 0.5 and 1
        fm = three_point_fm()
        core = np.array([0, 2])
        with pytest.raises(HardCoreInconsistencyError, match="abstain"):
            separator_certificate(fm, core, np.ones(1))
        sep = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        lam, margin = separator_certificate(sep, np.array([], dtype=int), np.array([4.0]))
        assert lam.tolist() == [1.0] and margin == 1.0
        for bad in (np.array([-4.0]), np.zeros(1)):
            with pytest.raises(HardCoreInconsistencyError, match="not positive"):
                separator_certificate(sep, np.array([], dtype=int), bad)
        with pytest.raises(ValueError, match="length"):
            separator_certificate(sep, np.array([], dtype=int), np.ones(2))

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
    """compute_hardcore against itself with its LP a fresh linprog call: the
    core LP must give linprog's vertex and row duals bit for bit, and so the
    same core, p and separator."""

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

    @pytest.mark.parametrize("factor, violated", [(0.5, False), (2.0, True)])
    def test_margin_floor_separates_zero_from_positive(self, factor, violated):
        # on a one-point core with feature h the unit weightings are +-1, so
        # +1 gives the margin h: zero within MARGIN_FLOOR, positive above it
        h = factor * hardcore.MARGIN_FLOOR
        fm = FeatureMatrix(np.array([[h]]), np.array([1.0]))
        rep = verify_dichotomy(fm, np.array([0]), trials=50, seed=0)
        assert (rep.violations > 0) == violated


    @pytest.mark.parametrize("trials", [-1, -5, 2.0, True, "10", None])
    @pytest.mark.parametrize("core", [[], [0, 1, 2]], ids=["empty-core", "whole-core"])
    def test_trials_must_be_a_count(self, trials, core):
        # an empty core returned before trials was read: trials=-5 gave a report
        with pytest.raises(ValueError, match="trials"):
            verify_dichotomy(three_point_fm(), np.array(core, dtype=int), trials=trials, seed=0)

    def test_numpy_integer_trials(self):
        rep = verify_dichotomy(three_point_fm(), np.array([0, 1, 2]), trials=np.int64(10), seed=0)
        assert rep.trials == 10 and rep.violations == 0


def dichotomy_index_sets(fm, core):
    """The core, and index sets that are not cores, so that some trials violate."""
    comp = np.setdiff1d(np.arange(fm.m), core)
    return [core, comp, np.arange(fm.m), np.array([0]), np.array([fm.m - 1]),
            np.array([0, fm.m - 1]), np.array([], dtype=int)]


@pytest.fixture(scope="module")
def planted_dichotomy_inputs():
    inputs = []
    for core_frac in (0.0, 0.5, 1.0):
        x, y, core = planted_problem(160, 8, core_frac, np.random.default_rng(int(4 * core_frac)))
        fm = FeatureMatrix(x, y)
        inputs += [(fm, idx) for idx in dichotomy_index_sets(fm, core)]
    return inputs


class TestDichotomyOracle:
    """verify_dichotomy's min/max count is the all/any count of its first form."""

    @pytest.mark.parametrize("trials", [0, 1, 1000])
    def test_planted_inputs_match_the_all_any_count(self, planted_dichotomy_inputs, trials):
        total = 0
        for k, (fm, idx) in enumerate(planted_dichotomy_inputs):
            rep = verify_dichotomy(fm, idx, trials=trials, seed=k)
            assert (rep.trials, rep.seed) == (trials, k)
            assert rep.violations == dichotomy_violations(fm, idx, trials, k)
            total += rep.violations
        # the index sets that are not cores make the comparison non-vacuous
        assert (total > 0) == (trials > 0)

    def test_three_point_index_sets(self):
        fm = three_point_fm()
        for seed, idx in enumerate(([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])):
            for trials in (0, 1, 1000):
                rep = verify_dichotomy(fm, np.array(idx), trials=trials, seed=seed)
                assert rep.violations == dichotomy_violations(fm, np.array(idx), trials, seed)

    def test_margins_product_is_the_transposed_one_bit_for_bit(self, planted_dichotomy_inputs):
        # verify_dichotomy forms its margins as a_core.T @ lams.T, one trial
        # per contiguous column; the all/any form had lams @ a_core
        for k, (fm, idx) in enumerate(planted_dichotomy_inputs):
            for trials in (1, 1000):
                a_core, lams = dichotomy_trials(fm, idx, trials, k)
                got = a_core.T @ lams.T
                assert got.tobytes() == np.ascontiguousarray((lams @ a_core).T).tobytes()


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
