import importlib
import itertools
import math

import numpy as np
import pytest
from conftest import full_row_coordinate_descent, grid_min_risk, random_sign_problem
from conftest import planted_problem as bench_planted_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from hardcoreboost import (
    FeatureMatrix,
    OptimizerConfig,
    compute_hardcore,
    coordinate_descent,
    dual_lower_bound,
    margins,
    optimize,
    subgradient_descent,
    suboptimality_certificate,
    surrogate_risk,
)
from hardcoreboost.experiments import LatticeNoiseWorld, build_staggered, sample_world
from hardcoreboost.hardcore import CORE_TOL
from hardcoreboost.hypotheses import LatticeCellClass
from hardcoreboost.losses import Loss, UnsupportedLossError, parse_loss
from hardcoreboost.optimize import STEP_CAP, _line_search
from hardcoreboost.risk import Sample


def duplicated_point_fm():
    return FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))


def weighted_pair_fm():
    """The duplicated point with masses 0.9 and 0.1; both points are the core."""
    return FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), np.array([0.9, 0.1]))


def planted_problem(rng, m, n, core_frac):
    """Mirrored pairs on a random hyperplane (the hard core) plus points
    labelled by their side of it, so the minimizer diverges off the core."""
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    pairs = round(core_frac * m / 2)
    on_plane = rng.uniform(-1.0, 1.0, (pairs, n))
    on_plane -= np.outer(on_plane @ w, w)
    on_plane /= np.maximum(1.0, np.abs(on_plane).max(axis=1))[:, None]
    off = rng.uniform(-1.0, 1.0, (m - 2 * pairs, n))
    x = np.vstack([on_plane, on_plane, off])
    y = np.concatenate([np.ones(pairs), -np.ones(pairs), np.where(off @ w >= 0.0, 1.0, -1.0)])
    return FeatureMatrix(x, y)


def ray_slope(fm, loss, base, feats_dir):
    """The slope s -> d/ds risk on the ray H lam + s H d, with base = H lam and
    feats_dir = H d, formed from scratch."""

    def slope(s):
        z = -fm.labels * (base + s * feats_dir)
        coeff = fm.weights * loss.subgradient(z) * (-fm.labels)
        return float(coeff @ feats_dir)

    return slope


def oracle_slope(fm, loss, lam, direction):
    """The line-search slope s -> d/ds risk(lam + s direction)."""
    return ray_slope(fm, loss, fm.features @ np.asarray(lam, dtype=float), fm.features @ direction)


def oracle_line_search(fm, loss, lam, direction, tol=1e-10):
    return bisection_line_search(oracle_slope(fm, loss, lam, direction), tol)


def bisection_line_search(slope, tol=1e-10):
    """Bisection on the slope to a bracket of width tol, after the same
    doubling from 1; it stops early once lo and hi are adjacent doubles."""
    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
        if hi >= STEP_CAP:
            return STEP_CAP, True
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def line_search(fm, loss, lam, direction, tol=1e-10):
    """_line_search on the ray from lam along direction, as coordinate descent
    calls it: with z_base = -y (H lam) and feats_dir = H direction."""
    return _line_search(fm, loss, -margins(fm, lam), fm.features @ direction, tol)


# the package's `optimize` attribute is the function, not the module
optimize_module = importlib.import_module("hardcoreboost.optimize")
CD_LOSSES = [Loss("exp"), Loss("logistic"), Loss("cone", c1=1.0, c2=1.0)]


class TestSubgradientDescent:
    def test_hinge_only(self):
        fm = duplicated_point_fm()
        with pytest.raises(UnsupportedLossError):
            subgradient_descent(fm, Loss("exp"), OptimizerConfig(method="subgradient"))

    def test_one_point_closed_form(self):
        # objective max(0, 1 - lam), driven toward 0
        fm = FeatureMatrix(np.ones((1, 1)), np.array([1.0]))
        run = subgradient_descent(
            fm, Loss("hinge"), OptimizerConfig(method="subgradient", max_iters=5000)
        )
        assert run.objective <= 0.01
        # the best-iterate objective matches the closed form at the iterate
        assert run.objective == pytest.approx(max(0.0, 1.0 - run.lam[0]), abs=1e-12)

    def test_reaches_zero_and_stops_on_gradient(self):
        fm = FeatureMatrix(np.array([[1.0]]), np.array([-1.0]))
        run = subgradient_descent(
            fm, Loss("hinge"), OptimizerConfig(method="subgradient", max_iters=5000)
        )
        assert run.stop_reason == "gradient"
        assert run.objective == 0.0

    def test_staggered_sample_objective_vanishes(self):
        world = build_staggered(3)
        sample = sample_world(world, 60, seed=0)
        fm = FeatureMatrix(sample.x, sample.y)
        run = subgradient_descent(
            fm,
            Loss("hinge"),
            OptimizerConfig(method="subgradient", max_iters=20000, step_scale=2.0),
        )
        assert run.objective <= 0.05

    def test_trace_shapes(self):
        fm = duplicated_point_fm()
        run = subgradient_descent(
            fm, Loss("hinge"), OptimizerConfig(method="subgradient", max_iters=50)
        )
        assert len(run.objective_trace) == len(run.norm_trace)

    def test_traces_hold_only_iterates(self):
        # the start and one entry per step; the objective is the best of them
        fm = FeatureMatrix(np.array([[0.5], [0.5], [1.0]]), np.array([1.0, -1.0, 1.0]))
        cfg = OptimizerConfig(method="subgradient", max_iters=5)
        run = subgradient_descent(fm, Loss("hinge"), cfg)
        assert run.stop_reason == "iterations"
        assert len(run.objective_trace) == len(run.norm_trace) == run.iterations + 1
        assert run.objective == run.objective_trace.min()
        assert run.objective == surrogate_risk(fm, run.lam, Loss("hinge"))


class TestCoordinateDescent:
    def test_loss_gate(self):
        fm = duplicated_point_fm()
        with pytest.raises(UnsupportedLossError):
            coordinate_descent(fm, Loss("hinge"), OptimizerConfig())

    def test_three_point_reference(self):
        fm = FeatureMatrix(np.ones((3, 1)), np.array([1.0, 1.0, -1.0]))
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=500))
        assert run.objective == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-6)
        assert run.lam[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-5)

    def test_zero_feature_column_stops_at_start(self):
        fm = FeatureMatrix(np.zeros((3, 1)), np.array([1.0, 1.0, -1.0]))
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=100))
        assert run.stop_reason == "gradient"
        assert run.iterations == 1
        assert np.all(run.lam == 0.0)

    def test_orthogonal_one_hot_features(self):
        # two independent coordinates; the optimum is the sum of the
        # per-coordinate closed forms 2 sqrt(ab) / m
        feats = np.array(
            [[1.0, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]], dtype=float
        )
        labels = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        fm = FeatureMatrix(feats, labels)
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=500))
        expected = (2.0 * math.sqrt(2.0) + 2.0 * math.sqrt(2.0)) / 6.0
        assert run.objective == pytest.approx(expected, abs=1e-8)

    def test_monotone_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            fm = random_sign_problem(rng)
            run = coordinate_descent(fm, Loss("logistic"), OptimizerConfig(max_iters=60))
            assert np.all(np.diff(run.objective_trace) <= 1e-12)

    def test_norm_growth_on_separable_data(self):
        world = build_staggered(5)
        sample = sample_world(world, 40, seed=1)
        fm = FeatureMatrix(sample.x, sample.y)
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=1000))
        assert np.abs(run.lam).sum() > 10.0

    def test_greedy_tie_breaks_to_lowest_index(self):
        feats = np.array([[1.0, 1.0]])
        fm = FeatureMatrix(feats, np.array([1.0]))
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=1))
        assert run.lam[0] != 0.0 and run.lam[1] == 0.0

    def test_target_stop(self):
        # risk (2 exp(-lam) + exp(lam)) / 3 has minimum 2 sqrt(2) / 3
        fm = FeatureMatrix(np.ones((3, 1)), np.array([1.0, 1.0, -1.0]))
        target = 2.0 * math.sqrt(2.0) / 3.0 + 1e-6
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=100), target=target)
        assert run.stop_reason == "target"
        assert run.objective <= target
        assert run.objective_trace[-2] > target

    def test_target_at_start_leaves_lambda_unchanged(self):
        fm = FeatureMatrix(np.ones((3, 1)), np.array([1.0, 1.0, -1.0]))
        init = np.array([0.3])
        start = surrogate_risk(fm, init, Loss("exp"))
        for target in (start, start + 1.0):
            run = coordinate_descent(
                fm, Loss("exp"), OptimizerConfig(max_iters=100), init=init, target=target
            )
            assert run.stop_reason == "target"
            assert run.iterations == 1
            assert np.array_equal(run.lam, init)
            assert run.grad_sup_trace.size == 0  # stopped before any gradient


class TestLineSearchOracle:
    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_random_directions_within_tol(self, loss):
        tol = 1e-10
        rng = np.random.default_rng(5)
        for _ in range(30):
            m, n = int(rng.integers(2, 60)), int(rng.integers(1, 6))
            fm = FeatureMatrix(rng.uniform(-1, 1, (m, n)), rng.choice([-1.0, 1.0], m))
            lam = rng.normal(scale=3.0, size=n)
            direction = rng.normal(size=n)
            if oracle_slope(fm, loss, lam, direction)(0.0) >= 0.0:
                direction = -direction  # a descent ray, as coordinate descent searches
            slope = oracle_slope(fm, loss, lam, direction)
            step, truncated = line_search(fm, loss, lam, direction, tol)
            want, want_truncated = oracle_line_search(fm, loss, lam, direction, tol)
            assert truncated == want_truncated
            assert abs(step - want) <= tol
            assert slope(step - tol) < 0.0 <= slope(step + tol)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_truncated_step_matches(self, loss):
        # a direction that raises every margin by ~1e-19 per unit step keeps
        # the slope negative out to STEP_CAP
        fm = FeatureMatrix(np.array([[1e-19], [-2e-19], [3e-19]]), np.array([1.0, -1.0, 1.0]))
        got = line_search(fm, loss, np.zeros(1), np.ones(1))
        assert got == oracle_line_search(fm, loss, np.zeros(1), np.ones(1))
        assert got == (STEP_CAP, True)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_bracket_of_adjacent_doubles_ends(self, loss):
        # the 1-D minimum sits at s = 1999999, where neighbouring doubles are
        # 2.3e-10 apart, so no bracket of width tol = 1e-10 exists
        fm = FeatureMatrix(np.array([[1e-6], [1e-6]]), np.array([1.0, -1.0]))
        step, truncated = line_search(fm, loss, np.array([1.0 - 2e6]), np.ones(1))
        assert not truncated
        assert step == pytest.approx(1999999.0, rel=1e-12)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_coordinate_descent_matches_oracle(self, loss, monkeypatch):
        rng = np.random.default_rng(6)
        problems = [random_sign_problem(rng, m_max=40, n_max=5) for _ in range(4)]
        problems.append(FeatureMatrix(rng.uniform(-1, 1, (200, 6)), rng.choice([-1.0, 1.0], 200)))
        cfg = OptimizerConfig(max_iters=150)
        runs = [coordinate_descent(fm, loss, cfg) for fm in problems]
        monkeypatch.setattr(
            optimize_module,
            "_line_search",
            # -y z_base is H lam exactly, as the labels are +-1; the oracle
            # sums over all rows, where rows off the column add exactly 0
            lambda fm, loss, z_base, feats_dir, rows=None: bisection_line_search(
                ray_slope(fm, loss, -fm.labels * z_base, feats_dir)
            ),
        )
        for fm, run in zip(problems, runs):
            want = coordinate_descent(fm, loss, cfg)
            assert run.stop_reason == want.stop_reason
            assert run.iterations == want.iterations
            assert run.truncated_steps == want.truncated_steps
            # each step is pinned only to within tol = 1e-10 of the 1-D minimum;
            # the objective moves by the off-line gradient times the lambda drift
            np.testing.assert_allclose(run.lam, want.lam, rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(
                run.objective_trace, want.objective_trace, rtol=0.0, atol=1e-11
            )

    def test_few_slope_evaluations_per_search(self, monkeypatch):
        # the Newton phase needs about 5 slopes where bisection to 1e-10 from
        # a unit bracket needs 35; without the step carried past the Newton
        # root to certify the bracket it needs about 11
        fm = planted_problem(np.random.default_rng(7), 2000, 16, 0.3)
        counts = {"slopes": 0, "searches": 0}
        derivatives, line_search = Loss.derivatives, optimize_module._line_search

        def counted_derivatives(loss, z):
            counts["slopes"] += 1
            return derivatives(loss, z)

        def counted_line_search(*args, **kwargs):
            counts["searches"] += 1
            return line_search(*args, **kwargs)

        monkeypatch.setattr(Loss, "derivatives", counted_derivatives)
        monkeypatch.setattr(optimize_module, "_line_search", counted_line_search)
        for loss in CD_LOSSES:
            coordinate_descent(fm, loss, OptimizerConfig(max_iters=100))
        assert counts["searches"] == 300
        assert counts["slopes"] / counts["searches"] <= 8.0


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.integers(-24, 0),
    separable=st.booleans(),
    loss=st.sampled_from(CD_LOSSES),
)
def test_truncation_matches_oracle(seed, scale_exp, separable, loss):
    # column 0 is a planted block: nonzero on a random set of rows, where it
    # raises every margin (separable) or all but one (not), scaled by
    # 10^scale_exp; small scales push the 1-D minimum past STEP_CAP
    rng = np.random.default_rng(seed)
    fm = random_sign_problem(rng, m_max=12, n_max=3)
    block = rng.random(fm.m) < 0.5
    block[0] = True
    col = np.where(block, fm.labels * rng.uniform(0.5, 1.0, fm.m), 0.0)
    if not separable:
        col[0] = -col[0]
    feats = fm.features.copy()
    feats[:, 0] = col * 10.0**scale_exp
    fm = FeatureMatrix(feats, fm.labels)
    lam = rng.normal(size=fm.n)
    direction = np.eye(fm.n)[0]
    _, truncated = line_search(fm, loss, lam, direction)
    assert truncated == oracle_line_search(fm, loss, lam, direction)[1]


def lattice_problems():
    """Lattice cell features, one nonzero per row: 1-D on the sweep's noise
    world and 2-D on labels that flip across a line no cell edge follows."""
    world = LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2))
    problems = []
    for seed, (m, res) in enumerate([(250, 1), (1000, 2), (4000, 3)]):
        sample = world.sample(m, np.random.default_rng(seed))
        problems.append(LatticeCellClass(res, 1).materialize(sample))
    for seed, (m, res) in enumerate([(300, 1), (1500, 2)]):
        rng = np.random.default_rng(10 + seed)
        x = rng.uniform(-1.0, 1.0, (m, 2))
        p = np.where(x[:, 0] + x[:, 1] > 0.3, 0.8, 0.2)
        y = np.where(rng.uniform(size=m) < p, 1.0, -1.0)
        problems.append(LatticeCellClass(res, 2).materialize(Sample(x, y)))
    return problems


def sparse_explicit_problems(count, seed):
    """Random features in [-1, 1] with a random share of zeros per column;
    some columns have no zero at all."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        m, n = int(rng.integers(10, 200)), int(rng.integers(1, 7))
        density = rng.choice([0.05, 0.2, 0.5, 1.0], size=n)
        feats = rng.uniform(-1.0, 1.0, (m, n)) * (rng.random((m, n)) < density)
        problems.append(FeatureMatrix(feats, rng.choice([-1.0, 1.0], m)))
    return problems


class TestRowRestriction:
    """coordinate_descent evaluates the loss only on the chosen column's
    nonzero rows; full_row_coordinate_descent is the all-rows loop."""

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    @pytest.mark.parametrize("shape", [(2000, 16, 200), (48, 6, 300)], ids=["2000x16", "48x6"])
    def test_dense_input_is_bit_identical(self, loss, shape):
        m, n, iters = shape
        fm = planted_problem(np.random.default_rng(m + n), m, n, 0.3)
        assert np.all(fm.features != 0.0)
        cfg = OptimizerConfig(max_iters=iters)
        run = coordinate_descent(fm, loss, cfg)
        want = full_row_coordinate_descent(fm, loss, cfg)
        assert (run.stop_reason, run.iterations, run.truncated_steps) == (
            want.stop_reason, want.iterations, want.truncated_steps
        )
        assert np.array_equal(run.lam, want.lam)
        assert np.array_equal(run.objective_trace, want.objective_trace)
        assert np.array_equal(run.grad_sup_trace, want.grad_sup_trace)
        assert np.array_equal(run.norm_trace, want.norm_trace)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_sparse_input_within_tol(self, loss):
        # leaving out the zero rows reorders the slope sums, so each step
        # moves within the line search's tol = 1e-10
        cases = list(itertools.product(
            lattice_problems() + sparse_explicit_problems(30, seed=8),
            [OptimizerConfig(max_iters=150), OptimizerConfig(max_iters=5)],
        ))
        # a column that raises the margins of its 3 rows by ~1e-19 per unit
        # step: every line search along it is truncated at STEP_CAP
        labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
        tiny = FeatureMatrix(np.where(np.arange(6) < 3, labels * 1e-19, 0.0)[:, None], labels)
        cases.append((tiny, OptimizerConfig(max_iters=5, grad_tol=0.0)))
        stops = set()
        for fm, cfg in cases:
            run = coordinate_descent(fm, loss, cfg)
            want = full_row_coordinate_descent(fm, loss, cfg)
            stops.add((run.stop_reason, run.truncated_steps > 0))
            assert run.stop_reason == want.stop_reason
            assert run.iterations == want.iterations
            assert run.truncated_steps == want.truncated_steps
            np.testing.assert_allclose(run.lam, want.lam, rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(
                run.objective_trace, want.objective_trace, rtol=0.0, atol=1e-11
            )
        assert {("gradient", False), ("iterations", False), ("iterations", True)} <= stops

    def test_loss_runs_only_on_the_column_rows(self, monkeypatch):
        fm = lattice_problems()[2]  # m = 4000 over 6 occupied cells
        nonzero = np.count_nonzero(fm.features, axis=0)
        assert nonzero.max() < fm.m // 3
        derivatives, line_search = Loss.derivatives, optimize_module._line_search
        subgradient = Loss.subgradient
        column = {"nonzero": None}
        lengths = {"derivatives": [], "subgradient": []}

        def checked_line_search(fm, loss, z_base, feats_dir, *args, **kwargs):
            column["nonzero"] = np.count_nonzero(feats_dir)
            return line_search(fm, loss, z_base, feats_dir, *args, **kwargs)

        def checked_derivatives(loss, z):
            lengths["derivatives"].append(len(z))
            assert len(z) <= column["nonzero"]
            return derivatives(loss, z)

        def checked_subgradient(loss, z):
            lengths["subgradient"].append(len(z))
            return subgradient(loss, z)

        monkeypatch.setattr(optimize_module, "_line_search", checked_line_search)
        monkeypatch.setattr(Loss, "derivatives", checked_derivatives)
        monkeypatch.setattr(Loss, "subgradient", checked_subgradient)
        run = coordinate_descent(fm, Loss("logistic"), OptimizerConfig(max_iters=50))
        assert run.iterations > 4 and lengths["derivatives"]
        # phi' is taken on all rows once at the start, then on one column's rows per step
        assert lengths["subgradient"][0] == fm.m
        assert max(lengths["subgradient"][1:]) <= nonzero.max()


class TestOracleContract:
    def test_rho_suboptimality_small_problems(self):
        rng = np.random.default_rng(1)
        rho = 1e-2
        for _ in range(20):
            fm = random_sign_problem(rng, m_max=6, n_max=2)
            if fm.n == 1:
                fm = FeatureMatrix(
                    np.hstack([fm.features, np.zeros((fm.m, 1))]), fm.labels
                )
            # coordinate descent on exp
            opt_exp = grid_min_risk(fm, Loss("exp"))
            run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=2000))
            assert run.objective <= opt_exp + rho
            # subgradient descent on hinge
            opt_h = grid_min_risk(fm, Loss("hinge"))
            run_h = subgradient_descent(
                fm,
                Loss("hinge"),
                OptimizerConfig(method="subgradient", max_iters=20000, step_scale=1.0),
            )
            assert run_h.objective <= opt_h + rho


class TestDualBound:
    def test_zero_p(self):
        fm = duplicated_point_fm()
        assert dual_lower_bound(fm, Loss("exp"), np.zeros(2)) == 0.0

    def test_duplicated_tight_pair(self):
        fm = duplicated_point_fm()
        bound = dual_lower_bound(fm, Loss("exp"), np.array([1.0, 1.0]))
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert surrogate_risk(fm, np.zeros(1), Loss("exp")) == pytest.approx(1.0)

    def test_non_decorrelating_rejected(self):
        fm = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            dual_lower_bound(fm, Loss("exp"), np.array([1.0, 0.0]))

    def test_weak_duality_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            lam = rng.normal(size=fm.n)
            for loss in (Loss("exp"), Loss("logistic"), Loss("hinge")):
                bound = dual_lower_bound(fm, loss, cert.p * 0.5)
                assert bound <= surrogate_risk(fm, lam, loss) + 1e-9


class TestSuboptimalityCertificate:
    def test_separable_gap_is_primal(self):
        fm = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        cert = compute_hardcore(fm)
        lam = np.array([0.3])
        gap = suboptimality_certificate(fm, Loss("exp"), lam, cert)
        assert gap == pytest.approx(surrogate_risk(fm, lam, Loss("exp")), abs=1e-12)

    def test_duplicated_tight_at_zero(self):
        fm = duplicated_point_fm()
        cert = compute_hardcore(fm)
        gap = suboptimality_certificate(fm, Loss("exp"), np.zeros(1), cert)
        assert abs(gap) <= 1e-9

    def test_three_point_after_descent(self):
        # the certificate's p is fixed up to scale, so the reported gap
        # converges to the primal optimum minus the best scaled dual value,
        # which is strictly positive here: grid oracles over lambda and the
        # scale give 0.8702395 - 0.8334785 = 0.0367611
        fm = FeatureMatrix(np.array([[0.5], [0.5], [1.0]]), np.array([1.0, -1.0, 1.0]))
        cert = compute_hardcore(fm)
        run = coordinate_descent(fm, Loss("exp"), OptimizerConfig(max_iters=200))
        gap = suboptimality_certificate(fm, Loss("exp"), run.lam, cert)
        assert gap == pytest.approx(0.0367611, abs=1e-5)

    def test_nonnegative_up_to_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fm = random_sign_problem(rng)
            cert = compute_hardcore(fm)
            lam = rng.normal(size=fm.n)
            for loss in (Loss("exp"), Loss("logistic"), Loss("hinge")):
                assert suboptimality_certificate(fm, loss, lam, cert) >= -1e-7


class TestWeightedDuality:
    """Weak duality under point masses w: the dual prices -sum_j w_j phi*(q_j)."""

    @pytest.mark.parametrize("spec", ["exp", "logistic", "cone:1,1", "hinge"])
    def test_weighted_pair_gap_vanishes_at_the_optimum(self, spec):
        fm = weighted_pair_fm()
        loss = parse_loss(spec)
        cert = compute_hardcore(fm)
        if loss.kind == "hinge":
            lam = np.array([1.0])  # risk 0.1 * 2 = 0.2, the minimum
        else:
            lam = coordinate_descent(fm, loss, OptimizerConfig(max_iters=50)).lam
        gap = suboptimality_certificate(fm, loss, lam, cert)
        assert -1e-12 <= gap <= 1e-9

    def test_weighted_pair_hinge_gap_is_exact(self):
        # the hinge dual is linear in the scale, so its maximum is at the end
        # of the conjugate's domain, which the certificate prices exactly
        fm = weighted_pair_fm()
        gap = suboptimality_certificate(fm, Loss("hinge"), np.array([1.0]), compute_hardcore(fm))
        assert gap == 0.0

    @pytest.mark.parametrize("c1", [0.5, 2.0])
    def test_cone_without_exp_scales_logistic(self, c1):
        # phi = c1 * logistic: the conjugate's domain ends at c1, so a scale
        # bracket past it prices -inf; primal and dual both scale by c1
        x, y, _ = bench_planted_problem(48, 6, 0.5, np.random.default_rng(3))
        fm = FeatureMatrix(x, y)
        cert = compute_hardcore(fm)
        cfg = OptimizerConfig(max_iters=300)
        gaps = []
        for loss in (Loss("logistic"), Loss("cone", c1=c1, c2=0.0)):
            lam = coordinate_descent(fm, loss, cfg).lam
            gaps.append(suboptimality_certificate(fm, loss, lam, cert))
        assert math.isfinite(gaps[1])
        assert gaps[1] == pytest.approx(c1 * gaps[0], abs=1e-9)

    def test_each_doubled_scale_is_priced_once(self, monkeypatch):
        real = optimize_module._dual_value
        scales = []

        def spy(loss, weights, q):
            scales.append(float(q.max()))
            return real(loss, weights, q)

        monkeypatch.setattr(optimize_module, "_dual_value", spy)
        fm = weighted_pair_fm()
        suboptimality_certificate(fm, Loss("exp"), np.zeros(1), compute_hardcore(fm))
        assert 1.0 in scales and 2.0 in scales  # the bracket doubled at least once
        assert len(scales) == len(set(scales))

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_decorrelation_tolerance_is_the_core_tolerance(self, factor, accepted):
        # w q = (0.5, 0.5 (1 + eps)) leaves A (w q) = -eps / 2, which is eps
        # in units of max_j w_j
        fm = FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), np.array([0.5, 0.5]))
        q = np.array([1.0, 1.0 + factor * CORE_TOL])
        if accepted:
            assert math.isfinite(dual_lower_bound(fm, Loss("exp"), q))
        else:
            with pytest.raises(ValueError, match="decorrelating"):
                dual_lower_bound(fm, Loss("exp"), q)

    def test_weighted_pair_hinge_gap_at_zero(self):
        fm = weighted_pair_fm()
        gap = suboptimality_certificate(fm, Loss("hinge"), np.zeros(1), compute_hardcore(fm))
        assert gap == pytest.approx(0.8, abs=1e-9)

    def test_weighted_pair_dual_bound(self):
        fm = weighted_pair_fm()
        # q = phi'(z) at the exp optimum lam = ln 3; w q = (0.3, 0.3) decorrelates
        bound = dual_lower_bound(fm, Loss("exp"), np.array([1.0 / 3.0, 3.0]))
        assert bound == pytest.approx(0.6, abs=1e-12)
        with pytest.raises(ValueError, match="decorrelating"):
            dual_lower_bound(fm, Loss("exp"), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            dual_lower_bound(fm, Loss("exp"), np.array([np.nan, 1.0]))

    def test_random_weighted_sign_problems(self):
        rng = np.random.default_rng(11)
        losses = [parse_loss(spec) for spec in ("exp", "logistic", "cone:1,1", "hinge")]
        for _ in range(20):
            base = random_sign_problem(rng)
            w = rng.dirichlet(np.ones(base.m))
            zero = rng.uniform(size=base.m) < 0.2
            zero[rng.integers(base.m)] = False
            w[zero] = 0.0
            fm = FeatureMatrix(base.features, base.labels, w / w.sum())
            cert = compute_hardcore(fm)
            live = fm.weights > 0
            q = np.zeros(fm.m)
            q[live] = cert.p[live] / fm.weights[live]
            lam = rng.normal(size=fm.n)
            for loss in losses:
                primal = surrogate_risk(fm, lam, loss)
                assert suboptimality_certificate(fm, loss, lam, cert) >= -1e-9
                if q.max() > 0:
                    scale = rng.uniform(0.1, 1.0) / q.max()
                    assert dual_lower_bound(fm, loss, scale * q) <= primal + 1e-9


def test_optimize_dispatch():
    fm = duplicated_point_fm()
    run = optimize(fm, Loss("exp"), OptimizerConfig(method="coordinate", max_iters=5))
    assert run.iterations >= 1
    run2 = optimize(
        fm, Loss("hinge"), OptimizerConfig(method="subgradient", max_iters=5)
    )
    assert run2.iterations >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
