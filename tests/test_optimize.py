import math

import numpy as np
import pytest
from conftest import grid_min_risk, random_sign_problem

from hardcoreboost import (
    FeatureMatrix,
    OptimizerConfig,
    compute_hardcore,
    coordinate_descent,
    dual_lower_bound,
    optimize,
    subgradient_descent,
    suboptimality_certificate,
    surrogate_risk,
)
from hardcoreboost.experiments import build_staggered, sample_world
from hardcoreboost.losses import Loss, UnsupportedLossError


def duplicated_point_fm():
    return FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))


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
