import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    box_vertices,
    checked_conditional_min,
    lattice_risk_oracle,
    ungrouped_sweep,
)

from hardcoreboost import (
    LatticeNoiseWorld,
    Sample,
    SweepConfig,
    SweepStage,
    build_staggered,
    consistency_sweep,
    default_schedule,
    impossibility_report,
    max_margin_2d,
    sample_world,
)
from hardcoreboost import experiments
from hardcoreboost.experiments import STAGGERED_SEPARATOR
from hardcoreboost.hypotheses import LatticeCellClass, ProjectionClass
from hardcoreboost.losses import Loss, parse_loss
from hardcoreboost.lp import LinearProgram, solve
from hardcoreboost.risk import surrogate_risk


def slack_max_margin(sample):
    """Max-margin LP in equality form: one slack column per point, |lam|_1 = 1.

    Variables [lam+ (2), lam- (2), t, s_j (m)] with a_j @ lam - t - s_j = 0;
    kept as an independent oracle for max_margin_2d's inequality-row LP.
    """
    a = sample.x * sample.y[:, None]
    m = a.shape[0]
    nv = 5 + m
    obj = np.zeros(nv)
    obj[4] = 1.0
    rows = np.zeros((m + 1, nv))
    rows[:m, :2] = a
    rows[:m, 2:4] = -a
    rows[:m, 4] = -1.0
    rows[np.arange(m), 5 + np.arange(m)] = -1.0
    rows[m, :4] = 1.0
    rhs = np.append(np.zeros(m), 1.0)
    lower = np.zeros(nv)
    lower[4] = -1.0
    upper = np.full(nv, np.inf)
    upper[:5] = 1.0
    sol = solve(LinearProgram(obj, rows, rhs, lower, upper))
    return sol.x[:2] - sol.x[2:4], float(sol.value)


class TestBuildStaggered:
    def test_depth_one(self):
        w = build_staggered(1)
        assert np.allclose(w.x, [[-1.0, 1.0], [1.0, -0.2]])
        assert np.allclose(w.weights, [0.5, 0.5])
        assert np.array_equal(w.y, [1.0, -1.0])

    def test_depth_two_points(self):
        w = build_staggered(2)
        assert np.allclose(w.x[1], [0.5, 1.0])
        assert np.allclose(w.x[3], [1.0, 0.7])

    def test_mass_sums_to_one(self):
        for depth in (1, 3, 7, 12):
            assert build_staggered(depth).weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_separator_margins(self):
        for depth in (2, 5, 10):
            w = build_staggered(depth)
            margins = w.y * (w.x @ STAGGERED_SEPARATOR)
            assert np.all(margins > 0)
            # positives carry margin 0.5 * 4^(2-i), negatives 0.3 * 4^(2-i)
            idx = np.arange(1, depth + 1)
            assert np.allclose(margins[:depth], 0.5 * 4.0 ** (2.0 - idx))
            assert np.allclose(margins[depth:], 0.3 * 4.0 ** (2.0 - idx))
            assert margins.min() == pytest.approx(0.3 * 4.0 ** (2.0 - depth))

    def test_separator_risk_vanishes_along_scaling(self):
        # R_phi(span) = 0: scaling the perfect separator drives the exp risk
        # under 1e-6 at c = 2^40 / 4^depth (depths where the truncation
        # residual's tiny margins have decayed enough)
        for depth in range(3, 10):
            fm = ProjectionClass(2).materialize(build_staggered(depth))
            c = 2.0**40 / 4.0**depth
            assert surrogate_risk(fm, c * STAGGERED_SEPARATOR, Loss("exp")) <= 1e-6

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_staggered(0)

    def test_world_is_a_weighted_sample(self):
        w = build_staggered(5)
        assert isinstance(w, Sample) and w.m == 10
        assert np.array_equal(w.y, np.repeat([1.0, -1.0], 5))
        assert np.array_equal(w.weights[:5], w.weights[5:])

    def test_separator_is_read_only(self):
        assert np.array_equal(STAGGERED_SEPARATOR, [-1.0, 1.0])
        with pytest.raises(ValueError):
            STAGGERED_SEPARATOR[0] = 0.0


class TestSampleWorld:
    def test_draws_rows_by_weight(self):
        w = build_staggered(7)
        s = sample_world(w, 300, seed=5)
        idx = np.random.default_rng(5).choice(w.m, size=300, p=w.weights)
        assert np.array_equal(s.x, w.x[idx]) and np.array_equal(s.y, w.y[idx])
        assert np.all(s.weights == 1.0 / 300)

    def test_deterministic(self):
        w = build_staggered(4)
        a = sample_world(w, 50, seed=9)
        b = sample_world(w, 50, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_depth_one_support(self):
        w = build_staggered(1)
        s = sample_world(w, 200, seed=0)
        for row in s.x:
            assert any(np.allclose(row, p) for p in w.x)

    def test_empirical_masses_concentrate(self):
        w = build_staggered(8)
        s = sample_world(w, 10**4, seed=3)
        for point, mass in zip(w.x, w.weights):
            emp = np.mean(np.all(s.x == point, axis=1))
            assert abs(emp - mass) < 0.02


class TestMaxMargin:
    def test_worked_pair(self):
        s = Sample(np.array([[0.875, 1.0], [1.0, 0.7]]), np.array([1.0, -1.0]))
        lam, t = max_margin_2d(s)
        assert np.allclose(lam, [-0.47552448, 0.52447552], atol=1e-6)
        assert t == pytest.approx(0.10839, abs=1e-5)

    def test_single_label_rejected(self):
        s = Sample(np.array([[0.5, 0.5], [0.1, 0.2]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            max_margin_2d(s)

    def test_depth_one_pair_matches_vertex_oracle(self):
        w = build_staggered(1)
        s = Sample(w.x, w.y)
        lam, t = max_margin_2d(s)
        # brute force: maximize min margin over vertices of the l1 ball slice
        a = s.x * s.y[:, None]
        nv = 5 + 2
        obj = np.zeros(nv)
        obj[4] = 1.0
        rows = []
        for j in range(2):
            row = np.zeros(nv)
            row[:2] = a[j]
            row[2:4] = -a[j]
            row[4] = -1.0
            row[5 + j] = -1.0
            rows.append(row)
        norm = np.zeros(nv)
        norm[:4] = 1.0
        rows.append(norm)
        lower = np.zeros(nv)
        lower[4] = -1.0
        upper = np.array([1.0, 1, 1, 1, 1, np.inf, np.inf])
        verts = box_vertices(
            np.array(rows), np.array([0.0, 0.0, 1.0]), lower, upper
        )
        assert verts.shape[0] > 0
        best = verts[np.argmax(verts[:, 4])]
        assert t == pytest.approx(best[4], abs=1e-7)
        assert np.allclose(lam, best[:2] - best[2:4], atol=1e-6)

    def test_equal_achieved_margins(self):
        w = build_staggered(6)
        for seed in range(5):
            s = sample_world(w, 25, seed=seed)
            if len(set(s.y)) < 2:
                continue
            lam, t = max_margin_2d(s)
            margins = s.y * (s.x @ lam)
            pos_min = margins[s.y > 0].min()
            neg_min = margins[s.y < 0].min()
            assert pos_min == pytest.approx(neg_min, abs=1e-8)
            assert min(pos_min, neg_min) == pytest.approx(t, abs=1e-8)

    @pytest.mark.parametrize("depth", [6, 10, 12])
    def test_agrees_with_slack_form_oracle(self, depth):
        w = build_staggered(depth)
        checked = 0
        for seed in range(12):
            s = sample_world(w, 20, seed=seed)
            if len(set(s.y)) < 2:
                continue
            lam, t = max_margin_2d(s)
            lam_ref, t_ref = slack_max_margin(s)
            assert t == pytest.approx(t_ref, abs=1e-9)
            assert np.allclose(lam, lam_ref, rtol=0.0, atol=1e-9)
            assert np.abs(lam).sum() <= 1.0 + 1e-9
            checked += 1
        assert checked >= 10

    def test_nonseparable_reports_nonpositive(self):
        s = Sample(
            np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1.0, -1.0])
        )
        _, t = max_margin_2d(s)
        assert t <= 1e-9


class TestImpossibilityReport:
    def test_separator_scaling_decreases(self):
        fm = ProjectionClass(2).materialize(build_staggered(4))
        r1 = surrogate_risk(fm, STAGGERED_SEPARATOR, Loss("exp"))
        r10 = surrogate_risk(fm, 10 * STAGGERED_SEPARATOR, Loss("exp"))
        assert r10 < r1

    def test_report_structure(self):
        rep = impossibility_report(10, 20, [1, 32], Loss("exp"), seed=0)
        assert not rep.null_finding
        assert rep.classification_risk > 0
        assert len(rep.rows) == 2
        assert rep.rows[0].scale == 1.0

    @pytest.mark.parametrize("spec", ["exp", "logistic", "hinge", "cone:0.3,2.5"])
    def test_rows_are_exact_world_sums(self, spec):
        # each risk is the mass-weighted loss over the world's support, with
        # the clamp flag of either evaluation
        loss = parse_loss(spec)
        world = build_staggered(8)
        rep = impossibility_report(8, 20, [1, 64, 2**22], loss, seed=3)

        def exact(lam):
            values, flag = loss.value_saturated(-world.y * (world.x @ lam))
            return float(world.weights @ values), flag

        for row in rep.rows:
            r_hat, s_hat = exact(row.scale * rep.max_margin)
            r_sep, s_sep = exact(row.scale * STAGGERED_SEPARATOR)
            assert (row.risk_maxmargin, row.risk_separator) == (r_hat, r_sep)
            assert row.saturated == (s_hat or s_sep)
        wrong = np.where(world.x @ rep.max_margin >= 0.0, 1.0, -1.0) != world.y
        assert rep.classification_risk == float(np.sum(world.weights[wrong])) > 0

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            impossibility_report(2, 20, [1], Loss("exp"), seed=0)

    def test_misclassification_drives_divergence(self):
        # in the misclassification event the surrogate risk of the scaled
        # max-margin direction eventually blows up with the scale
        rep = impossibility_report(10, 20, [1, 2**22], Loss("exp"), seed=0)
        assert rep.rows[1].risk_maxmargin > rep.rows[0].risk_maxmargin
        assert rep.rows[1].risk_separator < 1.0

    def test_null_finding(self):
        # no draw of 200 points misses the depth-3 tail: every retry is spent
        rep = impossibility_report(3, 200, [1.0], Loss("exp"), seed=0)
        assert rep.null_finding and rep.retries == 21 and rep.seed == 20
        assert rep.max_margin == pytest.approx([-0.50657895, 0.49342105], abs=1e-8)
        assert rep.classification_risk == 0.0

    def test_null_finding_keeps_the_last_two_label_fit(self):
        # seeds 13 and 15 draw one label only; seed 14's fit is the one reported
        world = build_staggered(3)
        assert [len(set(sample_world(world, 2, s).y)) for s in (13, 14, 15)] == [1, 2, 1]
        rep = impossibility_report(3, 2, [1.0], Loss("exp"), seed=13, max_retries=2)
        assert rep.null_finding and rep.retries == 3 and rep.seed == 14
        lam, margin = max_margin_2d(sample_world(world, 2, 14))
        assert np.array_equal(rep.max_margin, lam) and rep.margin == margin

    def test_no_two_label_draw_is_an_error(self):
        with pytest.raises(ValueError, match="none of 21 draws of m=1 points had both labels"):
            impossibility_report(3, 1, [1.0], Loss("exp"), seed=0)

    def test_deterministic(self):
        a = impossibility_report(5, 15, [1, 4], Loss("exp"), seed=11)
        b = impossibility_report(5, 15, [1, 4], Loss("exp"), seed=11)
        assert np.array_equal(a.max_margin, b.max_margin)
        assert a.rows == b.rows


class TestLatticeNoiseWorld:
    def test_bayes_risk(self):
        w = LatticeNoiseWorld((0.8, 0.2))
        assert w.bayes_risk() == pytest.approx(0.2)

    def test_classification_risk_of_bayes_predictor(self):
        w = LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2))
        cls = LatticeCellClass(2, 1)
        lam = np.zeros(cls.n)
        edges = w.cell_edges()
        for j, p in enumerate(w.cell_probs):
            mid = 0.5 * (edges[j] + edges[j + 1])
            lam[cls.cells([[mid]])[0]] = 1.0 if p >= 0.5 else -1.0
        assert w.classification_risk(cls, lam) == pytest.approx(w.bayes_risk(), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_classification_risk_matches_rational_oracle(self, k):
        rng = np.random.default_rng(k)
        for resolution in range(1, 6):
            cls = LatticeCellClass(resolution, 1)
            for _ in range(4):
                w = LatticeNoiseWorld(tuple(rng.uniform(size=k)))
                lam = rng.normal(size=cls.n)
                lam[rng.uniform(size=cls.n) < 0.3] = 0.0  # f = 0 predicts +1
                exact = lattice_risk_oracle(w.cell_probs, resolution, lam)
                assert abs(w.classification_risk(cls, lam) - float(exact)) <= 1e-15

    def test_classification_risk_rejects_other_classes(self):
        w = LatticeNoiseWorld((0.8, 0.2))
        with pytest.raises(ValueError):
            w.classification_risk(LatticeCellClass(1, 2), np.zeros(4))
        with pytest.raises(ValueError):
            w.classification_risk(LatticeCellClass(2, 1), np.zeros(2))

    def test_sample_labels_match_probs(self):
        w = LatticeNoiseWorld((1.0, 0.0))
        s = w.sample(500, np.random.default_rng(0))
        pos_side = s.x[:, 0] < 0.0
        assert np.all(s.y[pos_side] == 1.0)
        assert np.all(s.y[~pos_side] == -1.0)

    def test_prob_validation(self):
        with pytest.raises(ValueError):
            LatticeNoiseWorld((0.5, 1.2))


class TestConsistencySweep:
    def test_trivial_world_zero_excess(self):
        w = LatticeNoiseWorld((1.0, 0.0))
        cfg = SweepConfig(
            world=w,
            stages=(SweepStage(50, 1, 0.01), SweepStage(200, 2, 0.002)),
            seed=0,
            replications=3,
        )
        results = consistency_sweep(cfg)
        for r in results:
            assert r.failures == 0
            assert np.all(np.abs(r.excess_risks) <= 1e-9)

    def test_default_schedule(self):
        sched = default_schedule(4)
        assert [s.m for s in sched] == [250, 1000, 4000, 16000]
        assert [s.class_index for s in sched] == [1, 2, 3, 4]
        assert [s.epsilon for s in sched] == [1 / 250, 1 / 1000, 1 / 4000, 1 / 16000]

    def test_schedule_validation(self):
        w = LatticeNoiseWorld((0.8, 0.2))
        with pytest.raises(ValueError):
            SweepConfig(world=w, stages=(SweepStage(100, 1, 0.01), SweepStage(100, 2, 0.001)))
        with pytest.raises(ValueError):
            SweepConfig(world=w, stages=(SweepStage(100, 1, 0.01), SweepStage(200, 2, 0.01)))

    def test_replications_validation(self):
        w = LatticeNoiseWorld((0.8, 0.2))
        with pytest.raises(ValueError, match="replications"):
            SweepConfig(world=w, stages=(SweepStage(100, 1, 0.01),), replications=0)

    @pytest.mark.parametrize("replications", [2.7, True, 2.0])
    def test_replications_must_be_an_integer(self, replications):
        # 2.7 was truncated to 2 replications, and True ran one
        w = LatticeNoiseWorld((0.8, 0.2))
        with pytest.raises(ValueError, match="replications must be an integer"):
            SweepConfig(world=w, stages=(SweepStage(100, 1, 0.01),), replications=replications)
        cfg = SweepConfig(world=w, stages=(SweepStage(100, 1, 0.01),), replications=np.int64(2))
        assert cfg.replications == 2

    @pytest.mark.parametrize("epsilon", [math.nan, -0.5, 0.0, -0.0, math.inf])
    def test_stage_epsilon_must_be_positive_and_finite(self, epsilon):
        # no descent can end at or below an empirical optimum minus |epsilon|
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SweepStage(100, 1, epsilon)

    def test_all_failed_stage_reports_nan(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "coordinate_descent",
            lambda fm, loss, cfg, target: SimpleNamespace(objective=target + 1.0),
        )
        cfg = SweepConfig(
            world=LatticeNoiseWorld((0.8, 0.2)),
            stages=(SweepStage(50, 1, 0.01),),
            replications=3,
        )
        (result,) = consistency_sweep(cfg)
        assert result.failures == 3 and result.excess_risks.size == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(result.median) and np.isnan(result.p90)

    def test_deterministic(self):
        w = LatticeNoiseWorld((0.8, 0.2))
        cfg = SweepConfig(
            world=w,
            stages=(SweepStage(60, 1, 0.01), SweepStage(240, 2, 0.002)),
            seed=5,
            replications=4,
        )
        a = consistency_sweep(cfg)
        b = consistency_sweep(cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.excess_risks, rb.excess_risks)

    @pytest.mark.parametrize("kind", ["logistic", "exp"])
    def test_grouped_rows_give_the_ungrouped_results(self, kind):
        # one row per (cell, label) pair is the same risk function of lambda
        # as one row per point, so each replication ends on the same side of
        # 0 in every cell
        cfg = SweepConfig(
            world=LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2)),
            stages=default_schedule(3),
            loss=Loss(kind),
            seed=3,
            replications=2,
        )
        got = consistency_sweep(cfg)
        want = ungrouped_sweep(cfg)
        assert [(r.excess_risks.tolist(), r.failures) for r in got] == want

    def test_noisy_world_excess_shrinks(self):
        # coarse first stage cannot resolve the 4-cell noise pattern, later
        # aligned stages can
        w = LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2))
        cfg = SweepConfig(
            world=w,
            stages=(SweepStage(200, 1, 0.005), SweepStage(800, 2, 0.00125)),
            seed=1,
            replications=5,
        )
        results = consistency_sweep(cfg)
        assert results[0].median > 0.1  # unresolvable at resolution 1
        assert results[1].median <= 0.05


def inline_sweep_target(fm, loss, epsilon, cell_min):
    """The sweep's target: per-cell optima by cell_min(loss, w+, w-), plus
    epsilon."""
    counts = fm.features.sum(axis=0)
    opt = 0.0
    for i in range(fm.n):
        if counts[i] == 0:
            continue
        on = fm.features[:, i] > 0
        wp = float(np.sum(fm.weights[on & (fm.labels > 0)]))
        wn = float(np.sum(fm.weights[on & (fm.labels < 0)]))
        opt += cell_min(loss, wp, wn)
    return opt + epsilon


@pytest.mark.parametrize("spec", ["logistic", "exp", "cone:0.3,2.5"])
def test_sweep_target_matches_inline_golden_loop(spec, monkeypatch):
    calls = []

    def record(fm, loss, cfg, target):
        calls.append((fm, target))
        return SimpleNamespace(objective=target, lam=np.zeros(fm.n))

    monkeypatch.setattr(experiments, "coordinate_descent", record)
    loss = parse_loss(spec)
    # each cell's optimum is checked against the full-bracket golden search
    # and, for a base kind, against its closed form
    ms = sorted(np.random.default_rng(8).choice(np.arange(20, 200), size=3, replace=False).tolist())
    # pure cells give one-label bins, and resolution 3 leaves cells empty
    cfg = SweepConfig(
        world=LatticeNoiseWorld((1.0, 0.7, 0.2, 0.0)),
        stages=tuple(SweepStage(m, i, 1.0 / m) for i, m in enumerate(ms, start=1)),
        loss=loss,
        seed=8,
        replications=2,
    )
    consistency_sweep(cfg)
    stages = [stage for stage in cfg.stages for _ in range(cfg.replications)]
    assert len(calls) == len(stages)
    for (fm, target), stage in zip(calls, stages):
        assert fm.n == LatticeCellClass(stage.class_index, 1).n
        assert target == inline_sweep_target(fm, loss, stage.epsilon, checked_conditional_min)
