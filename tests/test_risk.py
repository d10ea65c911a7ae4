import csv
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import checked_conditional_min

from hardcoreboost import (
    ExplicitClass,
    FeatureMatrix,
    Sample,
    bayes_risk_discrete,
    bayes_surrogate_risk,
    classification_risk,
    load_sample_csv,
    margins,
    surrogate_risk,
    surrogate_risk_saturated,
)
from hardcoreboost.losses import Loss, parse_loss, psi_numeric
from hardcoreboost.risk import _group_by_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def random_fm(rng, m=6, n=3):
    feats = rng.uniform(-1, 1, size=(m, n))
    labels = rng.choice([-1.0, 1.0], size=m)
    return FeatureMatrix(feats, labels)


class TestSurrogateRisk:
    def test_zero_weighting_exp(self):
        fm = FeatureMatrix(np.zeros((4, 1)), np.array([1.0, 1.0, -1.0, -1.0]))
        assert surrogate_risk(fm, np.zeros(1), Loss("exp")) == pytest.approx(1.0)

    def test_restricted_unnormalized(self):
        fm = FeatureMatrix(np.zeros((4, 1)), np.array([1.0, 1.0, -1.0, -1.0]))
        v = surrogate_risk(fm, np.zeros(1), Loss("logistic"), region=np.array([0, 1]))
        assert v == pytest.approx(0.5 * math.log(2))

    def test_three_point_arithmetic(self):
        fm = FeatureMatrix(np.full((3, 1), 0.5), np.array([1.0, -1.0, 1.0]))
        v = surrogate_risk(fm, np.array([1.0]), Loss("exp"))
        expected = (2 * math.exp(-0.5) + math.exp(0.5)) / 3
        assert v == pytest.approx(expected, abs=1e-12)

    def test_additivity_over_partitions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fm = random_fm(rng)
            lam = rng.normal(size=fm.n)
            mask = rng.uniform(size=fm.m) < 0.5
            full = surrogate_risk(fm, lam, Loss("logistic"))
            parts = surrogate_risk(fm, lam, Loss("logistic"), region=mask)
            parts += surrogate_risk(fm, lam, Loss("logistic"), region=~mask)
            assert parts == pytest.approx(full, abs=1e-12)

    def test_convexity_in_lambda(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            fm = random_fm(rng)
            a, b = rng.normal(size=(2, fm.n))
            t = rng.uniform()
            for loss in (Loss("exp"), Loss("hinge"), Loss("logistic")):
                mid = surrogate_risk(fm, t * a + (1 - t) * b, loss)
                chord = t * surrogate_risk(fm, a, loss) + (1 - t) * surrogate_risk(fm, b, loss)
                assert mid <= chord + 1e-9

    def test_dimension_mismatch(self):
        fm = FeatureMatrix(np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            surrogate_risk(fm, np.zeros(3), Loss("exp"))

    def test_full_region_is_bitwise_the_full_sample(self):
        rng = np.random.default_rng(4)
        for m in (1, 7, 300):
            fm = random_fm(rng, m=m)
            lam = rng.normal(scale=4.0, size=fm.n)
            for loss in (Loss("exp"), Loss("logistic"), Loss("hinge"), Loss("cone", c1=1, c2=2)):
                full = surrogate_risk(fm, lam, loss)
                assert full == surrogate_risk(fm, lam, loss, region=np.ones(m, dtype=bool))
                assert full == surrogate_risk(fm, lam, loss, region=np.arange(m))


    def test_saturation_flag(self):
        fm = FeatureMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        lam = np.array([800.0])  # the second point's exponent passes EXP_CLAMP
        for loss in (Loss("exp"), Loss("cone", c1=1, c2=1)):
            risk, saturated = surrogate_risk_saturated(fm, lam, loss)
            assert saturated and risk == surrogate_risk(fm, lam, loss)
            # the clamped point is outside the region, so nothing saturates
            assert not surrogate_risk_saturated(fm, lam, loss, region=np.array([0]))[1]
        for loss in (Loss("logistic"), Loss("hinge")):
            assert not surrogate_risk_saturated(fm, lam, loss)[1]

    def test_saturated_matches_value_saturated(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            fm = random_fm(rng, m=9)
            lam = rng.normal(scale=400.0, size=fm.n)
            for loss in (Loss("exp"), Loss("logistic"), Loss("hinge"), Loss("cone", 0.3, 2.5)):
                values, flag = loss.value_saturated(-fm.labels * (fm.features @ lam))
                assert surrogate_risk_saturated(fm, lam, loss) == (
                    float(np.sum(fm.weights * values)), flag
                )


class TestClassificationRisk:
    def test_tie_predicts_positive(self):
        fm_neg = FeatureMatrix(np.zeros((3, 1)), -np.ones(3))
        assert classification_risk(fm_neg, np.zeros(1)) == 1.0
        fm_pos = FeatureMatrix(np.zeros((3, 1)), np.ones(3))
        assert classification_risk(fm_pos, np.zeros(1)) == 0.0

    def test_phi0_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            fm = random_fm(rng)
            lam = rng.normal(size=fm.n)
            for loss in (Loss("exp"), Loss("hinge"), Loss("logistic")):
                lhs = classification_risk(fm, lam)
                rhs = surrogate_risk(fm, lam, loss) / loss.value_at_origin
                assert lhs <= rhs + 1e-12

    def test_region_restriction(self):
        fm = FeatureMatrix(np.array([[1.0], [1.0]]), np.array([-1.0, -1.0]))
        assert classification_risk(fm, np.array([1.0]), region=np.array([0])) == 0.5


class TestMargins:
    def test_signs(self):
        fm = FeatureMatrix(np.array([[0.5], [0.5]]), np.array([1.0, -1.0]))
        assert np.allclose(margins(fm, np.array([2.0])), [1.0, -1.0])


def loop_group_by_instance(sample):
    """The per-row accumulation _group_by_instance replaced, as an oracle."""
    _, inverse = np.unique(sample.x, axis=0, return_inverse=True)
    k = inverse.max() + 1
    pos = np.zeros(k)
    neg = np.zeros(k)
    for idx, y, w in zip(inverse, sample.y, sample.weights):
        if y > 0:
            pos[idx] += w
        else:
            neg[idx] += w
    return pos, neg


class TestBayes:
    def test_grouping_matches_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, d = int(rng.integers(1, 40)), int(rng.integers(1, 3))
            w = rng.random(m) * (rng.random(m) < 0.8)
            w = w / w.sum() if w.sum() > 0 else None
            s = Sample(rng.integers(0, 3, (m, d)), rng.choice([-1.0, 1.0], m), w)
            got, want = _group_by_instance(s), loop_group_by_instance(s)
            assert all(np.array_equal(g, h) for g, h in zip(got, want))

    def test_deterministic_labels(self):
        s = Sample(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        assert bayes_risk_discrete(s) == 0.0

    def test_single_instance_minority(self):
        s = Sample(np.zeros((2, 1)), np.array([1.0, -1.0]), np.array([0.7, 0.3]))
        assert bayes_risk_discrete(s) == pytest.approx(0.3)

    def test_two_instances(self):
        s = Sample(
            np.array([[0.0], [0.0], [1.0], [1.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
            np.array([0.4, 0.1, 0.2, 0.3]),
        )
        assert bayes_risk_discrete(s) == pytest.approx(0.3)

    def test_surrogate_bayes_below_any_prediction(self):
        rng = np.random.default_rng(3)
        s = Sample(
            np.array([[0.0], [0.0], [1.0], [1.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
            np.array([0.4, 0.1, 0.2, 0.3]),
        )
        best = bayes_surrogate_risk(s, Loss("logistic"))
        fm = ExplicitClass(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])).materialize(s)
        for _ in range(20):
            lam = rng.normal(scale=3, size=2)
            assert best <= surrogate_risk(fm, lam, Loss("logistic")) + 1e-9

    @pytest.mark.parametrize("spec", ["exp", "logistic", "hinge", "cone:0.3,2.5"])
    def test_surrogate_bayes_matches_inline_golden_loop(self, spec):
        loss = parse_loss(spec)
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 12))
            x = rng.integers(0, int(rng.integers(1, 5)), size=(m, 1)).astype(float)
            y = rng.choice([-1.0, 1.0], size=m)
            w = rng.uniform(0.0, 1.0, size=m)
            s = Sample(x, y, w / w.sum())
            # per instance, the shared helper against the full-bracket golden
            # loop and, for the base kinds, the closed forms; summed the same way
            want = 0.0
            for wp, wn in zip(*_group_by_instance(s)):
                if wp + wn > 0:
                    want += checked_conditional_min(loss, wp, wn)
            assert bayes_surrogate_risk(s, loss) == want


def test_calibration_inequality_finite_distributions():
    # psi(R_L - R_L*) <= R_phi - R_phi* for arbitrary predictors over
    # finitely supported laws, with both infima brute-forced
    rng = np.random.default_rng(4)
    for loss in (Loss("exp"), Loss("logistic")):
        for _ in range(50):
            k = int(rng.integers(2, 5))
            # distinct instances, one feature row per instance (identity-ish)
            table = np.eye(k)[:, : max(2, k)]
            xs = np.arange(k, dtype=float)[:, None]
            labels, weights, rows, feat_rows = [], [], [], []
            raw = rng.uniform(0.05, 1.0, size=(k, 2))
            raw /= raw.sum()
            for i in range(k):
                for sign, w in ((1.0, raw[i, 0]), (-1.0, raw[i, 1])):
                    rows.append(xs[i])
                    labels.append(sign)
                    weights.append(w)
                    feat_rows.append(table[i])
            s = Sample(np.array(rows), np.array(labels), np.array(weights))
            fm = ExplicitClass(np.array(feat_rows)).materialize(s)
            lam = rng.normal(scale=2, size=fm.n)
            excess_l = classification_risk(fm, lam) - bayes_risk_discrete(s)
            excess_phi = surrogate_risk(fm, lam, loss) - bayes_surrogate_risk(s, loss)
            theta = min(max(excess_l, 0.0), 1.0)
            assert psi_numeric(loss, theta) <= excess_phi + 1e-6


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n0.5,-0.25,1\n-1,0.75,-1\n")
        s = load_sample_csv(path)
        assert s.m == 2
        assert np.allclose(s.x, [[0.5, -0.25], [-1.0, 0.75]])
        assert np.array_equal(s.y, [1.0, -1.0])

    def test_weight_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label,weight\n0.5,1,0.25\n-0.5,-1,0.75\n")
        s = load_sample_csv(path)
        assert np.allclose(s.weights, [0.25, 0.75])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n0.5,1\n")
        with pytest.raises(ValueError):
            load_sample_csv(path)

    def test_blank_lines_and_comments_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n\n0.5,1\n# a comment\n\n-0.5,-1  # another\n\n")
        s = load_sample_csv(path)
        assert np.array_equal(s.x, [[0.5], [-0.5]])
        assert np.array_equal(s.y, [1.0, -1.0])

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n0.5,1\n \t \n-0.5,-1\n   ")
        s = load_sample_csv(path)
        assert np.array_equal(s.x, [[0.5], [-0.5]])
        assert np.array_equal(s.y, [1.0, -1.0])

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"f1","label","weight"\n"0.5","1",0.25\n-0.5,"-1","0.75"\n')
        s = load_sample_csv(path)
        assert np.array_equal(s.x, [[0.5], [-0.5]])
        assert np.array_equal(s.y, [1.0, -1.0])
        assert np.array_equal(s.weights, [0.25, 0.75])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("f1,label\n0.5,1\n-0.5,1.9\n", "labels must be"),
            ("f1,f2,label\n0.5,0.5,1\n-0.5,-1\n", r"data\.csv: line 3: the number of columns is 2, not 3$"),
            ("f1,label\n0.5,1,0.2\n-0.5,-1,0.8\n", "header has 2 fields"),
            ("f1,label\n", "no data rows"),
            ("f1,label\n0.5,1\n-0.5,x\n", r"data\.csv: line 3: could not convert string 'x'"),
            ("f1,label\n# note\n0.5,1\n\n0.5,1,9\n", r"data\.csv: line 5: the number of columns is 3, not 2$"),
            ("f1,label\n0.5,1\n  \n\t\n-0.5,x\n", r"data\.csv: line 5: could not convert string 'x'"),
            ("f1,label\n   \n", "no data rows"),
        ],
        ids=[
            "fractional-label", "ragged-row", "rows-wider-than-header", "header-only",
            "non-numeric-line", "line-after-comment-and-blank", "line-after-whitespace-lines",
            "whitespace-only-data",
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text, match):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_sample_csv(path)


def loop_load_sample_csv(path):
    """The per-row csv reader that load_sample_csv replaced, as an oracle."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        label_col = header.index("label")
        weight_col = header.index("weight") if "weight" in header else None
        feat_cols = [i for i, h in enumerate(header) if i not in (label_col, weight_col)]
        xs, ys, ws = [], [], []
        for row in reader:
            if not row:
                continue
            xs.append([float(row[i]) for i in feat_cols])
            ys.append(int(float(row[label_col])))
            if weight_col is not None:
                ws.append(float(row[weight_col]))
    return Sample(np.array(xs), np.array(ys, dtype=float), np.array(ws) if ws else None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_pools_load_as_the_loop_did(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for workload in (workloads.Hardcore(), workloads.Train()):
        for entry in workload.make_pool(np.random.default_rng(seed), str(tmp_path)):
            got, want = load_sample_csv(entry["csv"]), loop_load_sample_csv(entry["csv"])
            for attr in ("x", "y", "weights"):
                a, b = getattr(got, attr), getattr(want, attr)
                # equal bytes in the same layout, since matmul rounds by layout
                assert a.shape == b.shape and a.strides == b.strides
                assert a.tobytes() == b.tobytes()
