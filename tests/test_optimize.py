import importlib
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import (
    dual_scale_bracket,
    grid_min_risk,
    random_sign_problem,
    reference_coordinate_descent,
    reference_subgradient_descent,
)
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
from hardcoreboost.hardcore import CORE_TOL, HardCoreCertificate
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
    feats_dir = H d, formed from scratch.  Its weights w (-y) H d multiply
    phi' last, as the package's do: where phi' is subnormal (exp past
    z = -708) the sign of the sum depends on that order, and this one
    rounds each term into the subnormal range once."""
    coeff = fm.weights * -fm.labels * feats_dir

    def slope(s):
        z = -fm.labels * (base + s * feats_dir)
        return float(coeff @ loss.subgradient(z))

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


def line_search(fm, loss, lam, direction, tol=1e-10, start=1.0):
    """_line_search's (step, truncated) on the ray from lam along direction,
    called as coordinate descent calls it: with z_base = -y (H lam) and,
    for feats_dir = H direction, the ray's w (-y) feats_dir, -y feats_dir
    and w feats_dir^2."""
    feats_dir = fm.features @ direction
    return _line_search(
        loss, fm.weights * -fm.labels * feats_dir, -margins(fm, lam), -fm.labels * feats_dir,
        fm.weights * (feats_dir * feats_dir), tol, start=start,
    )[:2]


def counting_slopes(loss, counts):
    """A copy of loss whose phi', phi'' kernel, the line search's one loss
    pass per slope, counts its calls in counts["slopes"]."""
    kernels = loss._k

    def d12(z):
        counts["slopes"] += 1
        return kernels.d12(z)

    counted = Loss(loss.kind, loss.c1, loss.c2)
    object.__setattr__(counted, "_k", kernels._replace(d12=d12))
    return counted


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
        for fm, run in zip(problems, runs):
            monkeypatch.setattr(
                optimize_module,
                "_line_search",
                # -y z_base and -y z_dir are H lam and H d exactly, as the
                # labels are +-1; the oracle bisects from 0 wherever the
                # search starts, and returns no margins, so the descent
                # rebuilds them from lam
                lambda loss, w_z_dir, z_base, z_dir, w_dir_sq, start=1.0, fm=fm: (
                    *bisection_line_search(
                        ray_slope(fm, loss, -fm.labels * z_base, -fm.labels * z_dir)
                    ),
                    None, None, 0,
                ),
            )
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
        line_search = optimize_module._line_search

        def counted_line_search(*args, **kwargs):
            counts["searches"] += 1
            return line_search(*args, **kwargs)

        monkeypatch.setattr(optimize_module, "_line_search", counted_line_search)
        reported = sum(
            coordinate_descent(
                fm, counting_slopes(loss, counts), OptimizerConfig(max_iters=100)
            ).slope_evaluations
            for loss in CD_LOSSES
        )
        assert counts["searches"] == 300
        assert counts["slopes"] / counts["searches"] <= 8.0
        assert reported == counts["slopes"]

    @pytest.mark.parametrize("spec, bound", [("exp", 5.0), ("logistic", 5.1)])
    def test_warm_start_saves_slope_passes(self, spec, bound, monkeypatch):
        # on the train benchmark's input shape a search that starts at 1
        # takes about 5.7 (exp) and 5.5 (logistic) slopes; one that starts at
        # twice the column's last step takes about 4.3 and 4.6
        x, y, _ = bench_planted_problem(2000, 16, 0.3, np.random.default_rng(0))
        counts = {"slopes": 0, "searches": 0}
        line_search = optimize_module._line_search

        def counted_line_search(*args, **kwargs):
            counts["searches"] += 1
            return line_search(*args, **kwargs)

        monkeypatch.setattr(optimize_module, "_line_search", counted_line_search)
        coordinate_descent(
            FeatureMatrix(x, y), counting_slopes(Loss(spec), counts), OptimizerConfig(max_iters=500)
        )
        assert counts["searches"] == 500
        assert counts["slopes"] / counts["searches"] <= bound


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.integers(-24, 0),
    separable=st.booleans(),
    loss=st.sampled_from(CD_LOSSES),
    start=st.floats(0.0, 1.0, exclude_min=True),
)
def test_warm_start_matches_a_start_at_one(seed, scale_exp, separable, loss, start):
    # test_truncation_matches_oracle's planted block, searched from start:
    # truncation is decided on the probes 1, 2, 4, ... either way, and the
    # step lands within tol of bisection's
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
    step, truncated = line_search(fm, loss, lam, direction, start=start)
    assert truncated == line_search(fm, loss, lam, direction)[1]
    want, want_truncated = oracle_line_search(fm, loss, lam, direction)
    assert truncated == want_truncated
    assert abs(step - want) <= 1e-10


def acceptance_4_problems():
    """The 20 sign problems of acceptance 4, a zero column added where n = 1."""
    rng = np.random.default_rng(41)
    problems = []
    for _ in range(20):
        fm = random_sign_problem(rng, m_max=6, n_max=2)
        if fm.n == 1:
            fm = FeatureMatrix(np.hstack([fm.features, np.zeros((fm.m, 1))]), fm.labels)
        problems.append(fm)
    return problems


def zero_mass_sign_problems(count, seed):
    """Weighted sign problems where about a third of the points have mass 0."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        fm = random_sign_problem(rng, m_max=30, n_max=4)
        w = rng.uniform(0.1, 1.0, fm.m) * (rng.random(fm.m) < 0.67)
        w[0] = 1.0
        problems.append(FeatureMatrix(fm.features, fm.labels, w / w.sum()))
    return problems


class TestSubgradientReference:
    """subgradient_descent forms -y and w (-y) once per run;
    reference_subgradient_descent signs through risk.margins every step."""

    @pytest.mark.parametrize("fm, cfg", [
        *[(planted_problem(np.random.default_rng(m + n), m, n, 0.3),
           OptimizerConfig(method="subgradient", max_iters=iters))
          for m, n, iters in [(2000, 16, 2000), (48, 6, 3000)]],
        *[(fm, OptimizerConfig(method="subgradient", max_iters=500, step_scale=scale))
          for fm, scale in zip(zero_mass_sign_problems(6, seed=9), itertools.cycle([0.5, 2.0]))],
        *[(fm, OptimizerConfig(method="subgradient", max_iters=3000))
          for fm in acceptance_4_problems()],
    ], ids=["planted-2000x16", "planted-48x6", *(f"zero-mass-{k}" for k in range(6)),
            *(f"acceptance-4-{k}" for k in range(20))])
    def test_bit_identical(self, fm, cfg):
        run = subgradient_descent(fm, Loss("hinge"), cfg)
        want = reference_subgradient_descent(fm, Loss("hinge"), cfg)
        assert (run.stop_reason, run.iterations) == (want.stop_reason, want.iterations)
        for name in ("lam", "objective_trace", "grad_sup_trace", "norm_trace"):
            assert getattr(run, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.float64(run.objective).tobytes() == np.float64(want.objective).tobytes()


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
    """coordinate_descent against reference_coordinate_descent, bit for bit,
    on dense input and on input whose columns are 0 on many rows (lattice
    cells, sparse tables)."""

    @staticmethod
    def assert_bit_identical(run, want):
        assert (run.stop_reason, run.iterations, run.truncated_steps, run.slope_evaluations) == (
            want.stop_reason, want.iterations, want.truncated_steps, want.slope_evaluations
        )
        for name in ("lam", "objective_trace", "grad_sup_trace", "norm_trace"):
            assert getattr(run, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    @pytest.mark.parametrize("shape", [(2000, 16, 200), (48, 6, 300)], ids=["2000x16", "48x6"])
    def test_dense_input_is_bit_identical(self, loss, shape):
        m, n, iters = shape
        fm = planted_problem(np.random.default_rng(m + n), m, n, 0.3)
        assert np.all(fm.features != 0.0)
        cfg = OptimizerConfig(max_iters=iters)
        self.assert_bit_identical(
            coordinate_descent(fm, loss, cfg), reference_coordinate_descent(fm, loss, cfg)
        )

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    def test_sparse_input_is_bit_identical(self, loss):
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
            stops.add((run.stop_reason, run.truncated_steps > 0))
            self.assert_bit_identical(run, reference_coordinate_descent(fm, loss, cfg))
        assert {("gradient", False), ("iterations", False), ("iterations", True)} <= stops


class TestSavedPass:
    """Coordinate descent takes each step's margins and phi' from its line
    search's last pass: one loss value pass per step (none on the budget's
    last, whose entry is the risk at lam), no phi' pass beyond the start's,
    and traces within rounding of a loop that rebuilds z from lam at every
    step."""

    PROBLEMS = [(2000, 16, 200), (48, 6, 300)]

    @staticmethod
    def problem(m, n):
        return planted_problem(np.random.default_rng(m + n), m, n, 0.3)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    @pytest.mark.parametrize("shape", PROBLEMS, ids=["2000x16", "48x6"])
    def test_one_value_pass_per_step(self, loss, shape, monkeypatch):
        m, n, iters = shape
        fm = self.problem(m, n)
        counts = {"value": 0, "subgradient": 0}
        value_saturated, subgradient = Loss.value_saturated, Loss.subgradient

        def counted_value_saturated(loss, z):  # Loss.value goes through it
            counts["value"] += 1
            return value_saturated(loss, z)

        def counted_subgradient(loss, z):
            counts["subgradient"] += 1
            return subgradient(loss, z)

        monkeypatch.setattr(Loss, "value_saturated", counted_value_saturated)
        monkeypatch.setattr(Loss, "subgradient", counted_subgradient)
        run = coordinate_descent(fm, loss, OptimizerConfig(max_iters=iters))
        steps = len(run.norm_trace) - 1
        assert steps > 0 and run.truncated_steps == 0 and run.stop_reason == "iterations"
        # the start's pass, one per step but the budget's last, and the final risk at lam
        assert counts == {"value": steps + 1, "subgradient": 1}

    @pytest.mark.parametrize("shape", PROBLEMS, ids=["2000x16", "48x6"])
    def test_objective_is_the_risk_at_lambda(self, shape):
        m, n, iters = shape
        fm = self.problem(m, n)
        for loss in CD_LOSSES:
            run = coordinate_descent(fm, loss, OptimizerConfig(max_iters=iters))
            assert run.objective == run.objective_trace[-1] == surrogate_risk(fm, run.lam, loss)
        hinge = Loss("hinge")
        run = subgradient_descent(fm, hinge, OptimizerConfig(method="subgradient", max_iters=iters))
        assert run.objective == surrogate_risk(fm, run.lam, hinge)

    @pytest.mark.parametrize("loss", CD_LOSSES, ids=lambda loss: loss.kind)
    @pytest.mark.parametrize("shape", PROBLEMS, ids=["2000x16", "48x6"])
    def test_carried_margins_match_a_rebuild(self, loss, shape, monkeypatch):
        m, n, iters = shape
        fm = self.problem(m, n)
        cfg = OptimizerConfig(max_iters=iters)
        line_search = optimize_module._line_search
        carried = []

        def recorded_line_search(*args, **kwargs):
            result = line_search(*args, **kwargs)
            carried.append(result[2])
            return result

        monkeypatch.setattr(optimize_module, "_line_search", recorded_line_search)
        run = coordinate_descent(fm, loss, cfg)
        # the last step's carried margins drift from -y (H lam) by rounding
        # only: about 4e-15 of their largest entry after 2000 steps
        z = -margins(fm, run.lam)
        assert np.abs(carried[-1] - z).max() <= 1e-13 * np.abs(z).max()
        # a search that hands back no margins makes the step rebuild them from lam
        monkeypatch.setattr(
            optimize_module, "_line_search",
            lambda *args, **kwargs: (*line_search(*args, **kwargs)[:2], None, None, 0),
        )
        want = coordinate_descent(fm, loss, cfg)
        assert (run.stop_reason, run.iterations, run.truncated_steps) == (
            want.stop_reason, want.iterations, want.truncated_steps
        )
        # a slope that rounds to either sign at the 1-D minimum moves the
        # step's last Newton point by tol / 4 = 2.5e-11, and the objective by
        # the off-line gradient times that: up to 5e-12 of it here
        np.testing.assert_allclose(run.objective_trace, want.objective_trace, rtol=1e-11, atol=0.0)


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
        # the decorrelating cone 0.5 p0 - 0.5 p1 + p2 = 0 is two-dimensional,
        # so the gap depends on which p the hard core returns; for that p the
        # reported gap converges to the primal optimum minus the best dual
        # value over rescalings of p, both taken here from grid oracles
        fm = FeatureMatrix(np.array([[0.5], [0.5], [1.0]]), np.array([1.0, -1.0, 1.0]))
        loss = Loss("exp")
        cert = compute_hardcore(fm)
        run = coordinate_descent(fm, loss, OptimizerConfig(max_iters=200))
        gap = suboptimality_certificate(fm, loss, run.lam, cert)
        w = fm.weights[:, None]
        lams = np.linspace(-6.0, 6.0, 120001)
        primal = (w * loss.value(-fm.correlations.T * lams)).sum(axis=0).min()
        unit = cert.p / fm.weights
        qs = np.linspace(0.0, 8.0, 80001)[None, :] * (unit / unit.max())[:, None]
        dual = (-w * loss.conjugate(qs)).sum(axis=0).max()
        assert gap == pytest.approx(primal - dual, abs=1e-5)

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

    @staticmethod
    def count_dual_values(monkeypatch, limit=200):
        real = optimize_module._dual_value
        scales = []

        def spy(loss, weights, q):
            scales.append(float(q.max()))
            if len(scales) > limit:  # a search that cannot end fails instead of hanging
                raise RuntimeError(f"more than {limit} dual values")
            return real(loss, weights, q)

        monkeypatch.setattr(optimize_module, "_dual_value", spy)
        return scales

    def test_hinge_prices_its_bracket_end_alone(self, monkeypatch):
        # phi'(0) is the end of hinge's conjugate domain, so the bracket is
        # the single scale max_j q_j = 1
        scales = self.count_dual_values(monkeypatch)
        fm = weighted_pair_fm()
        gap = suboptimality_certificate(fm, Loss("hinge"), np.array([1.0]), compute_hardcore(fm))
        assert gap == 0.0
        assert scales == [1.0]

    @pytest.mark.parametrize("spec", ["exp", "logistic", "cone:1,1", "cone:0.5,0", "cone:0,2"])
    def test_flat_p_prices_phi_prime_at_zero(self, spec, monkeypatch):
        # a flat u puts both bracket ends at phi'(0) / u, where D peaks
        x, y, _ = bench_planted_problem(48, 6, 0.5, np.random.default_rng(1))
        fm = FeatureMatrix(x, y)
        loss = parse_loss(spec)
        cert = compute_hardcore(fm)
        lam = coordinate_descent(fm, loss, OptimizerConfig(max_iters=50)).lam
        unit, s_lo, s_hi = dual_scale_bracket(fm, loss, cert)
        assert s_lo == s_hi
        dual = float(-np.sum(fm.weights * loss.conjugate(s_lo * unit)))
        scales = self.count_dual_values(monkeypatch)
        gap = suboptimality_certificate(fm, loss, lam, cert)
        assert len(scales) == 1
        assert gap == surrogate_risk(fm, lam, loss) - dual

    @pytest.mark.parametrize("spec", ["exp", "cone:1,1"])
    def test_wide_bracket_search_ends(self, spec, monkeypatch):
        # u = p / w spans twelve decades, so the peak sits near 1e6 s_lo,
        # where one ulp is wider than 1e-10 s_lo
        fm = FeatureMatrix(
            np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), np.array([1e-12, 1.0 - 1e-12]))
        loss = parse_loss(spec)
        cert = compute_hardcore(fm)
        unit, s_lo, s_hi = dual_scale_bracket(fm, loss, cert)
        assert s_hi / s_lo > 1e11
        grid = np.geomspace(s_lo, s_hi, 4001)
        duals = -(fm.weights[:, None] * loss.conjugate(unit[:, None] * grid)).sum(axis=0)
        lam = np.array([2.0])
        oracle = surrogate_risk(fm, lam, loss) - duals.max()
        scales = self.count_dual_values(monkeypatch)
        gap = suboptimality_certificate(fm, loss, lam, cert)
        assert len(scales) <= 200
        assert -1e-12 <= gap <= oracle + 1e-12

    def test_bracket_holds_the_grid_maximum(self):
        # a grid over [0, 4 s_hi], past the bracket on both sides, finds no
        # dual value above the certificate's
        rng = np.random.default_rng(17)
        losses = [parse_loss(spec) for spec in
                  ("exp", "logistic", "hinge", "cone:1,1", "cone:0.5,0", "cone:0,2")]
        checked = 0
        while checked < 20:
            base = random_sign_problem(rng)
            w = rng.dirichlet(np.ones(base.m))
            fm = FeatureMatrix(base.features, base.labels, w)
            cert = compute_hardcore(fm)
            if cert.p.max() == 0:
                continue
            checked += 1
            lam = rng.normal(size=fm.n)
            for loss in losses:
                unit, _, s_hi = dual_scale_bracket(fm, loss, cert)
                grid = np.linspace(0.0, 4.0 * s_hi, 4001)
                duals = -(fm.weights[:, None] * loss.conjugate(unit[:, None] * grid)).sum(axis=0)
                oracle = surrogate_risk(fm, lam, loss) - duals.max()
                assert suboptimality_certificate(fm, loss, lam, cert) <= oracle + 1e-12

    @pytest.mark.parametrize("spec", ["exp", "cone:1,1", "cone:0,2"])
    def test_bracket_past_the_doubles_raises(self, spec):
        # phi'(0) / min u overflows for a subnormal p_j; p need not decorrelate
        # here, as only the bracket is tested
        fm = FeatureMatrix(np.array([[0.5], [-0.5], [0.25]]), np.array([1.0, 1.0, -1.0]))
        cert = HardCoreCertificate(
            np.arange(3), np.array([1.0, 5e-324, 1.0]), np.zeros(1), math.inf, np.ones(3))
        with pytest.raises(ValueError, match="overflows"):
            suboptimality_certificate(fm, parse_loss(spec), np.zeros(1), cert)

    @pytest.mark.parametrize("spec", ["exp", "logistic", "hinge", "cone:1,1"])
    def test_subnormal_mass_on_the_core_raises(self, spec):
        # the hard core is all three points, so p / w overflows at the
        # subnormal mass; every loss raises, and no overflow warning escapes
        fm = FeatureMatrix(np.array([[1.0], [1.0], [1.0]]), np.array([1.0, -1.0, 1.0]),
                           np.array([0.5, 0.5, 5e-324]))
        cert = compute_hardcore(fm)
        assert cert.core.tolist() == [0, 1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                suboptimality_certificate(fm, parse_loss(spec), np.zeros(1), cert)

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


@pytest.mark.parametrize("kwargs, name", [
    ({"max_iters": 2.5}, "max_iters"), ({"max_iters": math.nan}, "max_iters"),
    ({"max_iters": -3}, "max_iters"), ({"max_iters": True}, "max_iters"),
    ({"grad_tol": math.nan}, "grad_tol"), ({"grad_tol": -1.0}, "grad_tol"),
    ({"step_scale": math.nan}, "step_scale"), ({"step_scale": -1.0}, "step_scale"),
    ({"step_scale": math.inf}, "step_scale"), ({"step_scale": 0.0}, "step_scale"),
], ids=str)
def test_config_rejects_bad_values(kwargs, name):
    # each was accepted: max_iters = 2.5 failed later in range(), True ran
    # one iteration, a NaN grad_tol never stopped on the gradient, a NaN
    # step scale made every iterate NaN
    with pytest.raises(ValueError, match=name):
        OptimizerConfig(**kwargs)


def test_config_accepts_edge_values():
    OptimizerConfig(max_iters=np.int64(3), grad_tol=0.0, step_scale=1e-300)


@pytest.mark.parametrize("init", [[math.nan], [math.inf], [-math.inf]], ids=str)
def test_coordinate_descent_rejects_a_non_finite_init(init):
    # init = [nan] returned lambda [nan], objective nan, stop reason "iterations"
    with pytest.raises(ValueError, match="finite"):
        coordinate_descent(duplicated_point_fm(), Loss("exp"), OptimizerConfig(), init=init)


@pytest.mark.parametrize("init", [[0.0, 0.0], [], [[0.0]]], ids=str)
def test_coordinate_descent_rejects_a_wrong_length_init(init):
    with pytest.raises(ValueError, match="length"):
        coordinate_descent(duplicated_point_fm(), Loss("exp"), OptimizerConfig(), init=init)
