import dataclasses
import importlib
import sys

import numpy as np
import pytest
from conftest import assert_same_solution, box_vertices, csc_columns, linprog_solve

from hardcoreboost import lp as lp_module
from hardcoreboost.lp import (
    MAX_VARIABLES,
    LinearProgram,
    LpError,
    _check_feasible,
    _columns,
    solve,
)


def assert_both_raise(lp, status):
    """solve and linprog_solve both raise LpError; solve names HiGHS's status."""
    with pytest.raises(LpError, match=f"not optimal: {status}$"):
        solve(lp)
    with pytest.raises(LpError, match="not optimal"):
        linprog_solve(lp)


class TestExamples:
    def test_box_only(self):
        sol = solve(LinearProgram(np.array([1.0]), upper=np.array([1.0])))
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_tied_pair(self):
        sol = solve(
            LinearProgram(
                np.array([1.0, 0.0]),
                a_eq=np.array([[1.0, -1.0]]),
                b_eq=np.array([0.0]),
                upper=np.ones(2),
            )
        )
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)

    def test_decorrelation_triple(self):
        sol = solve(
            LinearProgram(
                np.array([0.0, 0.0, 1.0]),
                a_eq=np.array([[0.5, -0.5, 1.0]]),
                b_eq=np.array([0.0]),
                upper=np.ones(3),
            )
        )
        assert sol.value == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(sol.x, [0.0, 1.0, 0.5], atol=1e-8)

    def test_infeasible(self):
        assert_both_raise(
            LinearProgram(
                np.array([1.0]),
                a_eq=np.array([[1.0]]),
                b_eq=np.array([2.0]),
                upper=np.array([1.0]),
            ),
            "Infeasible",
        )

    def test_unbounded(self):
        assert_both_raise(LinearProgram(np.array([1.0])), "Unbounded")

    def test_inequality_row(self):
        # max x0 + 2 x1 with x0 + x1 <= 1 on the unit box: all mass on x1
        sol = solve(
            LinearProgram(
                np.array([1.0, 2.0]),
                upper=np.ones(2),
                a_ub=np.array([[1.0, 1.0]]),
                b_ub=np.array([1.0]),
            )
        )
        assert sol.value == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-8)

    def test_infeasible_inequality(self):
        assert_both_raise(
            LinearProgram(
                np.array([1.0]),
                upper=np.array([1.0]),
                a_ub=np.array([[-1.0]]),
                b_ub=np.array([-2.0]),
            ),
            "Infeasible",
        )

    def test_inequality_excess_rejected(self):
        lp = LinearProgram(
            np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([1.0])
        )
        _check_feasible(lp, np.array([1.0]))
        with pytest.raises(LpError, match="inequality excess"):
            _check_feasible(lp, np.array([1.1]))

    def test_inequality_shape_guard(self):
        with pytest.raises(ValueError, match="inequality system shape mismatch"):
            LinearProgram(np.ones(2), a_ub=np.ones((1, 3)), b_ub=np.zeros(1))
        with pytest.raises(ValueError, match="inequality system shape mismatch"):
            LinearProgram(np.ones(2), a_ub=np.ones((2, 2)), b_ub=np.zeros(1))
        with pytest.raises(ValueError, match="inequality system shape mismatch"):
            LinearProgram(np.ones(2), a_ub=np.ones(2), b_ub=np.zeros(1))

    def test_dimension_guard(self):
        with pytest.raises((ValueError, LpError)):
            solve(
                LinearProgram(
                    np.array([1.0, 1.0]),
                    a_eq=np.array([[1.0]]),
                    b_eq=np.array([0.0]),
                )
            )


def random_bounded_lp(rng, inequalities=False):
    """A feasible LP on a box; with inequalities, also 1-2 rows a_ub @ x <= b_ub."""
    n = int(rng.integers(2, 7))
    rows = int(rng.integers(0, min(3, n - 1) + 1))
    c = rng.normal(size=n)
    lower = np.zeros(n)
    upper = rng.uniform(0.5, 2.0, size=n)
    interior = None
    if rows:
        a = rng.integers(-1, 2, size=(rows, n)).astype(float)
        interior = lower + rng.uniform(0.1, 0.9, size=n) * (upper - lower)
        b = a @ interior  # guarantees feasibility
    else:
        a, b = None, None
    a_ub = b_ub = None
    if inequalities:
        if interior is None:
            interior = lower + rng.uniform(0.1, 0.9, size=n) * (upper - lower)
        k = int(rng.integers(1, 3))
        a_ub = rng.integers(-1, 2, size=(k, n)).astype(float)
        b_ub = a_ub @ interior + rng.uniform(0.0, 0.5, size=k)  # interior stays feasible
    return LinearProgram(c, a, b, lower, upper, a_ub, b_ub)


def lp_vertices(lp):
    """Vertices of the feasible set, by enumeration over its equality form.

    Each inequality row a_i @ x <= b_i becomes a_i @ x + s_i = b_i with a
    slack column s_i >= 0; the slacks are dropped from the returned vertices.
    """
    nv = lp.n_vars
    a = lp.a_eq if lp.a_eq is not None else np.zeros((0, nv))
    b = lp.b_eq if lp.b_eq is not None else np.zeros(0)
    lower, upper = lp.lower, lp.upper
    if lp.a_ub is not None:
        k = lp.a_ub.shape[0]
        a = np.vstack([np.hstack([a, np.zeros((a.shape[0], k))]),
                       np.hstack([lp.a_ub, np.eye(k)])])
        b = np.concatenate([b, lp.b_ub])
        lower = np.concatenate([lower, np.zeros(k)])
        upper = np.concatenate([upper, np.full(k, np.inf)])
    return box_vertices(a, b, lower, upper)[:, :nv]


def test_agreement_with_vertex_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve(lp)
        verts = lp_vertices(lp)
        assert verts.shape[0] > 0
        brute = float(np.max(verts @ lp.objective))
        assert sol.value == pytest.approx(brute, abs=1e-7)


def test_inequality_agreement_with_vertex_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(100):
        lp = random_bounded_lp(rng, inequalities=True)
        sol = solve(lp)
        verts = lp_vertices(lp)
        assert verts.shape[0] > 0
        assert np.all(verts @ lp.a_ub.T <= lp.b_ub + 1e-7)  # vertices are rounded to 1e-9
        brute = float(np.max(verts @ lp.objective))
        assert sol.value == pytest.approx(brute, abs=1e-7)


def test_weak_duality_feasible_points():
    rng = np.random.default_rng(1)
    for _ in range(30):
        lp = random_bounded_lp(rng)
        sol = solve(lp)
        verts = lp_vertices(lp)
        # convex combinations of vertices are feasible
        for _ in range(10):
            w = rng.dirichlet(np.ones(verts.shape[0]))
            x = w @ verts
            assert float(lp.objective @ x) <= sol.value + 1e-8


def test_determinism():
    rng = np.random.default_rng(2)
    lp = random_bounded_lp(rng)
    a = solve(lp)
    b = solve(lp)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


def test_solution_feasibility_contract():
    rng = np.random.default_rng(3)
    for i in range(60):
        lp = random_bounded_lp(rng, inequalities=i >= 30)
        sol = solve(lp)
        assert np.all(sol.x >= lp.lower - 1e-8)
        assert np.all(sol.x <= lp.upper + 1e-8)
        if lp.a_eq is not None:
            assert np.max(np.abs(lp.a_eq @ sol.x - lp.b_eq)) <= 1e-8
        if lp.a_ub is not None:
            assert np.max(lp.a_ub @ sol.x - lp.b_ub) <= 1e-8
        assert abs(float(lp.objective @ sol.x) - sol.value) <= 1e-8


def free_lower_lp(rng):
    """A bounded LP in which some variables have no lower bound."""
    lp = random_bounded_lp(rng, inequalities=True)
    lower = lp.lower.copy()
    lower[rng.random(lp.n_vars) < 0.5] = -np.inf
    return LinearProgram(lp.objective, lp.a_eq, lp.b_eq, lower, lp.upper, lp.a_ub, lp.b_ub)


@pytest.mark.parametrize("make", [
    random_bounded_lp,
    lambda rng: random_bounded_lp(rng, inequalities=True),
    free_lower_lp,
], ids=["equalities", "inequalities", "free-lower"])
def test_matches_linprog_bitwise(make):
    # a program solve raises on, linprog_solve raises on too; an optimum is
    # the same bit for bit
    def outcome(solver, lp):
        try:
            return solver(lp)
        except LpError:
            return None

    def assert_same_outcome(got, want):
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_solution(got, want)

    rng = np.random.default_rng(11)
    optimal = 0
    for _ in range(100):
        lp = make(rng)
        sol = outcome(solve, lp)
        assert_same_outcome(sol, outcome(linprog_solve, lp))
        # the same feasible set under another objective, and this program again
        other = dataclasses.replace(lp, objective=rng.normal(size=lp.n_vars))
        assert_same_outcome(outcome(solve, other), outcome(linprog_solve, other))
        assert_same_outcome(outcome(solve, lp), sol)
        optimal += sol is not None
    assert optimal > 0


@pytest.mark.parametrize("make", [
    random_bounded_lp,
    lambda rng: random_bounded_lp(rng, inequalities=True),
    free_lower_lp,
], ids=["equalities", "inequalities", "free-lower"])
def test_row_duals_certify_the_optimum(make):
    # y prices the rows of max c @ x: the reduced cost r = c - A^T y may be
    # positive only at a finite upper bound and negative only at a finite
    # lower one, y >= 0 prices a_ub, and the dual value b @ y plus r's best
    # bound term equals the primal value
    rng = np.random.default_rng(13)
    tol = 1e-9
    optimal = 0
    for _ in range(100):
        lp = make(rng)
        try:
            sol = solve(lp)
        except LpError:  # free lower bounds can leave it unbounded
            continue
        optimal += 1
        k = 0 if lp.a_ub is None else lp.a_ub.shape[0]
        y_ub, y_eq = sol.row_duals[:k], sol.row_duals[k:]
        rows = [(a, b, y) for a, b, y in ((lp.a_ub, lp.b_ub, y_ub), (lp.a_eq, lp.b_eq, y_eq))
                if a is not None]
        assert sol.row_duals.shape == (sum(a.shape[0] for a, _, _ in rows),)
        r = lp.objective - sum((a.T @ y for a, _, y in rows), np.zeros(lp.n_vars))
        lo, hi = lp.lower, lp.upper
        # dual feasibility
        assert np.all(y_ub >= -tol)
        assert np.all(r[np.isinf(hi)] <= tol) and np.all(r[np.isinf(lo)] >= -tol)
        # complementary slackness
        if k:
            assert np.all(np.abs(y_ub * (lp.b_ub - lp.a_ub @ sol.x)) <= tol)
        finite_hi, finite_lo = np.where(np.isinf(hi), 0.0, hi), np.where(np.isinf(lo), 0.0, lo)
        assert np.all(np.abs(np.maximum(r, 0.0) * (finite_hi - sol.x)) <= tol)
        assert np.all(np.abs(np.minimum(r, 0.0) * (sol.x - finite_lo)) <= tol)
        # strong duality
        dual = sum(b @ y for _, b, y in rows) + np.where(r > 0, r * finite_hi, r * finite_lo).sum()
        assert abs(dual - sol.value) <= tol
    assert optimal >= 50


@pytest.mark.parametrize("lp, status", [
    (LinearProgram(np.array([1.0]), a_eq=np.array([[1.0]]), b_eq=np.array([2.0]),
                   upper=np.array([1.0])), "Infeasible"),
    (LinearProgram(np.ones(2), upper=np.ones(2), a_ub=np.array([[-1.0, -1.0]]),
                   b_ub=np.array([-3.0])), "Infeasible"),
    (LinearProgram(np.array([1.0, -1.0]), lower=np.full(2, -np.inf)), "Unbounded"),
    (LinearProgram(np.array([1.0, 1.0]), a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.5])),
     "Unbounded"),
    # HiGHS rejects a matrix entry above 1e15 when the model is passed
    (LinearProgram(np.ones(2), a_eq=np.array([[1e16, 1.0]]), b_eq=np.ones(1), upper=np.ones(2)),
     "Model error"),
], ids=["infeasible-equality", "infeasible-inequality", "unbounded-free", "unbounded-ray",
        "rejected-model"])
def test_infeasible_and_unbounded_match_linprog(lp, status):
    assert_both_raise(lp, status)


def test_objective_argument_is_checked():
    with pytest.raises(ValueError, match="nonempty"):
        LinearProgram(np.zeros(0))
    with pytest.raises(ValueError, match="nonempty"):
        LinearProgram(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(np.array([1.0, np.nan]), upper=np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(np.array([1.0, -np.inf]), upper=np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(np.zeros(2), a_eq=np.array([[1.0, np.inf]]), b_eq=np.zeros(1))


def test_variable_limit():
    assert LinearProgram(np.zeros(MAX_VARIABLES)).n_vars == 2 * 10**4
    with pytest.raises(ValueError, match=f"at most {MAX_VARIABLES} variables supported, "
                                         f"got {MAX_VARIABLES + 1}"):
        LinearProgram(np.zeros(MAX_VARIABLES + 1))


def test_feasibility_check_rejects_a_bound_violation():
    lp = LinearProgram(np.zeros(1), upper=np.ones(1))
    _check_feasible(lp, np.array([1.0]))
    with pytest.raises(LpError, match="bound violation"):
        _check_feasible(lp, np.array([1.1]))


def test_import_names_the_scipy_it_needs(monkeypatch):
    # the bindings load at the first solve: the package imports without
    # them, and that solve raises
    loaded = {name for name in sys.modules if name.partition(".")[0] == "hardcoreboost"}
    for name in loaded:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    try:
        fresh = importlib.import_module("hardcoreboost")
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            fresh.solve(fresh.LinearProgram(np.array([1.0]), upper=np.array([1.0])))
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "hardcoreboost"]:
            del sys.modules[name]


class TestColumns:
    """solve hands HiGHS the arrays a scipy csc_array of [a_ub; a_eq] holds."""

    @staticmethod
    def assert_csc(got, a):
        for name, g, w in zip(("start", "index", "value"), got, csc_columns(a)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name

    def test_random_dense_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k, nv = rng.integers(1, 9, size=2)
            a = rng.standard_normal((k, nv))
            a[rng.random(a.shape) < 0.3] = 0.0
            a[rng.random(a.shape) < 0.2] = -0.0
            a[:, rng.integers(nv)] = 0.0  # an all-zero column
            self.assert_csc(_columns(a), a)

    def test_zero_rows_and_zero_matrix(self):
        self.assert_csc(_columns(np.zeros((0, 4))), np.zeros((0, 4)))
        self.assert_csc(_columns(np.full((3, 2), -0.0)), np.zeros((3, 2)))

    @pytest.mark.parametrize("rows", ["none", "a_ub", "a_eq", "both"])
    def test_solve_passes_the_stacked_rows(self, monkeypatch, rows):
        passed = []

        def recording_columns(a):
            passed.append(_columns(a))
            return passed[-1]

        monkeypatch.setattr(lp_module, "_columns", recording_columns)
        rng = np.random.default_rng(len(rows))
        a_ub = rng.standard_normal((3, 5)) if rows in ("a_ub", "both") else None
        a_eq = rng.standard_normal((2, 5)) if rows in ("a_eq", "both") else None
        for a in (a_ub, a_eq):
            if a is not None:
                a[0, 1] = a[1, 3] = 0.0
                a[1, 0] = -0.0
        # x = 0 is feasible, and the box bounds every objective
        lp = LinearProgram(
            rng.standard_normal(5), upper=np.ones(5),
            a_ub=a_ub, b_ub=None if a_ub is None else np.ones(3),
            a_eq=a_eq, b_eq=None if a_eq is None else np.zeros(2),
        )
        assert_same_solution(solve(lp), linprog_solve(lp))
        stacked = np.vstack([a for a in (a_ub, a_eq) if a is not None] or [np.zeros((0, 5))])
        assert len(passed) == 1
        self.assert_csc(passed[0], stacked)

