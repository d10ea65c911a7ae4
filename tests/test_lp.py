import importlib
import sys
import threading

import numpy as np
import pytest
from conftest import assert_same_solution, box_vertices, linprog_solve, planted_problem

from hardcoreboost import FeatureMatrix

from hardcoreboost.lp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LinearProgram,
    LpError,
    _check_feasible,
    solve,
)


class TestExamples:
    def test_box_only(self):
        sol = solve(LinearProgram(np.array([1.0]), upper=np.array([1.0])))
        assert sol.status == STATUS_OPTIMAL
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
        assert sol.status == STATUS_OPTIMAL
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
        assert sol.status == STATUS_OPTIMAL
        assert sol.value == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(sol.x, [0.0, 1.0, 0.5], atol=1e-8)

    def test_infeasible(self):
        sol = solve(
            LinearProgram(
                np.array([1.0]),
                a_eq=np.array([[1.0]]),
                b_eq=np.array([2.0]),
                upper=np.array([1.0]),
            )
        )
        assert sol.status == STATUS_INFEASIBLE

    def test_unbounded(self):
        sol = solve(LinearProgram(np.array([1.0])))
        assert sol.status == STATUS_UNBOUNDED

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
        assert sol.status == STATUS_OPTIMAL
        assert sol.value == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-8)

    def test_infeasible_inequality(self):
        sol = solve(
            LinearProgram(
                np.array([1.0]),
                upper=np.array([1.0]),
                a_ub=np.array([[-1.0]]),
                b_ub=np.array([-2.0]),
            )
        )
        assert sol.status == STATUS_INFEASIBLE

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
        assert sol.status == STATUS_OPTIMAL
        verts = lp_vertices(lp)
        assert verts.shape[0] > 0
        brute = float(np.max(verts @ lp.objective))
        assert sol.value == pytest.approx(brute, abs=1e-7)


def test_inequality_agreement_with_vertex_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(100):
        lp = random_bounded_lp(rng, inequalities=True)
        sol = solve(lp)
        assert sol.status == STATUS_OPTIMAL
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
    assert a.status == b.status
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


def test_solution_feasibility_contract():
    rng = np.random.default_rng(3)
    for i in range(60):
        lp = random_bounded_lp(rng, inequalities=i >= 30)
        sol = solve(lp)
        assert sol.status == STATUS_OPTIMAL
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
    rng = np.random.default_rng(11)
    statuses = set()
    for _ in range(100):
        lp = make(rng)
        sol = solve(lp)
        assert_same_solution(sol, linprog_solve(lp))
        # the same program solved again, and with another objective, starts cold
        other = rng.normal(size=lp.n_vars)
        assert_same_solution(solve(lp, other), linprog_solve(lp, other))
        assert_same_solution(solve(lp), sol)
        statuses.add(sol.status)
    assert STATUS_OPTIMAL in statuses


@pytest.mark.parametrize("lp", [
    LinearProgram(np.array([1.0]), a_eq=np.array([[1.0]]), b_eq=np.array([2.0]),
                  upper=np.array([1.0])),
    LinearProgram(np.ones(2), upper=np.ones(2), a_ub=np.array([[-1.0, -1.0]]),
                  b_ub=np.array([-3.0])),
    LinearProgram(np.array([1.0, -1.0]), lower=np.full(2, -np.inf)),
    LinearProgram(np.array([1.0, 1.0]), a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.5])),
    # HiGHS rejects a matrix entry above 1e15 when the model is passed
    LinearProgram(np.ones(2), a_eq=np.array([[1e16, 1.0]]), b_eq=np.ones(1), upper=np.ones(2)),
], ids=["infeasible-equality", "infeasible-inequality", "unbounded-free", "unbounded-ray",
        "rejected-model"])
def test_infeasible_and_unbounded_match_linprog(lp):
    sol = solve(lp)
    assert sol.status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED)
    assert_same_solution(sol, linprog_solve(lp))


def test_objective_argument_is_checked():
    lp = LinearProgram(np.zeros(2), upper=np.ones(2))
    with pytest.raises(ValueError, match="one entry per variable"):
        solve(lp, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        solve(lp, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(np.zeros(2), a_eq=np.array([[1.0, np.inf]]), b_eq=np.zeros(1))


def test_per_point_solutions_do_not_depend_on_call_order():
    rng = np.random.default_rng(3)
    x, y, _ = planted_problem(160, 8, 0.5, rng)
    a = FeatureMatrix(x, y).correlations
    m = a.shape[1]

    def program():
        return LinearProgram(np.zeros(m), a_eq=a, b_eq=np.zeros(a.shape[0]), upper=np.ones(m))

    base = program()
    points = np.identity(m)
    forward = [solve(base, points[j]) for j in range(m)]
    backward = [solve(base, points[j]) for j in reversed(range(m))][::-1]
    fresh = [solve(program(), points[j]) for j in range(m)]
    for f, b, s in zip(forward, backward, fresh):
        assert_same_solution(b, f)
        assert_same_solution(s, f)


def test_import_names_the_scipy_it_needs(monkeypatch):
    loaded = {name for name in sys.modules if name.partition(".")[0] == "hardcoreboost"}
    for name in loaded:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    try:
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            importlib.import_module("hardcoreboost")
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "hardcoreboost"]:
            del sys.modules[name]


def test_concurrent_solves_of_one_program_do_not_interleave():
    rng = np.random.default_rng(12)
    lp = random_bounded_lp(rng, inequalities=True)
    objectives = rng.normal(size=(8, lp.n_vars))
    want = [solve(lp, c) for c in objectives]
    errors = []

    def worker(k):
        try:
            for _ in range(40):
                for j in range(k, k + len(objectives)):
                    j %= len(objectives)
                    assert_same_solution(solve(lp, objectives[j]), want[j])
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
