"""Shared brute-force oracles used to pin derived reference values."""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from hardcoreboost.lp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpError,
    LpSolution,
    _check_feasible,
)


def linprog_solve(lp, objective=None):
    """`lp.solve` by one scipy `linprog(method="highs")` call per solve.

    The solver drives HiGHS with the options linprog passes and starts every
    solve cold, so the two must agree bit for bit: status, value, x and
    iteration count.
    """
    c = lp.objective if objective is None else np.asarray(objective, dtype=float)
    res = linprog(
        -c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        _check_feasible(lp, x)
        return LpSolution(STATUS_OPTIMAL, float(c @ x), x, int(res.nit))
    if res.status == 2:
        return LpSolution(STATUS_INFEASIBLE, float("nan"), None, int(res.nit))
    if res.status == 3:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), None, int(res.nit))
    raise LpError(f"LP backend failed: {res.message}")


def assert_same_solution(got, want):
    """Bitwise equality of two LpSolutions."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == want.x.tobytes()


def planted_problem(m, n, core_frac, rng):
    """The benchmark's planted generator (bench/planted.py): (x, y, core)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "planted.py"
    spec = importlib.util.spec_from_file_location("bench_planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.planted_problem(m, n, core_frac, rng)


def box_vertices(a_eq, b_eq, lower, upper, tol=1e-9):
    """Enumerate vertices of {x : a_eq x = b_eq, lower <= x <= upper}.

    Works for small dense systems: every vertex fixes all but at most
    rank(a_eq) coordinates at a finite bound; the rest solve the equality
    system restricted to the free columns.  Bound patterns for a fixed free
    set are solved in one least-squares call with stacked right-hand sides.
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.asarray(b_eq, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m = lower.size
    rank = np.linalg.matrix_rank(a_eq) if a_eq.size else 0
    verts = []
    for k in range(rank + 1):
        for free in itertools.combinations(range(m), k):
            fixed = [j for j in range(m) if j not in free]
            bound_choices = [
                [v for v in (lower[j], upper[j]) if np.isfinite(v)] for j in fixed
            ]
            if any(not c for c in bound_choices):
                continue
            patterns = np.array(list(itertools.product(*bound_choices)))
            if patterns.size == 0:
                patterns = np.zeros((1, 0))
            a_free = a_eq[:, list(free)]
            a_fixed = a_eq[:, fixed]
            rhs = b_eq[:, None] - a_fixed @ patterns.T  # (rows, npat)
            if k:
                sol, *_ = np.linalg.lstsq(a_free, rhs, rcond=None)
                resid = a_free @ sol - rhs
            else:
                sol = np.zeros((0, patterns.shape[0]))
                resid = -rhs
            ok = np.all(np.abs(resid) <= tol, axis=0)
            if k:
                ok &= np.all(sol >= lower[list(free)][:, None] - tol, axis=0)
                ok &= np.all(sol <= upper[list(free)][:, None] + tol, axis=0)
            for col in np.flatnonzero(ok):
                x = np.empty(m)
                x[list(free)] = sol[:, col]
                x[fixed] = patterns[col]
                verts.append(x)
    if not verts:
        return np.zeros((0, m))
    verts = np.unique(np.round(np.array(verts), 9), axis=0)
    return verts


def decorrelation_support_oracle(a, tol=1e-9):
    """Maximal support of {p in [0,1]^m : a p = 0} by vertex enumeration."""
    m = a.shape[1]
    verts = box_vertices(a, np.zeros(a.shape[0]), np.zeros(m), np.ones(m), tol)
    if verts.shape[0] == 0:
        return np.array([], dtype=int)
    return np.flatnonzero(np.any(verts > tol, axis=0))


def random_sign_problem(rng, m_max=8, n_max=3):
    """Random small problem with feature entries in {-1, 0, +1}."""
    from hardcoreboost import FeatureMatrix

    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    feats = rng.integers(-1, 2, size=(m, n)).astype(float)
    labels = rng.choice([-1.0, 1.0], size=m)
    return FeatureMatrix(feats, labels)


def grid_min_risk(fm, loss, radius=6.0, steps=241):
    """Brute-force min of the empirical surrogate risk over a lambda box."""
    from hardcoreboost import surrogate_risk

    axes = [np.linspace(-radius, radius, steps)] * fm.n
    best = np.inf
    if fm.n == 1:
        for a in axes[0]:
            best = min(best, surrogate_risk(fm, np.array([a]), loss))
    else:
        z = -fm.labels[:, None, None] * (
            fm.features[:, 0, None, None] * axes[0][None, :, None]
            + fm.features[:, 1, None, None] * axes[1][None, None, :]
        )
        vals = (fm.weights[:, None, None] * loss.value(z)).sum(axis=0)
        best = float(vals.min())
    return float(best)


def scalar_bisect_root(g, lo, hi, tol=1e-12, max_iter=400):
    """One scalar bisection per call; the elementwise bisect_root must match it bit for bit."""
    glo, ghi = g(lo), g(hi)
    if glo > 0:
        return lo
    if ghi < 0:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_conditional_min(loss, w_pos, w_neg, bracket=60.0, tol=1e-10):
    """min_f w_pos phi(-f) + w_neg phi(f) by the inline golden-section loop the
    Bayes surrogate oracle and the sweep target used; the shared helper must
    match it bit for bit."""
    from hardcoreboost._scalar import golden_min

    _, v = golden_min(
        lambda f: w_pos * float(loss.value(-f)) + w_neg * float(loss.value(f)),
        -bracket, bracket, tol,
    )
    return v


def lattice_risk_oracle(cell_probs, resolution, lam):
    """Exact R_L of x -> H lam (x) >= 0 on the 1-D cell world, in rationals.

    X is uniform on [-1, 1), P(y = +1 | x) is cell_probs[j] on the world cell
    [-1 + 2j/k, -1 + 2(j+1)/k), and H lam is lam[c] on the lattice cell
    [c/i - i, (c+1)/i - i).  The world edges and the lattice edges cut [-1, 1)
    into pieces on which both are constant; each piece adds its mass times
    its miss probability.
    """
    k, i = len(cell_probs), resolution
    cuts = sorted(
        {Fraction(2 * j, k) - 1 for j in range(k + 1)}
        | {Fraction(j, i) for j in range(1 - i, i)}
    )
    risk = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        p_pos = Fraction(cell_probs[math.floor((mid + 1) * k / 2)])
        pred_pos = lam[math.floor((mid + i) * i)] >= 0.0
        risk += (hi - lo) / 2 * ((1 - p_pos) if pred_pos else p_pos)
    return risk


def exact_cell_oracle(x, resolution):
    """Flat index of the lattice cell holding the point x, in rationals; -1 outside.

    Axis coordinate v lies in cell floor((v + i) i) of [-i, i) at resolution
    i; the flat index orders the axes as numpy's C order does.
    """
    i, k = resolution, 2 * resolution * resolution
    index = 0
    for v in x:
        if not math.isfinite(v) or not -i <= Fraction(v) < i:
            return -1
        index = index * k + math.floor((Fraction(v) + i) * i)
    return index


def near_edge_doubles(resolution, ulps=3):
    """Every double within ulps of a cell edge of [-i, i] at resolution i."""
    i = resolution
    out = []
    for c in range(2 * i * i + 1):
        edge = float(Fraction(c, i) - i)
        out.append(edge)
        up = down = edge
        for _ in range(ulps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return np.array(out)


def two_search_psi(loss, theta, tol=1e-8):
    """psi(theta) with H and the wrong-side H^- each golden-searched on [-50, 50]."""
    from hardcoreboost._scalar import golden_min

    eta = (1.0 + theta) / 2.0

    def risk(a):
        return eta * float(loss.value(-a)) + (1.0 - eta) * float(loss.value(a))

    _, h_full = golden_min(risk, -50.0, 50.0, tol)
    _, h_minus = golden_min(risk, -50.0, 0.0, tol)
    return max(0.0, h_minus - h_full)


def full_row_coordinate_descent(fm, loss, cfg, init=None, target=None):
    """Coordinate descent that evaluates the loss on every row at every step.

    The loop the row-restricted coordinate_descent replaced: each slope of
    the line search, and the objective and the gradient after each step, run
    over all m rows.  On columns without a zero entry the two must agree bit
    for bit.
    """
    import math

    from hardcoreboost.optimize import OptRun, _line_search
    from hardcoreboost.risk import margins, surrogate_risk

    lam = np.zeros(fm.n) if init is None else np.asarray(init, dtype=float).copy()
    objs = [surrogate_risk(fm, lam, loss)]
    z = -margins(fm, lam)
    grads = []
    norms = [float(np.abs(lam).sum())]
    stop = "iterations"
    truncated = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if target is not None and objs[-1] <= target:
            stop = "target"
            break
        g = fm.features.T @ (fm.weights * loss.subgradient(z) * (-fm.labels))
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        i = int(np.argmax(np.abs(g)))
        direction = np.zeros(fm.n)
        direction[i] = -math.copysign(1.0, g[i])
        step, was_truncated = _line_search(fm, loss, z, direction[i] * fm.features[:, i])
        truncated += was_truncated
        lam = lam + step * direction
        z = -margins(fm, lam)
        objs.append(float(np.sum(fm.weights * loss.value(z))))
        norms.append(float(np.abs(lam).sum()))
    return OptRun(
        lam, objs[-1], np.array(objs), np.array(grads), np.array(norms), stop, it,
        truncated_steps=truncated,
    )
