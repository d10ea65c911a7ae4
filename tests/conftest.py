"""Shared brute-force oracles used to pin derived reference values."""

from __future__ import annotations

import decimal
import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from hardcoreboost.hardcore import CORE_TOL
from hardcoreboost.lp import LinearProgram, LpError, LpSolution, _check_feasible, solve


def linprog_solve(lp):
    """`lp.solve` by one scipy `linprog(method="highs")` call.

    Both build one HiGHS instance per solve with the options linprog passes
    when presolve is off, so they must agree bit for bit: both raise LpError
    on a program without an optimal vertex, and otherwise return the same
    value, x, row duals and iteration count.  linprog's marginals are the
    derivatives of its minimum, of -c @ x, in b_ub and b_eq, so the row
    duals, in b of the maximum, are their negation.
    """
    res = linprog(
        -lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
        options={"presolve": False},
    )
    if not res.success:
        raise LpError(f"LP is not optimal: {res.message}")
    x = np.asarray(res.x, dtype=float)
    _check_feasible(lp, x)
    y = -np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    return LpSolution(float(lp.objective @ x), x, int(res.nit), y)


def assert_same_solution(got, want):
    """Bitwise equality of two LpSolutions."""
    assert got.iterations == want.iterations
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for name in ("x", "row_duals"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def planted_problem(m, n, core_frac, rng):
    """The benchmark's planted generator (bench/planted.py): (x, y, core)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "planted.py"
    spec = importlib.util.spec_from_file_location("bench_planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.planted_problem(m, n, core_frac, rng)


def per_point_core(fm):
    """The hard core's mask by one LP per sample point.

    Point j's LP is max p_j over {p in [0,1]^m : A p = 0} with zero-mass
    points fixed at 0, on A with each row scaled by a power of two to
    max-abs in [1/2, 1); the point is in the core when its optimum exceeds
    CORE_TOL.
    """
    a = fm.correlations
    _, row_exp = np.frexp(np.abs(a).max(axis=1, initial=0.0))
    a_rows = np.ldexp(a, -row_exp[:, None])
    upper = np.where(fm.weights == 0.0, 0.0, 1.0)
    optima = [solve(LinearProgram(c, a_eq=a_rows, b_eq=np.zeros(a.shape[0]), upper=upper)).value
              for c in np.identity(fm.m)]
    return np.array(optima) > CORE_TOL


def max_margin_oracle(abstain, margin_rows):
    """Max-margin weighting that abstains on some points, by linprog: (lam, t).

    Rows of both arrays are points, columns are features (y_j h_i(x_j)).
    Solves max t subject to abstain @ lam = 0, margin_rows @ lam >= t,
    |lam|_1 <= 1 and -1 <= t <= 1, over the 2n + 1 variables
    [lam+, lam-, t] with lam = lam+ - lam-.
    """
    k, n = margin_rows.shape
    obj = np.zeros(2 * n + 1)
    obj[-1] = 1.0
    # t - margin_j <= 0 per margin row, then sum(lam+ + lam-) <= 1
    a_ub = np.vstack([
        np.hstack([-margin_rows, margin_rows, np.ones((k, 1))]),
        np.append(np.ones(2 * n), 0.0),
    ])
    b_ub = np.append(np.zeros(k), 1.0)
    a_eq = b_eq = None
    if abstain.shape[0]:
        a_eq = np.hstack([abstain, -abstain, np.zeros((abstain.shape[0], 1))])
        b_eq = np.zeros(abstain.shape[0])
    lower = np.zeros(2 * n + 1)
    lower[-1] = -1.0
    sol = linprog_solve(LinearProgram(obj, a_eq, b_eq, lower, np.ones(2 * n + 1), a_ub, b_ub))
    return sol.x[:n] - sol.x[n : 2 * n], float(sol.value)


def lattice_core(cells, labels):
    """Hard core of a disjoint-support 0/1 class under uniform weights.

    cells holds each point's cell, -1 for a point in none.  A reweighting
    decorrelates from a cell's indicator when it puts equal mass on the
    cell's two labels, so it vanishes on a cell that holds one label: the
    core is the points in no cell plus the cells that hold both labels.
    """
    both = np.intersect1d(cells[labels > 0], cells[labels < 0])
    return np.flatnonzero((cells < 0) | np.isin(cells, both))


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


def dual_scale_bracket(fm, loss, cert):
    """(u, s_lo, s_hi): u = p / w (0 off the positive masses) and the bracket
    [phi'(0) / max u, min(E / max u, phi'(0) / min u)] of the certificate's
    dual scale, min over the positive u and E the conjugate's domain end."""
    w = fm.weights
    unit = np.divide(cert.p, w, out=np.zeros(fm.m), where=w > 0)
    slope_zero = loss.subgradient(0.0)
    s_hi = min(loss.conjugate_domain_end / unit.max(), slope_zero / unit[unit > 0].min())
    return unit, slope_zero / unit.max(), float(s_hi)


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
    """One scalar bisection per call: the reference root the elementwise
    bisect_root and the cone conjugate are checked against."""
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
    """min_f w_pos phi(-f) + w_neg phi(f) by a golden-section search of the
    full bracket [-60, 60], the search every kind took before the kernels
    bracketed the minimizer."""
    from hardcoreboost._scalar import golden_min

    _, v = golden_min(
        lambda f: w_pos * float(loss.value(-f)) + w_neg * float(loss.value(f)),
        -bracket, bracket, tol,
    )
    return v


def exact_conditional_min(kind, w_pos, w_neg):
    """min over all real f of w_pos phi(-f) + w_neg phi(f) for masses > 0, to
    50 digits and then rounded: 2 sqrt(w+ w-) for exp, (w+ + w-) h(w+ / (w+ +
    w-)) for logistic, h the binary entropy in nats, and 2 min(w+, w-) for
    hinge (Bartlett, Jordan & McAuliffe, 2006)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p, n = decimal.Decimal(w_pos), decimal.Decimal(w_neg)
        return float({
            "exp": lambda: 2 * (p * n).sqrt(),
            "logistic": lambda: p * ((p + n) / p).ln() + n * ((p + n) / n).ln(),
            "hinge": lambda: 2 * min(p, n),
        }[kind]())


def checked_conditional_min(loss, w_pos, w_neg):
    """losses._min_conditional_risk(loss, w_pos, w_neg), asserted against its
    oracles and returned.

    It lies at most 4 ulps above golden_conditional_min and at most
    1e-12 (w+ + w-) below it; at the hinge's kink the golden value misses
    the minimum by up to its tol (1e-10) times the slope, so the hinge's
    lower slack is 1e-10 (w+ + w-).  For exp, logistic and hinge with both masses positive
    and |ln w+ - ln w-| <= 60, so that the minimizer lies in the bracket,
    it is within 4 ulps (relative) of exact_conditional_min.
    """
    from hardcoreboost.losses import _min_conditional_risk

    v = _min_conditional_risk(loss, w_pos, w_neg)
    golden = golden_conditional_min(loss, w_pos, w_neg)
    slack = (1e-10 if loss.kind == "hinge" else 1e-12) * (w_pos + w_neg)
    assert golden - slack <= v <= golden + 4 * math.ulp(golden), (loss, w_pos, w_neg)
    if (loss.kind != "cone" and w_pos > 0 and w_neg > 0
            and abs(math.log(w_pos) - math.log(w_neg)) <= 60.0):
        want = exact_conditional_min(loss.kind, w_pos, w_neg)
        assert abs(v - want) <= 4 * np.finfo(float).eps * want, (loss, w_pos, w_neg)
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


def reference_coordinate_descent(fm, loss, cfg, init=None, target=None):
    """The coordinate-descent loop that signs through the labels at every
    step: the gradient H^T (w phi'(z) (-y)) formed from them and phi'(z) from
    loss.subgradient each iteration, each line search's ray and its slope
    weights +-(w (-y) H_i) formed from the column, and lam rebuilt from a
    direction vector rather than updated in place.  As there, z is carried from the search's last pass, and rebuilt
    by risk.margins after a search that returns none; each line search along
    a column starts at twice the last untruncated step along it, capped at 1;
    the final objective is surrogate_risk at lam.  coordinate_descent must
    agree with it bit for bit."""
    import math

    from hardcoreboost.optimize import OptRun, _line_search
    from hardcoreboost.risk import margins, surrogate_risk

    lam = np.zeros(fm.n) if init is None else np.asarray(init, dtype=float).copy()
    objs = [surrogate_risk(fm, lam, loss)]
    z = -margins(fm, lam)
    starts = [1.0] * fm.n
    grads = []
    norms = [float(np.abs(lam).sum())]
    stop = "iterations"
    truncated = slopes = 0
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
        feats_dir = direction[i] * fm.features[:, i]
        step, was_truncated, z_step, _, passes = _line_search(
            loss, direction[i] * (fm.weights * -fm.labels * fm.features[:, i]), z,
            -fm.labels * feats_dir, fm.weights * (feats_dir * feats_dir), start=starts[i],
        )
        truncated += was_truncated
        slopes += passes
        if not was_truncated and step > 0.0:
            starts[i] = min(1.0, 2.0 * step)
        lam = lam + step * direction
        z = -margins(fm, lam) if z_step is None else z_step
        objs.append(float(fm.weights @ loss.value(z)))
        norms.append(float(np.abs(lam).sum()))
    objs[-1] = surrogate_risk(fm, lam, loss)
    return OptRun(
        lam, objs[-1], np.array(objs), np.array(grads), np.array(norms), stop, it,
        truncated_steps=truncated, slope_evaluations=slopes,
    )


def reference_subgradient_descent(fm, loss, cfg):
    """The subgradient loop that signs through risk.margins at every step:
    z = -(y (H lam)) and the gradient H^T (w phi'(z) (-y)) formed from the
    labels each iteration, and each risk summed as w @ phi(z), as
    surrogate_risk sums it.  subgradient_descent must agree with it bit for bit."""
    import math

    from hardcoreboost.optimize import OptRun
    from hardcoreboost.risk import margins, surrogate_risk

    lam = np.zeros(fm.n)
    best_lam = lam.copy()
    best_obj = surrogate_risk(fm, lam, loss)
    z = -margins(fm, lam)
    objs = [best_obj]
    grads = []
    norms = [0.0]
    stop = "iterations"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = fm.features.T @ (fm.weights * loss.subgradient(z) * (-fm.labels))
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        lam = lam - (cfg.step_scale / math.sqrt(it)) * g
        z = -margins(fm, lam)
        obj = float(fm.weights @ loss.value(z))
        objs.append(obj)
        norms.append(float(np.abs(lam).sum()))
        if obj < best_obj:
            best_obj, best_lam = obj, lam.copy()
    return OptRun(
        best_lam, best_obj, np.array(objs), np.array(grads), np.array(norms), stop, it,
    )


def ungrouped_sweep(cfg):
    """consistency_sweep trained on one row per sample point.

    Each replication draws the same sample, materializes the full m x n
    lattice matrix, prices its target as the brute-force minimal surrogate
    risk of the sample with each point replaced by its cell index, plus
    epsilon, and runs coordinate descent with the sweep's budget; returns the
    per-stage (excess risks, failure count)."""
    from hardcoreboost.experiments import SWEEP_MAX_ITERS
    from hardcoreboost.hypotheses import LatticeCellClass
    from hardcoreboost.optimize import OptimizerConfig, coordinate_descent
    from hardcoreboost.risk import Sample, bayes_surrogate_risk

    opt_cfg = OptimizerConfig(max_iters=SWEEP_MAX_ITERS, grad_tol=1e-12)
    out = []
    for s_idx, stage in enumerate(cfg.stages, start=1):
        cls = LatticeCellClass(stage.class_index, 1)
        excess, failures = [], 0
        for rep in range(cfg.replications):
            sample = cfg.world.sample(stage.m, np.random.default_rng((cfg.seed, s_idx, rep)))
            by_cell = Sample(cls.cells(sample.x)[:, None], sample.y, sample.weights)
            target = bayes_surrogate_risk(by_cell, cfg.loss) + stage.epsilon
            run = coordinate_descent(cls.materialize(sample), cfg.loss, opt_cfg, target=target)
            if run.objective <= target:
                excess.append(cfg.world.classification_risk(cls, run.lam) - cfg.world.bayes_risk())
            else:
                failures += 1
        out.append((excess, failures))
    return out
