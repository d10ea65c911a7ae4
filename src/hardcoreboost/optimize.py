"""Minimization oracles for the empirical surrogate risk.

Two methods are provided: subgradient descent for the hinge loss (Lipschitz
and infimum-attaining) and greedy coordinate descent with exact line search
for the exponential/logistic cone (the AdaBoost regime).  The line search
is a safeguarded Newton iteration on the slope, using the loss's second
derivative, that certifies a sign change on a bracket of width tol.  Each
iteration of either method forms the margins H lam once and takes the
objective and the gradient from them.  Coordinate descent keeps phi and
phi' per row and, after a step along column i, evaluates the loss only on
the rows where column i is nonzero; the line search runs on those rows
too, since every other row adds exactly 0 to its slope.  A column with no
zero entry keeps all rows, so dense input gives the iterates of a
full-row loop bit for bit.  Dual lower bounds from decorrelating
reweightings turn iterates into suboptimality certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import golden_max
from .hardcore import CORE_TOL, HardCoreCertificate
from .hypotheses import FeatureMatrix
from .losses import Loss, UnsupportedLossError
from .risk import margins, surrogate_risk

# Line-search steps are truncated at this length; reaching it means the 1-D
# minimum sits at +infinity (a separable direction).
STEP_CAP = 2.0**60


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "coordinate"  # "subgradient" | "coordinate"
    max_iters: int = 1000
    grad_tol: float = 1e-8  # sup-norm stop tolerance on the full gradient
    step_scale: float = 1.0  # subgradient step size scale/sqrt(t+1)

    def __post_init__(self):
        if self.method not in ("subgradient", "coordinate"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class OptRun:
    lam: np.ndarray
    objective: float  # surrogate risk at lam
    objective_trace: np.ndarray  # one entry per iterate, the start included
    grad_sup_trace: np.ndarray
    norm_trace: np.ndarray
    stop_reason: str  # "gradient" | "iterations" | "target"
    iterations: int
    truncated_steps: int = 0


# Both optimizers form z = -y (H lam) once per iteration and take the
# objective and the gradient at lam from phi(z) and phi'(z).
def _objective(fm: FeatureMatrix, val: np.ndarray) -> float:
    return float(np.sum(fm.weights * val))


def _risk_gradient(fm: FeatureMatrix, d1: np.ndarray) -> np.ndarray:
    coeff = fm.weights * d1 * (-fm.labels)
    return fm.features.T @ coeff


def subgradient_descent(fm: FeatureMatrix, loss: Loss, cfg: OptimizerConfig) -> OptRun:
    """Projected-free subgradient descent from zero, tracking the best iterate."""
    if loss.kind != "hinge":
        raise UnsupportedLossError(
            "subgradient descent requires a Lipschitz, infimum-attaining loss (hinge)"
        )
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
        g = _risk_gradient(fm, loss.subgradient(z))
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        lam = lam - (cfg.step_scale / math.sqrt(it)) * g
        z = -margins(fm, lam)
        obj = _objective(fm, loss.value(z))
        objs.append(obj)
        norms.append(float(np.abs(lam).sum()))
        if obj < best_obj:
            best_obj, best_lam = obj, lam.copy()
    return OptRun(
        best_lam,
        best_obj,
        np.array(objs),
        np.array(grads),
        np.array(norms),
        stop,
        it,
    )


def _line_search(
    fm: FeatureMatrix, loss: Loss, z_base, feats_dir, tol: float = 1e-10, *, rows=slice(None)
):
    """Exact 1-D minimization along a descent ray by safeguarded Newton on the slope.

    The ray starts at lam with z_base = -y (H lam) and moves along a
    direction d with feats_dir = H d.  The slope and curvature are summed
    over rows only (an index array or a slice, all rows by default); a row
    where feats_dir is 0 adds exactly 0 to both, so leaving it out changes
    only the summation order.

    Returns (step, truncated).  The bracket grows geometrically from 1; when
    the slope stays negative out to STEP_CAP the step is truncated there.
    Inside the bracket lo < hi, slope(lo) < 0 <= slope(hi), where lo may be
    the unevaluated start of the ray.  A Newton step from the last point is
    taken when it lands strictly inside the bracket and is at most half the
    step before last (the rtsafe rule); otherwise the bracket is bisected.
    A Newton step shorter than tol / 2 is carried tol / 4 past its root, so
    one more slope certifies a sign change on a bracket of width <= tol.
    That bracket's midpoint is returned, as a bisection to width tol would;
    a bracket whose ends are adjacent doubles ends the search as well.
    """
    z_base, feats_dir = z_base[rows], feats_dir[rows]
    neg_y, weights = -fm.labels[rows], fm.weights[rows]
    # Labels are +-1, so these products are exact and every slope rounds as
    # -y * (H lam + s H d) and w * phi'(z) * (-y) would.
    z_dir = neg_y * feats_dir
    w_neg_y = weights * neg_y
    w_dir_sq = weights * (feats_dir * feats_dir)

    def slope_curvature(s: float) -> tuple[float, float]:
        d1, d2 = loss.derivatives(z_base + s * z_dir)
        return float((w_neg_y * d1) @ feats_dir), float(w_dir_sq @ d2)

    hi = 1.0
    f, df = slope_curvature(hi)
    while f < 0.0:
        hi *= 2.0
        if hi >= STEP_CAP:
            return STEP_CAP, True
        f, df = slope_curvature(hi)
    lo = 0.5 * hi if hi > 1.0 else 0.0
    s = hi
    last = before_last = math.inf
    while hi - lo > tol:
        dx = f / df if df > 0.0 else math.inf
        x = s - dx
        if abs(dx) <= 0.5 * tol:
            x += -0.25 * tol if f >= 0.0 else 0.25 * tol
        if not (lo < x < hi and abs(x - s) <= 0.5 * before_last):
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # lo and hi are adjacent doubles
        before_last, last = last, abs(x - s)
        s = x
        f, df = slope_curvature(s)
        if f < 0.0:
            lo = s
        else:
            hi = s
    return 0.5 * (lo + hi), False


def coordinate_descent(
    fm: FeatureMatrix,
    loss: Loss,
    cfg: OptimizerConfig,
    init: np.ndarray | None = None,
    target: float | None = None,
) -> OptRun:
    """Greedy coordinate descent with exact line search (AdaBoost-style).

    Starts from init (zero by default), picks the coordinate with the largest
    absolute partial derivative (ties to the lowest index) and minimizes
    exactly along it.  Stops once the objective is at most target, on a
    small full gradient, or at the iteration budget.

    A step along column i moves z only on the rows where column i is
    nonzero, so the line search and the refresh of phi(z) and phi'(z) run
    on those rows alone.
    """
    if loss.kind not in ("exp", "logistic", "cone"):
        raise UnsupportedLossError("coordinate descent supports exp/logistic/cone losses")
    lam = np.zeros(fm.n) if init is None else np.asarray(init, dtype=float).copy()
    z = -margins(fm, lam)
    val, d1 = loss.value(z), loss.subgradient(z)
    objs = [_objective(fm, val)]
    col_rows = {}  # column -> its nonzero rows, or slice(None) when it has no zero
    grads = []
    norms = [float(np.abs(lam).sum())]
    stop = "iterations"
    truncated = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if target is not None and objs[-1] <= target:
            stop = "target"
            break
        g = _risk_gradient(fm, d1)
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        i = int(np.argmax(np.abs(g)))
        direction = np.zeros(fm.n)
        direction[i] = -math.copysign(1.0, g[i])
        col = fm.features[:, i]
        rows = col_rows.get(i)
        if rows is None:
            nonzero = np.flatnonzero(col)
            rows = col_rows[i] = slice(None) if nonzero.size == fm.m else nonzero
        # H times the one-hot direction is exactly the signed column i
        step, was_truncated = _line_search(fm, loss, z, direction[i] * col, rows=rows)
        truncated += was_truncated
        lam = lam + step * direction
        # rows off column i keep their z bit for bit (H_ji lam_i adds 0)
        z = -margins(fm, lam)
        val[rows] = loss.value(z[rows])
        d1[rows] = loss.subgradient(z[rows])
        objs.append(_objective(fm, val))
        norms.append(float(np.abs(lam).sum()))
    return OptRun(
        lam,
        objs[-1],
        np.array(objs),
        np.array(grads),
        np.array(norms),
        stop,
        it,
        truncated_steps=truncated,
    )


def optimize(fm: FeatureMatrix, loss: Loss, cfg: OptimizerConfig) -> OptRun:
    if cfg.method == "subgradient":
        return subgradient_descent(fm, loss, cfg)
    return coordinate_descent(fm, loss, cfg)


def _dual_value(loss: Loss, weights: np.ndarray, q: np.ndarray) -> float:
    """The dual value -sum_j w_j phi*(q_j), over the points of positive mass."""
    live = weights > 0
    return float(-np.sum(weights[live] * loss.conjugate(q[live])))


def dual_lower_bound(fm: FeatureMatrix, loss: Loss, q) -> float:
    """Weak-duality lower bound -sum_j w_j phi*(q_j) on the optimal risk.

    q is a density with respect to the point masses w: it must be finite and
    nonnegative, and the reweighting w q must decorrelate every feature from
    the labels, A (w q) = 0.  The largest violation, in units of max_j w_j,
    is reported otherwise.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (fm.m,) or not np.all(np.isfinite(q) & (q >= 0)):
        raise ValueError("q must be a finite nonnegative vector, one entry per point")
    w = fm.weights
    viol = float(np.abs(fm.correlations @ (w * q)).max(initial=0.0)) / w.max()
    if viol > CORE_TOL:
        raise ValueError(f"q is not decorrelating: max violation {viol:g}")
    return _dual_value(loss, w, q)


def suboptimality_certificate(
    fm: FeatureMatrix, loss: Loss, lam, cert: HardCoreCertificate
) -> float:
    """Duality gap of lam against the best rescaling of the certificate's p.

    The decorrelating p stays decorrelating under scaling, so every density
    q = s p / w (0 off the core) is dual feasible.  Its dual value
    -sum_j w_j phi*(q_j) is maximized over s >= 0 by golden section; the
    result is primal minus that bound and is nonnegative up to tolerance.
    If phi*'s domain ends at a finite E, s ranges over [0, E / max_j p_j / w_j]
    and that end, where a dual linear in s (hinge) peaks, is priced too;
    otherwise the bracket doubles from max_j q_j = 1 while the dual grows.
    """
    primal = surrogate_risk(fm, lam, loss)
    w = fm.weights
    # p is 0 on zero-mass points, which the core excludes
    unit = np.divide(cert.p, w, out=np.zeros(fm.m), where=w > 0)
    if unit.max(initial=0.0) == 0.0:
        return primal  # dual value 0 from the zero reweighting

    def dual_of(s: float) -> float:
        return _dual_value(loss, w, s * unit)

    end = loss.conjugate_domain_end
    if math.isfinite(end):
        s_hi = end / float(unit.max())
        _, dual = golden_max(dual_of, 0.0, s_hi, tol=1e-10 * s_hi)
        return primal - max(dual, dual_of(s_hi))
    s_one = s_hi = 1.0 / float(unit.max())
    d_hi = dual_of(s_hi)
    while s_hi < 1e12 * s_one:
        d_next = dual_of(2.0 * s_hi)
        if not d_next > d_hi:
            break
        s_hi, d_hi = 2.0 * s_hi, d_next
    s_hi *= 2.0
    _, dual = golden_max(dual_of, 0.0, s_hi, tol=1e-10 * s_hi)
    return primal - dual
