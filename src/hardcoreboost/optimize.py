"""Minimization oracles for the empirical surrogate risk.

Two methods are provided: subgradient descent for the hinge loss (Lipschitz
and infimum-attaining) and greedy coordinate descent with exact line search
for the exponential/logistic cone (the AdaBoost regime).  The line search
is a safeguarded Newton iteration on the slope, using the loss's second
derivative, that certifies a sign change on a bracket of width tol / 2 and
returns the last point it evaluated, with that pass's margins and phi'.  It
first probes min(1, 2 s) for the last untruncated step s along the same
column, since steps along a column shrink as the descent converges; when
the slope there is still negative, the search goes on from 1 as without
that probe, so truncation at STEP_CAP is decided on the same points.
Coordinate descent carries z = -y (H lam) and phi'(z) from one search to
the next, so a step costs one loss value pass beyond its search (none on
the budget's last step), and takes its final objective from lam.  Per run
it forms the columns of -y H, w (-y) H and w H^2 as rows of three tables:
a search along +-e_i takes its ray and slope weights from row i by a sign
flip, and each slope is one dot product with phi'.  Subgradient descent
forms z = (-y H) lam once per iteration from a per-run table.  The labels
are +-1, so every sign flip is exact, and every risk is one dot product
w @ phi(z).  Dual lower bounds from decorrelating reweightings turn
iterates into suboptimality certificates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._scalar import golden_min
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
        # every check is written so that NaN fails it
        if self.method not in ("subgradient", "coordinate"):
            raise ValueError(f"unknown method {self.method!r}")
        # a bool is an Integral, but True is no iteration count
        if not (isinstance(self.max_iters, numbers.Integral)
                and not isinstance(self.max_iters, bool) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.grad_tol >= 0.0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol!r}")
        if not 0.0 < self.step_scale < math.inf:
            raise ValueError(f"step_scale must be positive and finite, got {self.step_scale!r}")


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
    slope_evaluations: int = 0  # loss passes made by the line searches


# Both optimizers take the objective and the gradient at lam from phi(z) and
# phi'(z), z = -y (H lam); the risk is one dot product, as surrogate_risk's.
def _objective(fm: FeatureMatrix, val: np.ndarray) -> float:
    return float(fm.weights @ val)


def _signs(fm: FeatureMatrix):
    """(-y, w (-y)), formed once per run.  The labels are +-1, so
    neg_y * (H lam) and H^T (w_neg_y * phi'(z)) round as -(y (H lam)) and
    H^T (w phi'(z) (-y)) do."""
    neg_y = -fm.labels
    return neg_y, fm.weights * neg_y


def subgradient_descent(fm: FeatureMatrix, loss: Loss, cfg: OptimizerConfig) -> OptRun:
    """Projection-free subgradient descent from zero, tracking the best iterate."""
    if loss.kind != "hinge":
        raise UnsupportedLossError(
            "subgradient descent requires a Lipschitz, infimum-attaining loss (hinge)"
        )
    lam = np.zeros(fm.n)
    best_lam = lam.copy()
    best_obj = surrogate_risk(fm, lam, loss)
    z = -margins(fm, lam)
    neg_y, w_neg_y = _signs(fm)
    # z = -y (H lam) is this table times lam: each row is a row of H with an
    # exact sign flip, so it rounds as -(y (H lam)) does
    neg_y_feats = neg_y[:, None] * fm.features
    phi, d1 = loss._k.phi, loss._k.d1
    objs = [best_obj]
    grads = []
    norms = [0.0]
    stop = "iterations"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = fm.features.T @ (w_neg_y * d1(z))
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        lam = lam - (cfg.step_scale / math.sqrt(it)) * g
        z = neg_y_feats @ lam
        obj = _objective(fm, phi(z)[0])
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
    loss: Loss, w_z_dir, z_base, z_dir, w_dir_sq, tol: float = 1e-10, *,
    start: float = 1.0,
):
    """Exact 1-D minimization along a descent ray by safeguarded Newton on the slope.

    The ray starts at lam with z_base = -y (H lam) and moves along a
    direction d with z_dir = -y (H d), w_z_dir = w z_dir and
    w_dir_sq = w (H d)^2, all 1-d float arrays; the slope at step s is
    w_z_dir @ phi'(z_base + s z_dir), and the curvature w_dir_sq @ phi''.

    Returns (step, truncated, z, d1, passes): z = z_base + step z_dir and
    d1 = phi'(z) from the slope pass at step (both None where no pass was
    made there), and the number of slope passes.  The first slope is taken
    at start, in (0, 1]: a nonnegative one there brackets the minimum in
    [0, start].  A negative one makes start the bracket's low end and the
    bracket grows geometrically from 1, as it does for start = 1; when the
    slope stays negative out to STEP_CAP the step is truncated there.
    Inside the bracket lo < hi, slope(lo) < 0 <= slope(hi), where lo may be
    the unevaluated start of the ray.  A Newton step from the last point is
    taken when it lands strictly inside the bracket and is at most half the
    step before last (the rtsafe rule); otherwise the bracket is bisected.
    A Newton step shorter than tol / 4 is carried tol / 8 past its root, so
    one more slope certifies a sign change on a bracket of width <= tol / 2.
    The last point evaluated, an end of that bracket, is returned: like the
    midpoint of a bisection to width tol, it is within tol / 2 of the
    minimum.  A bracket whose ends are adjacent doubles ends the search at
    its midpoint, one of the two.
    """
    half_tol = 0.5 * tol
    passes = 0
    d12 = loss._k.d12  # z is a float array, so Loss.derivatives' wrapping is not needed

    def evaluate(s: float):
        nonlocal passes
        passes += 1
        z = z_base + s * z_dir
        d1, d2 = d12(z)
        return z, d1, float(w_z_dir @ d1), float(w_dir_sq @ d2)

    lo, hi = 0.0, start
    z, d1, f, df = evaluate(hi)
    while f < 0.0:
        lo, hi = hi, (2.0 * hi if hi >= 1.0 else 1.0)
        if hi >= STEP_CAP:
            return STEP_CAP, True, None, None, passes
        z, d1, f, df = evaluate(hi)
    s = hi
    last = before_last = math.inf
    while hi - lo > half_tol:
        dx = f / df if df > 0.0 else math.inf
        x = s - dx
        if abs(dx) <= 0.5 * half_tol:
            x += -0.25 * half_tol if f >= 0.0 else 0.25 * half_tol
        if not (lo < x < hi and abs(x - s) <= 0.5 * before_last):
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # lo and hi are adjacent doubles
                if x != s:
                    z = d1 = None  # the last pass was at the other end
                return x, False, z, d1, passes
        before_last, last = last, abs(x - s)
        s = x
        z, d1, f, df = evaluate(s)
        if f < 0.0:
            lo = s
        else:
            hi = s
    return s, False, z, d1, passes


def coordinate_descent(
    fm: FeatureMatrix,
    loss: Loss,
    cfg: OptimizerConfig,
    init: np.ndarray | None = None,
    target: float | None = None,
) -> OptRun:
    """Greedy coordinate descent with exact line search (AdaBoost-style).

    Starts from init (zero by default; finite, one entry per column), picks
    the coordinate with the largest absolute partial derivative (ties to the
    lowest index) and minimizes exactly along it.  Stops once the objective
    is at most target, on a small full gradient, or at the iteration budget.
    Each line search along column i starts at twice the last untruncated
    step along it, capped at 1.  The margins z = -y (H lam) and phi'(z) are
    carried from each search's last pass to the next step, and rebuilt from
    lam only after a search that returns a point it did not evaluate; the
    returned objective, the trace's last entry, is surrogate_risk at lam.
    """
    if loss.kind not in ("exp", "logistic", "cone"):
        raise UnsupportedLossError("coordinate descent supports exp/logistic/cone losses")
    lam = np.zeros(fm.n) if init is None else np.asarray(init, dtype=float).copy()
    if not np.all(np.isfinite(lam)):
        raise ValueError("init must be finite")
    z = -margins(fm, lam)  # raises on a wrong-length init
    neg_y, w_neg_y = _signs(fm)
    # row i holds -y H e_i, w (-y) H e_i and w (H e_i)^2: a search along
    # +-e_i takes its z_dir and w_z_dir by an exact sign flip and its
    # w_dir_sq as it is
    z_cols = np.ascontiguousarray((neg_y[:, None] * fm.features).T)
    w_z_cols = np.ascontiguousarray((w_neg_y[:, None] * fm.features).T)
    w_sq_cols = np.ascontiguousarray((fm.weights[:, None] * (fm.features * fm.features)).T)
    d1 = loss.subgradient(z)
    objs = [_objective(fm, loss.value(z))]
    starts = [1.0] * fm.n  # column -> where its next line search starts, in (0, 1]
    grads = []
    norms = [float(np.abs(lam).sum())]
    stop = "iterations"
    truncated = slopes = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if target is not None and objs[-1] <= target:
            stop = "target"
            break
        g = fm.features.T @ (w_neg_y * d1)
        abs_g = np.abs(g)
        sup = float(abs_g.max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        i = int(np.argmax(abs_g))
        sign = -math.copysign(1.0, g[i])
        step, was_truncated, z_step, d1_step, passes = _line_search(
            loss, sign * w_z_cols[i], z, sign * z_cols[i], w_sq_cols[i], start=starts[i],
        )
        truncated += was_truncated
        slopes += passes
        if not was_truncated and step > 0.0:
            starts[i] = min(1.0, 2.0 * step)
        lam[i] += step * sign
        if z_step is None:
            z = neg_y * (fm.features @ lam)
            d1 = loss.subgradient(z)
        else:
            z, d1 = z_step, d1_step
        # the last step's entry is surrogate_risk at lam, set below
        objs.append(_objective(fm, loss.value(z)) if it < cfg.max_iters else math.nan)
        norms.append(float(np.abs(lam).sum()))
    objs[-1] = surrogate_risk(fm, lam, loss)
    return OptRun(
        lam,
        objs[-1],
        np.array(objs),
        np.array(grads),
        np.array(norms),
        stop,
        it,
        truncated_steps=truncated,
        slope_evaluations=slopes,
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
    q = s u with u = p / w (0 off the core) is dual feasible.  Its dual value
    D(s) = -sum_j w_j phi*(s u_j) is concave in s, with slope
    -sum_j w_j u_j (phi*)'(s u_j).  (phi*)'(g) is the z where phi'(z) = g, so
    the slope is >= 0 while every s u_j <= phi'(0) and <= 0 once every
    positive s u_j >= phi'(0): D peaks on [phi'(0) / max u, phi'(0) / min u],
    min over the positive u, cut at E / max u where phi*'s domain ends at E.
    One golden section finds that peak; the result is primal minus its value
    and is nonnegative up to tolerance.  A flat u or the hinge, whose dual is
    linear in s, gives a bracket of width 0, priced once at its end.  Raises
    ValueError, for every loss, when max u or the bracket's upper end
    overflows, as for a subnormal mass on the core or entry of u.
    """
    primal = surrogate_risk(fm, lam, loss)
    w = fm.weights
    # p is 0 on zero-mass points, which the core excludes
    with np.errstate(over="ignore"):  # a subnormal w_j overflows u_j, raised on below
        unit = np.divide(cert.p, w, out=np.zeros(fm.m), where=w > 0)
    if unit.max(initial=0.0) == 0.0:
        return primal  # dual value 0 from the zero reweighting

    slope_zero = loss.subgradient(0.0)  # phi'(0)
    u_max, u_min = float(unit.max()), float(unit[unit > 0].min())
    s_lo = slope_zero / u_max
    s_hi = min(loss.conjugate_domain_end / u_max, slope_zero / u_min)
    if not (math.isfinite(u_max) and math.isfinite(s_hi)):
        raise ValueError(f"p / w spans {u_min:g} to {u_max:g}: the dual scale's bracket overflows")
    # 1e-15 s_hi is a few ulps of any point of the bracket, a width the
    # search can always reach when s_hi / s_lo is large
    tol = max(1e-10 * s_lo, 1e-15 * s_hi)
    _, low = golden_min(lambda s: -_dual_value(loss, w, s * unit), s_lo, s_hi, tol=tol)
    return primal + low
