"""Minimization oracles for the empirical surrogate risk.

Two methods are provided: subgradient descent for the hinge loss (Lipschitz
and infimum-attaining) and greedy coordinate descent with exact line search
for the exponential/logistic cone (the AdaBoost regime).  Dual lower bounds
from decorrelating reweightings turn iterates into suboptimality
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import golden_max
from .hardcore import HardCoreCertificate
from .hypotheses import FeatureMatrix
from .losses import Loss, UnsupportedLossError
from .risk import margins, surrogate_risk

# Line-search steps are truncated at this length; reaching it means the 1-D
# minimum sits at +infinity (a separable direction).
STEP_CAP = 2.0**60

DECORRELATION_TOL = 1e-7


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
    objective_trace: np.ndarray
    grad_sup_trace: np.ndarray
    norm_trace: np.ndarray
    stop_reason: str  # "gradient" | "iterations" | "target"
    iterations: int
    truncated_steps: int = 0

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def _risk_gradient(fm: FeatureMatrix, loss: Loss, lam: np.ndarray) -> np.ndarray:
    z = -margins(fm, lam)
    coeff = fm.weights * loss.subgradient(z) * (-fm.labels)
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
    objs = [best_obj]
    grads = []
    norms = [0.0]
    stop = "iterations"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = _risk_gradient(fm, loss, lam)
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        lam = lam - (cfg.step_scale / math.sqrt(it)) * g
        obj = surrogate_risk(fm, lam, loss)
        objs.append(obj)
        norms.append(float(np.abs(lam).sum()))
        if obj < best_obj:
            best_obj, best_lam = obj, lam.copy()
    objs.append(best_obj)
    norms.append(float(np.abs(best_lam).sum()))
    return OptRun(
        best_lam,
        np.array(objs),
        np.array(grads),
        np.array(norms),
        stop,
        it,
    )


def _line_search(fm: FeatureMatrix, loss: Loss, lam, direction, tol: float = 1e-10):
    """Exact 1-D minimization along a descent ray via bisection on the slope.

    Returns (step, truncated).  The bracket grows geometrically from 1; when
    the slope stays negative out to STEP_CAP the step is truncated there.
    """
    feats_dir = fm.features @ direction
    base = fm.features @ np.asarray(lam, dtype=float)

    def slope(s: float) -> float:
        z = -fm.labels * (base + s * feats_dir)
        coeff = fm.weights * loss.subgradient(z) * (-fm.labels)
        return float(coeff @ feats_dir)

    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
        if hi >= STEP_CAP:
            return STEP_CAP, True
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
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
    """
    if loss.kind not in ("exp", "logistic", "cone"):
        raise UnsupportedLossError("coordinate descent supports exp/logistic/cone losses")
    lam = np.zeros(fm.n) if init is None else np.asarray(init, dtype=float).copy()
    objs = [surrogate_risk(fm, lam, loss)]
    grads = []
    norms = [float(np.abs(lam).sum())]
    stop = "iterations"
    truncated = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if target is not None and objs[-1] <= target:
            stop = "target"
            break
        g = _risk_gradient(fm, loss, lam)
        sup = float(np.abs(g).max(initial=0.0))
        grads.append(sup)
        if sup <= cfg.grad_tol:
            stop = "gradient"
            break
        i = int(np.argmax(np.abs(g)))
        direction = np.zeros(fm.n)
        direction[i] = -math.copysign(1.0, g[i])
        step, was_truncated = _line_search(fm, loss, lam, direction)
        truncated += was_truncated
        lam = lam + step * direction
        objs.append(surrogate_risk(fm, lam, loss))
        norms.append(float(np.abs(lam).sum()))
    return OptRun(
        lam,
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


def dual_lower_bound(fm: FeatureMatrix, loss: Loss, p) -> float:
    """Weak-duality lower bound -(1/m) sum phi*(p_j) on the optimal risk.

    p must be a nonnegative decorrelating reweighting of the (uniform)
    empirical measure; the largest constraint violation is reported
    otherwise.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (fm.m,) or np.any(p < 0):
        raise ValueError("p must be a nonnegative vector, one entry per point")
    a = (fm.features * fm.labels[:, None]).T
    viol = float(np.abs(a @ p).max(initial=0.0))
    if viol > DECORRELATION_TOL:
        raise ValueError(f"p is not decorrelating: max violation {viol:g}")
    conj = np.asarray(loss.conjugate(p), dtype=float)
    return float(-np.mean(conj))


def suboptimality_certificate(
    fm: FeatureMatrix, loss: Loss, lam, cert: HardCoreCertificate
) -> float:
    """Duality gap of lam against the best rescaling of the certificate's p.

    The decorrelating p stays decorrelating under scaling, so the dual value
    -(1/m) sum phi*(s p_j) is maximized over s >= 0 by golden section; the
    result is primal minus that bound and is nonnegative up to tolerance.
    """
    primal = surrogate_risk(fm, lam, loss)
    p = cert.p
    if p.max(initial=0.0) == 0.0:
        return primal  # dual value 0 from the zero reweighting
    pmax = float(p.max())

    def dual_of(s: float) -> float:
        conj = np.asarray(loss.conjugate(s * p), dtype=float)
        if not np.all(np.isfinite(conj)):
            return -math.inf
        return float(-np.mean(conj))

    if loss.kind in ("logistic", "hinge"):
        s_hi = 1.0 / pmax  # conjugate domain ends at 1
    else:
        s_hi = 1.0
        while dual_of(2.0 * s_hi) > dual_of(s_hi) and s_hi < 1e12:
            s_hi *= 2.0
        s_hi *= 2.0
    _, dual = golden_max(dual_of, 0.0, s_hi, tol=1e-10 * max(1.0, s_hi))
    return primal - dual
