"""Hard-core decomposition of an empirical linear classification problem.

The dual side finds the maximal support of a decorrelating reweighting p
(nonnegative, zero correlation with every feature against the labels); the
primal side produces a weighting with zero margins on the core and strictly
positive margins on the complement.  Both witnesses are verified before a
certificate is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import FeatureMatrix
from .lp import STATUS_OPTIMAL, LinearProgram, LpError, solve
from .risk import region_to_mask

# One order of magnitude above the LP feasibility tolerance.
CORE_TOL = 1e-7


class HardCoreInconsistencyError(RuntimeError):
    """A computed certificate failed its own invariant checks."""


@dataclass(frozen=True)
class HardCoreCertificate:
    core: np.ndarray  # sorted indices of core points
    p: np.ndarray  # decorrelating weights, max entry 1, positive exactly on core
    separator: np.ndarray  # weighting with |lam|_1 <= 1
    margin: float  # separator margin floor on the complement; +inf if empty
    point_optima: np.ndarray  # per-point LP optima (diagnostics)

    def core_mask(self, m: int) -> np.ndarray:
        return region_to_mask(self.core, m)


def compute_hardcore(fm: FeatureMatrix, tol: float = CORE_TOL) -> HardCoreCertificate:
    """Compute and verify the hard core of the sampled problem.

    Per sample point j, the LP max p_j over {p in [0,1]^m : A p = 0} decides
    membership; the sum of the per-point optimizers is a single reweighting
    positive exactly on the core (the finite-sample analogue of closure under
    countable unions).  Zero-mass points are excluded by convention.  The m
    LPs share one program, so one cold-started HiGHS model holds the system
    and each point only sets its objective.
    """
    a = fm.correlations
    m = fm.m
    zero_mass = fm.weights == 0.0
    upper = np.where(zero_mass, 0.0, 1.0)
    base = LinearProgram(np.zeros(m), a_eq=a, b_eq=np.zeros(a.shape[0]), upper=upper)
    solutions = []
    for j in range(m):
        c = np.zeros(m)
        c[j] = 1.0
        sol = solve(base, c)
        if sol.status != STATUS_OPTIMAL:
            raise LpError(f"per-point decorrelation LP for point {j} is {sol.status}")
        solutions.append(sol)
    optima = np.array([s.value for s in solutions])
    core_mask = optima > tol
    p = np.sum([s.x for s in solutions], axis=0)
    if p.max(initial=0.0) > 0:
        p = p / p.max()
    p[~core_mask] = 0.0

    core = np.flatnonzero(core_mask)
    lam, t = separator_certificate(fm, core)
    cert = HardCoreCertificate(core, p, lam, t, optima)
    _verify_certificate(fm, cert, tol)
    return cert


def _max_margin(abstain: np.ndarray, margin_rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-margin weighting that abstains on some points.

    Rows of both arrays are points, columns are features (y_j h_i(x_j)).
    Solves max t subject to abstain @ lam = 0, margin_rows @ lam >= t,
    |lam|_1 <= 1 and -1 <= t <= 1, over the 2n + 1 variables [lam+, lam-, t]
    with lam = lam+ - lam-.  Returns (lam, t).
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
    sol = solve(LinearProgram(obj, a_eq, b_eq, lower, np.ones(2 * n + 1), a_ub, b_ub))
    if sol.status != STATUS_OPTIMAL:
        raise LpError(f"max-margin LP is {sol.status}")
    return sol.x[:n] - sol.x[n : 2 * n], float(sol.value)


def separator_certificate(fm: FeatureMatrix, core) -> tuple[np.ndarray, float]:
    """Max-margin separator abstaining on the core.

    Solves max t subject to y_j (H lam)(x_j) >= t off the core,
    y_j (H lam)(x_j) = 0 on the core, and |lam|_1 <= 1.  Returns (lam, t);
    with an empty complement the zero weighting and a +inf sentinel are
    returned.  A nonpositive t with nonempty complement means the supplied
    core is not a hard core.
    """
    mask = region_to_mask(core, fm.m)
    # zero-mass points are excluded from the core by convention, and being
    # null they need no positive margin either
    comp = np.flatnonzero(~mask & (fm.weights > 0))
    n = fm.n
    if comp.size == 0:
        return np.zeros(n), float("inf")
    a = fm.correlations
    lam, t = _max_margin(a[:, mask].T, a[:, comp].T)
    if t <= 1e-9:
        raise HardCoreInconsistencyError(
            f"separator margin {t:g} is not positive: core/complement mismatch"
        )
    return lam, t


def _verify_certificate(fm: FeatureMatrix, cert: HardCoreCertificate, tol: float):
    a = fm.correlations
    mask = cert.core_mask(fm.m)
    if np.any(cert.p[~mask] != 0.0) or np.any(cert.p[mask] <= 0.0):
        raise HardCoreInconsistencyError("p is not positive exactly on the core")
    decorr = np.abs(a @ cert.p).max(initial=0.0)
    if decorr > tol:
        raise HardCoreInconsistencyError(f"decorrelation violation {decorr:g}")
    marg = a.T @ cert.separator
    if np.abs(marg[mask]).max(initial=0.0) > tol:
        raise HardCoreInconsistencyError("separator does not abstain on the core")
    live = ~mask & (fm.weights > 0)
    if np.any(live):
        floor = marg[live].min()
        if not floor >= cert.margin - tol:
            raise HardCoreInconsistencyError("separator margin floor not achieved")
        if cert.margin <= 1e-9:
            raise HardCoreInconsistencyError("separator margin not positive")


@dataclass(frozen=True)
class DichotomyReport:
    trials: int
    violations: int
    seed: int


def verify_dichotomy(fm: FeatureMatrix, core, trials: int, seed: int,
                     tol: float = 1e-9) -> DichotomyReport:
    """Sample random weightings and check the abstain-or-err dichotomy.

    For each unit weighting, the margins on the core must either all vanish
    or include a strictly negative one.  Violations are counted, not thrown.
    """
    mask = region_to_mask(core, fm.m)
    a_core = fm.correlations[:, mask]  # (n, |core|)
    rng = np.random.default_rng(seed)
    violations = 0
    if a_core.shape[1] == 0:
        return DichotomyReport(trials, 0, seed)
    lams = rng.standard_normal((trials, fm.n))
    norms = np.linalg.norm(lams, axis=1)
    norms[norms == 0] = 1.0
    lams /= norms[:, None]
    margins = lams @ a_core  # (trials, |core|)
    all_zero = np.all(np.abs(margins) <= tol, axis=1)
    some_negative = np.any(margins < -tol, axis=1)
    violations = int(np.sum(~(all_zero | some_negative)))
    return DichotomyReport(trials, violations, seed)


def bounded_representation(fm: FeatureMatrix, core, lam) -> np.ndarray:
    """Minimum-l1 weighting matching (H lam) on the core points.

    lam itself is feasible, so infeasibility is an internal error.  The
    returned weighting never has larger l1 norm than lam.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (fm.n,):
        raise ValueError(f"weighting must have length {fm.n}")
    mask = region_to_mask(core, fm.m)
    core_idx = np.flatnonzero(mask)
    n = fm.n
    if core_idx.size == 0:
        return np.zeros(n)
    feats = fm.features[core_idx]  # (k, n)
    target = feats @ lam

    # variables [lam+, lam-], minimize total, i.e. maximize the negation
    obj = -np.ones(2 * n)
    a_eq = np.hstack([feats, -feats])
    sol = solve(LinearProgram(obj, a_eq, target))
    if sol.status != STATUS_OPTIMAL:
        raise LpError(f"bounded-representation LP is {sol.status} (internal error)")
    out = sol.x[:n] - sol.x[n:]
    if np.abs(out).sum() > np.abs(lam).sum() + 1e-7:
        raise LpError("minimum-norm representation exceeds the input norm")
    return out
