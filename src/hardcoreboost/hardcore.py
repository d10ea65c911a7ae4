"""Hard-core decomposition of an empirical linear classification problem.

One linear program and its dual give both witnesses of the alternative: the
primal side finds the maximal support of a decorrelating reweighting p
(nonnegative, zero correlation with every feature against the labels), and
its row duals are a weighting with zero margins on the core and strictly
positive margins on the complement.  Both witnesses are verified before a
certificate is returned.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .hypotheses import FeatureMatrix
from .lp import LinearProgram, LpError, solve
from .risk import region_to_mask

# One order of magnitude above the LP feasibility tolerance: the core's LP
# threshold and the bound on decorrelation and abstention residuals.
CORE_TOL = 1e-7
MARGIN_FLOOR = 1e-9  # margins above it are positive, within it zero


class HardCoreInconsistencyError(RuntimeError):
    """A computed certificate failed its own invariant checks."""


@dataclass(frozen=True)
class HardCoreCertificate:
    core: np.ndarray  # sorted indices of core points
    p: np.ndarray  # decorrelating weights, max entry 1, positive exactly on core
    separator: np.ndarray  # the core LP's row duals, |lam|_1 = 1; zero if no complement
    margin: float  # separator's smallest margin on the live complement; +inf if empty
    point_optima: np.ndarray  # the core LP's t: 1 on the core, 0 off it (diagnostics)

    def core_mask(self, m: int) -> np.ndarray:
        return region_to_mask(self.core, m)


def compute_hardcore(fm: FeatureMatrix) -> HardCoreCertificate:
    """Compute and verify the hard core of the sampled problem.

    The decorrelating reweightings {p >= 0 : A p = 0} form a cone, closed
    under addition and scaling, so one LP gives its maximal support, and its
    row duals give the separator (see _core_lp); zero-mass points are
    excluded by convention.  No second LP is solved.  The separator's margin
    is the floor its dual certifies, not the max margin.  The certificate
    checks use A unscaled.
    """
    core_mask, t, p, lam = _core_lp(fm)
    core = np.flatnonzero(core_mask)
    lam, margin = separator_certificate(fm, core, lam)
    cert = HardCoreCertificate(core, p, lam, margin, t)
    _verify_certificate(fm, cert)
    return cert


def _core_lp(fm: FeatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(core mask, t, p, lam) from the one hard-core LP.

    Over the variables [t, s] with p = t + s, maximizes sum(t) subject to
    A (t + s) = 0, 0 <= t <= 1 and s >= 0, with both bounds 0 on zero-mass
    points.  Summing scaled witnesses gives a p >= 1 on the whole core, so
    at every optimum t is the 0/1 indicator of the core; the core is
    {j : t_j > CORE_TOL}, and p is t + s on it, divided by its max, and 0
    off it.  A has each row scaled by a power of two to max-abs in
    [1/2, 1).  The scaling is exact, so the null space is A's; HiGHS's
    absolute tolerances then act relative to each row, and features times
    2^-k give bitwise the same t and p.

    With the row duals y of the scaled rows, the reduced costs are -(A^T y)
    on s and 1 - (A^T y) on t.  Some optimum has s > 0 on the whole core, so
    complementary slackness gives (A^T y)_j = 0 there, and dual feasibility
    at t_j = 0 gives (A^T y)_j >= 1 on every live point off it.  Undoing the
    row scaling on y gives a weighting with those margins on A unscaled;
    lam is that weighting times the one power of two that puts its largest
    entry in [1/2, 1), which keeps a subnormal row from overflowing it.
    """
    a = fm.correlations
    m = fm.m
    # frexp gives a zero row the exponent 0, which leaves it as it is
    _, row_exp = np.frexp(np.abs(a).max(axis=1, initial=0.0))
    a_rows = np.ldexp(a, -row_exp[:, None])
    live = fm.weights != 0.0
    upper = np.concatenate((np.where(live, 1.0, 0.0), np.where(live, np.inf, 0.0)))
    objective = np.concatenate((np.ones(m), np.zeros(m)))
    lp = LinearProgram(objective, a_eq=np.hstack((a_rows, a_rows)),
                       b_eq=np.zeros(a.shape[0]), upper=upper)
    sol = solve(lp)
    t = sol.x[:m]
    core_mask = t > CORE_TOL
    p = np.where(core_mask, t + sol.x[m:], 0.0)
    if core_mask.any():
        p = p / p.max()
    y = sol.row_duals
    _, y_exp = np.frexp(y)
    # |y_i| 2^-row_exp_i lies in [2^(e_i - 1), 2^e_i) for e_i = y_exp_i - row_exp_i
    e = (y_exp - row_exp)[y != 0.0]
    return core_mask, t, p, np.ldexp(y, -row_exp - (e.max() if e.size else 0))


def separator_certificate(fm: FeatureMatrix, core, lam) -> tuple[np.ndarray, float]:
    """Certify lam as a separator that abstains on the core.

    Returns (lam / |lam|_1, its smallest margin y_j (H lam)(x_j) over the
    live points off the core).  With an empty complement the zero weighting
    and a +inf sentinel are returned.  Raises HardCoreInconsistencyError if
    a margin on the core exceeds CORE_TOL in absolute value, or if the
    smallest margin off it is not above MARGIN_FLOOR: then the core is not a
    hard core, or lam does not separate it.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (fm.n,):
        raise ValueError(f"weighting must have length {fm.n}")
    mask = region_to_mask(core, fm.m)
    # zero-mass points are excluded from the core by convention, and being
    # null they need no positive margin either
    comp = ~mask & (fm.weights > 0)
    if not comp.any():
        return np.zeros(fm.n), float("inf")
    norm = np.abs(lam).sum()
    if norm > 0:
        lam = lam / norm
    marg = fm.correlations.T @ lam
    if np.abs(marg[mask]).max(initial=0.0) > CORE_TOL:
        raise HardCoreInconsistencyError("separator does not abstain on the core")
    margin = float(marg[comp].min())
    if margin <= MARGIN_FLOOR:
        raise HardCoreInconsistencyError(
            f"separator margin {margin:g} is not positive: core/complement mismatch"
        )
    return lam, margin


def _verify_certificate(fm: FeatureMatrix, cert: HardCoreCertificate):
    """Check p; separator_certificate has checked the separator."""
    a = fm.correlations
    mask = cert.core_mask(fm.m)
    if np.any(cert.p[~mask] != 0.0) or np.any(cert.p[mask] <= 0.0):
        raise HardCoreInconsistencyError("p is not positive exactly on the core")
    decorr = np.abs(a @ cert.p).max(initial=0.0)
    if decorr > CORE_TOL:
        raise HardCoreInconsistencyError(f"decorrelation violation {decorr:g}")


@dataclass(frozen=True)
class DichotomyReport:
    trials: int
    violations: int
    seed: int


def verify_dichotomy(fm: FeatureMatrix, core, trials: int, seed: int) -> DichotomyReport:
    """Sample random weightings and check the abstain-or-err dichotomy.

    For each of `trials` unit weightings, the margins on the core must
    either all vanish or include a strictly negative one.  So a trial
    violates it when its smallest margin is >= -MARGIN_FLOOR and its largest
    is above MARGIN_FLOOR: once no margin is below -MARGIN_FLOOR, one above
    MARGIN_FLOOR in absolute value is above it.  Violations are counted, not
    thrown.  A trials that is not an integer >= 0 is a ValueError.
    """
    # a bool is an Integral, but True is no trial count
    if not (isinstance(trials, numbers.Integral) and not isinstance(trials, bool)
            and trials >= 0):
        raise ValueError(f"trials must be an integer >= 0, got {trials!r}")
    mask = region_to_mask(core, fm.m)
    a_core = fm.correlations[:, mask]  # (n, |core|)
    rng = np.random.default_rng(seed)
    if a_core.shape[1] == 0:
        return DichotomyReport(trials, 0, seed)
    lams = rng.standard_normal((trials, fm.n))
    norms = np.linalg.norm(lams, axis=1)
    norms[norms == 0] = 1.0
    lams /= norms[:, None]
    margins = a_core.T @ lams.T  # (|core|, trials): each trial's margins in a column
    violated = (margins.min(axis=0) >= -MARGIN_FLOOR) & (margins.max(axis=0) > MARGIN_FLOOR)
    return DichotomyReport(trials, int(np.count_nonzero(violated)), seed)


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
    out = sol.x[:n] - sol.x[n:]
    if np.abs(out).sum() > np.abs(lam).sum() + 1e-7:
        raise LpError("minimum-norm representation exceeds the input norm")
    return out
