"""Dense linear programs with equality rows, inequality rows and bounds.

Problems are stated as: maximize c @ x subject to a_eq @ x = b_eq,
a_ub @ x <= b_ub and lower <= x <= upper (extended-real bounds).  Solving
is delegated to scipy's HiGHS simplex, which is deterministic and handles
inequality rows, bounded variables and degenerate polytopes natively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

FEASIBILITY_TOL = 1e-8
MAX_VARIABLES = 10**4

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Numerical failure inside the LP backend."""


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray  # maximize objective @ x
    a_eq: np.ndarray | None = None  # (k, nv)
    b_eq: np.ndarray | None = None  # (k,)
    lower: np.ndarray | None = None  # defaults to 0
    upper: np.ndarray | None = None  # defaults to +inf
    a_ub: np.ndarray | None = None  # (k, nv), rows a_ub @ x <= b_ub
    b_ub: np.ndarray | None = None  # (k,)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        object.__setattr__(self, "objective", c)
        nv = c.shape[0]
        if nv > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported")
        for kind, a_name, b_name in (("equality", "a_eq", "b_eq"),
                                     ("inequality", "a_ub", "b_ub")):
            if getattr(self, a_name) is None:
                continue
            a = np.asarray(getattr(self, a_name), dtype=float)
            b = np.asarray(getattr(self, b_name), dtype=float)
            if a.ndim != 2 or a.shape[1] != nv or b.shape != (a.shape[0],):
                raise ValueError(f"{kind} system shape mismatch")
            object.__setattr__(self, a_name, a)
            object.__setattr__(self, b_name, b)
        lo = np.zeros(nv) if self.lower is None else np.asarray(self.lower, dtype=float)
        hi = np.full(nv, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lo.shape != (nv,) or hi.shape != (nv,) or np.any(lo > hi):
            raise ValueError("bounds must satisfy lower <= upper, one pair per variable")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: float
    x: np.ndarray | None
    iterations: int

    def __post_init__(self):
        if self.status not in (STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED):
            raise ValueError(f"unknown status {self.status!r}")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; raises LpError only on backend numerical failure."""
    res = linprog(
        -lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        value = float(lp.objective @ x)
        _check_feasible(lp, x)
        return LpSolution(STATUS_OPTIMAL, value, x, int(res.nit))
    if res.status == 2:
        return LpSolution(STATUS_INFEASIBLE, float("nan"), None, int(res.nit))
    if res.status == 3:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), None, int(res.nit))
    raise LpError(f"LP backend failed: {res.message}")


def _check_feasible(lp: LinearProgram, x: np.ndarray, tol: float = FEASIBILITY_TOL):
    scale = 1.0 + float(np.abs(x).max(initial=0.0))
    if lp.a_eq is not None:
        resid = np.abs(lp.a_eq @ x - lp.b_eq).max(initial=0.0)
        if resid > tol * scale:
            raise LpError(f"equality residual {resid:g} exceeds tolerance")
    if lp.a_ub is not None:
        excess = (lp.a_ub @ x - lp.b_ub).max(initial=0.0)
        if excess > tol * scale:
            raise LpError(f"inequality excess {excess:g} exceeds tolerance")
    if np.any(x < lp.lower - tol * scale) or np.any(x > lp.upper + tol * scale):
        raise LpError("bound violation in reported solution")

