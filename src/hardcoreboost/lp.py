"""Dense linear programs with equality rows, inequality rows and bounds.

Problems are stated as: maximize c @ x subject to a_eq @ x = b_eq,
a_ub @ x <= b_ub and lower <= x <= upper (extended-real bounds).  Solving
is delegated to the HiGHS dual simplex through the bindings scipy ships,
which is deterministic and handles inequality rows, bounded variables and
degenerate polytopes natively.

Every solve builds one HiGHS instance, passes it the whole program, costs
included, and runs it once, as scipy's
`linprog(method="highs", options={"presolve": False})` does, so the two
return the same vertex bit for bit, or both raise: a solve that ends
anywhere but at an optimal vertex raises LpError.  Presolve is off: on
the hard core's small dense programs it took about four fifths of each
solve.  HiGHS's feasibility tolerances are absolute, so a caller whose
rows are small scales them first, as `compute_hardcore` does.

The bindings are imported at the first solve, not with the package: a
command that solves no LP never loads `scipy.optimize`, and a scipy
without the bindings raises ImportError at that first solve.  HiGHS takes
the stacked rows [a_ub; a_eq] column-wise, as the arrays a scipy
`csc_array` would hold, built from the dense rows with numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-8
MAX_VARIABLES = 2 * 10**4


class LpError(RuntimeError):
    """A program without an optimal vertex, or a numerical failure in the backend."""


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
        if c.ndim != 1 or c.shape[0] == 0:
            raise ValueError("objective must be a nonempty vector, one entry per variable")
        if c.shape[0] > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported, got {c.shape[0]}")
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        object.__setattr__(self, "objective", c)
        nv = c.shape[0]
        for kind, a_name, b_name in (("equality", "a_eq", "b_eq"),
                                     ("inequality", "a_ub", "b_ub")):
            if getattr(self, a_name) is None:
                continue
            a = np.asarray(getattr(self, a_name), dtype=float)
            b = np.asarray(getattr(self, b_name), dtype=float)
            if a.ndim != 2 or a.shape[1] != nv or b.shape != (a.shape[0],):
                raise ValueError(f"{kind} system shape mismatch")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError(f"{kind} system must be finite")
            object.__setattr__(self, a_name, a)
            object.__setattr__(self, b_name, b)
        lo = np.zeros(nv) if self.lower is None else np.asarray(self.lower, dtype=float)
        hi = np.full(nv, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lo.shape != (nv,) or hi.shape != (nv,) or not np.all(lo <= hi):
            raise ValueError("bounds must satisfy lower <= upper, one pair per variable")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    value: float
    x: np.ndarray
    iterations: int
    # the optimal vertex's y = d value / d b, one per row, a_ub's rows then
    # a_eq's: objective - A^T y is the reduced cost, and y >= 0 on a_ub
    row_duals: np.ndarray


def solve(lp: LinearProgram) -> LpSolution:
    """Maximize lp.objective @ x over the program's feasible set.

    Returns an optimal vertex and its row duals, from a HiGHS instance of its
    own; any other outcome raises LpError naming HiGHS's model status.
    Raises ImportError if scipy lacks the HiGHS bindings.
    """
    try:
        import scipy.optimize._highspy._core as _highs
    except ImportError as exc:  # missing from older scipy releases
        raise ImportError(
            "hardcoreboost needs scipy>=1.15, whose HiGHS bindings "
            "(scipy.optimize._highspy._core) solve its linear programs"
        ) from exc
    nv = lp.n_vars
    a_ub = np.zeros((0, nv)) if lp.a_ub is None else lp.a_ub
    b_ub = np.zeros(0) if lp.b_ub is None else lp.b_ub
    a_eq = np.zeros((0, nv)) if lp.a_eq is None else lp.a_eq
    b_eq = np.zeros(0) if lp.b_eq is None else lp.b_eq
    a = np.vstack((a_ub, a_eq))
    start, index, value = _columns(a)
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = nv
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    model.col_cost_ = -lp.objective  # HiGHS minimizes
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_ = np.concatenate((np.full(b_ub.shape, -np.inf), b_eq))
    model.row_upper_ = np.concatenate((b_ub, b_eq))
    # the options scipy's front end passes for method="highs" with
    # options={"presolve": False}
    options = _highs.HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    highs = _highs._Highs()
    highs.passOptions(options)
    status = _highs.HighsModelStatus.kModelError  # HiGHS rejected the model
    if highs.passModel(model) != _highs.HighsStatus.kError:
        highs.run()
        status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise LpError(f"LP is not optimal: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.asarray(solution.col_value, dtype=float)
    _check_feasible(lp, x)
    # HiGHS minimizes -c, so its row duals are -d value / d b
    y = -np.asarray(solution.row_dual, dtype=float)
    return LpSolution(float(lp.objective @ x), x, int(highs.getInfo().simplex_iteration_count), y)


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, index, value): the nonzeros of the dense a column by column,
    rows ascending, with int32 offsets and row indices, as a scipy
    `csc_array` of a stores them (indptr, indices, data).  -0.0 is a zero."""
    at = a.T
    nonzero = at != 0.0
    start = np.zeros(at.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=start[1:])
    return start, np.nonzero(nonzero)[1].astype(np.int32), at[nonzero]


def _check_feasible(lp: LinearProgram, x: np.ndarray, tol: float = FEASIBILITY_TOL):
    """Raise LpError unless x satisfies the program within tol times 1 + its
    max-abs entry."""
    slack = tol * (1.0 + np.abs(x).max(initial=0.0))
    if lp.a_eq is not None:
        resid = np.abs(lp.a_eq @ x - lp.b_eq).max(initial=0.0)
        if resid > slack:
            raise LpError(f"equality residual {resid:g} exceeds tolerance")
    if lp.a_ub is not None:
        excess = (lp.a_ub @ x - lp.b_ub).max(initial=0.0)
        if excess > slack:
            raise LpError(f"inequality excess {excess:g} exceeds tolerance")
    if np.any(x < lp.lower - slack) or np.any(x > lp.upper + slack):
        raise LpError("bound violation in reported solution")
