"""Convex margin losses and their calculus.

Losses are written as nondecreasing functions of z = -(margin); the built-in
family is exponential exp(z), logistic ln(1 + exp(z)), hinge max(0, 1 + z),
and nonnegative conic combinations of logistic and exponential.  Each loss is
convex, positive at the origin, and vanishes as z -> -infinity.

Each base loss is one _Kernels record (_EXP, _LOGISTIC, _HINGE), where its
per-kind formulas go, the minimizer of its conditional risk among them.  The
cone c1 logistic + c2 exp is composed from the logistic and exp kernels; its
exp argument is clamped at min(EXP_CLAMP, ln(DBL_MAX / c2) - 1), which raises
the saturation flag.  Minimal conditional risks are priced at the closed-form
minimizer of Bartlett, Jordan & McAuliffe (2006) where one exists; only the
two-sided cone searches, inside the bracket its two parts' minimizers span.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from ._scalar import bisect_root, golden_min

# exp() arguments are clamped here to avoid silent infinities in risk sums.
EXP_CLAMP = 700.0

# Conditional risks are minimized over predictions in [-B, B] for this B; a
# conditional risk is convex in the prediction, so its minimizer bracket
# clipped to [-B, B] holds the minimizer there.
PREDICTION_BRACKET = 60.0


class UnsupportedLossError(ValueError):
    """Raised when an operation does not support the given loss kind."""


class _Kernels(NamedTuple):
    """One loss's kernels on float arrays; a cone's come from _cone."""

    phi: Callable  # z -> (phi(z), whether the exp clamp engaged)
    d1: Callable  # z -> phi'(z), the flat-side element at a kink
    d1_max: Callable  # z -> the largest element of the subdifferential
    d12: Callable  # z -> (phi'(z), phi''(z)) from one pass
    conj: Callable  # a base phi* on [0, sup]; the loss's phi*(g) is w conj(g / w)
    sup: float  # sup of that base phi'
    # (w_pos, w_neg) -> (lo, hi), a bracket holding the f that minimizes
    # w_pos phi(-f) + w_neg phi(f), possibly infinite
    minimizer: Callable
    w: float = 1.0


def _exp(z, clamp=EXP_CLAMP):  # exp's phi, phi' and phi''
    return np.exp(np.minimum(z, clamp))


def _exp_phi(z, clamp=EXP_CLAMP):
    return _exp(z, clamp), bool(np.any(z > clamp))


def _logistic_d12(z):
    s = expit(z)
    return s, s * (1.0 - s)


def _hinge_d12(z):
    raise UnsupportedLossError("hinge has no second derivative")


def _log_ratio(w_pos, w_neg):
    """ln w_pos - ln w_neg for masses >= 0: +-inf at one zero mass, 0 at equal ones.

    A difference of logs, not the log of a quotient, which overflows or
    underflows for far-apart masses."""
    if w_pos == w_neg:
        return 0.0
    return (math.log(w_pos) if w_pos > 0 else -math.inf) - (
        math.log(w_neg) if w_neg > 0 else -math.inf)


_quiet = np.errstate(divide="ignore", invalid="ignore")  # 0 ln 0 = 0 in the conjugates
# a base loss's minimizer is one point (Bartlett, Jordan & McAuliffe, 2006):
# ln(w_pos / w_neg) / 2 for exp, ln(w_pos / w_neg) for logistic and
# sign(w_pos - w_neg) for hinge
_EXP = _Kernels(
    _exp_phi, _exp, _exp, lambda z: (_exp(z),) * 2,
    _quiet(lambda g: np.where(g > 0, g * np.log(g) - g, 0.0)), math.inf,
    lambda wp, wn: (0.5 * _log_ratio(wp, wn),) * 2,
)
_LOGISTIC = _Kernels(
    lambda z: (np.logaddexp(0.0, z), False), expit, expit, _logistic_d12,
    _quiet(lambda g: np.where(g > 0, g * np.log(g), 0.0)
           + np.where(g < 1, (1.0 - g) * np.log1p(-g), 0.0)), 1.0,
    lambda wp, wn: (_log_ratio(wp, wn),) * 2,
)
_HINGE = _Kernels(
    lambda z: (np.maximum(0.0, 1.0 + z), False), lambda z: (z > -1.0).astype(float),
    lambda z: np.where(z < -1.0, 0.0, 1.0), _hinge_d12, lambda g: -g, 1.0,
    lambda wp, wn: (float(np.sign(wp - wn)),) * 2,
)
_BASE = {"exp": _EXP, "logistic": _LOGISTIC, "hinge": _HINGE}


def _cone(loss) -> _Kernels:
    """c1 logistic + c2 exp from the logistic and exp kernels.

    A one-sided cone's conjugate and conditional minimizer are its base's,
    the conjugate weighted; the two-sided one's conjugate maximizers solve
    phi'(z) = g, all by one bisect_root call via loss.derivatives, and its
    conditional minimizer lies between the logistic and the exp one."""
    c1, c2 = loss.c1, loss.c2
    clamp = min(EXP_CLAMP, math.log(sys.float_info.max / c2) - 1.0) if c2 > 0 else EXP_CLAMP

    def phi(z):
        # a one-sided cone's value is its base's, weighted: 0 softplus(+inf)
        # would be nan, and a clamped exp of weight 0 saturates nothing
        e, sat = _exp_phi(z, clamp) if c2 > 0 else (0.0, False)
        # softplus grows linearly, so c1 softplus passes the largest double only
        # for c1 near it; the value is then +inf
        with np.errstate(over="ignore"):
            return (c1 * _LOGISTIC.phi(z)[0] if c1 > 0 else 0.0) + c2 * e, sat

    def d1(z):
        return c1 * _LOGISTIC.d1(z) + c2 * _exp(z, clamp)

    def d12(z):
        s, s2 = _LOGISTIC.d12(z)
        e = _exp(z, clamp)
        return c1 * s + c2 * e, c1 * s2 + c2 * e

    def conj(g):  # finite g >= 0
        out = np.zeros(g.shape)
        gp = g[g > 0]

        def residual(z):
            # phi' overflows only for c1 near the largest double; +inf has the right sign
            with np.errstate(over="ignore"):
                f, fp = loss.derivatives(z)
            return f - gp, fp

        z = bisect_root(residual, -EXP_CLAMP - 100.0, EXP_CLAMP + 20.0, _cone_start(c1, c2, gp))
        with np.errstate(over="ignore"):  # where g z* passes the largest double, phi* is +inf
            gz = gp * z
        fin = np.isfinite(gz)
        gz[fin] -= loss.value(z[fin])
        out[g > 0] = gz
        return out

    def minimizer(w_pos, w_neg):
        # below both parts' minimizers both conditional risks fall, and above
        # both they rise, so the sum's minimizer lies between the two
        a, b = _LOGISTIC.minimizer(w_pos, w_neg)[0], _EXP.minimizer(w_pos, w_neg)[0]
        return min(a, b), max(a, b)

    if c2 == 0:
        return _Kernels(phi, d1, d1, d12, _LOGISTIC.conj, _LOGISTIC.sup, _LOGISTIC.minimizer, c1)
    if c1 == 0:
        return _Kernels(phi, d1, d1, d12, _EXP.conj, _EXP.sup, _EXP.minimizer, c2)
    return _Kernels(phi, d1, d1, d12, conj, math.inf, minimizer)


def _cone_start(c1, c2, g):
    """ln u for the positive root u of c2 u^2 + b u - g = 0, b = c1 + c2 - g.

    With h = sqrt(b^2 + 4 c2 g) from hypot and s = (|b| + h) / 2, u = g / s
    for b > 0, else s / c2, each free of cancellation; the log of the quotient
    is finite for every g from subnormal up to the largest double.
    """
    b = (c1 + c2) - g
    s = 0.5 * np.abs(b) + 0.5 * np.hypot(b, 2.0 * math.sqrt(c2) * np.sqrt(g))
    pos = b > 0
    return np.log(np.where(pos, g, s)) - np.log(np.where(pos, s, c2))


def _scalar_like(value, z):
    # an ndarray is decided by its ndim: np.isscalar would run the slow
    # numbers.Number ABC check on it
    if isinstance(z, np.ndarray):
        return float(value) if z.ndim == 0 else value
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class Loss:
    """Descriptor for one member of the loss family.

    kind is one of "exp", "logistic", "hinge", "cone"; cone is
    c1 * logistic + c2 * exp with c1, c2 >= 0 and c1 + c2 > 0.
    """

    kind: str
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if self.kind == "cone":
            if not (0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf and self.c1 + self.c2 > 0):
                raise UnsupportedLossError("cone requires finite c1, c2 >= 0 and c1 + c2 > 0")
            kernels = _cone(self)
        elif self.kind in _BASE:
            kernels = _BASE[self.kind]
        else:
            raise UnsupportedLossError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "_k", kernels)

    def __reduce__(self):  # a copy rebuilds its kernels
        return Loss, (self.kind, self.c1, self.c2)

    @property
    def value_at_origin(self) -> float:
        return float(self.value(0.0))

    @property
    def conjugate_domain_end(self) -> float:
        """sup phi' (phi*'s domain end): 1 for logistic/hinge, c1 for exp-free cone, else inf."""
        return float(self._k.w * self._k.sup)

    def value(self, z):
        """phi(z); accepts scalars or arrays, exp terms clamped at EXP_CLAMP."""
        return self.value_saturated(z)[0]

    def value_saturated(self, z):
        """phi(z) plus a flag marking whether the exp clamp engaged."""
        v, sat = self._k.phi(np.asarray(z, dtype=float))
        return _scalar_like(v, z), sat

    def subgradient(self, z):
        """An element of the subdifferential at z; at the hinge kink z = -1, 0."""
        return _scalar_like(self._k.d1(np.asarray(z, dtype=float)), z)

    def derivatives(self, z):
        """(phi'(z), phi''(z)) from one pass, phi' as subgradient(z); hinge has no phi''."""
        d1, d2 = self._k.d12(np.asarray(z, dtype=float))
        return _scalar_like(d1, z), _scalar_like(d2, z)

    def max_subgradient(self, z) -> float:
        """sup{|g| : g in the subdifferential at z}; the local Lipschitz constant."""
        return float(self._k.d1_max(np.asarray(float(z))))

    def conjugate(self, g):
        """Fenchel conjugate phi*(g) = sup_z gz - phi(z), extended-real valued.

        Keeps g's shape: w phi*(g / w) for the kernels' base phi* and weight w
        on [0, w sup phi'], +inf elsewhere and at g = +inf."""
        k = self._k
        ga = np.asarray(g, dtype=float)
        gw = ga / k.w
        out = np.full(ga.shape, np.inf)
        dom = (gw >= 0) & (gw <= k.sup) & (gw < np.inf)
        out[dom] = k.w * k.conj(gw[dom])
        return _scalar_like(out, g)


def parse_loss(spec: str) -> Loss:
    """Parse "exp" | "logistic" | "hinge" | "cone:<c1>,<c2>"."""
    spec = spec.strip()
    if spec in ("exp", "logistic", "hinge"):
        return Loss(spec)
    if spec.startswith("cone:"):
        parts = spec[len("cone:"):].split(",")
        if len(parts) != 2:
            raise UnsupportedLossError(f"bad cone spec {spec!r}")
        return Loss("cone", c1=float(parts[0]), c2=float(parts[1]))
    raise UnsupportedLossError(f"unknown loss spec {spec!r}")


_PSI_INVERSE = {
    "exp": lambda loss, r: 2.0 * math.sqrt(r),
    "logistic": lambda loss, r: 4.0 * math.sqrt(r),
    "hinge": lambda loss, r: float(r),
    "cone": lambda loss, r: 4.0 * math.sqrt(r / (loss.c1 + loss.c2)),
}


def psi_inverse_bound(loss: Loss, r: float) -> float:
    """Closed-form upper bound on psi^{-1}(r), one per kind in _PSI_INVERSE.

    The cone value is a conservative heuristic, not a proved bound."""
    if not r >= 0:  # NaN included
        raise ValueError("r must be nonnegative")
    return _PSI_INVERSE[loss.kind](loss, r)


def _min_conditional_risk(loss: Loss, w_pos, w_neg, tol: float = 1e-10) -> float:
    """min over f in [-B, B] of w_pos phi(-f) + w_neg phi(f), B = PREDICTION_BRACKET.

    With w_pos = eta and w_neg = 1 - eta this is the minimal conditional risk
    H(eta); with the label masses of one instance it is that instance's share
    of the minimal surrogate risk.  The loss's minimizer bracket, clipped to
    [-B, B], is golden-searched to width tol: a base loss's or one-sided
    cone's bracket is one point, priced by one probe, and only the two-sided
    cone searches, between its logistic and exp minimizers.
    """
    lo, hi = loss._k.minimizer(w_pos, w_neg)
    b = PREDICTION_BRACKET
    _, v = golden_min(
        lambda f: w_pos * float(loss.value(-f)) + w_neg * float(loss.value(f)),
        min(max(lo, -b), b),
        min(max(hi, -b), b),
        tol,
    )
    return v


def psi_numeric(loss: Loss, theta: float, tol: float = 1e-8) -> float:
    """Numeric psi-transform psi(theta) = H^-((1+theta)/2) - H((1+theta)/2).

    H(eta) is the minimal conditional risk over predictions, H^- the same
    infimum over predictions on the wrong side.  For a convex loss and
    eta >= 1/2, H^-(eta) = phi(0) (Bartlett, Jordan & McAuliffe, 2006), so
    only H is computed, by _min_conditional_risk: at its closed-form
    minimizer for exp, logistic, hinge and a one-sided cone, and by a golden
    search to width tol between the logistic and exp minimizers for a
    two-sided cone.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    eta = (1.0 + theta) / 2.0
    return max(0.0, loss.value_at_origin - _min_conditional_risk(loss, eta, 1.0 - eta, tol))
