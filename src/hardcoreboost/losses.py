"""Convex margin losses and their calculus.

Losses are written as nondecreasing functions of z = -(margin); the built-in
family is exponential exp(z), logistic ln(1 + exp(z)), hinge max(0, 1 + z),
and nonnegative conic combinations of logistic and exponential.  Each loss is
convex, positive at the origin, and vanishes as z -> -infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._scalar import bisect_root, golden_min

# exp() arguments are clamped here to avoid silent infinities in risk sums.
EXP_CLAMP = 700.0

# Search bracket for the prediction that minimizes a conditional risk; the
# conditional risk is convex in the prediction.
PREDICTION_BRACKET = 60.0

KINDS = ("exp", "logistic", "hinge", "cone")


class UnsupportedLossError(ValueError):
    """Raised when an operation does not support the given loss kind."""


def _exp_clamped(z):
    z = np.asarray(z, dtype=float)
    saturated = bool(np.any(z > EXP_CLAMP))
    return np.exp(np.minimum(z, EXP_CLAMP)), saturated


def _cone_start(c1, c2, g):
    """ln u for the positive root u of c2 u^2 + b u - g = 0, b = c1 + c2 - g.

    Each branch takes the form without cancellation: with h = sqrt(b^2 + 4 c2 g)
    from hypot and s = (|b| + h) / 2, u = g / s for b > 0, else s / c2.  The
    logarithm of the quotient keeps every g from subnormal up to the largest
    double finite and free of overflow; g = +inf gives +inf.
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
        if self.kind not in KINDS:
            raise UnsupportedLossError(f"unknown loss kind {self.kind!r}")
        if self.kind == "cone" and not (
            0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf and self.c1 + self.c2 > 0
        ):
            raise UnsupportedLossError("cone requires finite c1, c2 >= 0 and c1 + c2 > 0")

    @property
    def value_at_origin(self) -> float:
        return float(self.value(0.0))

    @property
    def conjugate_domain_end(self) -> float:
        """sup phi' (phi*'s domain end): 1 for logistic/hinge, c1 for exp-free cone, else inf."""
        if self.kind in ("logistic", "hinge"):
            return 1.0
        return float(self.c1) if self.kind == "cone" and self.c2 == 0 else math.inf

    def value(self, z):
        """phi(z); accepts scalars or arrays, exp terms clamped at EXP_CLAMP."""
        v, _ = self.value_saturated(z)
        return v

    def value_saturated(self, z):
        """phi(z) plus a flag marking whether the exp clamp engaged."""
        za = np.asarray(z, dtype=float)
        if self.kind == "exp":
            v, sat = _exp_clamped(za)
        elif self.kind == "logistic":
            v, sat = np.logaddexp(0.0, za), False
        elif self.kind == "hinge":
            v, sat = np.maximum(0.0, 1.0 + za), False
        else:
            e, sat = _exp_clamped(za)
            v = self.c1 * np.logaddexp(0.0, za) + self.c2 * e
        return _scalar_like(v, z), sat

    def subgradient(self, z):
        """An element of the subdifferential at z.

        The hinge kink at z = -1 returns the flat-side element 0.
        """
        za = np.asarray(z, dtype=float)
        if self.kind == "exp":
            g = np.exp(np.minimum(za, EXP_CLAMP))
        elif self.kind == "logistic":
            g = expit(za)
        elif self.kind == "hinge":
            g = np.where(za > -1.0, 1.0, 0.0)
        else:
            g = self.c1 * expit(za) + self.c2 * np.exp(np.minimum(za, EXP_CLAMP))
        return _scalar_like(g, z)

    def derivatives(self, z):
        """(phi'(z), phi''(z)) from one exp or sigmoid pass; hinge has no phi''.

        phi' is bit-identical to subgradient(z).  phi'' is exp(z) for exp,
        s (1 - s) with s = sigmoid(z) for logistic, and c1 s (1 - s) + c2 exp(z)
        for the cone; exp terms are clamped at EXP_CLAMP as in subgradient.
        """
        if self.kind == "hinge":
            raise UnsupportedLossError("hinge has no second derivative")
        za = np.asarray(z, dtype=float)
        if self.kind == "exp":
            d1 = d2 = np.exp(np.minimum(za, EXP_CLAMP))
        elif self.kind == "logistic":
            d1 = expit(za)
            d2 = d1 * (1.0 - d1)
        else:
            s = expit(za)
            e = np.exp(np.minimum(za, EXP_CLAMP))
            d1 = self.c1 * s + self.c2 * e
            d2 = self.c1 * (s * (1.0 - s)) + self.c2 * e
        return _scalar_like(d1, z), _scalar_like(d2, z)

    def max_subgradient(self, z) -> float:
        """sup{|g| : g in the subdifferential at z}; the local Lipschitz constant."""
        z = float(z)
        if self.kind == "hinge":
            return 0.0 if z < -1.0 else 1.0
        return float(self.subgradient(z))

    def conjugate(self, g):
        """Fenchel conjugate phi*(g) = sup_z gz - phi(z), extended-real valued.

        Accepts a scalar or an array of any shape and returns the same shape;
        g = +inf and g outside the domain give +inf.  The two-sided cone has
        no closed form: its maximizer solves phi'(z) = g.  With u = e^z the
        unclamped equation c1 u / (1 + u) + c2 u = g is the quadratic
        c2 u^2 + (c1 + c2 - g) u - g = 0, whose positive root starts one
        elementwise bisect_root call on every finite positive entry at once;
        its Newton steps confirm that start from phi' and phi'' and handle
        the exp clamp.  An entry whose g z* passes the largest double is
        +inf.
        """
        ga = np.asarray(g, dtype=float)
        out = np.full(ga.shape, np.inf)
        if self.kind == "exp":
            dom = (ga >= 0) & (ga < np.inf)
            gd = ga[dom]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[dom] = np.where(gd > 0, gd * np.log(gd) - gd, 0.0)
        elif self.kind == "logistic":
            dom = (ga >= 0) & (ga <= 1)
            gd = ga[dom]
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = np.where(gd > 0, gd * np.log(gd), 0.0) + np.where(
                    gd < 1, (1.0 - gd) * np.log1p(-gd), 0.0
                )
            out[dom] = ent
        elif self.kind == "hinge":
            dom = (ga >= 0) & (ga <= 1)
            out[dom] = -ga[dom]
        elif self.c1 == 0:
            return self.c2 * Loss("exp").conjugate(ga / self.c2)
        elif self.c2 == 0:
            return self.c1 * Loss("logistic").conjugate(ga / self.c1)
        else:
            # phi' = c1 sigmoid + c2 exp is increasing from 0 to infinity, so
            # for g > 0 the supremum of gz - phi(z) is attained where phi'(z) = g.
            out[ga == 0] = 0.0
            pos = (ga > 0) & (ga < np.inf)
            gp = ga[pos]

            def residual(z):
                # c2 e^z overflows to +inf past ln(DBL_MAX / c2), which is
                # still the sign the search needs
                with np.errstate(over="ignore"):
                    d1, d2 = self.derivatives(z)
                return d1 - gp, d2

            zstar = bisect_root(
                residual, -EXP_CLAMP - 100.0, EXP_CLAMP + 20.0, _cone_start(self.c1, self.c2, gp)
            )
            # where g z* passes the largest double, phi*(g) is +inf
            with np.errstate(over="ignore"):
                gz = gp * zstar
            fin = np.isfinite(gz)
            gz[fin] -= self.value(zstar[fin])
            out[pos] = gz
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


def psi_inverse_bound(loss: Loss, r: float) -> float:
    """Closed-form upper bound on psi^{-1}(r).

    exp: 2 sqrt(r); logistic: 4 sqrt(r); hinge: r.  The cone value
    4 sqrt(r / (c1 + c2)) is a conservative heuristic, not a proved bound.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if loss.kind == "exp":
        return 2.0 * math.sqrt(r)
    if loss.kind == "logistic":
        return 4.0 * math.sqrt(r)
    if loss.kind == "hinge":
        return float(r)
    if loss.kind == "cone":
        return 4.0 * math.sqrt(r / (loss.c1 + loss.c2))
    raise UnsupportedLossError(f"no psi-inverse bound for {loss.kind!r}")


def _min_conditional_risk(loss: Loss, w_pos, w_neg, tol: float = 1e-10) -> float:
    """min over f in [-B, B] of w_pos phi(-f) + w_neg phi(f), by golden section.

    With w_pos = eta and w_neg = 1 - eta this is the minimal conditional risk
    H(eta); with the label masses of one instance it is that instance's share
    of the minimal surrogate risk.  B is PREDICTION_BRACKET.
    """
    _, v = golden_min(
        lambda f: w_pos * float(loss.value(-f)) + w_neg * float(loss.value(f)),
        -PREDICTION_BRACKET,
        PREDICTION_BRACKET,
        tol,
    )
    return v


def psi_numeric(loss: Loss, theta: float, tol: float = 1e-8) -> float:
    """Numeric psi-transform psi(theta) = H^-((1+theta)/2) - H((1+theta)/2).

    H(eta) is the minimal conditional risk over predictions, H^- the same
    infimum over predictions on the wrong side.  For a convex loss and
    eta >= 1/2, H^-(eta) = phi(0) (Bartlett, Jordan & McAuliffe, 2006), so only
    H is searched, for every kind.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    eta = (1.0 + theta) / 2.0
    return max(0.0, loss.value_at_origin - _min_conditional_risk(loss, eta, 1.0 - eta, tol))
