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

# Inner search interval for the psi-transform and conditional-risk minima.
PSI_ALPHA_BRACKET = 50.0

KINDS = ("exp", "logistic", "hinge", "cone")


class UnsupportedLossError(ValueError):
    """Raised when an operation does not support the given loss kind."""


def _exp_clamped(z):
    z = np.asarray(z, dtype=float)
    saturated = bool(np.any(z > EXP_CLAMP))
    return np.exp(np.minimum(z, EXP_CLAMP)), saturated


def _scalar_like(value, z):
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
        if self.kind == "cone":
            if self.c1 < 0 or self.c2 < 0 or self.c1 + self.c2 <= 0:
                raise UnsupportedLossError("cone requires c1, c2 >= 0 and c1 + c2 > 0")

    @property
    def value_at_origin(self) -> float:
        return float(self.value(0.0))

    @property
    def differentiable_at_zero(self) -> bool:
        return self.kind != "hinge"

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
            g, _ = _exp_clamped(za)
        elif self.kind == "logistic":
            g = expit(za)
        elif self.kind == "hinge":
            g = np.where(za > -1.0, 1.0, 0.0)
        else:
            e, _ = _exp_clamped(za)
            g = self.c1 * expit(za) + self.c2 * e
        return _scalar_like(g, z)

    def max_subgradient(self, z) -> float:
        """sup{|g| : g in the subdifferential at z}; the local Lipschitz constant."""
        z = float(z)
        if self.kind == "hinge":
            return 0.0 if z < -1.0 else 1.0
        return float(self.subgradient(z))

    def conjugate(self, g):
        """Fenchel conjugate phi*(g) = sup_z gz - phi(z), extended-real valued."""
        ga = np.atleast_1d(np.asarray(g, dtype=float))
        out = np.full_like(ga, np.inf)
        if self.kind == "exp":
            dom = ga >= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                out[dom] = np.where(ga[dom] > 0, ga[dom] * np.log(ga[dom]) - ga[dom], 0.0)
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
        else:
            if self.c1 == 0:
                return self.c2 * Loss("exp").conjugate(np.asarray(g) / self.c2)
            if self.c2 == 0:
                return self.c1 * Loss("logistic").conjugate(np.asarray(g) / self.c1)
            for i, gi in enumerate(ga):
                out[i] = self._cone_conjugate_scalar(gi)
        if np.ndim(g) == 0:
            return float(out[0])
        return out

    def _cone_conjugate_scalar(self, g: float) -> float:
        # phi' = c1 sigmoid + c2 exp is increasing from 0 to infinity, so for
        # g > 0 the supremum of gz - phi(z) is attained where phi'(z) = g.
        if g < 0:
            return math.inf
        if g == 0:
            return 0.0
        zstar = bisect_root(lambda z: float(self.subgradient(z)) - g, -EXP_CLAMP - 100.0, EXP_CLAMP + 20.0)
        return g * zstar - float(self.value(zstar))


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


def _conditional_risk(loss: Loss, eta: float, alpha: float) -> float:
    return eta * float(loss.value(-alpha)) + (1.0 - eta) * float(loss.value(alpha))


def psi_numeric(loss: Loss, theta: float, tol: float = 1e-8) -> float:
    """Numeric psi-transform psi(theta) = H^-((1+theta)/2) - H((1+theta)/2).

    H(eta) is the minimal conditional risk over predictions alpha, H^- the
    same infimum restricted to predictions on the wrong side, i.e. with
    alpha * (2 eta - 1) <= 0.  Hinge is answered by its closed form |theta|;
    all other built-in kinds are differentiable at 0 as the transform requires.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if loss.kind == "hinge":
        return abs(theta)
    if not loss.differentiable_at_zero:
        raise UnsupportedLossError("psi transform needs differentiability at 0")
    eta = (1.0 + theta) / 2.0
    b = PSI_ALPHA_BRACKET
    _, h_full = golden_min(lambda a: _conditional_risk(loss, eta, a), -b, b, tol)
    # theta >= 0 gives eta >= 1/2, so the restricted side is alpha <= 0.
    _, h_minus = golden_min(lambda a: _conditional_risk(loss, eta, a), -b, 0.0, tol)
    return max(0.0, h_minus - h_full)
