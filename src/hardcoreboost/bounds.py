"""Closed-form finite-sample deviation bound calculators.

Every bound is evaluated as stated, with preconditions surfaced as validity
flags rather than exceptions; terms whose denominators contain a zero mass
are treated as absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hardcore import bounded_representation
from .losses import Loss, psi_inverse_bound


@dataclass(frozen=True)
class BoundInputs:
    m: int  # sample size
    n: int  # hypothesis count
    delta: float  # failure probability
    epsilon: float = 0.0  # empirical suboptimality
    phi0: float = 1.0  # loss value at the origin
    mu_core: float = 0.0  # core mass
    c: float = 1.0  # structural constant
    b: float = 1.0  # representation-norm bound

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not (self.m >= 1 and self.n >= 1):
            raise ValueError("m and n must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if not 0.0 <= self.mu_core <= 1.0:
            raise ValueError("core mass must lie in [0, 1]")
        if not (self.c > 0 and self.b > 0 and self.phi0 > 0):
            raise ValueError("c, b, and phi0 must be positive")


@dataclass(frozen=True)
class BoundValue:
    value: float
    valid: bool  # preconditions met


@dataclass(frozen=True)
class BoundReport:
    psi_term: float
    vc_term: float
    total: float
    delta_prime: float
    preconditions: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return all(self.preconditions.values())


def sample_split_bounds(m: int, mu_core: float, delta_prime: float) -> tuple[float, float]:
    """High-probability lower bounds on the core and complement sample counts."""
    if m < 1:
        raise ValueError("m must be >= 1")
    dev = math.sqrt(math.log(1.0 / delta_prime) / (2.0 * m))
    lower_core = max(0.0, m * (mu_core - dev))
    lower_plus = max(0.0, m * ((1.0 - mu_core) - dev))
    return lower_core, lower_plus


def vc_unbounded_bound(
    n: int,
    m_plus: float,
    epsilon: float,
    phi0: float,
    delta_prime: float,
    zero_error: bool = False,
) -> BoundValue:
    """Classification-risk bound over the complement via VC relative deviations.

    zero_error selects the sharper form available when epsilon < phi0 / m.
    Flagged invalid when m_plus < 1; an m_plus that is not positive and
    finite is an error.
    """
    if not 0.0 < m_plus < math.inf:  # NaN included
        raise ValueError("m_plus must be positive and finite")
    log_term = n * math.log(2.0 * m_plus + 1.0) + math.log(4.0 / delta_prime)
    value = 4.0 * log_term / m_plus
    if not zero_error:
        value = (
            epsilon / phi0
            + 2.0 * math.sqrt(2.0 * epsilon * log_term / (phi0 * m_plus))
            + value
        )
    return BoundValue(value, bool(m_plus >= 1.0))


def core_surrogate_bound(
    c: float, n: int, delta_prime: float, epsilon: float, m_core: float
) -> BoundValue:
    """Excess surrogate risk over the core; flagged invalid when m_core is too small."""
    valid = m_core >= c * c * (math.log(n) + math.log(6.0 / delta_prime))
    value = epsilon + c * (
        math.sqrt(math.log(n)) + 4.0 * math.sqrt(math.log(2.0 / delta_prime))
    ) / math.sqrt(m_core)
    return BoundValue(value, bool(valid))


def core_classification_bound(
    loss: Loss,
    c: float,
    n: int,
    delta_prime: float,
    epsilon: float,
    m_core: float,
    approx_error: float,
) -> BoundValue:
    """psi-inverse wrap of the core surrogate bound plus the approximation error.

    approx_error is the span-versus-measurable surrogate gap on the core and
    must be supplied by the caller.  Hinge is accepted through its identity
    psi-inverse even though it is not differentiable at 0.
    """
    if not approx_error >= 0:  # NaN included
        raise ValueError("approx_error must be nonnegative")
    inner = core_surrogate_bound(c, n, delta_prime, epsilon, m_core)
    return BoundValue(psi_inverse_bound(loss, inner.value + approx_error), inner.valid)


def full_risk_bound(inputs: BoundInputs, loss: Loss, approx_error: float = 0.0) -> BoundReport:
    """Composed classification-risk bound for the full problem, delta' = delta / 8.

    m_large_enough holds when the sample split and both composed terms are valid.
    """
    if not approx_error >= 0:  # NaN included
        raise ValueError("approx_error must be nonnegative")
    dp = inputs.delta / 8.0
    mu_c = inputs.mu_core
    mu_cc = 1.0 - mu_c

    split = True  # masses of 0 and 1 fix the counts; else each side keeps half
    if mu_c > 0 and mu_cc > 0:
        lower_core, lower_plus = sample_split_bounds(inputs.m, mu_c, dp)
        split = lower_core >= inputs.m * mu_c / 2.0 and lower_plus >= inputs.m * mu_cc / 2.0
    psi = vc = BoundValue(0.0, True)  # a side of zero mass adds no term
    if mu_c > 0:
        psi = core_classification_bound(
            loss, inputs.c, inputs.n, dp, inputs.epsilon, inputs.m * mu_c / 2.0, approx_error
        )
    if mu_cc > 0:
        vc = vc_unbounded_bound(
            inputs.n, inputs.m * mu_cc / 2.0, inputs.epsilon, inputs.phi0, dp, zero_error=True
        )
    preconditions = {
        "m_large_enough": split and psi.valid and vc.valid,
        "epsilon_small": inputs.epsilon < inputs.phi0 / inputs.m,
    }
    return BoundReport(psi.value, vc.value, psi.value + vc.value, dp, preconditions)


def _rademacher_c(lipschitz_at_b: float, b: float, phi_at_b: float) -> float:
    """The Rademacher constant c = max(2 L b sqrt(2), phi(b)).

    The b factor is kept in the Massart step R_m(span(H, b)) <= b sqrt(2 ln(n) / m).
    """
    return max(2.0 * lipschitz_at_b * b * math.sqrt(2.0), phi_at_b)


def rademacher_surrogate_deviation(
    n: int, m: int, b: float, lipschitz_at_b: float, phi_at_b: float, delta: float
) -> float:
    """Uniform |true - empirical| surrogate deviation over the l1 ball of radius b."""
    if b <= 0 or m < 1:
        raise ValueError("b must be positive and m >= 1")
    c = _rademacher_c(lipschitz_at_b, b, phi_at_b)
    return c * (math.sqrt(math.log(n)) + math.sqrt(math.log(2.0 / delta))) / math.sqrt(m)


def rademacher_constant(loss: Loss, b: float) -> tuple[float, float]:
    """(Lipschitz constant at b, phi(b)) for feeding the deviation bound."""
    return loss.max_subgradient(b), float(loss.value(b))


def constants_from_certificate(cert, fm, loss: Loss, lam) -> tuple[float, float]:
    """Estimate the structural constants (c, b) from a hard-core certificate.

    b is the l1 norm of the minimum-norm representation of lam on the core;
    c comes from the Rademacher constant formula at b.
    """
    rep = bounded_representation(fm, cert.core, np.asarray(lam, dtype=float))
    b = max(float(np.abs(rep).sum()), 1e-12)
    lip, phib = rademacher_constant(loss, b)
    return _rademacher_c(lip, b, phib), b
