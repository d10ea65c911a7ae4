"""Synthetic worlds and experiment drivers.

Covers the staggered separable construction whose max-margin solutions carry
unbounded surrogate risk, exact-summation risk reports over finite worlds,
and structural-risk-minimization consistency sweeps over the lattice family,
which train each replication on its (cell, label) histogram.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .hypotheses import LatticeCellClass, ProjectionClass
from .losses import Loss
from .lp import LinearProgram, solve
from .optimize import OptimizerConfig, coordinate_descent
from .risk import Sample, _min_surrogate_risk, classification_risk, surrogate_risk_saturated

SWEEP_MAX_ITERS = 5000  # coordinate-descent budget per sweep replication


# The perfect separator of the staggered world: zero margin only in the limit.
STAGGERED_SEPARATOR = np.array([-1.0, 1.0])
STAGGERED_SEPARATOR.flags.writeable = False


def build_staggered(depth: int) -> Sample:
    """Countable staggered construction truncated at a finite depth, as a weighted sample.

    Pair i consists of the positive point (1 - 0.5 * 4^(2-i), 1) and the
    negative point (1, 1 - 0.3 * 4^(2-i)), each of mass 2^(-i-1); the mass
    the truncation leaves over is split evenly onto the deepest pair.  Rows
    are the depth positives, then the depth negatives.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    idx = np.arange(1, depth + 1)
    scale = 4.0 ** (2.0 - idx)
    pos = np.column_stack([1.0 - 0.5 * scale, np.ones(depth)])
    neg = np.column_stack([np.ones(depth), 1.0 - 0.3 * scale])
    mass = 2.0 ** (-idx - 1.0)
    mass[-1] += 2.0 ** (-depth) / 2.0  # renormalize onto the deepest pair
    points = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(depth), -np.ones(depth)])
    return Sample(points, labels, np.concatenate([mass, mass]))


def sample_world(world: Sample, m: int, seed: int) -> Sample:
    """m i.i.d. draws from the weighted sample's discrete law."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(world.m, size=m, p=world.weights)
    return Sample(world.x[idx], world.y[idx])


def max_margin_2d(sample: Sample) -> tuple[np.ndarray, float]:
    """l1-normalized max-margin direction for 2-D projection features.

    Solves max t subject to y_j <lam, x_j> >= t, |lam|_1 <= 1 and
    -1 <= t <= 1, over the five variables [lam+, lam-, t] with
    lam = lam+ - lam-, and returns (lam, t).  A nonseparable sample is
    reported through t <= 0.  The hard-core separator is the core LP's
    dual, whose margin can be smaller.
    """
    if sample.x.shape[1] != 2:
        raise ValueError("max_margin_2d expects 2-D instances")
    if len(set(sample.y)) < 2:
        raise ValueError("both labels must be present")
    a = sample.x * sample.y[:, None]
    # t - margin_j <= 0 per point, then sum(lam+ + lam-) <= 1
    a_ub = np.vstack([np.hstack([-a, a, np.ones((a.shape[0], 1))]), [1.0, 1.0, 1.0, 1.0, 0.0]])
    b_ub = np.append(np.zeros(a.shape[0]), 1.0)
    lower = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
    objective = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    sol = solve(LinearProgram(objective, lower=lower, upper=np.ones(5), a_ub=a_ub, b_ub=b_ub))
    return sol.x[:2] - sol.x[2:4], float(sol.value)


@dataclass(frozen=True)
class ImpossibilityRow:
    scale: float
    risk_maxmargin: float  # true R_phi(c * H lam_hat)
    risk_separator: float  # true R_phi(c * H lam_bar)
    saturated: bool  # the exp clamp engaged in either risk, which is then a lower bound


@dataclass(frozen=True)
class ImpossibilityReport:
    depth: int
    m: int
    loss_kind: str
    seed: int
    retries: int
    null_finding: bool  # sampled lam_hat classified the whole world correctly
    max_margin: np.ndarray
    margin: float
    classification_risk: float  # true R_L(lam_hat), the misclassified world mass
    rows: tuple[ImpossibilityRow, ...]


def impossibility_report(
    depth: int,
    m: int,
    scales,
    loss: Loss,
    seed: int,
    max_retries: int = 20,
) -> ImpossibilityReport:
    """Sample, fit the max-margin direction, and tabulate exact world risks.

    Retries with offset seeds while the sampled direction happens to classify
    the full world correctly (no tail points missed); after max_retries the
    last fitted direction is reported, flagged as a null finding.  Raises
    ValueError when no draw had both labels.
    """
    if depth < 3:
        raise ValueError("depth must be >= 3 so the sample can miss tail points")
    world = build_staggered(depth)
    fm = ProjectionClass(2).materialize(world)
    lam_hat = None
    retries = 0
    for attempt in range(max_retries + 1):
        sample = sample_world(world, m, seed + attempt)
        if len(set(sample.y)) < 2:
            retries += 1
            continue
        lam_hat, margin = max_margin_2d(sample)
        used_seed = seed + attempt
        wrong_mass = classification_risk(fm, lam_hat)
        if wrong_mass > 0.0:
            break
        retries += 1
    if lam_hat is None:
        raise ValueError(f"none of {max_retries + 1} draws of m={m} points had both labels")
    null_finding = retries > max_retries
    rows = []
    for c in scales:
        # near the largest double a margin overflows to +-inf, which the loss
        # kernels take as they take any argument past the exp clamp
        with np.errstate(over="ignore"):
            risk_hat, sat_hat = surrogate_risk_saturated(fm, float(c) * lam_hat, loss)
            risk_sep, sat_sep = surrogate_risk_saturated(fm, float(c) * STAGGERED_SEPARATOR, loss)
        rows.append(ImpossibilityRow(float(c), risk_hat, risk_sep, sat_hat or sat_sep))
    return ImpossibilityReport(
        depth=depth,
        m=m,
        loss_kind=loss.kind,
        seed=used_seed,
        retries=retries,
        null_finding=null_finding,
        max_margin=lam_hat,
        margin=float(margin),
        classification_risk=wrong_mass,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class LatticeNoiseWorld:
    """1-D world: X uniform on [-1, 1), P(y = +1 | x) constant per equal cell."""

    cell_probs: tuple

    def __post_init__(self):
        if not self.cell_probs or any(not 0.0 <= p <= 1.0 for p in self.cell_probs):
            raise ValueError("cell probabilities must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.cell_probs)

    def cell_edges(self) -> np.ndarray:
        return -1.0 + 2.0 * np.arange(self.k + 1) / self.k

    def _cell(self, x: np.ndarray) -> np.ndarray:
        """World cell of each x in [-1, 1)."""
        return np.minimum(((x + 1.0) * self.k / 2.0).astype(int), self.k - 1)

    def sample(self, m: int, rng: np.random.Generator) -> Sample:
        x = rng.uniform(-1.0, 1.0, size=m)
        probs = np.asarray(self.cell_probs)[self._cell(x)]
        y = np.where(rng.uniform(size=m) < probs, 1.0, -1.0)
        return Sample(x[:, None], y)

    def bayes_risk(self) -> float:
        p = np.asarray(self.cell_probs)
        return float(np.mean(np.minimum(p, 1.0 - p)))

    def classification_risk(self, cls: LatticeCellClass, lam) -> float:
        """Exact R_L of H lam for a 1-D lattice class; H lam >= 0 predicts +1.

        The world edges and the lattice edges inside (-1, 1) cut [-1, 1) into
        the joint partition, on whose pieces both P(y = +1 | x) and H lam are
        constant; the risk sums each piece's mass times its miss probability.
        """
        lam = np.asarray(lam, dtype=float)
        if cls.dim != 1 or lam.shape != (cls.n,):
            raise ValueError(f"need a 1-D lattice class and a weighting of length {cls.n}")
        i = cls.resolution
        cuts = np.union1d(self.cell_edges(), np.arange(1 - i, i) / i)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        p_pos = np.asarray(self.cell_probs)[self._cell(mids)]
        pred_pos = lam[cls.cells(mids[:, None])] >= 0.0
        miss = np.where(pred_pos, 1.0 - p_pos, p_pos)
        return float(np.sum(np.diff(cuts) / 2.0 * miss))


@dataclass(frozen=True)
class SweepStage:
    m: int
    class_index: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


@dataclass(frozen=True)
class SweepConfig:
    world: LatticeNoiseWorld
    stages: tuple  # of SweepStage, m increasing, epsilon decreasing
    loss: Loss = field(default_factory=lambda: Loss("logistic"))
    seed: int = 0
    replications: int = 20

    def __post_init__(self):
        # a bool is an Integral, but True is no replication count
        if not (isinstance(self.replications, numbers.Integral)
                and not isinstance(self.replications, bool) and self.replications >= 1):
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")
        ms = [s.m for s in self.stages]
        eps = [s.epsilon for s in self.stages]
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("stage sample sizes must strictly increase")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("stage suboptimalities must strictly decrease")


def default_schedule(stages: int = 4) -> tuple:
    """m_i = 250 * 4^(i-1), class index i, epsilon_i = 1/m_i."""
    out = []
    for i in range(1, stages + 1):
        m = 250 * 4 ** (i - 1)
        out.append(SweepStage(m, i, 1.0 / m))
    return tuple(out)


@dataclass(frozen=True)
class StageResult:
    stage: int
    m: int
    class_size: int
    epsilon: float
    excess_risks: np.ndarray
    failures: int  # replications where the optimizer missed the tolerance

    @property
    def median(self) -> float:
        """nan when every replication failed."""
        return float(np.median(self.excess_risks)) if self.excess_risks.size else np.nan

    @property
    def p90(self) -> float:
        """nan when every replication failed."""
        return float(np.quantile(self.excess_risks, 0.9)) if self.excess_risks.size else np.nan


def consistency_sweep(cfg: SweepConfig) -> list[StageResult]:
    """Excess true classification risk per stage, across seeded replications.

    Lattice features are cell indicators, so the empirical risk depends on a
    sample only through the mass of each (cell, label) pair.  One histogram
    over 2 cell + (y > 0) gives a replication its rows, one per nonempty bin
    carrying the bin's mass, and its target: epsilon above the empirical
    optimum, the per-cell minimal conditional risks summed.  A replication
    whose coordinate descent misses the target counts as a failure.
    """
    results = []
    bayes = cfg.world.bayes_risk()
    opt_cfg = OptimizerConfig(max_iters=SWEEP_MAX_ITERS, grad_tol=1e-12)
    for s_idx, stage in enumerate(cfg.stages, start=1):
        cls = LatticeCellClass(stage.class_index, 1)
        excess, failures = [], 0
        for rep in range(cfg.replications):
            sample = cfg.world.sample(stage.m, np.random.default_rng((cfg.seed, s_idx, rep)))
            keys = 2 * cls.cells(sample.x) + (sample.y > 0)
            mass = np.bincount(keys, weights=sample.weights, minlength=2 * cls.n)
            bins = np.flatnonzero(mass)
            point = np.empty(mass.size, int)
            point[keys] = np.arange(stage.m)  # some point of each nonempty bin
            rows = point[bins]
            fm = cls.materialize(Sample(sample.x[rows], sample.y[rows], mass[bins]))
            target = _min_surrogate_risk(mass[1::2], mass[0::2], cfg.loss) + stage.epsilon
            run = coordinate_descent(fm, cfg.loss, opt_cfg, target=target)
            if not run.objective <= target:
                failures += 1
                continue
            excess.append(cfg.world.classification_risk(cls, run.lam) - bayes)
        results.append(
            StageResult(s_idx, stage.m, cls.n, stage.epsilon, np.array(excess), failures)
        )
    return results
