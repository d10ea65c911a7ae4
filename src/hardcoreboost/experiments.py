"""Synthetic worlds and experiment drivers.

Covers the staggered separable construction whose max-margin solutions carry
unbounded surrogate risk, exact-summation risk reports over finite worlds,
and structural-risk-minimization consistency sweeps over the lattice family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypotheses import LatticeCellClass
from .lp import STATUS_OPTIMAL, LinearProgram, LpError, solve
from .losses import Loss
from .optimize import OptimizerConfig, coordinate_descent
from .risk import Sample, surrogate_risk


@dataclass(frozen=True)
class StaggeredWorld:
    """Countable staggered construction truncated at a finite depth.

    Pair i consists of the positive point (1 - 0.5 * 4^(2-i), 1) and the
    negative point (1, 1 - 0.3 * 4^(2-i)), each of mass 2^(-i-1); the mass
    the truncation leaves over is split evenly onto the deepest pair.
    """

    depth: int
    points: np.ndarray  # (2*depth, 2)
    labels: np.ndarray
    masses: np.ndarray

    @property
    def separator(self) -> np.ndarray:
        """The perfect zero-margin-in-the-limit separator (-1, +1)."""
        return np.array([-1.0, 1.0])

    def as_sample(self) -> Sample:
        return Sample(self.points, self.labels, self.masses)

    def surrogate_risk(self, lam, loss: Loss) -> float:
        """Exact R_phi(H lam) by summation over the support."""
        risk, _ = self.surrogate_risk_saturated(lam, loss)
        return risk

    def surrogate_risk_saturated(self, lam, loss: Loss) -> tuple[float, bool]:
        """Exact R_phi(H lam) plus a flag marking whether the exp clamp engaged."""
        m = self.labels * (self.points @ np.asarray(lam, dtype=float))
        values, saturated = loss.value_saturated(-m)
        return float(np.sum(self.masses * values)), saturated

    def classification_risk(self, lam) -> float:
        pred = np.where(self.points @ np.asarray(lam, dtype=float) >= 0.0, 1.0, -1.0)
        return float(np.sum(self.masses[pred != self.labels]))

    def misclassified_mass(self, lam, label: float | None = None) -> float:
        pred = np.where(self.points @ np.asarray(lam, dtype=float) >= 0.0, 1.0, -1.0)
        wrong = pred != self.labels
        if label is not None:
            wrong &= self.labels == label
        return float(np.sum(self.masses[wrong]))


def build_staggered(depth: int) -> StaggeredWorld:
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
    masses = np.concatenate([mass, mass])
    return StaggeredWorld(depth, points, labels, masses)


def sample_world(world: StaggeredWorld, m: int, seed: int) -> Sample:
    """m i.i.d. draws from the world's discrete law."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(world.masses), size=m, p=world.masses)
    return Sample(world.points[idx], world.labels[idx])


def max_margin_2d(sample: Sample) -> tuple[np.ndarray, float]:
    """l1-normalized max-margin direction for 2-D projection features.

    Solves max t subject to y_j <lam, x_j> >= t and |lam|_1 = 1.  A
    nonseparable sample is reported through t <= 0.
    """
    if sample.x.shape[1] != 2:
        raise ValueError("max_margin_2d expects 2-D instances")
    if len(set(sample.y)) < 2:
        raise ValueError("both labels must be present")
    a = sample.x * sample.y[:, None]  # margin_j = a_j @ lam
    m = len(sample.y)

    # variables [lam+ (2), lam- (2), t, slacks (m)]
    nv = 5 + m
    obj = np.zeros(nv)
    obj[4] = 1.0
    rows = []
    for j in range(m):
        row = np.zeros(nv)
        row[:2] = a[j]
        row[2:4] = -a[j]
        row[4] = -1.0
        row[5 + j] = -1.0
        rows.append(row)
    norm_row = np.zeros(nv)
    norm_row[:4] = 1.0
    rows.append(norm_row)
    rhs = np.concatenate([np.zeros(m), [1.0]])
    lower = np.zeros(nv)
    lower[4] = -1.0
    upper = np.full(nv, np.inf)
    upper[:4] = 1.0
    upper[4] = 1.0
    sol = solve(LinearProgram(obj, np.array(rows), rhs, lower, upper))
    if sol.status != STATUS_OPTIMAL:
        raise LpError(f"max-margin LP is {sol.status}")
    lam = sol.x[:2] - sol.x[2:4]
    return lam, float(sol.value)


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
    classification_risk: float  # true R_L(lam_hat)
    misclassified_mass: float
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
    report is returned flagged as a null finding.
    """
    if depth < 3:
        raise ValueError("depth must be >= 3 so the sample can miss tail points")
    world = build_staggered(depth)
    lam_hat = None
    retries = 0
    used_seed = seed
    for attempt in range(max_retries + 1):
        used_seed = seed + attempt
        sample = sample_world(world, m, used_seed)
        if len(set(sample.y)) < 2:
            retries += 1
            continue
        lam_try, _margin = max_margin_2d(sample)
        if world.misclassified_mass(lam_try) > 0.0:
            lam_hat = lam_try
            margin = _margin
            break
        retries += 1
    null_finding = lam_hat is None
    if null_finding:
        sample = sample_world(world, m, used_seed)
        lam_hat, margin = max_margin_2d(sample)
    rows = []
    for c in scales:
        risk_hat, sat_hat = world.surrogate_risk_saturated(float(c) * lam_hat, loss)
        risk_sep, sat_sep = world.surrogate_risk_saturated(float(c) * world.separator, loss)
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
        classification_risk=world.classification_risk(lam_hat),
        misclassified_mass=world.misclassified_mass(lam_hat),
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

    def sample(self, m: int, rng: np.random.Generator) -> Sample:
        x = rng.uniform(-1.0, 1.0, size=m)
        cell = np.minimum(((x + 1.0) * self.k / 2.0).astype(int), self.k - 1)
        probs = np.asarray(self.cell_probs)[cell]
        y = np.where(rng.uniform(size=m) < probs, 1.0, -1.0)
        return Sample(x[:, None], y)

    def bayes_risk(self) -> float:
        p = np.asarray(self.cell_probs)
        return float(np.mean(np.minimum(p, 1.0 - p)))

    def classification_risk(self, predict) -> float:
        """Exact R_L of a predictor piecewise-constant between breakpoints.

        predict maps a scalar x to a prediction value (sign >= 0 means +1).
        Exactness requires the predictor to be constant on each piece of the
        refinement of the world cells by the predictor's own breakpoints,
        which holds for lattice-cell weightings.
        """
        edges = set(np.round(self.cell_edges(), 12))
        edges |= set(np.round(predict.breakpoints(), 12)) if hasattr(predict, "breakpoints") else set()
        cuts = np.array(sorted(e for e in edges if -1.0 <= e <= 1.0))
        if cuts[0] > -1.0:
            cuts = np.concatenate([[-1.0], cuts])
        if cuts[-1] < 1.0:
            cuts = np.concatenate([cuts, [1.0]])
        total = 0.0
        probs = np.asarray(self.cell_probs)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo <= 0:
                continue
            mid = 0.5 * (lo + hi)
            cell = min(int((mid + 1.0) * self.k / 2.0), self.k - 1)
            p_pos = probs[cell]
            mass = (hi - lo) / 2.0
            pred_pos = predict(mid) >= 0.0
            total += mass * ((1.0 - p_pos) if pred_pos else p_pos)
        return float(total)


class _LatticePredictor:
    """H lam for a 1-D lattice class, exposing its constancy breakpoints."""

    def __init__(self, cls: LatticeCellClass, lam: np.ndarray):
        self.cls = cls
        self.lam = np.asarray(lam, dtype=float)

    def __call__(self, x: float) -> float:
        k = self.cls.cell_index([x])
        return 0.0 if k is None else float(self.lam[k])

    def breakpoints(self) -> np.ndarray:
        i = self.cls.resolution
        return np.arange(-i * i * 2, i * i * 2 + 1) / i


@dataclass(frozen=True)
class SweepStage:
    m: int
    class_index: int
    epsilon: float


@dataclass(frozen=True)
class SweepConfig:
    world: LatticeNoiseWorld
    stages: tuple  # of SweepStage, m increasing, epsilon decreasing
    loss: Loss = field(default_factory=lambda: Loss("logistic"))
    seed: int = 0
    replications: int = 20
    max_iters: int = 5000

    def __post_init__(self):
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
        return float(np.median(self.excess_risks))

    @property
    def p90(self) -> float:
        return float(np.quantile(self.excess_risks, 0.9))


def _train_to_suboptimality(fm, loss, epsilon, max_iters):
    """Coordinate descent until the empirical risk is epsilon-close to optimal.

    Lattice features partition the sample, so the empirical optimum splits
    per cell and is computed exactly to set the descent's target objective.
    """
    from ._scalar import golden_min

    counts = fm.features.sum(axis=0)
    opt = 0.0
    for i in range(fm.n):
        if counts[i] == 0:
            continue
        on = fm.features[:, i] > 0
        wp = float(np.sum(fm.weights[on & (fm.labels > 0)]))
        wn = float(np.sum(fm.weights[on & (fm.labels < 0)]))
        _, v = golden_min(
            lambda f: wp * float(loss.value(-f)) + wn * float(loss.value(f)),
            -60.0, 60.0, 1e-10,
        )
        opt += v
    outside = fm.features.sum(axis=1) == 0
    opt += float(np.sum(fm.weights[outside] * loss.value(0.0)))

    target = opt + epsilon
    cfg = OptimizerConfig(max_iters=max_iters, grad_tol=1e-12)
    run = coordinate_descent(fm, loss, cfg, target=target)
    return run, run.objective <= target


def consistency_sweep(cfg: SweepConfig) -> list[StageResult]:
    """Excess true classification risk per stage, across seeded replications."""
    results = []
    bayes = cfg.world.bayes_risk()
    for s_idx, stage in enumerate(cfg.stages, start=1):
        cls = LatticeCellClass(stage.class_index, 1)
        excess = []
        failures = 0
        for rep in range(cfg.replications):
            rng = np.random.default_rng((cfg.seed, s_idx, rep))
            sample = cfg.world.sample(stage.m, rng)
            fm = cls.materialize(sample)
            run, achieved = _train_to_suboptimality(fm, cfg.loss, stage.epsilon, cfg.max_iters)
            if not achieved:
                failures += 1
                continue
            predictor = _LatticePredictor(cls, run.lam)
            risk = cfg.world.classification_risk(predictor)
            excess.append(risk - bayes)
        results.append(
            StageResult(s_idx, stage.m, cls.n, stage.epsilon, np.array(excess), failures)
        )
    return results
