"""Empirical and restricted risk functionals.

Restricted risks are unnormalized sums of point masses over the region, so
the core and complement pieces add up exactly to the full risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import FeatureMatrix, _point_masses, _read_csv
from .losses import Loss, _min_conditional_risk


@dataclass(frozen=True)
class Sample:
    """A finite labeled dataset with point masses summing to one."""

    x: np.ndarray  # (m, d) instances
    y: np.ndarray  # (m,) labels in {-1, +1}
    weights: np.ndarray | None = None

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.x, dtype=float))
        ys = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("instances and labels must have equal length")
        object.__setattr__(self, "weights", _point_masses(ys, self.weights))

    @property
    def m(self) -> int:
        return len(self.y)


def region_to_mask(region, m: int) -> np.ndarray:
    """Normalize an index array or boolean mask to a boolean mask of length m."""
    if region is None:
        return np.ones(m, dtype=bool)
    region = np.asarray(region)
    if region.dtype == bool:
        if region.shape != (m,):
            raise ValueError("boolean region mask has wrong length")
        return region
    mask = np.zeros(m, dtype=bool)
    if region.size:
        if region.min() < 0 or region.max() >= m:
            raise ValueError("region indices out of range")
        if len(np.unique(region)) != region.size:
            raise ValueError("region indices must be distinct")
        mask[region] = True
    return mask


def margins(fm: FeatureMatrix, lam) -> np.ndarray:
    """Signed confidences y_j (H lam)(x_j)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (fm.n,):
        raise ValueError(f"weighting must have length {fm.n}")
    return fm.labels * (fm.features @ lam)


def surrogate_risk(fm: FeatureMatrix, lam, loss: Loss, region=None) -> float:
    """Mass-weighted sum of phi(-y (H lam)(x)) over the region (full if None)."""
    risk, _ = surrogate_risk_saturated(fm, lam, loss, region)
    return risk


def surrogate_risk_saturated(
    fm: FeatureMatrix, lam, loss: Loss, region=None
) -> tuple[float, bool]:
    """surrogate_risk plus a flag marking whether the exp clamp engaged.

    A clamped risk understates the true one, so it is then a lower bound.
    """
    z = -margins(fm, lam)
    mask = region_to_mask(region, fm.m)
    values, saturated = loss.value_saturated(z[mask])
    return float(fm.weights[mask] @ values), saturated


def classification_risk(fm: FeatureMatrix, lam, region=None) -> float:
    """Mass of misclassified points in the region; f(x) = 0 predicts +1."""
    mask = region_to_mask(region, fm.m)
    pred = np.where(fm.features @ np.asarray(lam, dtype=float) >= 0.0, 1.0, -1.0)
    wrong = pred != fm.labels
    return float(np.sum(fm.weights[mask & wrong]))


def _group_by_instance(sample: Sample):
    """Masses of +1 and -1 labels per distinct instance."""
    _, inverse = np.unique(sample.x, axis=0, return_inverse=True)
    k = inverse.max() + 1
    positive = sample.y > 0
    pos = np.bincount(inverse, weights=np.where(positive, sample.weights, 0.0), minlength=k)
    neg = np.bincount(inverse, weights=np.where(positive, 0.0, sample.weights), minlength=k)
    return pos, neg


def bayes_risk_discrete(sample: Sample) -> float:
    """Minimal classification risk over all predictors for a finite-support law.

    Equals the sum over distinct instances of the minority label mass.
    """
    pos, neg = _group_by_instance(sample)
    return float(np.minimum(pos, neg).sum())


def _min_surrogate_risk(pos, neg, loss: Loss, tol: float = 1e-10) -> float:
    """Sum over nonempty groups k of the minimal conditional risk at masses (pos[k], neg[k])."""
    total = 0.0
    for wp, wn in zip(pos, neg):
        if wp + wn > 0:
            total += _min_conditional_risk(loss, wp, wn, tol)
    return total


def bayes_surrogate_risk(sample: Sample, loss: Loss, tol: float = 1e-10) -> float:
    """Brute-force minimal surrogate risk over all predictors.

    Minimizes the convex conditional risk per distinct instance.
    """
    return _min_surrogate_risk(*_group_by_instance(sample), loss, tol)


def load_sample_csv(path: str) -> Sample:
    """Read a dataset CSV with header f1,...,fd,label[,weight]."""
    header, table = _read_csv(path)
    if header is None or "label" not in header:
        raise ValueError("dataset CSV must have a 'label' column")
    label_col = header.index("label")
    weight_col = header.index("weight") if "weight" in header else None
    feat_cols = [i for i in range(len(header)) if i not in (label_col, weight_col)]
    # contiguous copies: column picks are strided, and matmul rounds by layout
    weights = None if weight_col is None else table[:, weight_col].copy()
    return Sample(table[:, feat_cols].copy(), table[:, label_col].copy(), weights)
