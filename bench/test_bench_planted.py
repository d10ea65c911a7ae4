"""The benchmark's planted inputs: known hard core and closed-form infimum."""

import numpy as np
import pytest

from hardcoreboost import FeatureMatrix, compute_hardcore, parse_loss, surrogate_risk
from planted import planted_problem, risk_infimum
from workloads import certificate_gap

LOSSES = ("exp", "logistic", "hinge", "cone:1,2")


@pytest.mark.parametrize("core_frac", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_planted_core_is_the_hard_core(core_frac, seed):
    rng = np.random.default_rng(seed)
    x, y, core = planted_problem(16, 3, core_frac, rng)
    assert x.shape == (16, 3) and np.all(np.abs(x) <= 1.0)
    assert len(core) == 2 * round(core_frac * 8)
    cert = compute_hardcore(FeatureMatrix(x, y))
    assert cert.core.tolist() == core.tolist()
    assert cert.margin > 0


@pytest.mark.parametrize("spec", LOSSES)
@pytest.mark.parametrize("seed", range(3))
def test_infimum_matches_grid_minimum_on_the_core(spec, seed):
    rng = np.random.default_rng(seed)
    x, y, core = planted_problem(12, 2, 0.5, rng)
    loss = parse_loss(spec)
    fm = FeatureMatrix(x, y)
    axis = np.linspace(-6.0, 6.0, 241)
    grid = np.array(np.meshgrid(axis, axis)).reshape(2, -1)  # (2, points)
    per_point = fm.weights[:, None] * loss.value(-y[:, None] * (x @ grid))
    core_risk = per_point[core].sum(axis=0).min()
    full_risk = per_point.sum(axis=0).min()
    inf = risk_infimum(loss, len(core), 12)
    assert per_point[:, 5].sum() == pytest.approx(surrogate_risk(fm, grid[:, 5], loss))
    assert core_risk == pytest.approx(inf, abs=1e-12)
    assert full_risk >= inf - 1e-12


@pytest.mark.parametrize("spec", ("exp", "logistic"))
def test_infimum_is_approached_off_the_core(spec):
    rng = np.random.default_rng(3)
    x, y, core = planted_problem(40, 3, 0.5, rng)
    fm = FeatureMatrix(x, y)
    loss = parse_loss(spec)
    cert = compute_hardcore(fm)
    inf = risk_infimum(loss, len(core), 40)
    risks = [surrogate_risk(fm, t * cert.separator, loss) for t in (1.0, 10.0, 1e4)]
    assert risks[0] > risks[1] >= risks[2] >= inf
    assert risks[2] - inf < 1e-8


def test_certificate_gap_vanishes_for_a_flat_reweighting():
    p = np.zeros(10)
    p[[1, 4, 7, 8]] = 1.0
    assert certificate_gap(p, 10) == pytest.approx(0.0, abs=1e-15)
    p[4] = 0.5
    assert certificate_gap(p, 10) > 0
    assert certificate_gap(np.zeros(10), 10) == 0.0
