"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Lines are emitted with capture disabled so they reach the terminal even
without -s.
"""

import math
import time

import numpy as np
import pytest
from conftest import decorrelation_support_oracle, grid_min_risk, random_sign_problem

import hardcoreboost as hb
from hardcoreboost.experiments import STAGGERED_SEPARATOR
from hardcoreboost.losses import Loss


@pytest.fixture
def report(capfd):
    def _report(number: int, description: str, ok: bool, detail: str = ""):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        print(line)
        assert ok, line

    return _report


def _battery(count=200, seed=2024):
    rng = np.random.default_rng(seed)
    return [random_sign_problem(rng) for _ in range(count)]


def test_acceptance_1_hardcore_oracle_equivalence(report):
    start = time.time()
    mismatches = 0
    for fm in _battery():
        cert = hb.compute_hardcore(fm)
        oracle = decorrelation_support_oracle(fm.correlations)
        if not np.array_equal(cert.core, oracle):
            mismatches += 1
            continue
        # separator side confirms the partition: positive margins exactly
        # off the core (certificate construction verifies the core side)
        if cert.core.size < fm.m and not cert.margin > 0:
            mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "hard-core set matches vertex-enumeration oracle on 200 problems",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_acceptance_2_dichotomy(report):
    violations = 0
    for i, fm in enumerate(_battery()):
        cert = hb.compute_hardcore(fm)
        rep = hb.verify_dichotomy(fm, cert.core, trials=1000, seed=i)
        violations += rep.violations
    report(
        2,
        "abstain-or-err dichotomy holds for 1000 random weightings per problem",
        violations == 0,
        f"{violations} violations",
    )


def test_acceptance_3_weak_duality_certificate(report):
    fm = hb.FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    cert = hb.compute_hardcore(fm)
    gap = hb.suboptimality_certificate(fm, Loss("exp"), np.zeros(1), cert)
    tight = abs(gap) <= 1e-9
    rng = np.random.default_rng(7)
    sound = True
    for _ in range(50):
        prob = random_sign_problem(rng)
        c = hb.compute_hardcore(prob)
        lam = rng.normal(size=prob.n)
        for loss in (Loss("exp"), Loss("logistic"), Loss("hinge")):
            scale = rng.uniform(0.1, 1.0)
            dual = hb.dual_lower_bound(prob, loss, scale * c.p)
            primal = hb.surrogate_risk(prob, lam, loss)
            if dual > primal + 1e-9:
                sound = False
    report(
        3,
        "duplicated-point certificate is tight and weak duality never violated",
        tight and sound,
        f"gap={gap:.2e}",
    )


def test_acceptance_4_optimizer_oracle_contract(report):
    rho = 1e-2
    rng = np.random.default_rng(41)
    failures = []
    for k in range(20):
        fm = random_sign_problem(rng, m_max=6, n_max=2)
        if fm.n == 1:
            fm = hb.FeatureMatrix(
                np.hstack([fm.features, np.zeros((fm.m, 1))]), fm.labels
            )
        opt_exp = grid_min_risk(fm, Loss("exp"))
        run = hb.coordinate_descent(fm, Loss("exp"), hb.OptimizerConfig(max_iters=5000))
        if run.objective > opt_exp + rho:
            failures.append((k, "coordinate"))
        opt_h = grid_min_risk(fm, Loss("hinge"))
        run_h = hb.subgradient_descent(
            fm,
            Loss("hinge"),
            hb.OptimizerConfig(method="subgradient", max_iters=10**5),
        )
        if run_h.objective > opt_h + rho:
            failures.append((k, "subgradient"))
    fm3 = hb.FeatureMatrix(np.ones((3, 1)), np.array([1.0, 1.0, -1.0]))
    ref = hb.coordinate_descent(fm3, Loss("exp"), hb.OptimizerConfig(max_iters=500))
    ref_ok = abs(ref.objective - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-6
    report(
        4,
        "both oracles reach rho-suboptimality; coordinate descent hits the "
        "closed-form reference",
        not failures and ref_ok,
        f"failures={failures}, ref_err={abs(ref.objective - 2 * math.sqrt(2) / 3):.1e}",
    )


def test_acceptance_5_impossibility_reproduction(report):
    start = time.time()
    loss = Loss("exp")
    depth = 10
    world = hb.build_staggered(depth)
    fm = hb.ProjectionClass(2).materialize(world)
    # The claim is a limit in the scale, and the world's smallest separator
    # margin is 0.3 * 4^(2 - depth); scaling by 4^(depth + 1) puts it at 19.2
    # at every depth, where the separator's risk has decayed, whatever the
    # sample.  A fixed scale such as 32 is too small at depth 10: the
    # separator's risk there is still 0.09, and the misclassified tail point
    # (mass 2^-depth) is too light to outweigh the rest of the risk.
    scale = 4.0 ** (depth + 1)
    # All separator exponents are negative, so its risk is never clamped; a
    # clamped value would understate it and could not witness the decay.
    sep_risk, sep_saturated = hb.surrogate_risk_saturated(fm, scale * STAGGERED_SEPARATOR, loss)
    sep_ok = sep_risk < 1e-3 and not sep_saturated
    events = 0
    ratio_failures = 0
    saturated = 0
    for seed in range(50):
        sample = hb.sample_world(world, 20, seed=seed)
        if len(set(sample.y)) < 2:
            continue
        lam_hat, _ = hb.max_margin_2d(sample)
        if hb.classification_risk(fm, lam_hat) > 0.0:
            events += 1
            r1, _ = hb.surrogate_risk_saturated(fm, lam_hat, loss)
            # Exponents past EXP_CLAMP are capped, which only lowers each
            # term: a clamped scaled risk is a lower bound on the true one,
            # so exceeding ten times the unscaled risk still witnesses the
            # divergence.
            r_scaled, clamped = hb.surrogate_risk_saturated(fm, scale * lam_hat, loss)
            saturated += clamped
            if not r_scaled > 10.0 * r1:
                ratio_failures += 1
    elapsed = time.time() - start
    ok = events >= 0.6 * 50 and ratio_failures == 0 and sep_ok and elapsed < 30.0
    report(
        5,
        "scaled max-margin risk diverges in every misclassification event",
        ok,
        f"scale={scale:.3g}, events={events}/50, "
        f"ratio_failures={ratio_failures}, saturated={saturated}/{events}, "
        f"separator_risk={sep_risk:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_6_calibration_inequality(report):
    rng = np.random.default_rng(6)
    passes = 0
    total = 0
    for loss in (Loss("exp"), Loss("logistic")):
        for _ in range(50):
            k = int(rng.integers(2, 5))
            table = np.eye(k)
            rows, labels, weights, feat_rows = [], [], [], []
            raw = rng.uniform(0.05, 1.0, size=(k, 2))
            raw /= raw.sum()
            for i in range(k):
                for sign, w in ((1.0, raw[i, 0]), (-1.0, raw[i, 1])):
                    rows.append([float(i)])
                    labels.append(sign)
                    weights.append(w)
                    feat_rows.append(table[i])
            s = hb.Sample(np.array(rows), np.array(labels), np.array(weights))
            fm = hb.ExplicitClass(np.array(feat_rows)).materialize(s)
            lam = rng.normal(scale=2, size=fm.n)
            excess_l = hb.classification_risk(fm, lam) - hb.bayes_risk_discrete(s)
            excess_phi = hb.surrogate_risk(fm, lam, loss) - hb.bayes_surrogate_risk(s, loss)
            theta = min(max(excess_l, 0.0), 1.0)
            total += 1
            if hb.psi_numeric(loss, theta) <= excess_phi + 1e-6:
                passes += 1
    report(
        6,
        "psi calibration inequality holds on random finite distributions",
        passes == total,
        f"{passes}/{total}",
    )


def test_acceptance_7_deviation_bound_validity(report):
    rng = np.random.default_rng(70)
    support = rng.uniform(-1, 1, size=(16, 4))
    labels = rng.choice([-1.0, 1.0], size=16)
    probs = rng.dirichlet(np.ones(16))
    loss = Loss("hinge")
    lam = rng.normal(size=4)
    lam /= np.abs(lam).sum()
    true_fm = hb.FeatureMatrix(support, labels, probs)
    true_risk = hb.surrogate_risk(true_fm, lam, loss)
    lip, phib = hb.rademacher_constant(loss, 1.0)
    bound = hb.rademacher_surrogate_deviation(4, 400, 1.0, lip, phib, 0.1)
    violations = 0
    for _ in range(500):
        idx = rng.choice(16, size=400, p=probs)
        emp = hb.FeatureMatrix(support[idx], labels[idx])
        if abs(hb.surrogate_risk(emp, lam, loss) - true_risk) > bound:
            violations += 1
    report(
        7,
        "surrogate deviation bound violated in at most 15% of 500 resamples",
        violations <= 75,
        f"{violations}/500 violations, bound={bound:.3f}",
    )


def test_acceptance_8_lsrm_consistency_trend(report):
    start = time.time()
    world = hb.LatticeNoiseWorld((0.8, 0.2, 0.8, 0.2))
    cfg = hb.SweepConfig(
        world=world,
        stages=hb.default_schedule(4),
        loss=Loss("logistic"),
        seed=8,
        replications=20,
    )
    results = hb.consistency_sweep(cfg)
    final = results[-1]
    hit = int(np.sum(final.excess_risks <= 0.05))
    rate_ok = hit >= 18 and len(final.excess_risks) == 20
    medians = [r.median for r in results]
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-12)
    elapsed = time.time() - start
    report(
        8,
        "final-stage excess risk small in >= 90% of replications, medians "
        "nonincreasing with at most one inversion",
        rate_ok and inversions <= 1 and elapsed < 600.0,
        f"hit={hit}/20, medians={['%.3f' % v for v in medians]}, "
        f"inversions={inversions}, {elapsed:.0f}s",
    )


def test_acceptance_9_bound_calculator_arithmetic(report):
    inputs = hb.BoundInputs(m=10**6, n=8, delta=0.08, mu_core=0.5, c=2.0)
    worked = hb.full_risk_bound(inputs, Loss("hinge"))
    value_ok = abs(worked.total - 0.04438) <= 1e-4
    loss = Loss("hinge")
    mono_ok = True
    totals_m = [
        hb.full_risk_bound(
            hb.BoundInputs(m=m, n=8, delta=0.08, mu_core=0.5, c=2.0), loss
        ).total
        for m in (10**4, 10**5, 10**6, 10**7)
    ]
    mono_ok &= all(b < a for a, b in zip(totals_m, totals_m[1:]))
    totals_n = [
        hb.full_risk_bound(
            hb.BoundInputs(m=10**6, n=n, delta=0.08, mu_core=0.5, c=2.0), loss
        ).total
        for n in (2, 4, 8, 16)
    ]
    mono_ok &= all(b > a for a, b in zip(totals_n, totals_n[1:]))
    totals_d = [
        hb.full_risk_bound(
            hb.BoundInputs(m=10**6, n=8, delta=d, mu_core=0.5, c=2.0), loss
        ).total
        for d in (0.01, 0.04, 0.16)
    ]
    mono_ok &= all(b < a for a, b in zip(totals_d, totals_d[1:]))
    totals_e = [
        hb.full_risk_bound(
            hb.BoundInputs(m=10**6, n=8, delta=0.08, mu_core=0.5, c=2.0, epsilon=e),
            loss,
        ).total
        for e in (0.0, 1e-8, 1e-7)
    ]
    mono_ok &= all(b > a for a, b in zip(totals_e, totals_e[1:]))
    report(
        9,
        "worked bound value 0.04438 within 1e-4 and monotonicity sweeps pass",
        value_ok and mono_ok,
        f"total={worked.total:.6f}",
    )
