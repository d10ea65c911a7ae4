import itertools
import math

import numpy as np
import pytest

from hardcoreboost import (
    BoundInputs,
    BoundValue,
    FeatureMatrix,
    compute_hardcore,
    constants_from_certificate,
    core_classification_bound,
    core_surrogate_bound,
    full_risk_bound,
    rademacher_constant,
    rademacher_surrogate_deviation,
    sample_split_bounds,
    surrogate_risk,
    vc_unbounded_bound,
)
from hardcoreboost.losses import Loss, parse_loss, psi_inverse_bound


class TestSampleSplit:
    def test_zero_log_boundary(self):
        lo_c, lo_p = sample_split_bounds(100, 1.0, 1.0 - 1e-15)
        assert lo_c == pytest.approx(100.0, abs=1e-3)

    def test_worked_example(self):
        lo_c, _ = sample_split_bounds(800, 0.5, 0.01)
        expected = 800 * (0.5 - math.sqrt(math.log(100.0) / 1600.0))
        assert lo_c == pytest.approx(expected, abs=1e-9)
        assert lo_c == pytest.approx(357.1, abs=0.1)

    def test_clamped_at_zero(self):
        lo_c, _ = sample_split_bounds(100, 0.0, 0.1)
        assert lo_c == 0.0


class TestVcBound:
    def test_zero_error_form(self):
        n, m_plus, dp = 3, 500, 0.02
        expected = 4 * (n * math.log(2 * m_plus + 1) + math.log(4 / dp)) / m_plus
        assert vc_unbounded_bound(n, m_plus, 0.0, 1.0, dp, zero_error=True).value == pytest.approx(
            expected
        )

    def test_worked_example(self):
        v = vc_unbounded_bound(2, 1000, 0.0, 1.0, 0.0125, zero_error=True).value
        assert v == pytest.approx(0.08389, abs=1e-4)

    def test_general_form_reduces_at_zero_epsilon(self):
        a = vc_unbounded_bound(2, 1000, 0.0, 1.0, 0.0125, zero_error=False).value
        b = vc_unbounded_bound(2, 1000, 0.0, 1.0, 0.0125, zero_error=True).value
        assert a == pytest.approx(b)

    def test_monotone_in_m_plus(self):
        vals = [vc_unbounded_bound(3, m, 0.0, 1.0, 0.05, True).value for m in (100, 400, 1600)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize(
        "n, m_plus, epsilon, phi0, dp, value",
        [(3, 250, 0.01, 1.0, 0.01, 0.49305923343489083),
         (2, 1000, 1e-3, 0.5, 0.0125, 0.10420219931197292),
         (6, 1.5, 0.2, 1.0, 0.05, 37.74666377736313)],
    )
    def test_general_form_is_unchanged(self, n, m_plus, epsilon, phi0, dp, value):
        # the values of the general form when it returned a bare float
        assert vc_unbounded_bound(n, m_plus, epsilon, phi0, dp).value == value

    def test_precondition_flag(self):
        # under one complement point the term is still evaluated, flagged invalid
        for zero_error in (True, False):
            assert not vc_unbounded_bound(2, 0.5, 1e-3, 1.0, 0.01, zero_error).valid
            assert vc_unbounded_bound(2, 1.0, 1e-3, 1.0, 0.01, zero_error).valid

    @pytest.mark.parametrize("m_plus", [0.0, -1.0, math.nan, math.inf])
    def test_domain_error(self, m_plus):
        with pytest.raises(ValueError, match="m_plus"):
            vc_unbounded_bound(2, m_plus, 0.0, 1.0, 0.01)


class TestCoreSurrogateBound:
    def test_unit_arithmetic(self):
        # ln n = 0 and ln(2/delta') = 1 makes the deviation term c * 4 / sqrt(m_C)
        dp = 2.0 / math.e
        out = core_surrogate_bound(1.0, 1, dp, 0.0, 16.0)
        assert out.value == pytest.approx(1.0)

    def test_epsilon_additivity(self):
        dp = 0.05
        base = core_surrogate_bound(1.0, 4, dp, 0.0, 100.0).value
        assert core_surrogate_bound(1.0, 4, dp, 0.1, 100.0).value == pytest.approx(base + 0.1)

    def test_quadruple_m_halves_deviation(self):
        dp = 0.05
        a = core_surrogate_bound(1.0, 4, dp, 0.0, 100.0).value
        b = core_surrogate_bound(1.0, 4, dp, 0.0, 400.0).value
        assert b == pytest.approx(a / 2.0)

    def test_precondition_flag(self):
        assert not core_surrogate_bound(10.0, 100, 0.01, 0.0, 10.0).valid
        assert core_surrogate_bound(1.0, 2, 0.1, 0.0, 1000.0).valid

    @pytest.mark.parametrize("m_core", [0.0, -1.0, math.nan, math.inf])
    def test_domain_error(self, m_core):
        # m * mu_core / 2 underflows to 0 for a subnormal mu_core
        with pytest.raises(ValueError, match="m_core"):
            core_surrogate_bound(1.0, 2, 0.1, 0.0, m_core)


class TestCoreClassificationBound:
    def test_hinge_identity(self):
        dp = 0.05
        inner = core_surrogate_bound(1.0, 4, dp, 0.0, 100.0).value
        out = core_classification_bound(Loss("hinge"), 1.0, 4, dp, 0.0, 100.0, 0.0)
        assert out.value == pytest.approx(inner)

    def test_exp_psi_wrap(self):
        # inner bound r maps to 2 sqrt(r)
        out = core_classification_bound(Loss("exp"), 0.02, 1, 2.0 / math.e, 0.0, 4.0, 0.0)
        inner = core_surrogate_bound(0.02, 1, 2.0 / math.e, 0.0, 4.0).value
        assert out.value == pytest.approx(2.0 * math.sqrt(inner))

    def test_zero_inner_zero(self):
        out = core_classification_bound(Loss("exp"), 1e-12, 2, 0.5, 0.0, 1e12, 0.0)
        assert out.value == pytest.approx(0.0, abs=1e-5)

    def test_negative_approx_error_rejected(self):
        with pytest.raises(ValueError):
            core_classification_bound(Loss("exp"), 1.0, 2, 0.1, 0.0, 100.0, -0.1)
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="approx_error"):
                core_classification_bound(Loss("exp"), 1.0, 2, 0.1, 0.0, 100.0, bad)
            with pytest.raises(ValueError, match="approx_error"):
                full_risk_bound(BoundInputs(m=10, n=2, delta=0.1), Loss("exp"), bad)


class TestFullRiskBound:
    @pytest.mark.parametrize("delta", [5e-324, 1e-323, 2e-323])
    def test_delta_whose_eighth_underflows_rejected(self, delta):
        # delta' = delta / 8 is 0, and ln(4 / delta') would divide by zero
        with pytest.raises(ValueError, match="delta"):
            full_risk_bound(BoundInputs(m=1000, n=2, delta=delta), Loss("exp"))

    def test_tiny_normal_delta_is_a_bound(self):
        report = full_risk_bound(BoundInputs(m=1000, n=2, delta=1e-300), Loss("exp"))
        assert report.delta_prime == 1e-300 / 8.0 and math.isfinite(report.total)

    def test_worked_example(self):
        inputs = BoundInputs(m=10**6, n=8, delta=0.08, mu_core=0.5, c=2.0)
        report = full_risk_bound(inputs, Loss("hinge"))
        assert report.delta_prime == pytest.approx(0.01)
        assert report.total == pytest.approx(0.04438, abs=1e-4)
        assert report.psi_term == pytest.approx(0.0426, abs=1e-3)
        assert report.vc_term == pytest.approx(0.001775, abs=1e-5)
        assert report.valid

    def test_zero_core_mass(self):
        inputs = BoundInputs(m=1000, n=4, delta=0.1, mu_core=0.0)
        report = full_risk_bound(inputs, Loss("hinge"))
        assert report.psi_term == 0.0
        assert report.vc_term > 0.0

    def test_full_core_mass(self):
        inputs = BoundInputs(m=10**6, n=4, delta=0.1, mu_core=1.0)
        report = full_risk_bound(inputs, Loss("hinge"))
        assert report.vc_term == 0.0
        assert report.psi_term > 0.0

    def test_monotonicity_sweeps(self):
        base = dict(n=8, delta=0.08, mu_core=0.5, c=2.0)
        loss = Loss("hinge")
        ms = [10**4, 10**5, 10**6, 10**7]
        totals = [full_risk_bound(BoundInputs(m=m, **base), loss).total for m in ms]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        ns = [2, 4, 8, 16]
        totals_n = [
            full_risk_bound(
                BoundInputs(m=10**6, n=n, delta=0.08, mu_core=0.5, c=2.0), loss
            ).total
            for n in ns
        ]
        assert all(b > a for a, b in zip(totals_n, totals_n[1:]))
        deltas = [0.01, 0.04, 0.16]
        totals_d = [
            full_risk_bound(
                BoundInputs(m=10**6, n=8, delta=d, mu_core=0.5, c=2.0), loss
            ).total
            for d in deltas
        ]
        assert all(b < a for a, b in zip(totals_d, totals_d[1:]))
        eps = [0.0, 1e-8, 1e-7]
        totals_e = [
            full_risk_bound(
                BoundInputs(m=10**6, n=8, delta=0.08, mu_core=0.5, c=2.0, epsilon=e),
                loss,
            ).total
            for e in eps
        ]
        assert all(b > a for a, b in zip(totals_e, totals_e[1:]))

    def test_composition_consistency(self):
        # with both masses positive the total is exactly psi-wrap plus VC term
        inputs = BoundInputs(m=10**5, n=4, delta=0.1, mu_core=0.3, c=1.5)
        loss = Loss("exp")
        report = full_risk_bound(inputs, loss)
        assert report.total == pytest.approx(report.psi_term + report.vc_term, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs, spec, psi_term, vc_term",
        [
            # core mass 0: no psi term
            (dict(m=1000, n=4, delta=0.1, mu_core=0.0), "hinge", 0.0, 0.2672267209044372),
            # core mass 1: no VC term
            (dict(m=10**6, n=4, delta=0.1, mu_core=1.0, c=2.0), "exp",
             0.33951675432336725, 0.0),
            # m(1 - mu) / 2 < 1, where vc_unbounded_bound itself raises
            (dict(m=3, n=4, delta=0.1, mu_core=0.5, c=1.5), "hinge",
             17.647291666441962, 50.31191425754876),
            (dict(m=1, n=2, delta=0.1, mu_core=0.0), "exp", 0.0, 57.2369228553093),
            (dict(m=10, n=3, delta=0.2, mu_core=0.9, epsilon=0.01), "exp",
             4.219630521862294, 57.23692285530931),
        ],
    )
    def test_pinned_edge_values(self, kwargs, spec, psi_term, vc_term):
        report = full_risk_bound(BoundInputs(**kwargs), parse_loss(spec))
        assert report.psi_term == pytest.approx(psi_term, rel=1e-14, abs=0.0)
        assert report.vc_term == pytest.approx(vc_term, rel=1e-14, abs=0.0)
        assert report.total == pytest.approx(psi_term + vc_term, rel=1e-14, abs=0.0)

    def test_terms_are_the_lemmas(self):
        inputs = BoundInputs(m=4000, n=6, delta=0.05, mu_core=0.3, c=1.5, epsilon=1e-3)
        loss = Loss("logistic")
        dp = inputs.delta / 8.0
        report = full_risk_bound(inputs, loss, approx_error=0.02)
        psi = core_classification_bound(loss, 1.5, 6, dp, 1e-3, 4000 * 0.3 / 2, 0.02)
        vc = vc_unbounded_bound(6, 4000 * 0.7 / 2, 1e-3, 1.0, dp, zero_error=True)
        assert report.psi_term == pytest.approx(psi.value, rel=1e-15)
        assert report.vc_term == pytest.approx(vc.value, rel=1e-15)

    def test_precondition_flags(self):
        tiny = BoundInputs(m=10, n=8, delta=0.08, mu_core=0.5, c=2.0)
        report = full_risk_bound(tiny, Loss("hinge"))
        assert not report.preconditions["m_large_enough"]

    def test_m_large_enough_needs_a_complement_point(self):
        # mu = 0 leaves m / 2 = 1/2 complement points for the VC term, which
        # is still reported, at its value before it was flagged
        report = full_risk_bound(BoundInputs(m=1, n=2, delta=0.08), Loss("exp"))
        assert not report.preconditions["m_large_enough"]
        assert (report.psi_term, report.vc_term, report.total) == (
            0.0, 59.02207126582298, 59.02207126582298
        )

    @pytest.mark.parametrize("m, valid", [(11, False), (12, False), (13, False),
                                          (14, False), (15, True)])
    def test_report_is_valid_only_with_its_core_term(self, m, valid):
        # the m * mu / 2 core points reach core_surrogate_bound's
        # c^2 (ln n + ln(6 / delta')) = 7.09 only from m = 15
        inputs = BoundInputs(m=m, n=2, delta=0.08, mu_core=1.0, c=1.0)
        report = full_risk_bound(inputs, Loss("hinge"))
        assert core_surrogate_bound(1.0, 2, 0.01, 0.0, m / 2.0).valid == valid
        assert report.preconditions["m_large_enough"] == valid
        assert report.valid == valid

    @pytest.mark.parametrize("spec", ["hinge", "exp"])
    def test_m_large_enough_needs_the_split_and_the_core_term(self, spec):
        # with 0 < mu < 1 each side of the split keeps half its expected count
        # exactly when the Hoeffding deviation sqrt(ln(1/delta') / 2m) is at
        # most min(mu, 1 - mu) / 2; a core of m mu / 2 points needs its
        # Rademacher term to be valid, and a complement of m (1 - mu) / 2
        # points needs at least one point for its VC term
        loss, dp = parse_loss(spec), 0.01
        for m, mu, c, n in itertools.product(
            range(1, 201), (0.0, 0.3, 0.5, 1.0), (0.5, 1.0, 2.0), (2, 8)
        ):
            report = full_risk_bound(BoundInputs(m=m, n=n, delta=0.08, mu_core=mu, c=c), loss)
            split = mu in (0.0, 1.0) or m >= 2.0 * math.log(1.0 / dp) / min(mu, 1.0 - mu) ** 2
            core = mu == 0.0 or core_surrogate_bound(c, n, dp, 0.0, m * mu / 2.0).valid
            vc = mu == 1.0 or m * (1.0 - mu) / 2.0 >= 1.0
            assert report.preconditions["m_large_enough"] == (split and core and vc)

    @pytest.mark.parametrize(
        "spec, m, mu, c, n, psi, vc",
        [
            ("hinge", 12, 1.0, 1.0, 2, 4.0987247620623535, 0.0),
            ("hinge", 200, 0.3, 0.5, 8, 0.9721396711423465, 2.604659638293333),
            ("hinge", 37, 0.5, 1.0, 2, 3.3010607312565714, 5.159910693296166),
            ("exp", 150, 0.5, 2.0, 8, 3.7298968464437317, 4.334648668735854),
            ("exp", 1, 0.3, 1.0, 2, 10.182850583308678, 80.60252627694084),
            ("exp", 60, 0.0, 1.0, 8, 0.0, 5.183794061399263),
        ],
    )
    def test_terms_are_unchanged(self, spec, m, mu, c, n, psi, vc):
        # values of the bound before its preconditions were taken from its parts
        inputs = BoundInputs(m=m, n=n, delta=0.08, mu_core=mu, c=c)
        report = full_risk_bound(inputs, parse_loss(spec))
        assert (report.psi_term, report.vc_term, report.total) == (psi, vc, psi + vc)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(m=10, n=2, delta=1.5)
        with pytest.raises(ValueError):
            BoundInputs(m=10, n=2, delta=0.1, mu_core=2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"m": 0}, "m and n"), ({"n": 0}, "m and n"),
         ({"epsilon": math.nan}, "epsilon"), ({"epsilon": math.inf}, "epsilon"),
         ({"epsilon": -1e-9}, "epsilon"), ({"c": math.nan}, "positive"),
         ({"b": math.nan}, "positive"), ({"phi0": math.nan}, "positive"),
         ({"mu_core": math.nan}, "core mass"), ({"delta": math.nan}, "delta")],
        ids=str,
    )
    def test_bad_inputs_are_rejected(self, kwargs, message):
        # NaN must fail every check, or it reaches the bound's total; m = 0
        # would divide by zero in full_risk_bound
        with pytest.raises(ValueError, match=message):
            BoundInputs(**{"m": 10, "n": 2, "delta": 0.1, **kwargs})


class TestRademacher:
    def test_hinge_constant(self):
        lip, phib = rademacher_constant(Loss("hinge"), 1.0)
        assert lip == 1.0 and phib == 2.0
        c = max(2.0 * lip * 1.0 * math.sqrt(2.0), phib)
        assert c == pytest.approx(2.0 * math.sqrt(2.0))

    def test_single_hypothesis_drops_ln_n(self):
        v = rademacher_surrogate_deviation(1, 100, 1.0, 1.0, 2.0, 0.1)
        c = 2.0 * math.sqrt(2.0)
        assert v == pytest.approx(c * math.sqrt(math.log(20.0)) / 10.0)

    def test_scaling_in_m(self):
        a = rademacher_surrogate_deviation(4, 100, 1.0, 1.0, 2.0, 0.1)
        b = rademacher_surrogate_deviation(4, 10000, 1.0, 1.0, 2.0, 0.1)
        assert b == pytest.approx(a / 10.0)

    def test_empirical_validity_hinge(self):
        # fixed finitely-supported law, n = 4, b = 1, hinge, delta = 0.1:
        # the uniform deviation bound may fail in at most 15% of resamples
        rng = np.random.default_rng(0)
        support = rng.uniform(-1, 1, size=(16, 4))
        labels = rng.choice([-1.0, 1.0], size=16)
        probs = rng.dirichlet(np.ones(16))
        loss = Loss("hinge")
        lam = rng.normal(size=4)
        lam /= np.abs(lam).sum()  # l1 norm exactly 1
        true_fm = FeatureMatrix(support, labels, probs)
        true_risk = surrogate_risk(true_fm, lam, loss)
        lip, phib = rademacher_constant(loss, 1.0)
        bound = rademacher_surrogate_deviation(4, 400, 1.0, lip, phib, 0.1)
        violations = 0
        for _ in range(500):
            idx = rng.choice(16, size=400, p=probs)
            emp = FeatureMatrix(support[idx], labels[idx])
            if abs(surrogate_risk(emp, lam, loss) - true_risk) > bound:
                violations += 1
        assert violations <= 0.15 * 500


def test_constants_from_certificate():
    fm = FeatureMatrix(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    cert = compute_hardcore(fm)
    c, b = constants_from_certificate(cert, fm, Loss("hinge"), np.array([0.5]))
    assert b == pytest.approx(0.5)
    assert c == pytest.approx(max(2.0 * 1.0 * 0.5 * math.sqrt(2.0), 1.5))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: psi_inverse_bound(Loss("exp"), NAN),
    lambda: psi_inverse_bound(Loss("exp"), -0.1),
    lambda: core_surrogate_bound(1.0, 4, 0.01, NAN, 100.0),
    lambda: core_surrogate_bound(1.0, 4, 0.01, INF, 100.0),
    lambda: core_surrogate_bound(1.0, 4, 0.01, -0.1, 100.0),
    lambda: vc_unbounded_bound(4, 100.0, NAN, 1.0, 0.01),
    lambda: vc_unbounded_bound(4, 100.0, INF, 1.0, 0.01),
    lambda: vc_unbounded_bound(4, 100.0, -0.1, 1.0, 0.01, zero_error=True),
    lambda: sample_split_bounds(100, NAN, 0.01),
    lambda: sample_split_bounds(100, -0.1, 0.01),
    lambda: sample_split_bounds(100, 1.5, 0.01),
], ids=["psi-nan", "psi-negative", "core-eps-nan", "core-eps-inf", "core-eps-negative",
        "vc-eps-nan", "vc-eps-inf", "vc-eps-negative", "split-mu-nan", "split-mu-negative",
        "split-mu-above-1"])
def test_lemmas_reject_out_of_range_inputs(call):
    # the checks are written so that NaN fails them, as BoundInputs' are
    with pytest.raises(ValueError):
        call()


BAD_DELTA_PRIMES = [NAN, 0.0, -0.1, 1.5, INF]


@pytest.mark.parametrize("call, name", [
    *[(lambda dp=dp: sample_split_bounds(100, 0.5, dp), "delta_prime") for dp in BAD_DELTA_PRIMES],
    *[(lambda dp=dp: vc_unbounded_bound(4, 100.0, 0.0, 1.0, dp), "delta_prime")
      for dp in BAD_DELTA_PRIMES],
    *[(lambda dp=dp: core_surrogate_bound(1.0, 4, dp, 0.1, 100.0), "delta_prime")
      for dp in BAD_DELTA_PRIMES],
    *[(lambda phi0=phi0: vc_unbounded_bound(4, 100.0, 0.1, phi0, 0.01), "phi0")
      for phi0 in (NAN, 0.0, -1.0)],
    *[(lambda c=c: core_surrogate_bound(c, 4, 0.1, 0.1, 100.0), "c must")
      for c in (NAN, 0.0, -1.0)],
    (lambda: core_classification_bound(Loss("exp"), NAN, 4, 0.1, 0.1, 100.0, 0.0), "c must"),
    (lambda: core_classification_bound(Loss("exp"), 1.0, 4, 0.0, 0.1, 100.0, 0.0),
     "delta_prime"),
], ids=[*(f"split-dp-{v}" for v in BAD_DELTA_PRIMES), *(f"vc-dp-{v}" for v in BAD_DELTA_PRIMES),
        *(f"core-dp-{v}" for v in BAD_DELTA_PRIMES), "vc-phi0-nan", "vc-phi0-0", "vc-phi0-negative",
        "core-c-nan", "core-c-0", "core-c-negative", "classification-c-nan",
        "classification-dp-0"])
def test_lemmas_name_a_bad_delta_prime_phi0_or_c(call, name):
    # a NaN delta' or phi0 gave a nan bound flagged valid, delta' = 0 a
    # ZeroDivisionError and delta' > 1 a math domain error
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("dp", [1.0, 1e-300 / 8.0])
def test_lemmas_accept_delta_prime_at_the_ends(dp):
    assert all(math.isfinite(v) for v in sample_split_bounds(100, 0.5, dp))
    assert math.isfinite(vc_unbounded_bound(4, 100.0, 0.1, 1.0, dp).value)
    assert math.isfinite(core_surrogate_bound(1.0, 4, dp, 0.1, 100.0).value)


def test_infinite_c_is_a_vacuous_bound():
    # +inf is true of every risk, and JSON refuses it at the CLI
    assert core_surrogate_bound(INF, 4, 0.1, 0.1, 100.0) == BoundValue(INF, False)
