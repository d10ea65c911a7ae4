import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardcoreboost.losses import (
    EXP_CLAMP,
    Loss,
    UnsupportedLossError,
    parse_loss,
    psi_inverse_bound,
    psi_numeric,
)

ALL_KINDS = [Loss("exp"), Loss("logistic"), Loss("hinge"), Loss("cone", c1=0.7, c2=1.3)]


def grid_conjugate(loss, g, lo=-60.0, hi=60.0, steps=600001):
    z = np.linspace(lo, hi, steps)
    return float(np.max(g * z - loss.value(z)))


class TestValues:
    def test_hinge_at_zero(self):
        assert Loss("hinge").value(0.0) == 1.0

    def test_logistic_at_zero(self):
        assert Loss("logistic").value(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_exp_at_one(self):
        assert Loss("exp").value(1.0) == pytest.approx(math.e, abs=1e-12)

    def test_cone_is_weighted_sum(self):
        cone = Loss("cone", c1=0.7, c2=1.3)
        for z in (-3.0, 0.0, 2.5):
            expected = 0.7 * Loss("logistic").value(z) + 1.3 * Loss("exp").value(z)
            assert cone.value(z) == pytest.approx(expected, rel=1e-12)

    def test_positive_at_origin(self):
        for loss in ALL_KINDS:
            assert loss.value_at_origin > 0

    def test_limit_behavior(self):
        assert Loss("exp").value(-40.0) <= 1e-12
        assert Loss("logistic").value(-40.0) <= 1e-12
        assert Loss("hinge").value(-40.0) == 0.0

    def test_monotone_on_grid(self):
        grid = np.linspace(-30, 30, 301)
        for loss in ALL_KINDS:
            vals = loss.value(grid)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_exp_saturation_flag(self):
        v, sat = Loss("exp").value_saturated(800.0)
        assert sat and np.isfinite(v)
        _, unsat = Loss("exp").value_saturated(1.0)
        assert not unsat


class TestSubgradients:
    def test_exp_at_zero(self):
        assert Loss("exp").subgradient(0.0) == 1.0

    def test_hinge_flat_region(self):
        assert Loss("hinge").subgradient(-2.0) == 0.0

    def test_hinge_kink_convention(self):
        assert Loss("hinge").subgradient(-1.0) == 0.0

    def test_logistic_at_zero(self):
        assert Loss("logistic").subgradient(0.0) == 0.5

    def test_nonnegative_and_positive_at_zero(self):
        grid = np.linspace(-20, 20, 101)
        for loss in ALL_KINDS:
            assert np.all(loss.subgradient(grid) >= 0.0)
            assert loss.subgradient(0.0) > 0.0

    def test_max_subgradient_hinge(self):
        h = Loss("hinge")
        assert h.max_subgradient(-1.0) == 1.0
        assert h.max_subgradient(-1.5) == 0.0
        assert h.max_subgradient(3.0) == 1.0


@pytest.mark.parametrize("spec", ["logistic", "cone:1,1"])
class TestExtremeArguments:
    """The sigmoid and softplus kernels neither overflow nor lose accuracy."""

    def test_finite_and_exact_at_the_ends(self, spec):
        loss = parse_loss(spec)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for z in (-800.0, -40.0, 0.0, 40.0, 800.0):
                assert np.isfinite(loss.value(z))
                assert np.isfinite(loss.subgradient(z))
            assert loss.subgradient(-800.0) == 0.0
            top = 1.0 if spec == "logistic" else 1.0 + math.exp(EXP_CLAMP)
            assert loss.subgradient(800.0) == top

    def test_matches_the_textbook_formulas(self, spec):
        loss = parse_loss(spec)
        z = np.linspace(-700.0, 700.0, 14001)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            exp_part = 0.0 if spec == "logistic" else np.exp(z)
            sigmoid = 1.0 / (1.0 + np.exp(-z)) + exp_part
            softplus = np.log1p(np.exp(z)) + exp_part
            np.testing.assert_allclose(loss.subgradient(z), sigmoid, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(loss.value(z), softplus, rtol=1e-15, atol=0.0)


class TestConjugate:
    def test_zero_is_zero_exactly(self):
        for loss in ALL_KINDS:
            assert loss.conjugate(0.0) == 0.0

    def test_exp_at_one(self):
        assert Loss("exp").conjugate(1.0) == pytest.approx(-1.0, abs=1e-12)
        assert Loss("exp").conjugate(1.0) == pytest.approx(
            grid_conjugate(Loss("exp"), 1.0), abs=1e-6
        )

    def test_hinge_at_half(self):
        assert Loss("hinge").conjugate(0.5) == pytest.approx(-0.5, abs=1e-12)
        assert Loss("hinge").conjugate(0.5) == pytest.approx(
            grid_conjugate(Loss("hinge"), 0.5), abs=1e-6
        )

    def test_negative_argument_infinite(self):
        for loss in ALL_KINDS:
            assert loss.conjugate(-0.5) == math.inf

    def test_outside_domain_infinite(self):
        assert Loss("logistic").conjugate(1.5) == math.inf
        assert Loss("hinge").conjugate(1.5) == math.inf

    def test_array_input(self):
        out = Loss("logistic").conjugate(np.array([0.0, 0.5, 2.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-math.log(2), abs=1e-12)
        assert out[2] == math.inf

    def test_fenchel_young_equality_at_subgradient(self):
        rng = np.random.default_rng(0)
        for loss in ALL_KINDS:
            for z in rng.uniform(-10, 5, size=30):
                g = loss.subgradient(z)
                gap = loss.value(z) + loss.conjugate(g) - g * z
                assert abs(gap) <= 1e-7, (loss.kind, z)

    def test_fenchel_young_inequality(self):
        rng = np.random.default_rng(1)
        for loss in ALL_KINDS:
            for _ in range(50):
                z = rng.uniform(-10, 5)
                g = rng.uniform(0, 1)
                conj = loss.conjugate(g)
                if math.isinf(conj):
                    continue
                assert loss.value(z) + conj - g * z >= -1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["exp", "logistic", "hinge"]),
    st.floats(-30, 20),
    st.floats(-30, 20),
    st.floats(0, 1),
)
def test_convexity_chord(kind, z1, z2, t):
    loss = Loss(kind)
    mid = t * z1 + (1 - t) * z2
    chord = t * loss.value(z1) + (1 - t) * loss.value(z2)
    assert loss.value(mid) <= chord + 1e-9


def test_convexity_random_triples():
    rng = np.random.default_rng(2)
    for loss in ALL_KINDS:
        for _ in range(100):
            z = np.sort(rng.uniform(-20, 10, size=3))
            if z[2] - z[0] < 1e-9:
                continue
            t = (z[1] - z[0]) / (z[2] - z[0])
            interp = (1 - t) * loss.value(z[0]) + t * loss.value(z[2])
            assert loss.value(z[1]) <= interp + 1e-9


class TestPsiInverseBound:
    def test_hinge_identity(self):
        assert psi_inverse_bound(Loss("hinge"), 0.25) == 0.25

    def test_exp(self):
        assert psi_inverse_bound(Loss("exp"), 0.25) == pytest.approx(1.0)

    def test_logistic_zero(self):
        assert psi_inverse_bound(Loss("logistic"), 0.0) == 0.0

    def test_nondecreasing(self):
        rs = np.linspace(0, 2, 41)
        for loss in ALL_KINDS:
            vals = [psi_inverse_bound(loss, r) for r in rs]
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psi_inverse_bound(Loss("exp"), -0.1)


class TestPsiNumeric:
    def test_exp_endpoints(self):
        assert psi_numeric(Loss("exp"), 0.0) == pytest.approx(0.0, abs=1e-6)
        assert psi_numeric(Loss("exp"), 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_exp_closed_form_grid(self):
        loss = Loss("exp")
        for theta in np.linspace(0, 1, 21):
            expected = 1.0 - math.sqrt(1.0 - theta * theta)
            assert psi_numeric(loss, theta) == pytest.approx(expected, abs=1e-5)

    def test_hinge_closed_form_grid(self):
        loss = Loss("hinge")
        for theta in np.linspace(0, 1, 21):
            assert psi_numeric(loss, theta) == pytest.approx(theta, abs=1e-5)

    def test_logistic_midpoint(self):
        v = psi_numeric(Loss("logistic"), 0.5)
        assert 0.0 < v < math.log(2)
        assert v >= (0.5 / 4.0) ** 2  # consistent with the 4 sqrt(r) inverse bound

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            psi_numeric(Loss("exp"), 1.5)

    def test_psi_consistent_with_inverse_bound(self):
        # psi(psi_inverse_bound bound) >= r would be the wrong direction;
        # the bound means psi(theta) >= (theta/k)^2 for the sqrt forms.
        for theta in np.linspace(0.05, 0.95, 10):
            assert psi_numeric(Loss("exp"), theta) >= (theta / 2.0) ** 2 - 1e-8
            assert psi_numeric(Loss("logistic"), theta) >= (theta / 4.0) ** 2 - 1e-8


class TestParsing:
    def test_plain_kinds(self):
        for kind in ("exp", "logistic", "hinge"):
            assert parse_loss(kind).kind == kind

    def test_cone(self):
        loss = parse_loss("cone:0.5,1.5")
        assert loss.kind == "cone" and loss.c1 == 0.5 and loss.c2 == 1.5

    def test_bad_specs(self):
        for bad in ("square", "cone:1", "cone:-1,2"):
            with pytest.raises(UnsupportedLossError):
                parse_loss(bad)

    def test_cone_needs_positive_weight(self):
        with pytest.raises(UnsupportedLossError):
            Loss("cone", c1=0.0, c2=0.0)
