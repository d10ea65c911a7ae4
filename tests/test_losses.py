import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import (
    dual_scale_bracket,
    golden_conditional_min,
    planted_problem,
    scalar_bisect_root,
    two_search_psi,
)
from hypothesis import strategies as st

from hardcoreboost import FeatureMatrix, compute_hardcore, losses
from hardcoreboost._scalar import golden_min
from hardcoreboost.losses import (
    EXP_CLAMP,
    PREDICTION_BRACKET,
    Loss,
    UnsupportedLossError,
    _min_conditional_risk,
    _scalar_like,
    parse_loss,
    psi_inverse_bound,
    psi_numeric,
)

ALL_KINDS = [Loss("exp"), Loss("logistic"), Loss("hinge"), Loss("cone", c1=0.7, c2=1.3)]
# their conjugates are the weighted logistic and exp ones
ONE_SIDED_CONES = [Loss("cone", c1=0.5, c2=0.0), Loss("cone", c1=0.0, c2=2.0)]


def grid_conjugate(loss, g, lo=-60.0, hi=60.0, steps=600001):
    z = np.linspace(lo, hi, steps)
    return float(np.max(g * z - loss.value(z)))


def per_element_cone_conjugate(loss, g):
    """The two-sided cone conjugate by one scalar bisection per element."""
    if g < 0:
        return math.inf
    if g == 0:
        return 0.0
    zstar = scalar_bisect_root(
        lambda z: float(loss.subgradient(z)) - g, -EXP_CLAMP - 100.0, EXP_CLAMP + 20.0
    )
    return g * zstar - float(loss.value(zstar))


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

    @pytest.mark.parametrize("c1, c2, base", [(0.0, 2.0, "exp"), (0.5, 0.0, "logistic")])
    def test_one_sided_cone_is_its_weighted_base(self, c1, c2, base):
        # the zero-weight term stays out: 0 softplus(+inf) would be nan
        cone, base = Loss("cone", c1=c1, c2=c2), Loss(base)
        z = np.array([-np.inf, -3.0, 0.0, 2.5, 800.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got, got_sat), (want, want_sat) = cone.value_saturated(z), base.value_saturated(z)
            assert cone.value(np.inf) == (c1 + c2) * base.value(np.inf)
        assert np.array_equal(got, (c1 + c2) * want) and got_sat == want_sat

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

    @pytest.mark.parametrize("c2", [1e5, 1e300])
    def test_cone_with_large_exp_weight_stays_finite(self, c2):
        # the exp argument is clamped where c2 e^z would pass DBL_MAX / e, and
        # the saturation flag marks it
        loss = Loss("cone", c1=1.0, c2=c2)
        z = np.array([700.0, 720.0, 800.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = [loss.value_saturated(zi) for zi in z] + [loss.value_saturated(z)]
            slopes = [loss.derivatives(zi) for zi in z] + [loss.derivatives(z)]
            subgradients = [loss.subgradient(zi) for zi in z] + [loss.subgradient(z)]
        assert caught == []
        for v, sat in values:
            assert sat and np.all(np.isfinite(v))
        for d1, d2 in slopes:
            assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
        assert np.all(np.isfinite(np.concatenate([np.ravel(g) for g in subgradients])))

    def test_cone_with_huge_logistic_weight_overflows_quietly(self):
        # c1 softplus(1e10) = 1e310 passes the largest double: +inf, no warning
        loss = Loss("cone", c1=1e300, c2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loss.value(1e10) == math.inf
            values = loss.value(np.array([0.0, 1e10]))
        assert np.array_equal(values, [1e300 * math.log(2.0), math.inf])

    def test_cone_exp_clamp_is_exp_clamp_for_moderate_weights(self):
        # up to c2 = 6.5e3 the clamp stays at EXP_CLAMP, and the flag with it
        loss = Loss("cone", c1=1.0, c2=6.5e3)
        assert not loss.value_saturated(EXP_CLAMP)[1]
        assert loss.value_saturated(np.nextafter(EXP_CLAMP, math.inf))[1]
        assert loss.subgradient(800.0) == 1.0 + 6.5e3 * math.exp(EXP_CLAMP)


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


class TestDerivatives:
    @pytest.mark.parametrize("spec", ["exp", "logistic", "cone:0.7,1.3", "cone:1,0", "cone:0,2"])
    def test_first_is_subgradient_second_is_its_slope(self, spec):
        loss = parse_loss(spec)
        z = np.concatenate([np.linspace(-30.0, 30.0, 241), [-800.0, 0.0, 701.0]])
        d1, d2 = loss.derivatives(z)
        assert np.array_equal(d1, loss.subgradient(z))
        # central differences of a sigmoid near 1 keep only ~1e-11 absolute
        h = 1e-5
        central = (loss.subgradient(z + h) - loss.subgradient(z - h)) / (2.0 * h)
        inner = np.abs(z) <= 30.0
        np.testing.assert_allclose(d2[inner], central[inner], rtol=1e-8, atol=1e-10)
        assert np.all(d2 >= 0.0)

    def test_scalar_in_scalar_out(self):
        d1, d2 = Loss("logistic").derivatives(0.0)
        assert (d1, d2) == (0.5, 0.25)
        assert isinstance(d1, float) and isinstance(d2, float)

    def test_hinge_has_no_second_derivative(self):
        with pytest.raises(UnsupportedLossError):
            Loss("hinge").derivatives(np.zeros(3))


class TestScalarLike:
    @pytest.mark.parametrize("z", [np.array(0.5), np.float64(0.5), np.float32(0.5), 0.5, 1],
                             ids=["0-d-array", "float64", "float32", "float", "int"])
    def test_scalar_inputs_give_a_float(self, z):
        assert type(_scalar_like(np.asarray(2.0), z)) is float
        assert type(Loss("exp").value(z)) is float

    @pytest.mark.parametrize("z", [[0.5, 1.0], np.array([0.5, 1.0]), np.zeros((2, 2))],
                             ids=["list", "1-d-array", "2-d-array"])
    def test_array_inputs_give_the_array_itself(self, z):
        value = np.ones(np.shape(z))
        assert _scalar_like(value, z) is value
        assert isinstance(Loss("exp").value(z), np.ndarray)


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

    @pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.01)])
    def test_cone_matches_per_element_oracle(self, c1, c2):
        loss = Loss("cone", c1=c1, c2=c2)
        rng = np.random.default_rng(4)
        edges = [0.0, -0.0, -1.0, -1e-300, -np.inf, 5e-324, 1e-310, 1e-200, 1e305, np.inf]
        g = np.concatenate([edges, 10.0 ** rng.uniform(-320, 305, 1000), rng.uniform(0, 3, 990)])
        got = loss.conjugate(g)
        want = np.array([per_element_cone_conjugate(loss, gi) for gi in g])
        # the Newton kernel and bisection stop at different points of the
        # root's last-ulp neighbourhood, except where neither iterates: outside
        # the domain, at g = 0 and g = inf, and past the exp clamp, where both
        # return the bracket end
        exact = ~np.isfinite(want) | (g == 0) | (g > loss.subgradient(EXP_CLAMP + 20.0))
        assert np.array_equal(got[exact].view(np.uint64), want[exact].view(np.uint64))
        got, want = got[~exact], want[~exact]
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        one = loss.conjugate(0.7)
        assert type(one) is float
        assert one == pytest.approx(per_element_cone_conjugate(loss, 0.7), rel=1e-13, abs=1e-13)

    def test_cone_needs_few_derivative_passes(self, monkeypatch):
        # conjugates at 48 scales of u = p / w across the certificate's
        # dual-scale bracket on a certify-shaped problem, with unequal masses
        # so that the bracket has width: each call evaluates phi' and phi'' at
        # the two bracket ends and confirms the closed-form start, where
        # bisection makes ~53 passes
        loss = parse_loss("cone:1,1")
        rng = np.random.default_rng(1)
        x, y, _ = planted_problem(48, 6, 0.5, rng)
        w = rng.uniform(0.5, 1.5, size=48)
        fm = FeatureMatrix(x, y, w / w.sum())
        unit, s_lo, s_hi = dual_scale_bracket(fm, loss, compute_hardcore(fm))
        assert s_lo < s_hi
        derivatives = Loss.derivatives
        passes = []

        def counted_derivatives(self, z):
            passes[-1] += 1
            return derivatives(self, z)

        monkeypatch.setattr(Loss, "derivatives", counted_derivatives)
        for s in np.linspace(s_lo, s_hi, 48):
            passes.append(0)
            loss.conjugate(s * unit)
        assert min(passes) >= 1 and max(passes) <= 10

    @pytest.mark.parametrize("loss", ALL_KINDS + ONE_SIDED_CONES, ids=str)
    def test_shape_is_kept(self, loss):
        g = np.array([[0.0, 0.25, 0.5], [2.0, -1.0, 0.75]])
        out = loss.conjugate(g)
        assert out.shape == g.shape
        assert np.array_equal(out, loss.conjugate(g.ravel()).reshape(g.shape))

    def test_cone_with_large_exp_weight(self):
        # c2 e^700 overflows at the bracket's upper end, where only its sign
        # matters; the root lies far below it
        loss = Loss("cone", c1=1.0, c2=1e5)
        got = loss.conjugate(np.array([0.5, 1e300]))
        with np.errstate(over="ignore"):  # the oracle's own bracket end
            want = [per_element_cone_conjugate(loss, g) for g in (0.5, 1e300)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert loss.conjugate(math.inf) == math.inf

    def test_cone_past_the_largest_product(self):
        # g z* past the largest double: the conjugate is +inf, not an overflow
        loss = Loss("cone", c1=1.0, c2=1.0)
        assert loss.conjugate(1e306) == math.inf
        out = loss.conjugate(np.array([1e305, 1e306, 1.7e308]))
        assert np.isfinite(out[0]) and np.all(out[1:] == math.inf)

    @pytest.mark.parametrize("loss", ALL_KINDS, ids=str)
    def test_infinite_argument_infinite(self, loss):
        assert loss.conjugate(math.inf) == math.inf
        out = loss.conjugate(np.array([0.5, math.inf]))
        assert out[1] == math.inf and np.isfinite(out[0])

    def test_fenchel_young_equality_at_subgradient(self):
        rng = np.random.default_rng(0)
        for loss in ALL_KINDS + ONE_SIDED_CONES:
            for z in rng.uniform(-10, 5, size=30):
                g = loss.subgradient(z)
                gap = loss.value(z) + loss.conjugate(g) - g * z
                assert abs(gap) <= 1e-7, (loss.kind, z)

    def test_fenchel_young_inequality(self):
        rng = np.random.default_rng(1)
        for loss in ALL_KINDS + ONE_SIDED_CONES:
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
    # t * z1 + (1 - t) * z2 can round past the interval (z1 = z2 = 14.5 gives
    # 14.500000000000002); convexity speaks only of points inside it
    mid = min(max(t * z1 + (1 - t) * z2, min(z1, z2)), max(z1, z2))
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

    def test_closed_forms_on_a_fine_grid(self):
        # H^- = phi(0) exactly, so only the minimal conditional risk H is computed
        thetas = np.linspace(0, 1, 101)
        for theta in thetas:
            eta = (1.0 + theta) / 2.0
            entropy = -sum(p * math.log(p) for p in (eta, 1.0 - eta) if p > 0)
            exp_psi = 1.0 - math.sqrt(1.0 - theta * theta)
            assert abs(psi_numeric(Loss("exp"), theta) - exp_psi) <= 1e-12
            assert abs(psi_numeric(Loss("logistic"), theta) - (math.log(2) - entropy)) <= 1e-12
            # 1 - 2 (1 - eta) at the exact minimizer f = 1, a few roundings off theta
            assert abs(psi_numeric(Loss("hinge"), theta) - theta) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("c1, c2", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.1)])
    def test_cone_agrees_with_two_search_routine(self, c1, c2):
        loss = Loss("cone", c1=c1, c2=c2)
        for theta in np.linspace(0, 1, 101):
            new, old = psi_numeric(loss, theta), two_search_psi(loss, theta)
            assert abs(new - old) <= 1e-8
            # the wrong-side search only ever landed at or above phi(0)
            assert new <= old + 4 * np.finfo(float).eps

    def test_psi_consistent_with_inverse_bound(self):
        # psi(psi_inverse_bound bound) >= r would be the wrong direction;
        # the bound means psi(theta) >= (theta/k)^2 for the sqrt forms.
        for theta in np.linspace(0.05, 0.95, 10):
            assert psi_numeric(Loss("exp"), theta) >= (theta / 2.0) ** 2 - 1e-8
            assert psi_numeric(Loss("logistic"), theta) >= (theta / 4.0) ** 2 - 1e-8


class TestMinConditionalRisk:
    ONE_POINT = [Loss("exp"), Loss("logistic"), Loss("hinge")] + ONE_SIDED_CONES
    # one zero mass, a subnormal against 1, and two equal tiny masses
    EDGE_MASSES = [(1.0, 0.0), (0.0, 1.0), (5e-324, 1.0), (1.0, 5e-324), (1e-300, 1e-300)]

    @pytest.mark.parametrize("loss", ONE_POINT, ids=str)
    def test_one_point_bracket_costs_one_probe(self, loss, monkeypatch):
        calls = []
        value = Loss.value

        def counted(self, z):
            calls.append(z)
            return value(self, z)

        monkeypatch.setattr(Loss, "value", counted)
        for wp, wn in [(0.5, 0.5), (0.9, 0.1), (0.02, 0.3), (1.0, 0.0), (3e-7, 2.0)]:
            calls.clear()
            _min_conditional_risk(loss, wp, wn)
            assert len(calls) == 2

    @pytest.mark.parametrize(
        "c1, c2", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.1), (1e-3, 1e3), (1e3, 1e-3)]
    )
    def test_cone_bracket_holds_the_full_bracket_argmin(self, c1, c2):
        loss = Loss("cone", c1=c1, c2=c2)
        tol = 1e-10
        for eta in np.linspace(0.0, 1.0, 41)[1:-1]:
            lo, hi = loss._k.minimizer(eta, 1.0 - eta)
            assert lo <= hi

            def slope(f):
                return (1.0 - eta) * loss.subgradient(f) - eta * loss.subgradient(-f)

            # the conditional risk falls into the bracket and rises out of it
            assert slope(lo) <= 0.0 <= slope(hi)
            x, v = golden_min(
                lambda f: eta * float(loss.value(-f)) + (1.0 - eta) * float(loss.value(f)),
                -PREDICTION_BRACKET, PREDICTION_BRACKET, tol,
            )
            # the full search's argmin is only sharp to about sqrt(eps), where
            # values near the minimum tie in doubles
            assert lo - 1e-6 <= x <= hi + 1e-6
            assert abs(_min_conditional_risk(loss, eta, 1.0 - eta, tol) - v) <= 1e-12

    @pytest.mark.parametrize("loss", ALL_KINDS + ONE_SIDED_CONES, ids=str)
    @pytest.mark.parametrize("w_pos, w_neg", EDGE_MASSES)
    def test_edge_masses(self, loss, w_pos, w_neg, monkeypatch):
        # a RuntimeWarning fails the test (pyproject's filterwarnings)
        brackets = []

        def spied_golden_min(f, lo, hi, tol):
            brackets.append((lo, hi))
            return golden_min(f, lo, hi, tol)

        monkeypatch.setattr(losses, "golden_min", spied_golden_min)
        for wp, wn in [(w_pos, w_neg), (np.float64(w_pos), np.float64(w_neg))]:
            v = _min_conditional_risk(loss, wp, wn)
            assert -PREDICTION_BRACKET <= brackets[-1][0] <= brackets[-1][1] <= PREDICTION_BRACKET
            golden = golden_conditional_min(loss, wp, wn)
            assert math.isfinite(v) and 0.0 <= v <= golden + 4 * math.ulp(golden)


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

    @pytest.mark.parametrize("loss", ALL_KINDS + ONE_SIDED_CONES, ids=str)
    def test_pickle_round_trip(self, loss):
        copy = pickle.loads(pickle.dumps(loss))
        assert copy == loss and hash(copy) == hash(loss) and repr(copy) == repr(loss)
        g = np.array([0.0, 0.25, 0.5, 2.0])
        assert np.array_equal(copy.conjugate(g), loss.conjugate(g))
        assert np.array_equal(copy.value(g), loss.value(g))

    def test_cone_needs_positive_weight(self):
        with pytest.raises(UnsupportedLossError):
            Loss("cone", c1=0.0, c2=0.0)

    @pytest.mark.parametrize(
        "c1, c2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_cone_weights_must_be_finite(self, c1, c2):
        with pytest.raises(UnsupportedLossError, match="finite"):
            Loss("cone", c1=c1, c2=c2)

    @pytest.mark.parametrize("spec", ["cone:nan,1", "cone:1,nan", "cone:inf,1"])
    def test_nonfinite_cone_spec_rejected(self, spec):
        with pytest.raises(UnsupportedLossError, match="finite"):
            parse_loss(spec)


@pytest.mark.parametrize(
    "loss, end",
    [(Loss("exp"), math.inf), (Loss("logistic"), 1.0), (Loss("hinge"), 1.0),
     (Loss("cone", c1=0.5, c2=0.0), 0.5), (Loss("cone", c1=0.0, c2=2.0), math.inf),
     (Loss("cone", c1=1.0, c2=1.0), math.inf)],
    ids=str,
)
def test_conjugate_domain_end(loss, end):
    # the conjugate is finite up to the end and infinite past it
    assert loss.conjugate_domain_end == end
    if math.isfinite(end):
        assert np.isfinite(loss.conjugate(end))
        assert loss.conjugate(end * (1.0 + 1e-12)) == math.inf
    else:
        assert np.isfinite(loss.conjugate(1e300))
