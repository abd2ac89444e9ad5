import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanconvex import (AdditivityClass, ConvexitySpec, DomainError,
                        InapplicableSpecError, Interval, MeanKind, SamplePlan,
                        classify_additivity, classify_multiplicativity,
                        constant_weight, diagonal_refute, identity_weight,
                        power_weight, power_weight_class, reciprocal_weight,
                        weight_eval)
from meanconvex.catalog import builtin_functions

UNIT = Interval(0.0, 1.0)


class TestWeightEval:
    def test_identity(self):
        h = identity_weight()
        assert weight_eval(h, 0.25) == 0.25
        assert weight_eval(h, 1.5) == 1.5

    def test_power(self):
        assert weight_eval(power_weight(2.0), 0.5) == 0.25

    def test_reciprocal_pole(self):
        with pytest.raises(DomainError):
            weight_eval(reciprocal_weight(), 0.0)

    def test_negative_power_pole(self):
        with pytest.raises(DomainError):
            weight_eval(power_weight(-1.0), 0.0)

    def test_outside_range(self):
        with pytest.raises(DomainError):
            weight_eval(identity_weight(), 2.5)
        with pytest.raises(DomainError):
            weight_eval(identity_weight(), -0.1)

    def test_constant(self):
        assert weight_eval(constant_weight(3.0), 0.7) == 3.0

    @pytest.mark.parametrize("h,t", [(reciprocal_weight(), 0.0),
                                     (power_weight(-1.0), 0.0),
                                     (power_weight(3000.0), 2.0)],
                             ids=["reciprocal", "power:-1", "power:3000-overflow"])
    def test_pole_named_without_warning(self, h, t):
        # a pole or overflow is found from h's value alone, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^weight {h.name} not finite at t={t}$"):
                weight_eval(h, t)


def test_weights_equal_by_name():
    assert power_weight(2.0) == power_weight(2)
    assert power_weight(2.0) != power_weight(3.0)


@pytest.mark.parametrize("build,a,b", [(power_weight, 2.0, 2.0000001),
                                       (power_weight, 0.1, np.nextafter(0.1, 1.0)),
                                       (constant_weight, 1.0, 1.0000001)])
def test_different_parameters_different_names(build, a, b):
    # a name reads its parameter back exactly, so two weights that differ
    # never share a name, an equality or a set slot
    assert build(a).name != build(b).name
    assert build(a) != build(b) and len({build(a), build(b)}) == 2
    assert float(build(b).name.partition(":")[2]) == b


def test_short_names_kept():
    assert [h.name for h in (identity_weight(), power_weight(2.0), power_weight(0.5),
                             reciprocal_weight(), constant_weight())] == \
        ["identity", "power:2", "power:0.5", "reciprocal", "constant:1"]
    assert identity_weight() is identity_weight()


def test_near_constant_one_is_no_diagonal_case():
    square = builtin_functions()["square"]
    spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC,
                         constant_weight(1.0000001), "concave")
    with pytest.raises(InapplicableSpecError):
        diagonal_refute(spec, square, 2.0, 0.5)
    assert diagonal_refute(replace(spec, h=constant_weight(1.0)), square, 2.0,
                           0.5).case == "A_1-concave"


class TestPowerWeightClass:
    # positive decreasing functions are subadditive outright, so every
    # negative exponent lands in the subadditive bucket
    @pytest.mark.parametrize("k,tag", [
        (1.0, "additive"),
        (2.0, "superadditive"),
        (1.5, "superadditive"),
        (0.5, "subadditive"),
        (0.0, "subadditive"),
        (-0.5, "subadditive"),
        (-1.0, "subadditive"),
        (-2.0, "subadditive"),
    ])
    def test_table(self, k, tag):
        assert power_weight_class(k).tag == tag

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_nonfinite_exponent_refused(self, k):
        with pytest.raises(DomainError, match="power exponent must be finite"):
            power_weight_class(k)

    @pytest.mark.parametrize("k", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    def test_matches_sampling_on_unit_interval(self, k):
        sampled = classify_additivity(lambda x: x**k, UNIT)
        assert power_weight_class(k).tag == sampled.tag


class TestClassifyAdditivity:
    def test_identity_additive(self):
        assert classify_additivity(lambda x: x, UNIT).tag == "additive"

    def test_square_superadditive(self):
        cls = classify_additivity(np.square, UNIT)
        assert cls.tag == "superadditive"
        assert cls.witness is not None
        s, t = cls.witness
        assert (s + t) ** 2 > s**2 + t**2

    def test_sqrt_subadditive(self):
        assert classify_additivity(np.sqrt, UNIT).tag == "subadditive"

    def test_cosh_mixed_near_zero(self):
        # cosh(0+) = 1, so cosh(s+t) < cosh(s)+cosh(t) near zero while the
        # exponential growth dominates for larger arguments
        assert classify_additivity(np.cosh, Interval(0.0, 5.0)).tag == "mixed"

    def test_cosh_superadditive_away_from_zero(self):
        cls = classify_additivity(np.cosh, Interval(1.0, 4.0))
        assert cls.tag == "superadditive"

    def test_sign_antisymmetry(self):
        plan = SamplePlan(grid_axis=17, grid_t=9, n_random=500)
        down = classify_additivity(np.sqrt, UNIT, plan)
        up = classify_additivity(lambda x: -np.sqrt(x), UNIT, plan)
        assert down.tag == "subadditive"
        assert up.tag == "superadditive"

    def test_deterministic_given_seed(self):
        a = classify_additivity(np.square, UNIT, SamplePlan(seed=7))
        b = classify_additivity(np.square, UNIT, SamplePlan(seed=7))
        assert a == b

    def test_empty_domain_errors(self):
        with pytest.raises(DomainError):
            # no sampled pair can have its sum inside (0, 0.5) when both
            # addends already exceed 0.4
            classify_additivity(lambda x: x, Interval(0.4, 0.5))


class TestClassifyMultiplicativity:
    def test_identity_multiplicative(self):
        assert classify_multiplicativity(lambda x: x, UNIT).tag == "additive"

    def test_cosh_supermultiplicative(self):
        # away from st = 1, where cosh(1) < cosh(1)^2 spoils the comparison
        cls = classify_multiplicativity(np.cosh, Interval(2.0, 50.0))
        assert cls.tag == "superadditive"

    def test_exp_neg_mixed(self):
        # e^{-xy} vs e^{-(x+y)}: compare at (0.5, 0.5) and (3, 3)
        cls = classify_multiplicativity(lambda x: np.exp(-x),
                                        Interval(0.0, 10.0))
        assert cls.tag == "mixed"


class TestSatisfies:
    def test_additive_satisfies_both(self):
        cls = AdditivityClass("additive")
        assert cls.satisfies("subadditive")
        assert cls.satisfies("superadditive")
        assert cls.satisfies("additive")

    def test_strict_tags(self):
        cls = AdditivityClass("subadditive", witness_lt=(0.1, 0.2))
        assert cls.satisfies("subadditive")
        assert not cls.satisfies("superadditive")
        assert not cls.satisfies("additive")

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError):
            AdditivityClass("mixed").satisfies("monotone")


@settings(max_examples=60, deadline=None)
@given(k=st.floats(min_value=-3.0, max_value=3.0),
       s=st.floats(min_value=0.01, max_value=0.49),
       t=st.floats(min_value=0.01, max_value=0.49))
def test_power_class_consistent_pointwise(k, s, t):
    """The analytic bucket never contradicts a direct comparison."""
    tag = power_weight_class(k).tag
    lhs, rhs = (s + t) ** k, s**k + t**k
    scale = max(1.0, abs(lhs), abs(rhs))
    if tag == "subadditive":
        assert lhs <= rhs + 1e-9 * scale
    elif tag == "superadditive":
        assert lhs >= rhs - 1e-9 * scale
    else:
        assert abs(lhs - rhs) <= 1e-9 * scale
