import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanconvex import (DomainError, MeanEvalContext, MeanKind, check_am_gm_hm,
                        EvaluationError, identity_weight, mean_classic, mean_eval,
                        power_weight, reciprocal_weight)

A, G, H = MeanKind.ARITHMETIC, MeanKind.GEOMETRIC, MeanKind.HARMONIC
ID = identity_weight()


class TestClassicMeans:
    def test_values(self):
        assert mean_classic(A, 1.0, 4.0) == 2.5
        assert mean_classic(G, 1.0, 4.0) == 2.0
        assert mean_classic(H, 1.0, 4.0) == pytest.approx(1.6)

    def test_positive_only(self):
        with pytest.raises(DomainError):
            mean_classic(A, -1.0, 4.0)
        with pytest.raises(DomainError):
            mean_classic(G, 1.0, 0.0)

    @pytest.mark.parametrize("kind,x,y", [
        (G, 1e-200, 1e-200), (H, 1e-200, 1e-200),  # x * y underflows to 0
        (G, 1e200, 1e200), (H, 1e200, 1e200),  # x * y overflows
        (H, 1e308, 1e-300),  # 2x overflows; the true H is 2e-300
        (A, 1e308, 1e308),  # x + y overflows
    ])
    def test_out_of_float_range(self, kind, x, y):
        with pytest.raises(EvaluationError, match=f"{kind.value}-mean of"):
            mean_classic(kind, x, y)

    def test_returns_a_float(self):
        assert all(type(mean_classic(kind, 1.0, 4.0)) is float for kind in MeanKind)


class TestWeightedMeans:
    def test_midpoint_matches_classic(self):
        for kind in MeanKind:
            ctx = MeanEvalContext(kind, ID, 0.5)
            assert mean_eval(ctx, 1.0, 4.0) == pytest.approx(
                mean_classic(kind, 1.0, 4.0))

    def test_arithmetic_weight_placement(self):
        # h(1-t) multiplies the first argument, h(t) the second
        assert mean_eval(MeanEvalContext(A, ID, 0.25), 1.0, 4.0) == 1.75

    def test_geometric_weight_placement(self):
        got = mean_eval(MeanEvalContext(G, ID, 0.25), 1.0, 4.0)
        assert got == pytest.approx(4.0**0.25)

    def test_harmonic_weight_placement(self):
        # ab / (h(t) a + h(1-t) b)
        got = mean_eval(MeanEvalContext(H, ID, 0.25), 1.0, 4.0)
        assert got == pytest.approx(4.0 / (0.25 * 1.0 + 0.75 * 4.0))

    def test_t_range_enforced(self):
        with pytest.raises(DomainError):
            MeanEvalContext(A, ID, 1.5)

    def test_positive_arguments_only(self):
        with pytest.raises(DomainError):
            mean_eval(MeanEvalContext(A, ID, 0.5), 0.0, 1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_finite_arguments_only(self, a):
        for kind in MeanKind:
            with pytest.raises(DomainError):
                mean_eval(MeanEvalContext(kind, ID, 0.5), a, 4.0)
            with pytest.raises(DomainError):
                mean_classic(kind, 4.0, a)

    @pytest.mark.parametrize("kind,x,y", [(G, 0.001, 1000.0), (A, 1e303, 1e303)])
    def test_overflow_is_an_evaluation_error(self, kind, x, y):
        # h(t) = 1/t is 1e6 at t = 1e-6, so the weighted mean leaves the floats
        with pytest.raises(EvaluationError, match="overflows"):
            mean_eval(MeanEvalContext(kind, power_weight(-1.0), 1e-6), x, y)

    @pytest.mark.parametrize("h,t,x,y", [
        # h(t) * x overflows in the denominator; the true H is about 1e-306
        (power_weight(-1.0), 1e-6, 1e303, 1e-300),
        # x * y underflows to 0
        (ID, 0.5, 1e-200, 1e-200),
        # x * y overflows
        (ID, 0.5, 1e200, 1e200),
        # x * y is 1e-320, but both terms of the denominator underflow to 0
        (power_weight(565.0), 0.5, 1e-160, 1e-160),
    ])
    def test_harmonic_out_of_float_range(self, h, t, x, y):
        with pytest.raises(EvaluationError, match="H-mean of .* underflows in floats"):
            mean_eval(MeanEvalContext(H, h, t), x, y)

    def test_geometric_underflow_is_kept(self):
        # 10^(-3e8) rounds to 0 correctly; the log-domain G does not raise
        got = mean_eval(MeanEvalContext(G, power_weight(-1.0), 1e-6), 1e303, 1e-300)
        assert got == 0.0

    def test_endpoint_needs_defined_weight(self):
        # 1/t has a pole at t = 0, so the endpoint evaluation must refuse
        with pytest.raises(DomainError):
            mean_eval(MeanEvalContext(A, reciprocal_weight(), 0.0), 1.0, 2.0)

    def test_endpoint_fine_for_identity(self):
        assert mean_eval(MeanEvalContext(A, ID, 0.0), 3.0, 7.0) == 3.0


class TestMeanChain:
    def test_identity_weight_chain_holds(self):
        v = check_am_gm_hm(ID, 0.25, 1.0, 4.0)
        assert v.holds
        assert v.h_mean <= v.g_mean <= v.a_mean

    def test_squared_weight_chain_fails(self):
        # with h(t) = t^2 the harmonic form's small denominator inflates
        # H above G; the chain is weight-dependent, not universal
        v = check_am_gm_hm(power_weight(2.0), 0.5, 1.0, 4.0)
        assert not v.holds

    def test_interior_t_only(self):
        with pytest.raises(DomainError):
            check_am_gm_hm(ID, 0.0, 1.0, 2.0)

    def test_each_link_on_its_own_scale(self):
        # H exceeds G (which underflows to 0) by 1e-7; A near 1e5 must not
        # widen the tolerance of the H <= G link
        v = check_am_gm_hm(power_weight(-1.0), 1e-6, 0.001, 0.1)
        assert v.g_mean < v.h_mean < 1e-6 and v.a_mean > 1e4
        assert not v.holds


@settings(max_examples=100, deadline=None)
@given(t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
       a=st.floats(min_value=0.01, max_value=100.0),
       b=st.floats(min_value=0.01, max_value=100.0))
def test_identity_chain_property(t, a, b):
    v = check_am_gm_hm(ID, t, a, b)
    assert v.holds


@settings(max_examples=100, deadline=None)
@given(t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
       a=st.floats(min_value=0.01, max_value=100.0))
def test_equal_arguments_fixed_point(t, a):
    """Each identity-weight mean of (a, a) returns a to rounding."""
    for kind in MeanKind:
        got = mean_eval(MeanEvalContext(kind, ID, t), a, a)
        assert got == pytest.approx(a, rel=1e-12)


def test_harmonic_is_reciprocal_of_arithmetic():
    a, b, t = 2.0, 5.0, 0.3
    hm = mean_eval(MeanEvalContext(H, ID, t), a, b)
    am_recip = mean_eval(MeanEvalContext(A, ID, t), 1.0 / a, 1.0 / b)
    assert hm == pytest.approx(1.0 / am_recip, rel=1e-14)
