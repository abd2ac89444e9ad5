import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanconvex import (ConvexitySpec, DomainError, InapplicableSpecError,
                        Interval, MeanKind, PointFunction, SamplePlan,
                        constant_weight, defining_gap, diagonal_refute,
                        identity_weight, power_weight, reciprocal_weight,
                        verify_class, verify_extended_class)
from meanconvex.catalog import builtin_functions, make_function
from meanconvex.convexity import _gap_arrays

A, G, H = MeanKind.ARITHMETIC, MeanKind.GEOMETRIC, MeanKind.HARMONIC
ID = identity_weight()
BOX = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
FS = builtin_functions()


def spec(arg, val, sense="convex", h=None):
    return ConvexitySpec(arg, val, h or ID, sense)


class TestDefiningGap:
    def test_square_arithmetic_case(self):
        f = PointFunction("square", np.square, Interval(0.0, 10.0, closed_lo=True))
        lhs, rhs = defining_gap(spec(A, A), f, 0.0, 2.0, 0.5)
        assert (lhs, rhs) == (1.0, 2.0)

    def test_t_weights_x(self):
        # the argument mean weights x by t: t=0.9 pulls toward x
        lhs, _ = defining_gap(spec(A, A), FS["square"], 1.0, 2.0, 0.9)
        assert lhs == pytest.approx(1.1**2)

    def test_geometric_value_side(self):
        lhs, rhs = defining_gap(spec(A, G), FS["exp"], 1.0, 3.0, 0.25)
        assert lhs == pytest.approx(np.exp(0.25 * 1 + 0.75 * 3))
        assert rhs == pytest.approx(np.exp(1) ** 0.25 * np.exp(3) ** 0.75)

    def test_harmonic_value_side(self):
        # AH places h(1-t) on f(x): fx fy / (h(1-t) fx + h(t) fy)
        f = FS["reciprocal"]
        lhs, rhs = defining_gap(spec(A, H), f, 1.0, 4.0, 0.25)
        fx, fy = 1.0, 0.25
        assert rhs == pytest.approx(fx * fy / (0.75 * fx + 0.25 * fy))
        assert lhs == pytest.approx(rhs)  # 1/x makes this case an identity

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            defining_gap(spec(A, A), FS["square"], -1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            defining_gap(spec(A, A), FS["square"], 1.0, 2.0, 1.0)


# The defining inequality's sides, written out apart from the module under
# test: the argument mean weights x by t, and the value mean puts (h(t), h(1-t))
# on (f(x), f(y)), swapped under a harmonic argument mean.
def _ref_arg_mean(kind, x, y, t):
    if kind is A:
        return t * x + (1.0 - t) * y
    if kind is G:
        return x**t * y ** (1.0 - t)
    return x * y / (t * x + (1.0 - t) * y)


_REF_VALUE_MEANS = {
    A: lambda wx, wy, fx, fy: wx * fx + wy * fy,
    G: lambda wx, wy, fx, fy: fx**wx * fy**wy,
    H: lambda wx, wy, fx, fy: fx * fy / (wy * fx + wx * fy),
}


def _ref_gap_arrays(spec, f, x, y, t):
    with np.errstate(all="ignore"):
        m = _ref_arg_mean(spec.arg_mean, x, y, t)
        ht = np.asarray(spec.h(t), dtype=float)
        h1t = np.asarray(spec.h(1.0 - t), dtype=float)
        lhs = np.asarray(f(m), dtype=float)
        wx, wy = (h1t, ht) if spec.arg_mean is H else (ht, h1t)
        rhs = _REF_VALUE_MEANS[spec.val_mean](
            wx, wy, np.asarray(f(x), dtype=float), np.asarray(f(y), dtype=float))
        valid = f.domain.contains_array(m) & np.isfinite(m) & np.isfinite(lhs) \
            & np.isfinite(rhs) & np.isfinite(ht) & np.isfinite(h1t)
    return lhs, rhs, valid


class TestDerivedSides:
    @pytest.mark.parametrize("arg", [A, G, H])
    @pytest.mark.parametrize("val", [A, G, H])
    @pytest.mark.parametrize("h", [ID, power_weight(2.0), reciprocal_weight()],
                             ids=lambda h: h.name)
    def test_bitwise_equal_to_reference(self, arg, val, h):
        rng = np.random.default_rng(21)
        usable = []
        for f in FS.values():
            lo, hi = f.sampling_domain().sampling_bounds()
            # a tenth past each end, so that unusable pairs are compared too
            pad = 0.1 * (hi - lo)
            x, y = rng.uniform(lo - pad, hi + pad, size=(2, 2000))
            t = rng.uniform(0.0, 1.0, size=2000)
            got = _gap_arrays(spec(arg, val, h=h), f, x, y, t)
            want = _ref_gap_arrays(spec(arg, val, h=h), f, x, y, t)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f.name
            usable.append(got[2].mean())
        # both usable and unusable pairs took part
        assert 0.0 < np.mean(usable) < 1.0


class TestVerifyClass:
    def test_square_arithmetic_convex(self):
        v = verify_class(spec(A, A), FS["square"], box=BOX)
        assert v.holds
        assert v.min_margin >= -1e-12

    def test_square_arithmetic_concave_refuted(self):
        v = verify_class(spec(A, A, "concave"), FS["square"], box=BOX)
        assert not v.holds
        assert v.witness is not None
        # the witness replays: lhs < rhs violates the concave claim
        lhs, rhs = defining_gap(spec(A, A, "concave"), FS["square"],
                                v.witness.x, v.witness.y, v.witness.t)
        assert (lhs, rhs) == (v.witness.lhs, v.witness.rhs)
        assert lhs < rhs

    def test_cosh_AG_convex(self):
        v = verify_class(spec(A, G), FS["cosh"],
                         box=Interval(-3.0, 3.0, closed_lo=True, closed_hi=True))
        assert v.holds

    def test_witness_is_first_violation(self):
        v = verify_class(spec(A, A, "concave"), FS["square"],
                         plan=SamplePlan(grid_axis=9, grid_t=5, n_random=100),
                         box=BOX)
        assert v.witness.index >= 0
        assert not v.holds

    def test_deterministic(self):
        a = verify_class(spec(A, A), FS["square"], box=BOX)
        b = verify_class(spec(A, A), FS["square"], box=BOX)
        assert a == b

    def test_skip_accounting(self):
        # geometric argument means need positive points; on a domain
        # straddling zero only ~a quarter of sampled pairs are usable
        f = PointFunction("cube", lambda v: v**3 + 30.0, Interval(-2.0, 2.0))
        with pytest.raises(DomainError):
            verify_class(spec(G, A), f)


class TestExtendedClasses:
    @pytest.mark.parametrize("tag", ["Q", "P", "K_s2"])
    def test_square_memberships(self, tag):
        v = verify_extended_class(tag, A, FS["square"], s=0.5, box=BOX)
        assert v.holds

    def test_s_range(self):
        with pytest.raises(DomainError):
            verify_extended_class("K_s2", A, FS["square"], s=1.5, box=BOX)

    def test_unknown_class(self):
        with pytest.raises(InapplicableSpecError):
            verify_extended_class("R", A, FS["square"], box=BOX)


class TestDiagonalRefute:
    CONST1 = make_function("const", c=1.0)
    CONST2 = make_function("const", c=2.0)

    @pytest.mark.parametrize("arg", [A, G, H])
    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("val,h,sense", [
        (A, reciprocal_weight(), "concave"),
        (H, reciprocal_weight(), "convex"),
        (A, constant_weight(1.0), "concave"),
        (H, constant_weight(1.0), "convex"),
    ])
    def test_reversed_classes_refuted(self, arg, t, val, h, sense):
        rec = diagonal_refute(spec(arg, val, sense, h), self.CONST1, 2.0, t)
        assert rec.refuted

    @pytest.mark.parametrize("arg", [A, G, H])
    @pytest.mark.parametrize("h", [reciprocal_weight(), constant_weight(1.0)])
    def test_geometric_cases_refuted(self, arg, h):
        rec = diagonal_refute(spec(arg, G, "concave", h), self.CONST2, 2.0, 0.5)
        assert rec.refuted

    def test_geometric_needs_f_above_one(self):
        with pytest.raises(DomainError):
            diagonal_refute(spec(A, G, "concave", reciprocal_weight()),
                            self.CONST1, 2.0, 0.5)

    @pytest.mark.parametrize("sense,h", [("convex", ID),
                                         ("concave", constant_weight(2.0))])
    def test_uncovered_spec(self, sense, h):
        # the constant probes are the h = 1 cases their printed text states
        with pytest.raises(InapplicableSpecError):
            diagonal_refute(spec(A, A, sense, h), self.CONST1, 2.0, 0.5)

    def test_interior_t_only(self):
        with pytest.raises(DomainError):
            diagonal_refute(spec(A, A, "concave", reciprocal_weight()),
                            self.CONST1, 2.0, 0.0)

    @pytest.mark.parametrize("val,h,sense,case,closed_form", [
        (A, reciprocal_weight(), "concave", "A_1/t-concave",
         lambda t, fx: (1.0 / (1.0 - t) + 1.0 / t) * fx),
        (H, reciprocal_weight(), "convex", "H_1/t-convex",
         lambda t, fx: t * (1.0 - t) * fx),
        (A, constant_weight(1.0), "concave", "A_1-concave", lambda t, fx: 2.0 * fx),
        (H, constant_weight(1.0), "convex", "H_1-convex", lambda t, fx: fx / 2.0),
        (G, reciprocal_weight(), "concave", "G_1/t-concave",
         lambda t, fx: fx ** (1.0 / (1.0 - t) + 1.0 / t)),
        (G, constant_weight(1.0), "concave", "G_1-concave", lambda t, fx: fx * fx),
    ])
    def test_record_contents(self, val, h, sense, case, closed_form):
        # the sides come from the defining inequality at y = x; they must
        # match the closed forms of the non-existence arguments
        for arg in (A, G, H):
            for t in np.linspace(0.05, 0.95, 19):
                rec = diagonal_refute(spec(arg, val, sense, h), self.CONST2, 2.0, t)
                assert (rec.case, rec.arg_mean, rec.x, rec.t) == (case, arg, 2.0, t)
                assert rec.lhs == 2.0
                assert rec.rhs == pytest.approx(closed_form(t, 2.0), rel=1e-14, abs=0)
                assert rec.refuted
                assert rec.inequality.endswith(f" = {rec.rhs:.6g}")


@settings(max_examples=80, deadline=None)
@given(x=st.floats(min_value=0.1, max_value=10.0),
       y=st.floats(min_value=0.1, max_value=10.0),
       t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_square_gap_never_negative(x, y, t):
    lhs, rhs = defining_gap(spec(A, A), FS["square"], x, y, t)
    assert rhs - lhs >= -1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=80, deadline=None)
@given(x=st.floats(min_value=0.1, max_value=10.0),
       t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_gap_collapses_on_diagonal(x, t):
    """At y = x with identity weight every case's gap vanishes."""
    for arg in (A, G, H):
        for val in (A, G, H):
            lhs, rhs = defining_gap(spec(arg, val), FS["square"], x, x, t)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
