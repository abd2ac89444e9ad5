import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanconvex import (BASE_SENSE, EQUALITY_FAMILIES, DomainError,
                        HypothesisMismatchError, Interval, PointFunction,
                        SamplePlan, TheoremId, chained_check,
                        equality_max_residual, equality_residual, hlawka_check,
                        hlawka_margins, identity_weight, popoviciu_sides,
                        power_weight, theorem_margins, two_point_reduction,
                        verify_theorem)
from meanconvex import popoviciu, reciprocal_weight, weight_eval
from meanconvex.catalog import _AUDIT_PLAN, builtin_functions, make_function

ID = identity_weight()
FS = builtin_functions()
BOX = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
SMALL = SamplePlan(grid_axis=9, grid_t=5, n_random=200)


class TestPopoviciuSides:
    def test_arithmetic_sum_oracle(self):
        # f(2.5) + f(2.5) + f(1) vs (3/2) f(2) + (1/2)(1 + 1 + 16)
        assert popoviciu_sides(TheoremId.AA, ID, FS["square"],
                               1.0, 1.0, 4.0) == (13.5, 15.0)

    def test_geometric_product_oracle(self):
        lhs, rhs = popoviciu_sides(TheoremId.GG, ID, FS["exp"], 1.0, 1.0, 8.0)
        assert lhs == pytest.approx(math.exp(1.0 + 4.0 * math.sqrt(2.0)))
        assert rhs == pytest.approx(math.exp(8.0))

    def test_reciprocal_sum_oracle(self):
        # AH with f = 1/x: both sides equal x + y + z
        lhs, rhs = popoviciu_sides(TheoremId.AH, ID, FS["reciprocal"],
                                   1.0, 2.0, 3.0)
        assert lhs == pytest.approx(6.0)
        assert rhs == pytest.approx(6.0)

    def test_harmonic_pair_means(self):
        lhs, _ = popoviciu_sides(TheoremId.HA, ID, FS["identity"],
                                 1.0, 2.0, 4.0)
        expect = 2 * 4 / 5 + 2 * 8 / 6 + 2 * 2 / 3
        assert lhs == pytest.approx(expect)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            popoviciu_sides(TheoremId.GA, ID, FS["log"], 0.5, 2.0, 3.0)

    @pytest.mark.parametrize("fn, point", [("log", (0.5, 3.0, 4.0)),
                                           ("arcsin", (0.2, 0.5, 1.0)),
                                           ("sqrt", (0.0, 1.0, 2.0))])
    def test_point_outside_domain_rejected(self, fn, point):
        # every argument mean stays inside the domain, so only the check of
        # x, y and z themselves rejects these triples
        with pytest.raises(DomainError):
            popoviciu_sides(TheoremId.AA, ID, FS[fn], *point)

    @pytest.mark.parametrize("v", [0.1, 1.0, 3.7, 10.0])
    def test_diagonal_equality(self, v):
        # x = y = z makes every mean v, so both sides are 3 f(v)
        lhs, rhs = popoviciu_sides(TheoremId.AA, ID, FS["square"], v, v, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_permutation_symmetry(self, tid):
        base = popoviciu_sides(tid, ID, FS["square"], 1.3, 2.7, 4.1)
        for perm in ((2.7, 1.3, 4.1), (4.1, 2.7, 1.3), (1.3, 4.1, 2.7),
                     (2.7, 4.1, 1.3), (4.1, 1.3, 2.7)):
            got = popoviciu_sides(tid, ID, FS["square"], *perm)
            assert got[0] == pytest.approx(base[0], rel=1e-12)
            assert got[1] == pytest.approx(base[1], rel=1e-12)


# Reference: the side assembly as written out per theorem form before the
# forms were derived from the value mean. The derived sides must equal it
# bit for bit.
_REF_FORM = {
    TheoremId.AA: "sum", TheoremId.GA: "sum", TheoremId.HA: "sum",
    TheoremId.AG: "product", TheoremId.GG: "product", TheoremId.HG: "product",
    TheoremId.AH: "recip", TheoremId.GH: "recip", TheoremId.HH: "recip",
}


def _ref_pair_side(tid, f, m1, m2, m3):
    form = _REF_FORM[tid]
    if form == "sum":
        return f(m1) + f(m2) + f(m3)
    if form == "product":
        return np.log(f(m1)) + np.log(f(m2)) + np.log(f(m3))
    return 1.0 / f(m1) + 1.0 / f(m2) + 1.0 / f(m3)


def _ref_point_side(tid, h32, h12, f, c, x, y, z):
    form = _REF_FORM[tid]
    if form == "sum":
        return h32 * f(c) + h12 * (f(x) + f(y) + f(z))
    if form == "product":
        return h32 * np.log(f(c)) + h12 * (np.log(f(x)) + np.log(f(y)) + np.log(f(z)))
    return h12 * (1.0 / f(x) + 1.0 / f(y) + 1.0 / f(z)) + h32 / f(c)


def _ref_pair_and_central(tid, x, y, z):
    """The three pair means (xz, yz, xy) and the central mean of tid's argument mean."""
    fam = tid.value[0]
    if fam == "A":
        return (x + z) / 2.0, (y + z) / 2.0, (x + y) / 2.0, (x + y + z) / 3.0
    if fam == "G":
        return np.sqrt(x * z), np.sqrt(y * z), np.sqrt(x * y), np.cbrt(x * y * z)
    return (2.0 * x * z / (x + z), 2.0 * y * z / (y + z), 2.0 * x * y / (x + y),
            3.0 * x * y * z / (x * y + y * z + x * z))


def _ref_sides_arrays(tid, h, f, x, y, z):
    h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
    with np.errstate(all="ignore"):
        m1, m2, m3, c = _ref_pair_and_central(tid, x, y, z)
        lhs = _ref_pair_side(tid, f, m1, m2, m3)
        rhs = _ref_point_side(tid, h32, h12, f, c, x, y, z)
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        for arg in (m1, m2, m3, c):
            valid &= np.isfinite(arg) & f.domain.contains_array(arg)
    return lhs, rhs, valid


class TestDerivedSides:
    @pytest.mark.parametrize("tid", list(TheoremId))
    @pytest.mark.parametrize("h", [ID, power_weight(2.0), reciprocal_weight()],
                             ids=lambda h: h.name)
    def test_bitwise_equal_to_reference(self, tid, h):
        rng = np.random.default_rng(20)
        usable = []
        for f in FS.values():
            lo, hi = f.sampling_domain().sampling_bounds()
            # a tenth past each end, so that unusable triples are compared too
            pad = 0.1 * (hi - lo)
            x, y, z = rng.uniform(lo - pad, hi + pad, size=(3, 2000))
            got = popoviciu._sides_arrays(tid, weight_eval(h, 1.5), weight_eval(h, 0.5),
                                          f, x, y, z)
            want = _ref_sides_arrays(tid, h, f, x, y, z)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f.name
            usable.append(got[2].mean())
        # both usable and unusable triples took part
        assert 0.0 < np.mean(usable) < 1.0


class TestTwoPointReduction:
    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_bitwise_equality(self, tid):
        got = two_point_reduction(tid, ID, FS["square"], 1.0, 4.0)
        want = popoviciu_sides(tid, ID, FS["square"], 1.0, 4.0, 4.0)
        assert got == want

    def test_identity_hh_equality_family(self):
        lhs, rhs = two_point_reduction(TheoremId.HH, ID, FS["identity"],
                                       2.0, 3.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestVerifyTheorem:
    def test_classical_holds(self):
        rep = verify_theorem(TheoremId.AA, ID, FS["square"], box=BOX)
        assert rep.holds
        assert rep.min_margin >= -1e-12

    def test_flipped_refuted_with_replayable_witness(self):
        rep = verify_theorem(TheoremId.AA, ID, FS["square"], "concave",
                             box=BOX)
        assert not rep.holds
        w = rep.witnesses[0]
        lhs, rhs = popoviciu_sides(TheoremId.AA, ID, FS["square"],
                                   w.x, w.y, w.z)
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert lhs < rhs  # the concave claim needed lhs >= rhs

    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_witnesses_equal_scalar_sides(self, tid):
        # witnesses come from the bulk arrays; they must be exactly what the
        # one-point evaluation gives at the same triple
        found = 0
        for fn in ("cosh", "sqrt"):
            for h in (ID, power_weight(2.0)):
                for sense in ("convex", "concave"):
                    for seed in (1, 7, 42):
                        rep = verify_theorem(tid, h, FS[fn], sense,
                                             SMALL.with_seed(seed), box=BOX)
                        for w in rep.witnesses:
                            assert (w.lhs, w.rhs) == popoviciu_sides(
                                tid, h, FS[fn], w.x, w.y, w.z)
                        found += len(rep.witnesses)
        assert found > 0

    def test_sides_evaluated_once(self, monkeypatch):
        # once per sample block: the grid on its axes, then the random tail
        calls = []
        sides = popoviciu._sides_arrays

        def counting(*args):
            calls.append((args[0], np.broadcast_shapes(*(np.shape(a) for a in args[4:]))))
            return sides(*args)

        monkeypatch.setattr(popoviciu, "_sides_arrays", counting)
        rep = verify_theorem(TheoremId.AA, ID, FS["square"], "concave",
                             plan=SMALL, box=BOX)
        assert len(rep.witnesses) == 8
        n = SMALL.grid_axis
        assert calls == [(TheoremId.AA, (n, n, n)), (TheoremId.AA, (SMALL.n_random,))]
        assert sum(math.prod(shape) for _, shape in calls) == \
            rep.triples_tested + rep.skipped == n**3 + SMALL.n_random

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem(TheoremId.AA, ID, FS["square"], "monotone")

    def test_deterministic(self):
        a = verify_theorem(TheoremId.AG, ID, FS["cosh"], plan=SMALL, box=BOX)
        b = verify_theorem(TheoremId.AG, ID, FS["cosh"], plan=SMALL, box=BOX)
        assert a == b

    def test_margins_match_scalar_sides(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 0.5])
        z = np.array([5.0, 1.5])
        rel = theorem_margins(TheoremId.AA, ID, FS["square"], x, y, z)
        for i in range(2):
            lhs, rhs = popoviciu_sides(TheoremId.AA, ID, FS["square"],
                                       x[i], y[i], z[i])
            scale = max(1.0, abs(lhs), abs(rhs))
            assert rel[i] == pytest.approx((rhs - lhs) / scale, rel=1e-12)


class TestEqualityFamilies:
    @pytest.mark.parametrize("family", sorted(EQUALITY_FAMILIES))
    def test_pointwise_residual(self, family):
        lo = 1.5 if "log" in family else 0.3
        assert equality_residual(family, lo, lo + 1.0, lo + 2.5) <= 1e-12

    @pytest.mark.parametrize("family", sorted(EQUALITY_FAMILIES))
    def test_bulk_residual(self, family):
        resid, n = equality_max_residual(family, SMALL)
        assert resid <= 1e-9
        assert n > 0

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            equality_residual("log-GA", 0.5, 2.0, 3.0)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            equality_residual("parabola-AA", 1.0, 2.0, 3.0)


class TestChainedCheck:
    def test_identity_chain_is_equality(self):
        rep = chained_check("cor4.1", ID, FS["identity"], SMALL, box=BOX)
        assert rep.holds
        for link in rep.links:
            assert abs(link.min_margin) <= 1e-9

    def test_superadditive_chain(self):
        rep = chained_check("cor4.2", ID, FS["square"], SMALL, box=BOX)
        assert rep.holds
        assert rep.f_class in ("superadditive", "additive")

    def test_hypothesis_mismatch(self):
        # sqrt is subadditive; the superadditive chain must refuse it
        with pytest.raises(HypothesisMismatchError):
            chained_check("cor4.2", ID, FS["sqrt"], SMALL, box=BOX)

    def test_mismatch_override(self):
        rep = chained_check("cor4.2", ID, FS["sqrt"], SMALL, box=BOX,
                            enforce_hypotheses=False)
        assert rep.f_class == "subadditive"
        assert len(rep.links) == 2

    def test_unknown_corollary(self):
        with pytest.raises(KeyError):
            chained_check("cor99", ID, FS["square"], SMALL, box=BOX)

    def test_all_corollaries_resolvable(self):
        names = ["cor4.1", "cor4.2", "cor8.1", "cor8.2", "cor9.1", "cor9.2",
                 "cor16.1", "cor16.2", "cor20.1", "cor20.2", "cor27.1",
                 "cor27.2", "HG-chain"]
        for name in names:
            rep = chained_check(name, ID, FS["square"], SMALL, box=BOX,
                                enforce_hypotheses=False)
            assert rep.corollary == name
            assert len(rep.links) >= 2


class TestChainTable:
    """Each corollary's middle link is its parent theorem's pair of sides,
    read from the same arrays the theorem verifier compares."""

    @pytest.mark.parametrize("h", [ID, power_weight(2.0), reciprocal_weight()],
                             ids=lambda h: h.name)
    def test_middle_link_is_the_parent_theorem(self, h):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        bitwise = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()
        for f in FS.values():
            blocks = _AUDIT_PLAN.triple_blocks(f.sampling_domain())
            for corollary, row in popoviciu._CHAINS.items():
                parent, prefix = row[1], row[2]
                for xyz in (blocks.grid, blocks.tail):
                    with np.errstate(all="ignore"):
                        sides = popoviciu._chain_sides(corollary, h32, h12, f, *xyz)
                        theorem = lambda tid: popoviciu._sides_arrays(tid, h32, h12, f, *xyz)
                        if corollary == "HG-chain":
                            want = theorem(TheoremId.HA)[0], np.exp(theorem(TheoremId.HG)[1])
                        else:
                            want = theorem(parent)[:2]
                    assert len(sides) == 2 * len(popoviciu._chain_links(corollary))
                    j = 2 if prefix else 0
                    lhs, rhs = (np.atleast_1d(s) for s in sides[j:j + 2])
                    assert bitwise(lhs, want[0]), (corollary, f.name)
                    assert bitwise(rhs, np.atleast_1d(want[1])), (corollary, f.name)


class TestUsableFraction:
    """A verdict needs at least half its samples usable. log(v - 9) is finite
    only above 9, so theorem AG keeps 1 usable triple out of 1,229."""

    SHIFTED = PointFunction("shifted", lambda v: v - 9.0, Interval(0.0, 10.0))
    PLAN = SamplePlan(grid_axis=9, n_random=500)

    def test_theorem_rejects_mostly_unusable_samples(self):
        with pytest.raises(DomainError, match="only 1/1229 samples usable"):
            verify_theorem(TheoremId.AG, ID, self.SHIFTED, plan=self.PLAN)

    def test_chain_rejects_mostly_unusable_samples(self):
        with pytest.raises(DomainError, match="samples usable"):
            chained_check("cor8.2", ID, self.SHIFTED, self.PLAN,
                          enforce_hypotheses=False)

    def test_margins_stay_per_point(self):
        x, y, z = self.PLAN.triples(self.SHIFTED.sampling_domain())
        rel = theorem_margins(TheoremId.AG, ID, self.SHIFTED, x, y, z)
        assert np.isfinite(rel).sum() == 1
        assert np.isposinf(rel).sum() == rel.size - 1


class TestHlawka:
    def test_mixed_signs_strict(self):
        lhs, rhs, margin = hlawka_check(1.0, -1.0, 1.0)
        assert (lhs, rhs) == (4.0, 2.0)
        assert margin == 2.0

    def test_same_sign_equality(self):
        for sgn in (1.0, -1.0):
            _, _, margin = hlawka_check(sgn * 1.0, sgn * 2.0, sgn * 3.0)
            assert margin == 0.0

    def test_vectorized_agrees(self):
        x, y, z = np.array([1.0]), np.array([-1.0]), np.array([1.0])
        assert hlawka_margins(x, y, z)[0] == 2.0


@settings(max_examples=150, deadline=None)
@given(x=st.floats(min_value=-100, max_value=100),
       y=st.floats(min_value=-100, max_value=100),
       z=st.floats(min_value=-100, max_value=100))
def test_hlawka_nonnegative(x, y, z):
    _, _, margin = hlawka_check(x, y, z)
    scale = max(1.0, abs(x) + abs(y) + abs(z))
    assert margin >= -1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.2, max_value=9.0),
       y=st.floats(min_value=0.2, max_value=9.0),
       z=st.floats(min_value=0.2, max_value=9.0))
def test_classical_popoviciu_property(x, y, z):
    lhs, rhs = popoviciu_sides(TheoremId.AA, ID, FS["square"], x, y, z)
    assert rhs - lhs >= -1e-9 * max(1.0, abs(lhs), abs(rhs))
