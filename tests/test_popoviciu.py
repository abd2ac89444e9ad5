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
                        power_weight, run_audit, search_theorem, theorem_margins,
                        two_point_reduction, verify_theorem)
from meanconvex import catalog, popoviciu, reciprocal_weight, weight_eval
from meanconvex.catalog import _AUDIT_PLAN, builtin_claims, builtin_functions, make_function
from meanconvex.convexity import ConvexitySpec, verify_class
from meanconvex.means import MeanKind, check_am_gm_hm
from meanconvex.weights import DEFAULT_TOL, classify_additivity

ID = identity_weight()
FS = builtin_functions()
BOX = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
SMALL = SamplePlan(grid_axis=9, grid_t=5, n_random=200)
NEGATIVE = Interval(-5.0, -1.0, closed_lo=True, closed_hi=True)


def _no_draw(*args):
    raise AssertionError("samples drawn")


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

    @pytest.mark.parametrize("kind", ["G", "H"])
    def test_g_or_h_argument_mean_refuses_a_point_reaching_zero(self, kind):
        # sqrt((-5)(-5)) = 5: GA for exp at (-5, -5, -5) once read (445.24,
        # 0.0202), although every mean of the triple is -5
        word = {"G": "geometric", "H": "harmonic"}[kind]
        for tid in (t for t in TheoremId if t.value[0] == kind):
            for point, lo in [((-5.0, -5.0, -5.0), "-5"), ((1.0, 0.0, 2.0), "0"),
                              ((2.0, 3.0, -0.5), "-0.5")]:
                with pytest.raises(DomainError, match=rf"^theorem {tid.value} takes {word} "
                                                      r"means of its arguments, which need "
                                                      rf"x > 0, but the point has x = {lo}$"):
                    popoviciu_sides(tid, ID, FS["exp"], *point)
            with pytest.raises(DomainError, match="but the point has x = -1$"):
                two_point_reduction(tid, ID, FS["cosh"], 2.0, -1.0)
            assert popoviciu_sides(tid, ID, FS["exp"], 1.0, 2.0, 3.0)
        assert popoviciu_sides(TheoremId.AA, ID, FS["exp"], -5.0, -5.0, -5.0) == \
            (3 * math.exp(-5.0), 3 * math.exp(-5.0))

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

    def test_permuted_witnesses_violate_at_their_own_point(self):
        # a grid witness off the sorted order is a permutation of a sorted
        # violator; replayed at its own coordinates it still violates
        permuted = 0
        for tid in TheoremId:
            for fn in ("cosh", "sqrt"):
                for h in (ID, power_weight(2.0)):
                    for sense in ("convex", "concave"):
                        for seed in (1, 7, 42):
                            rep = verify_theorem(tid, h, FS[fn], sense,
                                                 SMALL.with_seed(seed), box=BOX)
                            for w in rep.witnesses:
                                margin = theorem_margins(tid, h, FS[fn], [w.x], [w.y],
                                                         [w.z], sense)[0]
                                assert margin < -DEFAULT_TOL
                                permuted += not w.x <= w.y <= w.z
        assert permuted > 0

    def test_sides_evaluated_once(self, monkeypatch):
        # once on the stream's one chunk (its 365 rows are fewer than
        # sampling._CHUNK), the grid's sorted triples then the random tail;
        # then once more for the witnesses at their own points
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
        assert calls == [(TheoremId.AA, (n * (n + 1) * (n + 2) // 6 + SMALL.n_random,)),
                         (TheoremId.AA, (8,))]
        assert rep.triples_tested + rep.skipped == n**3 + SMALL.n_random

    @pytest.mark.parametrize("sense", ["convx", "monotone", ""])
    def test_bad_sense_rejected(self, sense):
        # both go through popoviciu._claim; "convx" used to score as concave
        # in theorem_margins
        with pytest.raises(ValueError, match=r"sense must be convex\|concave"):
            verify_theorem(TheoremId.AA, ID, FS["square"], sense)
        with pytest.raises(ValueError, match=r"sense must be convex\|concave"):
            theorem_margins(TheoremId.AA, ID, FS["square"], [1.0], [2.0], [3.0],
                            sense=sense)

    @pytest.mark.parametrize("tid", list(TheoremId))
    def test_no_sense_is_the_base_sense(self, tid):
        x, y, z = np.array([1.0, 2.0]), np.array([3.0, 0.5]), np.array([5.0, 1.5])
        got = theorem_margins(tid, ID, FS["square"], x, y, z)
        want = theorem_margins(tid, ID, FS["square"], x, y, z, sense=BASE_SENSE[tid])
        assert got.tobytes() == want.tobytes()
        assert verify_theorem(tid, ID, FS["square"], plan=SMALL, box=BOX).sense == \
            BASE_SENSE[tid]

    @pytest.mark.parametrize("tid", [t for t in TheoremId if t.value[0] != "A"])
    def test_g_or_h_argument_mean_refuses_a_box_reaching_zero(self, tid, monkeypatch):
        # sqrt((-5)(-5)) = 5: theorem GA for exp on [-5, -1] was once refuted
        # at x = y = z = -5, where every mean is -5 and the two sides agree
        monkeypatch.setattr(SamplePlan, "triple_blocks", _no_draw)
        kind = {"G": "geometric", "H": "harmonic"}[tid.value[0]]
        with pytest.raises(DomainError, match=rf"^theorem {tid.value} takes {kind} means "
                                              r"of its arguments, which need x > 0, "
                                              r"but the box reaches x = -5$"):
            verify_theorem(tid, ID, FS["exp"], plan=SMALL, box=NEGATIVE)
        monkeypatch.undo()
        assert verify_theorem(TheoremId.AA, ID, FS["exp"], plan=SMALL, box=NEGATIVE).holds

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

    @pytest.mark.parametrize("corollary", [c for c, row in popoviciu._CHAINS.items()
                                           if row.parent.value[0] != "A"])
    def test_g_or_h_parent_refuses_a_box_reaching_zero(self, corollary, monkeypatch):
        # parents GA, GG, HA and HG take G or H means of the arguments; the
        # refusal comes before f and h are classified
        for draw in ("pair_blocks", "triple_blocks"):
            monkeypatch.setattr(SamplePlan, draw, _no_draw)
        with pytest.raises(DomainError, match=rf"^{corollary} takes .* but the box "
                                              r"reaches x = -5$"):
            chained_check(corollary, ID, FS["exp"], SamplePlan(), box=NEGATIVE,
                          enforce_hypotheses=False)

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
    read from the same arrays the theorem verifier compares; a link is
    usable where both its sides are finite."""

    @pytest.mark.parametrize("h", [ID, power_weight(2.0), reciprocal_weight()],
                             ids=lambda h: h.name)
    def test_middle_link_is_the_parent_theorem(self, h):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        bitwise = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()
        for f in FS.values():
            blocks = _AUDIT_PLAN.triple_blocks(f.sampling_domain())
            for corollary, row in popoviciu._CHAINS.items():
                # the parent theorem's link is named None; HG-chain's middle
                # link, its second, stands in for theorem HG as printed
                names = [name for name, _ in row.links]
                j = 1 if corollary == "HG-chain" else names.index(None)
                for xyz in (blocks.grid, blocks.tail):
                    with np.errstate(all="ignore"):
                        links = popoviciu._chain_sides(corollary, h32, h12, f, *xyz)
                        theorem = lambda tid: popoviciu._sides_arrays(tid, h32, h12, f, *xyz)
                        if corollary == "HG-chain":
                            want = theorem(TheoremId.HA)[0], np.exp(theorem(TheoremId.HG)[1])
                        else:
                            want = theorem(row.parent)[:2]
                    assert len(links) == len(popoviciu._chain_links(corollary))
                    lhs, rhs, valid = (np.atleast_1d(s) for s in links[j])
                    assert bitwise(lhs, want[0]), (corollary, f.name)
                    assert bitwise(rhs, np.atleast_1d(want[1])), (corollary, f.name)
                    assert bitwise(valid, np.isfinite(lhs) & np.isfinite(rhs))


# The suffixes that replace the central term, as written out before they read
# the parent theorem's point terms; the chain must equal them bit for bit.
_REF_SUFFIX = {
    "cor4.1": lambda f, x, y, z, h32, h12: h32 * (f(x / 3) + f(y / 3) + f(z / 3))
    + h12 * (f(x) + f(y) + f(z)),
    "cor9.2": lambda f, x, y, z, h32, h12: h32 * np.log(f(x / 3) + f(y / 3) + f(z / 3))
    + h12 * (np.log(f(x)) + np.log(f(y)) + np.log(f(z))),
    "cor20.2": lambda f, x, y, z, h32, h12: h32 * (np.log(f(np.cbrt(x))) + np.log(f(np.cbrt(y)))
                                                   + np.log(f(np.cbrt(z))))
    + h12 * (np.log(f(x)) + np.log(f(y)) + np.log(f(z))),
    "cor27.2": lambda f, x, y, z, h32, h12: 3.0 * h32 * f(x * y * z / (x * y + y * z + x * z))
    + h12 * (f(x) + f(y) + f(z)),
}


@pytest.mark.parametrize("corollary", sorted(_REF_SUFFIX))
@pytest.mark.parametrize("h", [ID, power_weight(2.0), reciprocal_weight()],
                         ids=lambda h: h.name)
def test_suffix_equals_reference(corollary, h):
    h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
    for f in FS.values():
        blocks = _AUDIT_PLAN.triple_blocks(f.sampling_domain())
        for xyz in (blocks.grid, blocks.tail):
            with np.errstate(all="ignore"):
                got = np.atleast_1d(popoviciu._chain_sides(corollary, h32, h12, f, *xyz)[-1][1])
                want = np.atleast_1d(_REF_SUFFIX[corollary](f, *xyz, h32, h12))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name


class TestBaseSenseFindings:
    """Three base-sense cases on the default plan where the class holds, the
    theorem is refuted, and g = psi_N(f) <= 0 on the box (psi_N is the
    identity, log or reciprocal): ROADMAP item 14's counterexamples."""

    PSI = {"A": lambda v: v, "G": np.log, "H": lambda v: 1.0 / v}
    BOX_1_10 = Interval(1.0, 10.0, closed_lo=True, closed_hi=True)

    @pytest.mark.parametrize("fname,tid,weight,box,class_min,theorem_min", [
        ("reciprocal", "AG", 2.0, BOX_1_10, 0.0, -7.72e-2),
        ("neg_square", "AA", 3.0, None, 3.0e-16, -0.2),
        ("neg_square", "HH", 3.0, None, 1.0e-16, -0.2)],
        ids=["reciprocal-AG-power2", "neg_square-AA-power3", "neg_square-HH-power3"])
    def test_class_holds_theorem_refuted_g_nonpositive(self, fname, tid, weight, box,
                                                       class_min, theorem_min):
        f, tid, h = FS[fname], TheoremId(tid), power_weight(weight)
        spec = ConvexitySpec(MeanKind(tid.value[0]), MeanKind(tid.value[1]), h,
                             BASE_SENSE[tid])
        verdict = verify_class(spec, f, SamplePlan(), box=box)
        report = verify_theorem(tid, h, f, plan=SamplePlan(), box=box)
        assert verdict.holds and verdict.min_margin == pytest.approx(class_min, abs=1e-17)
        assert not report.holds
        assert report.min_margin == pytest.approx(theorem_min, rel=2e-3)
        if fname == "reciprocal":
            w = report.witnesses[0]
            assert (w.x, w.y, w.z) == (1.0, 1.0, 1.28125)
        with np.errstate(all="ignore"):
            g = self.PSI[tid.value[1]](f(np.linspace(*f.sampling_domain(box).sampling_bounds(),
                                                     1001)))
        assert g.max() <= 0.0


def test_first_grid_witness_is_sorted(monkeypatch):
    """A limit-1 claim on the symmetric stream keeps its first violation in
    sample order, which on the grid is a sorted triple x <= y <= z: so for
    every refuted chain link and Hlawka row."""
    plan = SamplePlan(grid_axis=7, n_random=100, seed=5)
    witnesses = []
    for corollary in popoviciu._CHAINS:
        for f in FS.values():
            try:
                rep = chained_check(corollary, ID, f, plan, enforce_hypotheses=False)
            except DomainError:
                continue
            witnesses += [link.witness for link in rep.links if link.witness]
    hlawka = [entry for entry in builtin_claims() if entry.kind == "hlawka"]
    seen = []
    monkeypatch.setattr(catalog, "_witness", lambda v: seen.append(v) or popoviciu._witness(v))
    for entry in hlawka:  # at tol 0 both rows are refuted on float rounding
        assert catalog._audit_hlawka(plan, 0.0, **entry.payload)[0] in ("refuted", "not-equality")
    n_grid = plan.grid_axis ** 3
    assert len(seen) == len(hlawka) and all(v[0] < n_grid for v in seen)
    witnesses += [popoviciu._witness(v) for v in seen]
    grid = [w for w in witnesses if w.index < n_grid]
    assert len(grid) > len(hlawka)
    for w in grid:
        assert w.x <= w.y <= w.z


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


class TestRefusals:
    """Each refusal names its cause; none returns a value it could not compute."""

    def test_sides_not_evaluable(self):
        # theorem AG takes the log of f = -v^2 < 0
        with pytest.raises(DomainError, match=r"^triple \(1.0, 2.0, 3.0\) not evaluable "
                                              r"for theorem AG on neg_square$"):
            popoviciu_sides(TheoremId.AG, ID, FS["neg_square"], 1.0, 2.0, 3.0)

    def test_unknown_equality_family(self):
        with pytest.raises(KeyError) as refused:
            equality_max_residual("parabola-AA", SMALL)
        assert refused.value.args == ("unknown equality family 'parabola-AA'; "
                                      f"choose from {sorted(EQUALITY_FAMILIES)}",)

    @pytest.mark.parametrize("call,what,choices", [
        (lambda: equality_residual("parabola-AA", 1.0, 2.0, 3.0),
         "equality family 'parabola-AA'", sorted(EQUALITY_FAMILIES)),
        (lambda: chained_check("cor99.1", ID, FS["square"], SMALL, box=BOX),
         "chained corollary 'cor99.1'", sorted(popoviciu._CHAINS)),
    ], ids=["equality_residual", "chained_check"])
    def test_unknown_name_lists_the_choices(self, call, what, choices):
        # one lookup refuses every unknown table key, naming the choices
        with pytest.raises(KeyError) as refused:
            call()
        assert refused.value.args == (f"unknown {what}; choose from {choices}",)

    def test_chain_h_hypothesis_mismatch(self):
        # square is superadditive, as cor4.2 needs, but sqrt t is subadditive
        with pytest.raises(HypothesisMismatchError,
                           match=r"^cor4.2 requires h superadditive; sampled class is "
                                 r"subadditive$"):
            chained_check("cor4.2", power_weight(0.5), FS["square"], SMALL, box=BOX)


class TestTolRefused:
    """The library refuses a tolerance that is negative or NaN, as the CLI's
    --tol does. A negative one read holding samples as violations: theorem
    AA, convex, for square on [0.1, 10] was refuted at x = y = z = 0.1, where
    lhs 0.030000000000000006 is below rhs 0.03000000000000001. NaN hid every
    violation: AA concave held there, with min margin -0.2425."""

    CALLS = {
        "verify_theorem": lambda tol: verify_theorem(TheoremId.AA, ID, FS["square"],
                                                     plan=SMALL, tol=tol, box=BOX),
        "verify_class": lambda tol: verify_class(
            ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC, ID, "convex"),
            FS["square"], SMALL, tol, BOX),
        "chained_check": lambda tol: chained_check("cor4.2", ID, FS["square"], SMALL, tol, BOX),
        "classify_additivity": lambda tol: classify_additivity(FS["square"].fn, BOX, SMALL, tol),
        "search_theorem": lambda tol: search_theorem(TheoremId.AA, ID, FS["square"], "concave",
                                                     budget=1000, tol=tol, box=BOX),
        "check_am_gm_hm": lambda tol: check_am_gm_hm(ID, 0.25, 1.0, 4.0, tol),
        "run_audit": lambda tol: run_audit(SMALL, tol),
    }

    @pytest.mark.parametrize("tol", [-1.0, math.nan], ids=["negative", "nan"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_refused(self, name, tol):
        with pytest.raises(ValueError, match=rf"^tol must be a finite number >= 0, got {tol!r}$"):
            self.CALLS[name](tol)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_zero_accepted(self, name):
        self.CALLS[name](0.0)

    def test_search_refuses_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(popoviciu, "theorem_margins", _no_draw)
        with pytest.raises(ValueError, match="^tol must be"):
            self.CALLS["search_theorem"](math.nan)


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
