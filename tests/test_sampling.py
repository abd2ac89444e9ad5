"""The factored sample path equals the flat one bit for bit.

Verifiers run their side kernels on SampleBlocks: once on the grid's open
mesh of axes and once on the random tail. The reference is the same kernel
on the flat streams plan.triples / plan.pairs_with_t. lhs, rhs and the valid
mask must agree byte for byte, and witness coordinates must be the flat
stream's sample at the witness index.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from meanconvex import (ConvexitySpec, EQUALITY_FAMILIES, Interval, MeanKind,
                        SamplePlan, TheoremId, chained_check, identity_weight,
                        power_weight, reciprocal_weight, verify_class,
                        verify_theorem, weight_eval)
from meanconvex.catalog import builtin_functions
from meanconvex.convexity import _gap_arrays
from meanconvex.popoviciu import _CHAINS, _chain_sides, _sides_arrays

FS = builtin_functions()
WEIGHTS = [identity_weight(), power_weight(2.0), reciprocal_weight()]
PLANS = {
    "small": SamplePlan(grid_axis=6, grid_t=4, n_random=40, seed=3),
    "no-grid": SamplePlan(grid_axis=0, grid_t=4, n_random=40, seed=5),
    "no-random": SamplePlan(grid_axis=6, grid_t=4, n_random=0),
    "no-t-grid": SamplePlan(grid_axis=6, grid_t=0, n_random=40, seed=7),
}
# a box wider than most domains, so that out-of-domain means and non-finite
# sides are compared too
BOX = Interval(-3.0, 3.0, closed_lo=True, closed_hi=True)
PAIRS = [(MeanKind(a), MeanKind(v)) for a in "AGH" for v in "AGH"]


def _domain(f):
    try:
        return f.sampling_domain(BOX)
    except ValueError:  # the box misses f's domain
        return f.sampling_domain()


def _assert_bitwise(factored, flat):
    assert len(factored) == len(flat)
    for got, want in zip(factored, flat):
        want = np.broadcast_to(np.asarray(want), got.shape)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture(params=list(PLANS), ids=list(PLANS))
def plan(request):
    return PLANS[request.param]


class TestBlocks:
    def test_point_is_flat_sample(self, plan):
        dom = Interval(0.5, 2.0)
        for blocks, flat in ((plan.triple_blocks(dom), plan.triples(dom)),
                             (plan.pair_t_blocks(dom), plan.pairs_with_t(dom))):
            for i in range(flat[0].size):
                assert blocks.point(i) == tuple(float(c[i]) for c in flat)

    def test_grid_is_open_mesh(self):
        blocks = PLANS["small"].pair_t_blocks(Interval(0.5, 2.0))
        assert [a.shape for a in blocks.grid] == [(6, 1, 1), (1, 6, 1), (1, 1, 4)]
        assert [c.shape for c in blocks.tail] == [(40,)] * 3


@pytest.mark.parametrize("h", WEIGHTS, ids=lambda h: h.name)
class TestFactoredEqualsFlat:
    def test_theorem_sides(self, plan, h):
        for f in FS.values():
            dom = _domain(f)
            for tid in TheoremId:
                factored = plan.triple_blocks(dom).evaluate(
                    partial(_sides_arrays, tid, h, f))
                _assert_bitwise(factored, _sides_arrays(tid, h, f, *plan.triples(dom)))

    def test_class_sides(self, plan, h):
        for f in FS.values():
            dom = _domain(f)
            for arg, val in PAIRS:
                spec = ConvexitySpec(arg, val, h)
                factored = plan.pair_t_blocks(dom).evaluate(partial(_gap_arrays, spec, f))
                _assert_bitwise(factored, _gap_arrays(spec, f, *plan.pairs_with_t(dom)))

    def test_chain_links(self, plan, h):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        for f in FS.values():
            dom = _domain(f)
            for corollary in _CHAINS:
                with np.errstate(all="ignore"):
                    factored = plan.triple_blocks(dom).evaluate(
                        partial(_chain_sides, corollary, h32, h12, f))
                    flat = _chain_sides(corollary, h32, h12, f, *plan.triples(dom))
                _assert_bitwise(factored, flat)


def test_equality_families(plan):
    for tid, f in EQUALITY_FAMILIES.values():
        dom = _domain(f)
        factored = plan.triple_blocks(dom).evaluate(
            partial(_sides_arrays, tid, identity_weight(), f))
        _assert_bitwise(factored, _sides_arrays(tid, identity_weight(), f,
                                                *plan.triples(dom)))


class TestWitnessCoordinates:
    """Every witness names the flat stream's sample at its index."""

    PLAN = SamplePlan(grid_axis=7, grid_t=5, n_random=300, seed=11)
    WIDE = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)

    def _check(self, w, flat, names):
        for name, column in zip(names, flat):
            assert getattr(w, name) == float(column[w.index])

    def test_theorem_witnesses(self):
        seen = 0
        flat = self.PLAN.triples(FS["cosh"].sampling_domain(self.WIDE))
        for tid in TheoremId:
            for sense in ("convex", "concave"):
                rep = verify_theorem(tid, identity_weight(), FS["cosh"], sense,
                                     self.PLAN, box=self.WIDE)
                for w in rep.witnesses:
                    self._check(w, flat, "xyz")
                seen += len(rep.witnesses)
        assert seen > 0

    def test_class_witnesses(self):
        origins = set()
        for h in WEIGHTS:
            for arg, val in PAIRS:
                for sense in ("convex", "concave"):
                    spec = ConvexitySpec(arg, val, h, sense)
                    verdict = verify_class(spec, FS["cosh"], self.PLAN, box=self.WIDE)
                    if verdict.witness:
                        flat = self.PLAN.pairs_with_t(FS["cosh"].sampling_domain(self.WIDE))
                        self._check(verdict.witness, flat, "xyt")
                        origins.add(verdict.witness.index < self.PLAN.grid_axis**2
                                    * self.PLAN.grid_t)
        assert origins == {True}  # the first violation is a grid point

    def test_tail_witness(self):
        plan = SamplePlan(grid_axis=0, n_random=300, seed=11)
        spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC,
                             identity_weight(), "concave")
        verdict = verify_class(spec, FS["square"], plan, box=self.WIDE)
        flat = plan.pairs_with_t(FS["square"].sampling_domain(self.WIDE))
        self._check(verdict.witness, flat, "xyt")
        rep = verify_theorem(TheoremId.AA, identity_weight(), FS["square"],
                             "concave", plan, box=self.WIDE)
        assert rep.witnesses
        for w in rep.witnesses:
            self._check(w, plan.triples(FS["square"].sampling_domain(self.WIDE)), "xyz")

    def test_chain_witnesses(self):
        seen = 0
        for corollary in _CHAINS:
            for f in (FS["square"], FS["sqrt"], FS["exp"]):
                rep = chained_check(corollary, identity_weight(), f, self.PLAN,
                                    box=self.WIDE, enforce_hypotheses=False)
                flat = self.PLAN.triples(f.sampling_domain(self.WIDE))
                for link in rep.links:
                    if link.witness:
                        self._check(link.witness, flat, "xyz")
                        seen += 1
        assert seen > 0
