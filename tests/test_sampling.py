"""The factored sample path equals a flat reference bit for bit.

Verifiers run their side kernels on SampleBlocks, chunk by chunk: on slices
of the grid's open mesh of axes, then on slices of the random tail. The
reference streams are built here, apart from the module under test: the
grid as np.meshgrid(..., indexing="ij") raveled in C order, then the rows of
default_rng(seed).random((3, n_random)) scaled to each coordinate's bounds.
lhs, rhs and the valid mask must agree byte for byte, and witness
coordinates must be the reference sample at the witness index. The verdicts
reduce each chunk on its own shape; the reference for them is the flat
comparison kernel below, run on the whole stream at once.

The (x, y, z) stream is symmetric: each of its grid samples takes the sides
of its sorted triple, so the reference evaluates the grid part at each
sample's coordinates sorted (np.sort over the coordinate axis) and the tail
as drawn. A theorem witness reads its sides at its own coordinates.
"""

from __future__ import annotations

import gc
import importlib.util
import itertools
import os
import sys
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanconvex import (BASE_SENSE, ConvexitySpec, DomainError, EQUALITY_FAMILIES,
                        Interval, MeanKind, PointFunction, SamplePlan, TheoremId,
                        chained_check, classify_additivity, classify_multiplicativity,
                        constant_weight, equality_max_residual, identity_weight,
                        power_weight, reciprocal_weight, run_audit, sampling,
                        verify_class, verify_extended_class, verify_theorem,
                        weight_eval, weights)
from meanconvex.catalog import _AUDIT_PLAN, builtin_functions
from meanconvex.convexity import _gap_arrays
from meanconvex.means import require_positive_arguments
from meanconvex.popoviciu import (_CHAINS, _chain_links, _chain_sides, _hlawka_sides,
                                  _sides_arrays)
from meanconvex.sampling import (MIN_USABLE_FRACTION, T_EPS, SampleBlocks, _compare,
                                 _margin, _orbit, _simplex)

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
UNIT = Interval(0.0, 1.0)  # the domain on which chained_check classifies h


def _domain(f):
    try:
        return f.sampling_domain(BOX)
    except ValueError:  # the box misses f's domain
        return f.sampling_domain()


# ---------------------------------------------------------------------------
# Reference sample streams, built without SamplePlan's own joins.

def reference_stream(plan, *bounds, t_axis=False):
    """One flat column per coordinate, in sample order: the grid of
    np.linspace axes as an "ij" meshgrid raveled in C order, then the plan's
    random rows scaled to each coordinate's [lo, hi). With t_axis, the last
    coordinate is the weight parameter t on its own grid."""
    axes = [np.linspace(lo, hi, plan.grid_axis) for lo, hi in bounds]
    if t_axis:
        axes.append(np.linspace(T_EPS, 1.0 - T_EPS, plan.grid_t))
        bounds = [*bounds, (T_EPS, 1.0 - T_EPS)]
    mesh = np.meshgrid(*axes, indexing="ij")
    rows = np.random.default_rng(plan.seed).random((3, plan.n_random))
    return tuple(np.concatenate([m.ravel(), lo + (hi - lo) * row])
                 for m, (lo, hi), row in zip(mesh, bounds, rows))


def xyz_stream(plan, dom):
    return reference_stream(plan, *[dom.sampling_bounds()] * 3)


def sorted_xyz_stream(plan, dom):
    """xyz_stream with each grid sample's coordinates sorted: the triple
    whose sides a grid sample of the symmetric stream takes."""
    xyz = np.stack(xyz_stream(plan, dom))
    n_grid = plan.grid_axis ** 3
    xyz[:, :n_grid] = np.sort(xyz[:, :n_grid], axis=0)
    return tuple(xyz)


def xyt_stream(plan, dom):
    return reference_stream(plan, *[dom.sampling_bounds()] * 2, t_axis=True)


def st_stream(plan, dom):
    return reference_stream(plan, *[dom.sampling_bounds()] * 2)


def sorted_position(n):
    """For each sample of an n^3 grid in C order, the position of its sorted
    index triple among all sorted index triples in C order."""
    triples = np.sort(np.indices((n, n, n)).reshape(3, -1), axis=0)
    flat = (triples[0] * n + triples[1]) * n + triples[2]
    return np.searchsorted(np.unique(flat), flat)


def decoded(verdict, names):
    """(index, point, lhs, rhs) of each witness a verdict keeps, point being
    its coordinates named in names; a coordinate the stream lacks is None."""
    rows = []
    for w in verdict.witnesses:
        assert all(getattr(w, name) is None for name in "zt" if name not in names)
        rows.append((w.index, tuple(getattr(w, name) for name in names), w.lhs, w.rhs))
    return rows


def _joined(blocks, kernel):
    """Each output of kernel on the blocks, broadcast to its block's shape,
    raveled and joined in sample order. A symmetric stream's rows are split
    at the simplex size: the outputs on the sorted triples are spread over
    the grid samples they stand for, and the tail follows."""
    per_block = [[np.broadcast_to(out, shape).ravel() for out in outs]
                 for _, shape, outs in blocks.map(kernel)]
    if blocks.symmetric:
        n = blocks.grid_shape[0]
        m, spread = n * (n + 1) * (n + 2) // 6, sorted_position(n)
        rows = [np.concatenate(columns) for columns in zip(*per_block)]
        per_block = [[row[:m][spread] for row in rows], [row[m:] for row in rows]]
    return tuple(np.concatenate(columns) for columns in zip(*per_block))


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
        for blocks, flat in ((plan.triple_blocks(dom), xyz_stream(plan, dom)),
                             (plan.pair_t_blocks(dom), xyt_stream(plan, dom)),
                             (plan.pair_blocks(dom), st_stream(plan, dom))):
            for i in range(flat[0].size):
                assert blocks.point(i) == tuple(float(c[i]) for c in flat)

    def test_flat_views_equal_reference(self, plan):
        # the views the benchmark tracer wraps are plain joins of the blocks
        dom = Interval(0.5, 2.0)
        _assert_bitwise(plan.triples(dom), xyz_stream(plan, dom))
        _assert_bitwise(plan.pairs_with_t(dom), xyt_stream(plan, dom))
        _assert_bitwise(plan.scalar_pairs(dom), st_stream(plan, dom))

    def test_grid_is_open_mesh(self):
        blocks = PLANS["small"].pair_t_blocks(Interval(0.5, 2.0))
        assert [a.shape for a in blocks.grid] == [(6, 1, 1), (1, 6, 1), (1, 1, 4)]
        assert [c.shape for c in blocks.tail] == [(40,)] * 3


@pytest.mark.parametrize("h", WEIGHTS, ids=lambda h: h.name)
class TestFactoredEqualsFlat:
    def test_theorem_sides(self, plan, h):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        for f in FS.values():
            dom = _domain(f)
            for tid in TheoremId:
                kernel = partial(_sides_arrays, tid, h32, h12, f)
                _assert_bitwise(_joined(plan.triple_blocks(dom), kernel),
                                kernel(*sorted_xyz_stream(plan, dom)))

    def test_class_sides(self, plan, h):
        for f in FS.values():
            dom = _domain(f)
            for arg, val in PAIRS:
                kernel = partial(_gap_arrays, ConvexitySpec(arg, val, h), f)
                _assert_bitwise(_joined(plan.pair_t_blocks(dom), kernel),
                                kernel(*xyt_stream(plan, dom)))

    def test_chain_links(self, plan, h):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        for f in FS.values():
            dom = _domain(f)
            for corollary in _CHAINS:
                chain = partial(_chain_sides, corollary, h32, h12, f)
                # each link's (lhs, rhs, valid), joined into one flat list
                kernel = lambda *xyz: [side for link in chain(*xyz) for side in link]
                with np.errstate(all="ignore"):
                    factored = _joined(plan.triple_blocks(dom), kernel)
                    flat = kernel(*sorted_xyz_stream(plan, dom))
                _assert_bitwise(factored, flat)


def test_equality_families(plan):
    for tid, f in EQUALITY_FAMILIES.values():
        dom = _domain(f)
        kernel = partial(_sides_arrays, tid, 1.5, 0.5, f)
        _assert_bitwise(_joined(plan.triple_blocks(dom), kernel),
                        kernel(*sorted_xyz_stream(plan, dom)))


# ---------------------------------------------------------------------------
# The symmetric (x, y, z) stream: its contract and its bookkeeping.

def _link_sides(out):
    """(lhs, rhs, valid) of each comparison a triple-stream kernel returns:
    one for theorem sides, one per link for chain sides (a list)."""
    return out if isinstance(out, list) else [tuple(out)]


class TestSymmetricKernels:
    """Every kernel run on triple_blocks is symmetric in (x, y, z): under
    every permutation of a triple the valid mask is identical and the
    relative margin moves by float rounding only. The stream evaluates each
    grid sample at its sorted triple, which is sound only while this holds."""

    PLAN = SamplePlan(grid_axis=7, n_random=300, seed=11)
    MARGIN_TOL = 1e-13  # measured here: at most 4.1e-14 (cor27.2), 2.9e-15 (theorems)

    def _assert_symmetric(self, kernel, xyz):
        with np.errstate(all="ignore"):
            base = _link_sides(kernel(*xyz))
            for perm in itertools.permutations(range(3)):
                got = _link_sides(kernel(*(xyz[k] for k in perm)))
                assert len(got) == len(base)
                for (lhs0, rhs0, valid0), (lhs1, rhs1, valid1) in zip(base, got):
                    assert np.array_equal(valid1, valid0)
                    moved = np.abs(_margin(lhs1, rhs1, valid1) - _margin(lhs0, rhs0, valid0))
                    assert moved[valid0].max(initial=0.0) <= self.MARGIN_TOL

    @pytest.mark.parametrize("h", WEIGHTS, ids=lambda h: h.name)
    @pytest.mark.parametrize("on_box", [False, True], ids=["domain", "box"])
    def test_theorems_and_chains(self, h, on_box):
        h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
        for f in FS.values():
            xyz = self.PLAN.triples(_domain(f) if on_box else f.sampling_domain())
            for tid in TheoremId:
                self._assert_symmetric(partial(_sides_arrays, tid, h32, h12, f), xyz)
            for corollary in _CHAINS:
                self._assert_symmetric(partial(_chain_sides, corollary, h32, h12, f), xyz)

    def test_equality_families_and_hlawka(self):
        for tid, f in EQUALITY_FAMILIES.values():
            self._assert_symmetric(partial(_sides_arrays, tid, 1.5, 0.5, f),
                                   self.PLAN.triples(f.sampling_domain()))
        self._assert_symmetric(_hlawka_sides, self.PLAN.triples(
            Interval(-10.0, 10.0, closed_lo=True, closed_hi=True)))


@pytest.mark.parametrize("n", range(41))
def test_sorted_triples_and_orbits(n):
    """_simplex lists the n(n+1)(n+2)/6 sorted index triples of an n-point
    axis in C order with their orbit sizes, built once per n and read-only;
    the orbits, each led by its sorted triple, partition the n^3 grid."""
    index, mult = _simplex(n)
    assert _simplex(n)[0] is index and _simplex(n)[1] is mult
    assert not index.flags.writeable and not mult.flags.writeable
    m = n * (n + 1) * (n + 2) // 6
    assert index.shape == (3, m) and mult.shape == (m,)
    i, j, k = index
    assert np.all(i <= j) and np.all(j <= k)
    flat = (i * n + j) * n + k
    assert np.all(np.diff(flat) > 0)
    assert mult.sum() == n ** 3
    orbits = [_orbit(n, s) for s in range(m)]
    assert [orbit[0] for orbit in orbits] == flat.tolist()
    assert [len(orbit) for orbit in orbits] == mult.tolist()
    assert sorted(itertools.chain.from_iterable(orbits)) == list(range(n ** 3))


class TestWitnessCoordinates:
    """Every witness names the reference stream's sample at its index."""

    PLAN = SamplePlan(grid_axis=7, grid_t=5, n_random=300, seed=11)
    WIDE = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)

    def _check(self, w, flat, names):
        for name, column in zip(names, flat):
            assert getattr(w, name) == float(column[w.index])

    def test_theorem_witnesses(self):
        seen = 0
        flat = xyz_stream(self.PLAN, FS["cosh"].sampling_domain(self.WIDE))
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
                    if verdict.witnesses:
                        flat = xyt_stream(self.PLAN, FS["cosh"].sampling_domain(self.WIDE))
                        self._check(verdict.witnesses[0], flat, "xyt")
                        origins.add(verdict.witnesses[0].index < self.PLAN.grid_axis**2
                                    * self.PLAN.grid_t)
        assert origins == {True}  # the first violation is a grid point

    def test_tail_witness(self):
        plan = SamplePlan(grid_axis=0, n_random=300, seed=11)
        spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC,
                             identity_weight(), "concave")
        verdict = verify_class(spec, FS["square"], plan, box=self.WIDE)
        flat = xyt_stream(plan, FS["square"].sampling_domain(self.WIDE))
        self._check(verdict.witnesses[0], flat, "xyt")
        rep = verify_theorem(TheoremId.AA, identity_weight(), FS["square"],
                             "concave", plan, box=self.WIDE)
        assert rep.witnesses
        for w in rep.witnesses:
            self._check(w, xyz_stream(plan, FS["square"].sampling_domain(self.WIDE)),
                        "xyz")

    def test_chain_witnesses(self):
        seen = 0
        for corollary in _CHAINS:
            for f in (FS["square"], FS["sqrt"], FS["exp"]):
                rep = chained_check(corollary, identity_weight(), f, self.PLAN,
                                    box=self.WIDE, enforce_hypotheses=False)
                flat = xyz_stream(self.PLAN, f.sampling_domain(self.WIDE))
                for link in rep.links:
                    if link.witnesses:
                        self._check(link.witnesses[0], flat, "xyz")
                        seen += 1
        assert seen > 0


class TestRandomBlock:
    """A plan draws its random block once; every tail is a scaled row of it."""

    @staticmethod
    def _rows(plan, k):
        return np.random.default_rng(plan.seed).random((k, plan.n_random))

    @pytest.mark.parametrize("plan", [*PLANS.values(), *(
        SamplePlan(grid_axis=2, grid_t=2, n_random=n, seed=seed)
        for seed in (1, 42, 7919, 2**31 - 1) for n in (0, 40, 2000, 10_000))], ids=repr)
    def test_tails_are_scaled_rows(self, plan):
        dom = Interval(0.5, 2.0)
        xy = dom.sampling_bounds()
        rows = self._rows(plan, 3)
        for blocks, bounds in ((plan.triple_blocks(dom), [xy, xy, xy]),
                               (plan.pair_t_blocks(dom), [xy, xy, (T_EPS, 1 - T_EPS)]),
                               (plan.pair_blocks(dom), [xy, xy])):
            assert len(blocks.tail) == len(bounds)
            for column, (lo, hi), row in zip(blocks.tail, bounds, rows):
                assert column.tobytes() == (lo + (hi - lo) * row).tobytes()
        n_grid = plan.grid_axis ** 2
        for column, row in zip(plan.scalar_pairs(dom), self._rows(plan, 2)):
            assert column[n_grid:].tobytes() == (xy[0] + (xy[1] - xy[0]) * row).tobytes()

    def test_drawn_once_per_plan(self, monkeypatch):
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: draws.append(seed) or default_rng(seed))
        plan = SamplePlan(grid_axis=3, grid_t=2, n_random=20, seed=9)
        dom = Interval(0.5, 2.0)
        for _ in range(3):
            plan.triple_blocks(dom), plan.pair_t_blocks(dom), plan.scalar_pairs(dom)
            classify_additivity(np.square, dom, plan)
        assert draws == [9]
        plan.with_seed(10).triples(dom)
        assert draws == [9, 10]


class TestPlanMemo:
    """A plan builds each stream and each chain hypothesis class once, keeps
    at most _MEMO_SIZE of them, read-only, and drops them with itself."""

    DOM = Interval(0.5, 2.0)

    def test_same_key_same_blocks(self):
        plan = PLANS["small"]
        for stream in (plan.triple_blocks, plan.pair_t_blocks, plan.pair_blocks):
            blocks = stream(self.DOM)
            assert stream(Interval(0.5, 2.0)) is blocks
            assert stream(Interval(0.5, 3.0)) is not blocks
        assert plan.with_seed(3).triple_blocks(self.DOM) is not plan.triple_blocks(self.DOM)

    def test_arrays_read_only(self):
        plan = PLANS["small"]
        for blocks in (plan.triple_blocks(self.DOM), plan.pair_t_blocks(self.DOM),
                       plan.pair_blocks(self.DOM)):
            assert not any(a.flags.writeable for a in (*blocks.grid, *blocks.tail))
            chunks = blocks._chunks
            assert blocks._chunks is chunks
            assert not any(a.flags.writeable for _, _, columns in chunks for a in columns)

    def test_bounded_and_eviction_keeps_results(self):
        plan = SamplePlan(grid_axis=3, grid_t=2, n_random=5)
        first = plan.triple_blocks(self.DOM)
        for k in range(2 * sampling._MEMO_SIZE):
            plan.pair_blocks(Interval(0.5, 3.0 + k))
            assert len(vars(plan)["_memo"]) <= sampling._MEMO_SIZE
        again = plan.triple_blocks(self.DOM)
        assert again is not first  # evicted, then built anew
        _assert_bitwise(again.flat(), first.flat())
        _assert_bitwise(again._chunks[0][2], first._chunks[0][2])

    def test_dropped_with_the_plan(self):
        plan = SamplePlan(grid_axis=13, grid_t=9, n_random=2000, seed=5)
        run_audit(plan)
        assert vars(plan)["_memo"]
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is None

    def test_one_audit_builds_each_key_once(self, monkeypatch):
        built, classified = [], []
        blocks, classify = SamplePlan._blocks, weights._classify
        monkeypatch.setattr(SamplePlan, "_blocks",
                            lambda *a, **k: built.append(a[1:]) or blocks(*a, **k))
        monkeypatch.setattr(weights, "_classify",
                            lambda *a: classified.append(a) or classify(*a))
        run_audit(_AUDIT_PLAN.with_seed(9))
        assert (len(built), len(classified)) == (15, 11)

    def test_classes_keyed_by_callable(self, monkeypatch):
        # two power weights whose parameters differ past :g get a class each
        seen = []
        classify = weights._classify
        monkeypatch.setattr(weights, "_classify",
                            lambda g, *a: seen.append(g) or classify(g, *a))
        plan, square = SamplePlan(grid_axis=5, grid_t=2, n_random=30), FS["square"]
        h2, h2_plus = power_weight(2.0), power_weight(2.0000001)
        tags = [chained_check("cor4.2", h, square, plan, enforce_hypotheses=False).h_class
                for h in (h2, h2_plus, h2)]
        assert seen == [square.fn, h2, h2_plus]
        assert tags == [classify_additivity(h, UNIT, plan).tag for h in (h2, h2_plus, h2)]


@pytest.mark.parametrize("grid_axis,n_random", [
    *((n, r) for n in (0, 1, 2, 5) for r in (0, 7, sampling._CHUNK) if n + r), (29, 5000)])
def test_symmetric_rows_count_every_sample_in_order(grid_axis, n_random):
    """The symmetric stream's rows, the sorted triples then the tail, run in
    chunks of _CHUNK rows, count n^3 + n_random samples and keep their
    violations in C order with the tail's row j at n^3 + j. A 29-point axis
    has 4,495 sorted triples, so a chunk edge falls between two of them and
    the next chunk straddles the simplex and the tail."""
    plan = SamplePlan(grid_axis=grid_axis, n_random=n_random, seed=2)
    dom = Interval(0.5, 2.0)
    blocks = plan.triple_blocks(dom)
    rows = grid_axis * (grid_axis + 1) * (grid_axis + 2) // 6 + n_random
    assert [(offset, shape) for offset, shape, _ in blocks.map(lambda x, y, z: x)] == [
        (start, (min(sampling._CHUNK, rows - start),))
        for start in range(0, rows, sampling._CHUNK)]
    hi = dom.sampling_bounds()[1]
    # every sample violates; the grid's top corner (hi, hi, hi) is skipped
    kernel = lambda x, y, z: (x + y + z, 0.0 * x, np.minimum(np.minimum(x, y), z) < hi)
    cmp = _compare(blocks, blocks.map(kernel), "<=", "sum", TOL, limit=10**6)
    flat = xyz_stream(plan, dom)
    usable = np.minimum(np.minimum(*flat[:2]), flat[2]) < hi
    n_all = grid_axis ** 3 + n_random
    assert (cmp.samples, cmp.skipped) == (usable.sum(), n_all - usable.sum())
    assert [w.index for w in cmp.witnesses] == np.flatnonzero(usable).tolist()
    for i, point, _, _ in decoded(cmp, "xyz"):
        assert point == tuple(float(c[i]) for c in flat)


def test_tail_violation_kept_after_few_grid_violators():
    """With fewer than `limit` grid violators, the first tail violators fill
    the rest, at their own sample indices."""
    plan = SamplePlan(grid_axis=2, n_random=300, seed=4)
    dom = Interval(0.0, 1.0, closed_lo=True, closed_hi=True)
    kernel = lambda x, y, z: (x + y + z, np.full_like(x, 0.5), np.isfinite(x))
    blocks = plan.triple_blocks(dom)
    cmp = _compare(blocks, blocks.map(kernel), ">=", "sum", TOL, limit=3)
    _, want = flat_compare(*kernel(*sorted_xyz_stream(plan, dom)), forward=False, tol=TOL)
    assert want[0] < 8 <= want[2]  # the one grid violator is (0, 0, 0)
    assert [w.index for w in cmp.witnesses] == want[:3].tolist()


def test_a_margin_of_minus_tol_holds():
    """At tol 0 a margin of exactly 0 is no violation, even in a chunk that
    holds one: of the margins -1, 0 and 0 only the -1 is kept."""
    blocks = SamplePlan(grid_axis=0, n_random=3).pair_blocks(Interval(0.5, 2.0))
    kernel = lambda s, t: (np.array([1.0, 0.0, 0.0]), np.zeros(3), np.ones(3, bool))
    v = _compare(blocks, blocks.map(kernel), "<=", "three margins", 0.0, limit=3)
    assert (v.min_margin, [w.index for w in v.witnesses], v.samples) == (-1.0, [0], 3)


# ---------------------------------------------------------------------------
# The block reducer against the flat kernel.

def flat_compare(lhs, rhs, valid, forward=True, tol=None, what=None, applicable=None):
    """The flat comparison kernel: relative margin of lhs <= rhs (lhs >= rhs
    when not forward) over whole arrays, +inf where unusable, and with tol
    the violating indices in sample order; with what, the usable-half rule
    over the applicable samples (all of them without a mask)."""
    if what is not None:
        n_valid = int(np.count_nonzero(valid))
        n = valid.size if applicable is None else int(np.count_nonzero(applicable))
        if n_valid < MIN_USABLE_FRACTION * n:
            raise DomainError(f"only {n_valid}/{n} samples usable for {what}")
    lhs, rhs = np.where(valid, lhs, 0.0), np.where(valid, rhs, 0.0)
    margin = np.where(valid, (rhs - lhs) if forward else (lhs - rhs), np.inf)
    rel = margin / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return rel, None if tol is None else (rel < -tol).nonzero()[0]


def _bits(values):
    """Every number of a nested result as its float64 bytes."""
    if isinstance(values, (tuple, list)):
        return [_bits(v) for v in values]
    if isinstance(values, str) or values is None:
        return values
    return np.float64(values).tobytes()


def _outcome(run):
    """run()'s result in bits, or the message of the DomainError it raised."""
    try:
        return _bits(run())
    except DomainError as exc:
        return str(exc)


def _box(f):
    try:
        f.sampling_domain(BOX)
        return BOX
    except ValueError:
        return None


TOL = 1e-9


def flat_theorem(tid, h, f, sense, plan):
    dom = f.sampling_domain(_box(f))
    require_positive_arguments(MeanKind(tid.value[0]), dom, f"theorem {tid.value}")
    xyz = xyz_stream(plan, dom)
    kernel = partial(_sides_arrays, tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f)
    lhs, rhs, valid = kernel(*sorted_xyz_stream(plan, dom))
    rel, bad = flat_compare(lhs, rhs, valid, sense == BASE_SENSE[tid], TOL,
                            f"theorem {tid.value} on {f.name}")
    own = kernel(*xyz)  # witness sides at the witness's own coordinates
    side = np.exp if tid.value[1] == "G" else (lambda v: v)
    witnesses = [(i, *(c[i] for c in xyz), side(own[0][i]), side(own[1][i]))
                 for i in bad[:8]]
    return rel.min(), valid.sum(), valid.size - valid.sum(), witnesses


def block_theorem(tid, h, f, sense, plan):
    rep = verify_theorem(tid, h, f, sense, plan, TOL, _box(f))
    return rep.min_margin, rep.samples, rep.skipped, [
        (w.index, w.x, w.y, w.z, w.lhs, w.rhs) for w in rep.witnesses]


def flat_class(spec, f, plan):
    dom = f.sampling_domain(_box(f))
    require_positive_arguments(spec.arg_mean, dom, f"class {spec.label}")
    xyt = xyt_stream(plan, dom)
    lhs, rhs, valid = _gap_arrays(spec, f, *xyt)
    rel, bad = flat_compare(lhs, rhs, valid, spec.sense == "convex", TOL,
                            f"{spec.label} on {f.name}")
    witness = [(i, *(c[i] for c in xyt), lhs[i], rhs[i]) for i in bad[:1]]
    return rel.min(), valid.sum(), valid.size - valid.sum(), witness


def block_class(spec, f, plan):
    v = verify_class(spec, f, plan, TOL, _box(f))
    return v.min_margin, v.samples, v.skipped, [
        (w.index, w.x, w.y, w.t, w.lhs, w.rhs) for w in v.witnesses]


def flat_classify(g, dom, plan, op, noun):
    """The flat additivity (op = np.add) or multiplicativity (np.multiply)
    classification: g(op(s, t)) against op(g(s), g(t)) on the applicable
    pairs of the reference (s, t) stream, with the first pair of each
    violated direction in sample order."""
    s, t = st_stream(plan, dom)
    lo, hi = dom.sampling_bounds()
    at = op(s, t)
    applicable = (at >= lo) & (at <= hi)
    if not applicable.any():
        raise DomainError(f"no sampled pair has {noun} in domain")
    with np.errstate(all="ignore"):
        whole, parts = g(at), op(g(s), g(t))
    valid = applicable & np.isfinite(whole) & np.isfinite(parts)
    rel, _ = flat_compare(whole, parts, valid, what=f"pair {noun}s on [{lo:g}, {hi:g}]",
                          applicable=applicable)
    above = np.flatnonzero(rel < -TOL)  # g(s∘t) above the split: superadditive
    below = np.flatnonzero(valid & (rel > TOL))
    gt = (float(s[above[0]]), float(t[above[0]])) if above.size else None
    lt = (float(s[below[0]]), float(t[below[0]])) if below.size else None
    tag = ("mixed" if gt and lt else "superadditive" if gt else
           "subadditive" if lt else "additive")
    return tag, gt, lt, int(valid.sum())


def block_classify(classify, g, dom, plan):
    cls = classify(g, dom, plan, TOL)
    return cls.tag, cls.witness_gt, cls.witness_lt, cls.samples_tested


CLASSIFY = {"additive": (classify_additivity, np.add, "sum"),
            "multiplicative": (classify_multiplicativity, np.multiply, "product")}


def flat_chain(corollary, h, f, plan):
    # chained_check refuses a G or H parent argument mean on a box reaching
    # x <= 0, then classifies f and h before it samples the links
    dom = f.sampling_domain(_box(f))
    require_positive_arguments(MeanKind(_CHAINS[corollary].parent.value[0]), dom, corollary)
    op, noun = (np.multiply, "product") if _CHAINS[corollary][0].endswith(
        "multiplicative") else (np.add, "sum")
    flat_classify(f.fn, dom, plan, op, noun)
    flat_classify(h, UNIT, plan, np.add, "sum")
    xyz = xyz_stream(plan, dom)
    with np.errstate(all="ignore"):
        sides = _chain_sides(corollary, weight_eval(h, 1.5), weight_eval(h, 0.5), f,
                             *sorted_xyz_stream(plan, dom))
    links = []
    for name, (lhs, rhs, _) in zip(_chain_links(corollary), sides):
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        rel, bad = flat_compare(lhs, rhs, valid, tol=TOL,
                                what=f"link {name!r} of {corollary} on {f.name}")
        links.append((rel.min(), valid.sum(), valid.size - valid.sum(),
                      [(i, *(c[i] for c in xyz), lhs[i], rhs[i]) for i in bad[:1]]))
    return links


def block_chain(corollary, h, f, plan):
    rep = chained_check(corollary, h, f, plan, TOL, _box(f), enforce_hypotheses=False)
    return [(link.min_margin, link.samples, link.skipped,
             [(w.index, w.x, w.y, w.z, w.lhs, w.rhs) for w in link.witnesses])
            for link in rep.links]


@pytest.mark.parametrize("h", WEIGHTS, ids=lambda h: h.name)
class TestReducerEqualsFlat:
    """Min margin, usable and skipped counts, witness indices, coordinates
    and sides of every verdict equal the flat kernel's bit for bit; so does
    the usable-half DomainError message. Both refuse a G or H argument mean
    on the boxes that reach x <= 0 (the real-line functions on [-3, 3])."""

    def test_theorems(self, plan, h):
        refuted = 0
        for f in FS.values():
            for tid in TheoremId:
                for sense in ("convex", "concave"):
                    want = _outcome(lambda: flat_theorem(tid, h, f, sense, plan))
                    assert _outcome(lambda: block_theorem(tid, h, f, sense, plan)) == want
                    refuted += isinstance(want, list) and bool(want[3])
        assert refuted > 0

    def test_classes(self, plan, h):
        refuted = 0
        for f in FS.values():
            for arg, val in PAIRS:
                for sense in ("convex", "concave"):
                    spec = ConvexitySpec(arg, val, h, sense)
                    want = _outcome(lambda: flat_class(spec, f, plan))
                    assert _outcome(lambda: block_class(spec, f, plan)) == want
                    refuted += isinstance(want, list) and bool(want[3])
        assert refuted > 0

    def test_chain_links(self, plan, h):
        refuted = 0
        for f in FS.values():
            for corollary in _CHAINS:
                want = _outcome(lambda: flat_chain(corollary, h, f, plan))
                assert _outcome(lambda: block_chain(corollary, h, f, plan)) == want
                refuted += isinstance(want, list) and any(link[3] for link in want)
                if plan is PLANS["no-random"] and f.name == "exp_reciprocal" and \
                        _CHAINS[corollary][0].endswith("additive"):
                    # exp(1/v) overflows at the grid's first point, so 9 of
                    # the 15 pairs whose sum stays in the box are not usable
                    assert want.startswith("only 6/15 samples usable for pair sums")
        assert refuted > 0


@pytest.mark.parametrize("mode", list(CLASSIFY))
@pytest.mark.parametrize("plan", [*PLANS.values(), _AUDIT_PLAN],
                         ids=[*PLANS, "audit"])
class TestClassifyEqualsFlat:
    """Tag, both witnesses and samples_tested of every classification equal
    the flat kernel's bit for bit; so does the DomainError message."""

    def test_catalog_functions(self, plan, mode):
        classify, op, noun = CLASSIFY[mode]
        tags = set()
        for f in FS.values():
            dom = _domain(f)
            want = _outcome(lambda: flat_classify(f.fn, dom, plan, op, noun))
            assert _outcome(lambda: block_classify(classify, f.fn, dom, plan)) == want
            tags.add(want[0] if isinstance(want, list) else "error")
        assert len(tags) > 2  # the cases reach several verdicts

    def test_weights_on_unit_interval(self, plan, mode):
        classify, op, noun = CLASSIFY[mode]
        for h in (*WEIGHTS, constant_weight(), power_weight(0.5)):
            want = _outcome(lambda: flat_classify(h, UNIT, plan, op, noun))
            assert _outcome(lambda: block_classify(classify, h, UNIT, plan)) == want


def two_sided_classify(g, dom, plan, op, noun):
    """The one-pass reduction classifications used before each direction was
    a one-sided claim, kept as a reference: the (s, t) chunks reduced once
    under "==", keeping the first violating pair with g(op(s, t)) above
    op(g(s), g(t)) (witness_gt) and the first with it below (witness_lt)."""
    lo, hi = dom.sampling_bounds()

    def sides(s, t):
        at = op(s, t)
        applicable = (at >= lo) & (at <= hi)
        whole = np.asarray(g(at), dtype=float)
        parts = op(np.asarray(g(s), dtype=float), np.asarray(g(t), dtype=float))
        return whole, parts, applicable & np.isfinite(whole) & np.isfinite(parts), applicable

    blocks = plan.pair_blocks(dom)
    usable = total = 0
    first = {True: None, False: None}  # by whether the whole is above the parts
    with np.errstate(all="ignore"):
        for offset, shape, (whole, parts, valid, applicable) in blocks.map(sides):
            bad = np.broadcast_to(_margin(whole, parts, valid, "=="), shape) < -TOL
            whole, parts = np.broadcast_to(whole, shape), np.broadcast_to(parts, shape)
            total += int(np.count_nonzero(np.broadcast_to(applicable, shape)))
            usable += int(np.count_nonzero(np.broadcast_to(valid, shape)))
            for above, mask in ((True, bad & (whole > parts)), (False, bad & (whole < parts))):
                if first[above] is None and mask.any():
                    first[above] = offset + int(mask.argmax())
    if usable < MIN_USABLE_FRACTION * total:
        raise DomainError(f"only {usable}/{total} samples usable for pair {noun}s on "
                          f"[{lo:g}, {hi:g}]")
    if not total:
        raise DomainError(f"no sampled pair has {noun} in domain")
    gt, lt = (None if i is None else blocks.point(i) for i in (first[True], first[False]))
    tag = ("mixed" if gt and lt else "superadditive" if gt else
           "subadditive" if lt else "additive")
    return tag, gt, lt, usable


# grid sizes whose pair grids (n^2 samples in slices of n; 64^2 is _CHUNK) and
# tail sizes fall on either side of a chunk edge
_EDGE_GRIDS = [0, 1, 7, 63, 64, 65, 91]
_EDGE_TAILS = [0, 1, sampling._CHUNK - 1, sampling._CHUNK, sampling._CHUNK + 1]
_CLASSIFY_BOXES = [None, (0.1, 10.0), (1.0, 4.0), (-3.0, 3.0), (0.5, 2.0), (1e-3, 0.9)]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FS)), mode=st.sampled_from(sorted(CLASSIFY)),
       box=st.sampled_from(_CLASSIFY_BOXES), grid=st.sampled_from(_EDGE_GRIDS),
       tail=st.one_of(st.sampled_from(_EDGE_TAILS), st.integers(0, 3 * sampling._CHUNK)),
       seed=st.integers(0, 2**16))
def test_classify_equals_the_two_sided_reduction(name, mode, box, grid, tail, seed):
    """Tag, both witnesses and samples_tested of a classification, read as two
    one-sided claims, equal the one-pass two-sided reduction's bit for bit."""
    assume(grid + tail > 0)
    f, (classify, op, noun) = FS[name], CLASSIFY[mode]
    try:
        dom = f.sampling_domain(box and Interval(*box, closed_lo=True, closed_hi=True))
    except ValueError:  # the box misses f's domain
        dom = f.sampling_domain()
    plan = SamplePlan(grid_axis=grid, n_random=tail, seed=seed)
    assert _outcome(lambda: block_classify(classify, f.fn, dom, plan)) == \
        _outcome(lambda: two_sided_classify(f.fn, dom, plan, op, noun))


class TestClassifyUsableHalf:
    """Only applicable pairs, with s∘t inside the box, count toward the
    usable-half rule; a pair whose s∘t leaves the box is not skipped."""

    def test_raises_when_most_applicable_pairs_overflow(self):
        plan = SamplePlan(grid_axis=6, grid_t=4, n_random=0)
        f = FS["exp_reciprocal"]
        with pytest.raises(DomainError, match=r"only 6/15 samples usable"):
            classify_additivity(f.fn, f.sampling_domain(BOX), plan)

    # (plan, samples_tested of square additive, of square multiplicative, of
    # h additive); a pair whose sum leaves the box counts for nothing
    COUNTS = [(SamplePlan(), 5538, 3654, 5538), (_AUDIT_PLAN, 1080, 735, 1080),
              (SamplePlan(grid_axis=6, grid_t=4, n_random=0), 15, 13, 15)]

    @pytest.mark.parametrize("plan,add,mul,h_add", COUNTS,
                             ids=["default", "audit", "no-random"])
    def test_inapplicable_pairs_do_not_count(self, plan, add, mul, h_add):
        square = FS["square"]
        n = plan.grid_axis ** 2 + plan.n_random
        dom = square.sampling_domain()  # (0, 10]
        got = (classify_additivity(square.fn, dom, plan).samples_tested,
               classify_multiplicativity(square.fn, dom, plan).samples_tested,
               classify_additivity(identity_weight(), UNIT, plan).samples_tested)
        assert got == (add, mul, h_add)
        assert max(got) < 0.6 * n  # fewer than half of the drawn pairs apply


def test_equality_families_equal_flat(plan):
    for family, (tid, f) in EQUALITY_FAMILIES.items():
        def flat():
            lhs, rhs, valid = _sides_arrays(
                tid, 1.5, 0.5, f, *sorted_xyz_stream(plan, f.sampling_domain(_box(f))))
            rel, _ = flat_compare(lhs, rhs, valid, what=f"family {family}")
            return np.abs(rel[valid]).max(), valid.sum()
        assert _outcome(lambda: equality_max_residual(family, plan, _box(f))) == \
            _outcome(flat)


class TestReducerEdges:
    WIDE = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)

    def test_witnesses_span_the_block_boundary(self):
        # on a 2-point grid, 6 of the 8 grid triples are off the diagonal, so
        # the 8 witnesses are 6 grid points, then the first 2 tail violations
        plan = SamplePlan(grid_axis=2, n_random=50, seed=4)
        rep = verify_theorem(TheoremId.AA, identity_weight(), FS["square"], "concave",
                             plan, TOL, self.WIDE)
        indices = [w.index for w in rep.witnesses]
        assert indices == sorted(indices) and len(indices) == 8
        assert sum(i < 8 for i in indices) == 6
        assert _bits(block_theorem(TheoremId.AA, identity_weight(), FS["square"],
                                   "concave", plan)) == \
            _bits(flat_theorem(TheoremId.AA, identity_weight(), FS["square"],
                               "concave", plan))

    def test_chunked_rows_equal_flat(self):
        # 4,495 sorted triples and 5,000 tail rows: three chunks, the second
        # straddling the simplex and the tail
        plan = SamplePlan(grid_axis=29, n_random=5000, seed=3)
        refuted = 0
        for tid in TheoremId:
            for sense in ("convex", "concave"):
                want = _outcome(lambda: flat_theorem(tid, identity_weight(), FS["cosh"],
                                                     sense, plan))
                assert _outcome(lambda: block_theorem(tid, identity_weight(), FS["cosh"],
                                                      sense, plan)) == want
                refuted += isinstance(want, list) and bool(want[3])
        assert refuted > 0

    def test_chunked_grid_equal_flat(self):
        # a 20 x 20 x 12 (x, y, t) grid and a 70 x 70 (s, t) grid, both past
        # _CHUNK samples, so each is sliced along its first axis
        plan = SamplePlan(grid_axis=20, grid_t=12, n_random=5000, seed=3)
        refuted = 0
        for arg, val in PAIRS:
            for sense in ("convex", "concave"):
                spec = ConvexitySpec(arg, val, identity_weight(), sense)
                want = _outcome(lambda: flat_class(spec, FS["cosh"], plan))
                assert _outcome(lambda: block_class(spec, FS["cosh"], plan)) == want
                refuted += isinstance(want, list) and bool(want[3])
        assert refuted > 0
        plan = SamplePlan(grid_axis=70, n_random=5000, seed=3)
        for classify, op, noun in CLASSIFY.values():
            for f in (FS["square"], FS["cosh"], FS["sqrt"]):
                dom = _domain(f)
                assert _outcome(lambda: block_classify(classify, f.fn, dom, plan)) == \
                    _outcome(lambda: flat_classify(f.fn, dom, plan, op, noun))

    @pytest.mark.parametrize("sizes", [dict(grid_axis=0, n_random=500),
                                       dict(grid_axis=9, n_random=0)],
                             ids=["no-grid", "no-random"])
    def test_usable_half_with_an_empty_block(self, sizes):
        # log(v - 2) is finite only above 2
        shifted = PointFunction("shifted", lambda v: v - 2.0, Interval(0.0, 3.0))
        plan = SamplePlan(**sizes)
        n = plan.grid_axis ** 3 + plan.n_random
        with pytest.raises(DomainError, match=rf"only [1-9]\d*/{n} samples usable") as got:
            block_theorem(TheoremId.AG, identity_weight(), shifted, "convex", plan)
        assert str(got.value) == _outcome(
            lambda: flat_theorem(TheoremId.AG, identity_weight(), shifted,
                                 "convex", plan))


class TestCompareDecodes:
    """_compare decodes each violation it keeps: its coordinates are the
    reference stream's sample at its index, and its lhs and rhs are the
    sides there (at the sorted triple on the symmetric (x, y, z) stream).
    The sides are lhs = 2·x·y·z, rhs = x + y + z on (x, y, z), which is
    symmetric, and the first two coordinates, lhs = a, rhs = b, elsewhere."""

    DOM = Interval(0.5, 2.0)
    # blocks, the reference coordinates, the coordinates the sides are read at,
    # the sides, and the witness coordinates the samples are named by
    STREAMS = {"xyz": (SamplePlan.triple_blocks, xyz_stream, sorted_xyz_stream,
                       lambda x, y, z: (2.0 * x * y * z, x + y + z), "xyz"),
               "xyt": (SamplePlan.pair_t_blocks, xyt_stream, xyt_stream,
                       lambda a, b, t: (a, b), "xyt"),
               "st": (SamplePlan.pair_blocks, st_stream, st_stream, lambda a, b: (a, b),
                      "xy")}

    def _run(self, plan, stream, claim, limit):
        blocks_of, reference, read_at, sides, names = self.STREAMS[stream]
        blocks, flat = blocks_of(plan, self.DOM), reference(plan, self.DOM)
        kernel = lambda *c: (*sides(*c), np.isfinite(c[0]))
        cmp = _compare(blocks, blocks.map(kernel), claim, "lhs against rhs", TOL, limit)
        want_lhs, want_rhs = sides(*read_at(plan, self.DOM))
        for i, point, lhs, rhs in decoded(cmp, names):
            assert point == tuple(float(c[i]) for c in flat)
            assert (lhs, rhs) == (float(want_lhs[i]), float(want_rhs[i]))
            assert all(type(v) is float for v in (*point, lhs, rhs))
        rel, _ = flat_compare(want_lhs, want_rhs, np.isfinite(want_lhs))
        return cmp, flat, rel

    @pytest.mark.parametrize("stream", list(STREAMS))
    @pytest.mark.parametrize("claim", ["<=", ">=", "=="])
    def test_every_kept_violation_is_the_reference_sample(self, plan, stream, claim):
        cmp, flat, rel = self._run(plan, stream, claim, limit=10**6)
        # rel is the margin of lhs <= rhs; ">=" flips it and "==" takes |rel|
        bad = rel < -TOL if claim == "<=" else rel > TOL if claim == ">=" else \
            np.abs(rel) > TOL
        kept = [w.index for w in cmp.witnesses]
        assert kept == np.flatnonzero(bad).tolist()
        n_grid = flat[0].size - plan.n_random  # witnesses from the grid and the tail
        assert any(i < n_grid for i in kept) == (n_grid > 0)
        assert any(i >= n_grid for i in kept) == (plan.n_random > 0)

    @pytest.mark.parametrize("stream", list(STREAMS))
    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_equality_keeps_the_first_violators_of_either_side(self, plan, stream, limit):
        cmp, flat, rel = self._run(plan, stream, "==", limit)
        first = np.flatnonzero(np.abs(rel) > TOL)[:limit]
        # each with its side: lhs above rhs where the margin of lhs <= rhs is negative
        assert [(w.index, w.lhs > w.rhs) for w in cmp.witnesses] == \
            [(i, bool(rel[i] < 0)) for i in first.tolist()]


def _row_sample(n, r):
    """The first sample that row r of a symmetric stream stands for: the
    r-th sorted triple in C order, then tail row r - n(n+1)(n+2)/6."""
    m = n * (n + 1) * (n + 2) // 6
    return int(np.flatnonzero(sorted_position(n) == r)[0]) if r < m else n ** 3 + r - m


class TestChunkEdges:
    """A chunk edge moves no witness: a kernel violated exactly at the
    samples on either side of every chunk edge keeps each of them, in sample
    order, with the reference coordinates and sides, bit for bit. The edges
    are computed here apart from the module: every _CHUNK rows on the
    symmetric stream; elsewhere every max(1, _CHUNK // plane) first-axis
    slices of the grid, plane being the samples of one slice, then every
    _CHUNK tail rows."""

    DOM = Interval(0.5, 2.0)
    # plan, blocks, the reference coordinates, the coordinates the sides are read at
    CASES = {
        "xyz": (SamplePlan(grid_axis=29, n_random=5000, seed=3), SamplePlan.triple_blocks,
                xyz_stream, sorted_xyz_stream),
        "xyt": (SamplePlan(grid_axis=20, grid_t=12, n_random=5000, seed=3),
                SamplePlan.pair_t_blocks, xyt_stream, xyt_stream),
        "st": (SamplePlan(grid_axis=70, n_random=5000, seed=3), SamplePlan.pair_blocks,
               st_stream, st_stream),
        # one first-axis slice holds 5,000 samples, so each slice is a call
        "xyt-wide-slice": (SamplePlan(grid_axis=5, grid_t=1000, n_random=10, seed=3),
                           SamplePlan.pair_t_blocks, xyt_stream, xyt_stream),
    }

    @staticmethod
    def _offsets(plan, blocks):
        """Each chunk's offset as map gives it: its first row on the symmetric
        stream, else its first sample."""
        if blocks.symmetric:
            n = plan.grid_axis
            return list(range(0, n * (n + 1) * (n + 2) // 6 + plan.n_random, sampling._CHUNK))
        shape = blocks.grid_shape
        plane, n_grid = int(np.prod(shape[1:])), int(np.prod(shape))
        step = max(1, sampling._CHUNK // plane)
        return [i * plane for i in range(0, shape[0] if n_grid else 0, step)] + [
            n_grid + j for j in range(0, plan.n_random, sampling._CHUNK)]

    @pytest.mark.parametrize("case", list(CASES))
    def test_witnesses_on_either_side_of_each_edge(self, case):
        plan, blocks_of, reference, read_at = self.CASES[case]
        blocks, flat, at = blocks_of(plan, self.DOM), reference(plan, self.DOM), \
            read_at(plan, self.DOM)
        offsets = self._offsets(plan, blocks)
        assert [offset for offset, _, _ in blocks.map(lambda *c: c)] == offsets
        assert len(offsets) > 2
        # the last and the first sample of two chunks; a symmetric stream's
        # row r stands for the sample _row_sample gives
        sample = partial(_row_sample, plan.grid_axis) if blocks.symmetric else int
        edges = [sample(offset + d) for offset in offsets[1:] for d in (-1, 0)]
        points = [tuple(c[i] for c in at) for i in edges]

        def kernel(*c):
            hit = np.zeros(np.broadcast_shapes(*(a.shape for a in c)), bool)
            for point in points:
                hit |= np.logical_and.reduce(np.broadcast_arrays(
                    *(a == v for a, v in zip(c, point))))
            return hit * 1.0, np.zeros(hit.shape), np.ones(hit.shape, bool)

        cmp = _compare(blocks, blocks.map(kernel), "<=", "edges", TOL, limit=10**6)
        want = np.flatnonzero(kernel(*at)[0])
        assert set(edges) <= set(want.tolist())
        names = {"st": "xy"}.get(case, case[:3])  # the stream's witness coordinates
        assert decoded(cmp, names) == [(i, tuple(float(c[i]) for c in flat), 1.0, 0.0)
                                       for i in want.tolist()]

    # grid index triples of the 29-point axis: (0, 27, 28) and (0, 28, 28) are
    # rows of the first chunk whose orbits reach past sample 22,000; (20, 20, 20)
    # (sample 17,420) and (17, 18, 19) are rows of the second; then tail rows
    ABOVE = [(0, 27, 28), (0, 28, 28), (20, 20, 20), "tail 7"]
    BELOW = [(0, 26, 28), (17, 18, 19), (1, 1, 2), "tail 3"]

    @pytest.mark.parametrize("claim", ["<=", "=="])
    @pytest.mark.parametrize("limit", [1, 3, 8, 12, 10**6])
    def test_kept_witnesses_are_the_first_over_all_chunks(self, claim, limit):
        """A later chunk's violator with a smaller sample index displaces the
        large orbit members of an earlier chunk: the kept witnesses are the
        first `limit` violators of the flat reference, whichever chunk their
        rows are in; under "==" they are the first of either side."""
        plan, _, reference, _ = self.CASES["xyz"]
        blocks, flat = plan.triple_blocks(self.DOM), reference(plan, self.DOM)
        assert [offset for offset, _, _ in blocks.map(lambda *c: c)][:2] == [0, sampling._CHUNK]
        axis, n3 = blocks.grid[0].ravel(), plan.grid_axis ** 3

        def sorted_point(p):
            if isinstance(p, str):  # a tail sample's own coordinates
                return tuple(sorted(float(c[n3 + int(p.split()[1])]) for c in flat))
            return tuple(float(axis[k]) for k in p)

        def kernel(*c):
            xyz = np.sort(np.stack(np.broadcast_arrays(*c)), axis=0)
            sign = sum(np.logical_and.reduce([a == v for a, v in zip(xyz, sorted_point(p))])
                       * s for group, s in ((self.ABOVE, 1.0), (self.BELOW, -1.0))
                       for p in group)
            return sign, np.zeros(sign.shape), np.ones(sign.shape, bool)

        cmp = _compare(blocks, blocks.map(kernel), claim, "chunks", TOL, limit=limit)
        sign = kernel(*flat)[0]
        bad = sign != 0 if claim == "==" else sign > 0
        want = np.flatnonzero(bad)[:limit].tolist()
        # 11 samples above, 16 below; (20, 20, 20) is the 4th above and the 15th of both
        assert len(want) == min(limit, 11 + (claim == "==") * 16)
        assert (17_420 in want) == (limit >= (15 if claim == "==" else 4))
        assert decoded(cmp, "xyz") == [(i, tuple(float(c[i]) for c in flat), sign[i], 0.0)
                                       for i in want]


class TestChunkContract:
    """At the default plan no kernel call on any of the three streams sees
    more than _CHUNK samples (a call on one first-axis slice of a grid may,
    where one slice holds more), and the calls cover each stream once; at
    the audit plan the symmetric stream is one call."""

    WIDE = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)

    def _calls(self, monkeypatch, plan):
        calls = {"xyz": [], "xyt": [], "st": []}
        real = SampleBlocks.map

        def recording(blocks, kernel):
            key = "xyz" if blocks.symmetric else ["st", "xyt"][len(blocks.grid) - 2]

            def spy(*columns):
                calls[key].append(np.broadcast_shapes(*(c.shape for c in columns)))
                return kernel(*columns)
            return real(blocks, spy)

        monkeypatch.setattr(SampleBlocks, "map", recording)
        assert verify_theorem(TheoremId.AA, identity_weight(), FS["square"], "convex",
                              plan, box=self.WIDE).holds
        spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC, identity_weight())
        assert verify_class(spec, FS["square"], plan, box=self.WIDE).holds
        classify_additivity(np.square, self.WIDE, plan)
        return calls

    def test_default_plan_calls_stay_within_a_chunk(self, monkeypatch):
        plan = SamplePlan()
        calls = self._calls(monkeypatch, plan)
        n = plan.grid_axis
        sizes = {"xyz": n * (n + 1) * (n + 2) // 6 + plan.n_random,
                 "xyt": n * n * plan.grid_t + plan.n_random, "st": n * n + plan.n_random}
        for key, shapes in calls.items():
            assert all(np.prod(shape) <= sampling._CHUNK for shape in shapes)
            assert sum(int(np.prod(shape)) for shape in shapes) == sizes[key]
        assert [len(shapes) for shapes in calls.values()] == [5, 8, 4]

    def test_audit_plan_symmetric_stream_is_one_call(self, monkeypatch):
        calls = self._calls(monkeypatch, _AUDIT_PLAN)
        n = _AUDIT_PLAN.grid_axis
        assert calls["xyz"] == [(n * (n + 1) * (n + 2) // 6 + _AUDIT_PLAN.n_random,)]


def test_only_compare_decodes_a_sample(monkeypatch):
    """Inside the package only sampling._compare calls SampleBlocks.point: no
    verifier, classification or audit row decodes a witness index itself."""
    real, decoded = SampleBlocks.point, []

    def guarded(self, i):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        if frame.f_code is not sampling._compare.__code__:
            raise AssertionError(f"{frame.f_code.co_name} decoded sample {i}")
        decoded.append(i)
        return real(self, i)

    monkeypatch.setattr(SampleBlocks, "point", guarded)
    plan = PLANS["small"]
    wide = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
    assert len(verify_theorem(TheoremId.AG, identity_weight(), FS["cosh"],
                              "concave", plan, box=wide).witnesses) == 8
    spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC, identity_weight(),
                         "concave")
    assert verify_class(spec, FS["square"], plan, box=wide).witnesses
    assert verify_extended_class("K_s2", MeanKind.ARITHMETIC, FS["neg_square"], plan,
                                 box=wide).witnesses
    links = [link for corollary in _CHAINS for link in chained_check(
        corollary, identity_weight(), FS["exp"], plan, box=wide,
        enforce_hypotheses=False).links]
    assert any(link.witnesses for link in links)
    assert classify_multiplicativity(np.cosh, wide, plan).tag == "mixed"
    assert classify_additivity(np.cosh, wide, plan).witness
    for family in EQUALITY_FAMILIES:
        assert equality_max_residual(family, plan)[0] < 1e-12
    # the guard's AssertionError is no MeanConvexError, so the audit passes it on;
    # at tol 0 the Hlawka rows are refuted on float rounding
    findings = run_audit(_AUDIT_PLAN) + run_audit(plan, tol=0.0)
    assert {f.outcome for f in findings if f.kind == "hlawka"} >= {"refuted",
                                                                  "not-equality"}
    assert decoded


def test_verifiers_never_join_the_sample_blocks(monkeypatch):
    """No verdict builds a full-plan joined array: classification reads its
    (s, t) pairs as blocks too, so a join of any stream is refused."""
    def guarded(self):
        raise AssertionError("a verifier joined the sample blocks")

    monkeypatch.setattr(SampleBlocks, "flat", guarded)
    plan = PLANS["small"]
    wide = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
    for view in (plan.triples, plan.pairs_with_t, plan.scalar_pairs):
        with pytest.raises(AssertionError, match="joined"):
            view(wide)
    assert not verify_theorem(TheoremId.AA, identity_weight(), FS["square"],
                              "concave", plan, box=wide).holds
    spec = ConvexitySpec(MeanKind.ARITHMETIC, MeanKind.ARITHMETIC, identity_weight(),
                         "concave")
    assert not verify_class(spec, FS["square"], plan, box=wide).holds
    assert chained_check("cor4.2", identity_weight(), FS["square"], plan, box=wide).holds
    assert classify_multiplicativity(np.cosh, wide, plan).tag == "mixed"
    for family in EQUALITY_FAMILIES:
        assert equality_max_residual(family, plan)[0] < 1e-12


def test_tracer_hooks_resolve():
    """Every public function the benchmark tracer wraps still exists under
    the name it looks up, so `bench/run.py --trace` can install its spans."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, (owner, attr) in tracing.WRAPPED.items()
               if not callable(getattr(owner, attr, None))]
    assert tracing.WRAPPED and not missing
