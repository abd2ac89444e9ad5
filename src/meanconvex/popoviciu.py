"""Three-point (Popoviciu-type) inequalities for the nine mean pairs.

A theorem id MN is fixed by its mean pair. The argument mean M gives the
pair and central means, read from the classic and central tables of means;
the value mean N says how f enters both sides: sums of f (N = A), products
of f (N = G, evaluated and compared in log domain), or sums of 1/f (N = H).
The chained corollaries reuse their parent theorem's means. The HH left
side is implemented in the reciprocal-sum form of its derivation; the
printed statement's plain-sum left side is dimensionally inconsistent with
its own right side.

Direction convention: each theorem states its inequality for one "base"
sense (concave when N = H, else convex); the opposite sense reverses the
printed direction.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .convexity import FUNCTIONS, PointFunction
from .errors import DomainError, HypothesisMismatchError, lookup
from .intervals import Interval
from .means import (CENTRAL_MEANS, CLASSIC_MEANS, MeanKind, require_positive_arguments,
                    require_positive_point)
from .sampling import SamplePlan, Verdict, Witness, _compare, _margin, require_tol
from .weights import (DEFAULT_TOL, WeightFunction, classify_additivity,
                      classify_multiplicativity, identity_weight, weight_eval)


class TheoremId(enum.Enum):
    AA = "AA"
    AG = "AG"
    AH = "AH"
    GA = "GA"
    GG = "GG"
    GH = "GH"
    HA = "HA"
    HG = "HG"
    HH = "HH"


# the sense the printed "<=" binds to
BASE_SENSE = {tid: "concave" if tid.value[1] == "H" else "convex" for tid in TheoremId}


def _claim(tid: TheoremId, sense: Optional[str]) -> str:
    """The comparison lhs <= rhs or lhs >= rhs that theorem tid states in
    sense; None is the base sense."""
    if sense is None or sense == BASE_SENSE[tid]:
        return "<="
    if sense not in ("convex", "concave"):
        raise ValueError(f"sense must be convex|concave, got {sense!r}")
    return ">="


def _pair_and_central(tid: TheoremId, x, y, z):
    """The pair means of (x, z), (y, z), (x, y) and the central three-point mean."""
    kind = MeanKind(tid.value[0])
    pair = CLASSIC_MEANS[kind]
    return pair(x, z), pair(y, z), pair(x, y), CENTRAL_MEANS[kind](x, y, z)


# How f enters a side, by the value mean: the term of an f-value fv at unit
# weight and at weight w. Product theorems (G) compare log-domain sums. The
# weight stays inside the term: w / fv and w * (1 / fv) differ in the last
# digits.
_VALUE_TERMS = {
    "A": (lambda fv: fv, lambda w, fv: w * fv),
    "G": (np.log, lambda w, fv: w * np.log(fv)),
    "H": (lambda fv: 1.0 / fv, lambda w, fv: w / fv),
}


def _pair_side(tid: TheoremId, f: PointFunction, m1, m2, m3):
    """Left side: unit-weight terms of f at the three pair means."""
    term = _VALUE_TERMS[tid.value[1]][0]
    return term(f(m1)) + term(f(m2)) + term(f(m3))


def _point_side(tid: TheoremId, h32: float, h12: float, f: PointFunction, fc, x, y, z):
    """Right side: the term of central value fc at weight h32, point terms at h12."""
    return _VALUE_TERMS[tid.value[1]][1](h32, fc) + h12 * _pair_side(tid, f, x, y, z)


def _lhs(tid: TheoremId, f: PointFunction, m, x, y, z, h32: float, h12: float):
    """Theorem tid's left side from its argument means m = (m1, m2, m3, c)."""
    return _pair_side(tid, f, *m[:3])


def _rhs(tid: TheoremId, f: PointFunction, m, x, y, z, h32: float, h12: float):
    """Theorem tid's right side; product theorems give log-domain sides."""
    return _point_side(tid, h32, h12, f, f(m[3]), x, y, z)


def _sides_arrays(tid: TheoremId, h32: float, h12: float, f: PointFunction,
                  x, y, z):
    """Vectorized (lhs, rhs, valid) in the theorem's comparison domain.

    h32 = h(3/2) and h12 = h(1/2), as weight_eval gives them; product
    theorems return log-domain sides.
    """
    with np.errstate(all="ignore"):
        means = _pair_and_central(tid, x, y, z)
        lhs = _lhs(tid, f, means, x, y, z, h32, h12)
        rhs = _rhs(tid, f, means, x, y, z, h32, h12)
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        for arg in means:
            valid &= np.isfinite(arg) & f.domain.contains_array(arg)
    return np.atleast_1d(lhs), np.atleast_1d(rhs), np.atleast_1d(valid)


def _sides_at(tid: TheoremId, h: WeightFunction, f: PointFunction,
              x: float, y: float, z: float):
    """(lhs, rhs) of theorem tid at one triple, in its comparison domain.
    Raises DomainError for a G or H argument mean at a coordinate <= 0."""
    if not all(f.domain.contains(v) for v in (x, y, z)):
        raise DomainError(f"({x}, {y}, {z}) not inside domain of {f.name}")
    require_positive_point(MeanKind(tid.value[0]), (x, y, z), f"theorem {tid.value}")
    lhs, rhs, valid = _sides_arrays(tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f,
                                    *(np.array([float(v)]) for v in (x, y, z)))
    if not valid[0]:
        raise DomainError(
            f"triple ({x}, {y}, {z}) not evaluable for theorem {tid.value} on {f.name}")
    return lhs[0], rhs[0]


def _printed(lhs, rhs, product: bool) -> tuple[float, float]:
    """Sides as printed: exp of a product theorem's log-domain sides, where an
    overflow reads inf, as an underflow reads 0."""
    with np.errstate(over="ignore"):
        return tuple(float(np.exp(v) if product else v) for v in (lhs, rhs))


def popoviciu_sides(tid: TheoremId, h: WeightFunction, f: PointFunction,
                    x: float, y: float, z: float) -> tuple[float, float]:
    """Both printed sides at one triple; products are exp of log-domain sums."""
    return _printed(*_sides_at(tid, h, f, x, y, z), tid.value[1] == "G")


def two_point_reduction(tid: TheoremId, h: WeightFunction, f: PointFunction,
                        x: float, y: float) -> tuple[float, float]:
    """The z = y specialization; identical by construction to the full sides."""
    return popoviciu_sides(tid, h, f, x, y, y)


def _theorem_chunks(tid: TheoremId, h: WeightFunction, f: PointFunction,
                    plan: SamplePlan | None, box: Optional[Interval]):
    """(blocks, kernel, chunk results) of theorem tid's sides over the plan's
    triples: the kernel reads h(3/2) and h(1/2) once, and the results are
    blocks.map's, for _compare to reduce under either claim. Raises
    DomainError for a G or H argument mean on a box reaching x <= 0."""
    plan, dom = plan or SamplePlan(), f.sampling_domain(box)
    require_positive_arguments(MeanKind(tid.value[0]), dom, f"theorem {tid.value}")
    blocks = plan.triple_blocks(dom)
    kernel = partial(_sides_arrays, tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f)
    return blocks, kernel, blocks.map(kernel)


def verify_theorem(tid: TheoremId, h: WeightFunction, f: PointFunction,
                   sense: str = None, plan: SamplePlan | None = None,
                   tol: float = DEFAULT_TOL,
                   box: Optional[Interval] = None) -> Verdict:
    """Sample triples from f's domain and test the theorem's printed direction.

    sense defaults to the theorem's base sense. The hypotheses on f and h are
    not checked; audits deliberately run theorems under violated ones. Grid
    samples take the sides of their sorted triple, so the up to eight
    witnesses read lhs and rhs again, at their own coordinates, in one
    kernel call (exp of the log-domain sides for product theorems).
    """
    claim, sense = _claim(tid, sense), sense or BASE_SENSE[tid]
    blocks, kernel, results = _theorem_chunks(tid, h, f, plan, box)
    verdict = _compare(blocks, results, claim, f"theorem {tid.value} on {f.name}", tol,
                       limit=8, target=f"theorem {tid.value}", f_name=f.name, sense=sense)
    found = verdict.witnesses
    if not found:
        return verdict
    lhs, rhs, _ = kernel(*(np.array(c) for c in zip(*((w.x, w.y, w.z) for w in found))))
    sides = [_printed(a, b, tid.value[1] == "G") for a, b in zip(lhs.tolist(), rhs.tolist())]
    return replace(verdict, witnesses=[Witness(w.x, w.y, None, a, b, w.z, w.index)
                                       for w, (a, b) in zip(found, sides)])


# ---------------------------------------------------------------------------
# Equality families: corollary identities exact for every admissible triple.

# Family key "<f>-<theorem>" ("_" in f read as "-") -> (theorem, built-in f).
EQUALITY_FAMILIES = {
    f"{name.replace('_', '-')}-{tid}": (TheoremId(tid), PointFunction(name, *FUNCTIONS[name]))
    for name, tid in [("affine", "AA"), ("reciprocal", "AH"), ("log", "GA"),
                      ("reciprocal_log", "GH"), ("reciprocal", "HA"),
                      ("exp_reciprocal", "HG"), ("identity", "HH")]
}


def equality_residual(family: str, x: float, y: float, z: float) -> float:
    """|lhs - rhs| of the identity-weight corollary for one of the seven
    hand-verifiable equality families (log-domain residual for the product
    family)."""
    tid, f = lookup(EQUALITY_FAMILIES, family, "equality family")
    lhs, rhs = _sides_at(tid, identity_weight(), f, x, y, z)
    return float(abs(lhs - rhs))


def theorem_margins(tid: TheoremId, h: WeightFunction, f: PointFunction,
                    x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    sense: str = None) -> np.ndarray:
    """Relative margin of the printed inequality at each triple.

    Negative means violated; +inf marks triples that are not evaluable.
    """
    lhs, rhs, valid = _sides_arrays(tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f,
                                    *(np.asarray(v, dtype=float) for v in (x, y, z)))
    return _margin(lhs, rhs, valid, _claim(tid, sense))


def _equality(family: str, plan: SamplePlan | None = None,
              box: Optional[Interval] = None) -> Verdict:
    """An equality family's claim lhs == rhs reduced over sampled triples,
    without a tol: its min margin is minus the max relative residual."""
    tid, f = lookup(EQUALITY_FAMILIES, family, "equality family")
    blocks, _, results = _theorem_chunks(tid, identity_weight(), f, plan, box)
    return _compare(blocks, results, "==", f"family {family}")


def equality_max_residual(family: str, plan: SamplePlan | None = None,
                          box: Optional[Interval] = None) -> tuple[float, int]:
    """Max relative |lhs - rhs| of an equality family over sampled triples.

    Returns (max_residual, triples_tested).
    """
    verdict = _equality(family, plan, box)
    return -verdict.min_margin, verdict.samples


# ---------------------------------------------------------------------------
# Search for one small violating triple. Shrink passes one theorem_margins
# call evaluates ahead of the walk:
_PASSES_PER_CALL = 32
_STEPS = (0.5, 0.8, 0.95)  # a trial moves a coordinate to lo + step * (c - lo)


def _coming_turns(tid, h, f, sense, lo, start, guess):
    """The (pass, turn, step) margins of up to _PASSES_PER_CALL shrink passes,
    evaluated in one call: the first pass from start, each later one from
    where the pass before it leaves the witness if its turn outcomes are
    guess, ending where a start would repeat. Turn i of a pass holds
    coordinate i at its three steps, the coordinates before i where the
    guess moves them and those after i at the pass start. The starts follow
    the walk's own float recurrence, so a turn is the walk's bit for bit
    while the outcomes before it are the guess's."""
    moves, starts = [(i, _STEPS[k]) for i, k in enumerate(guess) if k < 3], [start]
    while len(starts) <= _PASSES_PER_CALL:
        end = starts[-1][:]
        for i, step in moves:
            end[i] = lo + step * (end[i] - lo)
        starts.append(end)
        if end == starts[-2]:
            break
    c = np.array(starts)
    steps = lo + np.array(_STEPS) * (c[:-1, :, None] - lo)  # pass, coordinate, step
    rows = np.empty((3, len(starts) - 1, 3, 3))  # coordinate, pass, turn, step
    for i in range(3):
        rows[i, :, :i] = c[:-1, i, None, None]
        rows[i, :, i] = steps[:, i]
        rows[i, :, i + 1:] = c[1:, i, None, None]
    return theorem_margins(tid, h, f, *rows, sense)


def _first_accepts(bad):
    """The first accepting step of each turn of bad, 3 where none accepts."""
    return np.where(bad.any(-1), bad.argmax(-1), 3)


def _take_turn(k, left):
    """(outcome, trials) of a turn whose first accepting step is k, with left
    trials of budget: one trial per step up to the first that accepts, at
    most left, and the coordinate moves to step k only if it was tried."""
    n = min(k + 1, 3, left)
    return (k if k < n else 3), n


def search_theorem(tid: TheoremId, h: WeightFunction, f: PointFunction,
                   sense: str = None, seed: int = 42, budget: int = 100_000,
                   tol: float = DEFAULT_TOL, box: Optional[Interval] = None) -> Verdict:
    """Scan seeded uniform triples for a violation of the printed direction
    (sense defaults to the base sense), then shrink the violating triple of
    least max |coordinate| in the first such batch toward the domain's low
    edge. The budget (at least 1) counts scan points plus the shrink trials
    reached; the search stops when it is spent or at the first pass that
    leaves the witness unchanged. Each call evaluates the coordinate turns
    of the passes to come, and a turn counts one trial per step it reaches.
    min_margin is the witness's, else the least scanned."""
    if budget < 1:
        raise ValueError(f"search budget must be at least 1, got {budget}")
    require_tol(tol)
    sense, dom = sense or BASE_SENSE[tid], f.sampling_domain(box)
    require_positive_arguments(MeanKind(tid.value[0]), dom, f"theorem {tid.value}")
    lo, hi = dom.sampling_bounds()
    rng = np.random.default_rng(seed)
    best, low = None, np.inf
    batch = 8192
    used = 0
    while used < budget and best is None:
        n = min(batch, budget - used)
        x, y, z = rng.uniform(lo, hi, size=(3, n))
        used += n
        margins = theorem_margins(tid, h, f, x, y, z, sense)
        low = min(low, float(margins.min()))
        bad = margins < -tol
        if bad.any():
            norms = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z))
            i = int(np.where(bad, norms, np.inf).argmin())
            best, margin = [float(x[i]), float(y[i]), float(z[i])], margins[i]
    target = f"theorem {tid.value}"
    if best is None:
        return Verdict(target, used, 0, low, [], f.name, sense)
    # coordinate-descent shrink: pull coordinates toward the domain's low
    # edge while the violation persists. A pass depends only on best, so a
    # pass that leaves best unchanged would repeat itself: stop there. Turn i
    # of a pass tries coordinate i at each step until one accepts; its
    # outcome is that step, or 3 where best keeps the coordinate. The walk
    # mostly repeats one pass outcome until best reaches a float fixed point,
    # so one call evaluates the turns of the passes that would follow if the
    # guess repeated (halving every coordinate at first). They serve while
    # each turn's outcome is the guess's; another outcome updates the guess,
    # and the next call rebuilds the pass from its start, past the turns
    # walked. The budget counts scan points and the trials the walk reaches.
    start, guess, at, p, firsts = list(best), (0, 0, 0), [], 0, []
    while used < budget:
        if p >= len(firsts):
            margins = _coming_turns(tid, h, f, sense, lo, start, guess)
            p, firsts = 0, _first_accepts(margins < -tol).tolist()
        i = len(at)
        k, n = _take_turn(firsts[p][i], budget - used)
        used += n
        at.append(k)
        if k < 3:
            best[i], margin = lo + _STEPS[k] * (best[i] - lo), margins[p, i, k]
        if k != guess[i]:
            guess, p = (*at, *guess[i + 1:]), len(firsts)
        if i == 2:
            if best == start:
                break
            start, at, p = list(best), [], p + 1
    lhs, rhs = popoviciu_sides(tid, h, f, *best)
    return Verdict(target, used, 0, float(margin),
                   [Witness(best[0], best[1], None, lhs, rhs, z=best[2])], f.name, sense)


# ---------------------------------------------------------------------------
# Chained corollaries.

@dataclass(frozen=True)
class ChainedReport:
    corollary: str
    f_class: str
    h_class: str
    links: list[Verdict]  # each link's target is its name

    @property
    def holds(self) -> bool:
        return all(link.holds for link in self.links)


# Links that several corollaries share, and the sides they start from.
_THEOREM = (None, _rhs)  # the parent theorem, from its left side
_POINT_SUM = ("point sum collapsed to f(x+y+z)",
              lambda tid, f, m, x, y, z, h32, h12: h32 * f(m[3]) + h12 * f(x + y + z))
_POINT_PRODUCT = ("point product collapsed to f(xyz)",
                  lambda tid, f, m, x, y, z, h32, h12: h32 * np.log(f(m[3]))
                  + h12 * np.log(f(x * y * z)))
_SUMMED_PAIR_MEANS = ("f of the summed pair means <= sum", _lhs)


def _f_of_summed_pair_means(tid, f, m, x, y, z, h32, h12):
    return f(m[0] + m[1] + m[2])


def _split_thirds(tid, f, m, x, y, z, h32, h12):
    """Theorem tid's right side, its central value split to f(x/3) + f(y/3) + f(z/3)."""
    return _point_side(tid, h32, h12, f, _pair_side(TheoremId.AA, f, x / 3, y / 3, z / 3),
                       x, y, z)


def _half_harmonic(tid, f, m, x, y, z, h32, h12):
    """Twice the sum of f at the half-harmonic means xz/(x+z), yz/(y+z), xy/(x+y)."""
    return 2.0 * (f(x * z / (x + z)) + f(y * z / (y + z)) + f(x * y / (x + y)))


# Every chained corollary requires h superadditive.
_CHAIN_H_HYPOTHESIS = "superadditive"

# A row is a corollary's printed chain s0 <= s1 <= ...: its f hypothesis, which also
# names the kind (additive or multiplicative) of the class check on f; its parent
# theorem tid; its first side s0; a (name, next side) pair per link. Every side is
# side(tid, f, m, x, y, z, h32, h12), m being tid's argument means, as are _lhs and
# _rhs, the sides of the link named None: theorem tid. Product-form sides are logs.
_Chain = namedtuple("_Chain", "f_hyp parent first links")
_CHAINS = {
    "cor4.1": _Chain(
        "subadditive", TheoremId.AA, lambda tid, f, m, x, y, z, h32, h12: f(x + y + z),
        (("f(x+y+z) <= sum of midpoint values", _lhs), _THEOREM,
         ("central term split to thirds", _split_thirds))),
    "cor4.2": _Chain("superadditive", TheoremId.AA, _lhs, (_THEOREM, _POINT_SUM)),
    "cor8.1": _Chain(
        "submultiplicative", TheoremId.AG,
        lambda tid, f, m, x, y, z, h32, h12: np.log(f((x + z) * (y + z) * (x + y) / 8.0)),
        (("f of the midpoint product <= product of midpoint values", _lhs), _THEOREM)),
    "cor8.2": _Chain("supermultiplicative", TheoremId.AG, _lhs, (_THEOREM, _POINT_PRODUCT)),
    "cor9.1": _Chain(
        "superadditive", TheoremId.AG,
        lambda tid, f, m, x, y, z, h32, h12: np.log(
            (f(x / 2) + f(z / 2)) * (f(y / 2) + f(z / 2)) * (f(x / 2) + f(y / 2))),
        (("half-point sums <= midpoint values", _lhs), _THEOREM)),
    "cor9.2": _Chain(
        "subadditive", TheoremId.AG, _lhs,
        (_THEOREM, ("central value split to thirds", _split_thirds))),
    "cor16.1": _Chain("superadditive", TheoremId.GA, _lhs, (_THEOREM, _POINT_SUM)),
    "cor16.2": _Chain(
        "subadditive", TheoremId.GA, _f_of_summed_pair_means, (_SUMMED_PAIR_MEANS, _THEOREM)),
    "cor20.1": _Chain("supermultiplicative", TheoremId.GG, _lhs, (_THEOREM, _POINT_PRODUCT)),
    "cor20.2": _Chain(
        "submultiplicative", TheoremId.GG,
        lambda tid, f, m, x, y, z, h32, h12: np.log(f(x * y * z)),
        (("f(xyz) <= product of pair-mean values", _lhs), _THEOREM,
         ("central value split to cube roots",
          lambda tid, f, m, x, y, z, h32, h12: h32 * _pair_side(
              tid, f, np.cbrt(x), np.cbrt(y), np.cbrt(z))
          + h12 * _pair_side(tid, f, x, y, z)))),
    "cor27.1": _Chain(
        "superadditive", TheoremId.HA, _half_harmonic,
        (("doubled half-harmonic values <= pair-mean values", _lhs), _THEOREM, _POINT_SUM)),
    "cor27.2": _Chain(
        "subadditive", TheoremId.HA, _f_of_summed_pair_means,
        (_SUMMED_PAIR_MEANS, _THEOREM,
         ("tripled central value", lambda tid, f, m, x, y, z, h32, h12: _point_side(
             tid, 3.0 * h32, h12, f, f(x * y * z / (x * y + y * z + x * z)), x, y, z)))),
    # as printed, the middle link compares theorem HA's left side, a sum, with
    # theorem HG's right side as a product; HA and HG share their argument means
    "HG-chain": _Chain(
        "superadditive", TheoremId.HG, _half_harmonic,
        (("doubled half-harmonic values <= pair-mean value sum",
          lambda tid, f, m, x, y, z, h32, h12: _lhs(TheoremId.HA, f, m, x, y, z, h32, h12)),
         ("pair-mean value sum <= theorem HG right side (as printed)",
          lambda tid, f, m, x, y, z, h32, h12: np.exp(_rhs(tid, f, m, x, y, z, h32, h12))))),
}


def _chain_links(corollary: str) -> list[str]:
    """The name of each link of a corollary, in link order."""
    row = _CHAINS[corollary]
    return [name or f"theorem {row.parent.value}" for name, _ in row.links]


def _chain_sides(corollary: str, h32: float, h12: float, f: PointFunction, x, y, z):
    """(lhs, rhs, valid) of each link of a corollary in link order, in
    comparison domain. Each side of the chain is evaluated once, and so is
    its finiteness: a link is usable where both its sides are finite."""
    row = _CHAINS[corollary]
    m = _pair_and_central(row.parent, x, y, z)
    sides = [row.first(row.parent, f, m, x, y, z, h32, h12)]
    sides += [side(row.parent, f, m, x, y, z, h32, h12) for _, side in row.links]
    finite = [np.isfinite(side) for side in sides]
    return [(lhs, rhs, a & b) for lhs, rhs, a, b in zip(sides, sides[1:], finite, finite[1:])]


def chained_check(corollary: str, h: WeightFunction, f: PointFunction,
                  plan: SamplePlan | None = None, tol: float = DEFAULT_TOL,
                  box: Optional[Interval] = None,
                  enforce_hypotheses: bool = True) -> ChainedReport:
    """Evaluate each printed link of a chained corollary over sampled triples.

    Raises HypothesisMismatchError when the sampled sub/superadditivity (or
    multiplicativity) classes of f and h contradict the corollary's stated
    hypotheses; pass enforce_hypotheses=False to run anyway (audit mode).
    """
    f_hyp, parent = lookup(_CHAINS, corollary, "chained corollary")[:2]
    plan = plan or SamplePlan()
    dom = f.sampling_domain(box)
    require_positive_arguments(MeanKind(parent.value[0]), dom, corollary)
    classify = (classify_multiplicativity if f_hyp.endswith("multiplicative")
                else classify_additivity)
    unit = Interval(0.0, 1.0)
    # by callable, not by name: two functions may share a name
    f_class = plan._cached((classify, f.fn, dom, tol), lambda: classify(f.fn, dom, plan, tol))
    h_class = plan._cached((classify_additivity, h.fn, unit, tol),
                           lambda: classify_additivity(h, unit, plan, tol))
    if enforce_hypotheses:
        f_check = f_hyp.replace("multiplicative", "additive")
        if not f_class.satisfies(f_check):
            raise HypothesisMismatchError(
                f"{corollary} requires f {f_hyp}; sampled class is "
                f"{f_class.tag} (witness {f_class.witness})")
        if not h_class.satisfies(_CHAIN_H_HYPOTHESIS):
            raise HypothesisMismatchError(f"{corollary} requires h {_CHAIN_H_HYPOTHESIS}; "
                                          f"sampled class is {h_class.tag}")
    h32, h12 = weight_eval(h, 1.5), weight_eval(h, 0.5)
    blocks = plan.triple_blocks(dom)
    with np.errstate(all="ignore"):
        chunks = blocks.map(partial(_chain_sides, corollary, h32, h12, f))
    links = [_compare(blocks, [(offset, shape, sides[j]) for offset, shape, sides in chunks],
                      "<=", f"link {name!r} of {corollary} on {f.name}", tol, target=name)
             for j, name in enumerate(_chain_links(corollary))]
    return ChainedReport(corollary, f_class.tag, h_class.tag, links)


# ---------------------------------------------------------------------------

def hlawka_check(x: float, y: float, z: float) -> tuple[float, float, float]:
    """|x|+|y|+|z|+|x+y+z| versus |x+z|+|z+y|+|x+y|; margin = lhs - rhs >= 0."""
    lhs, rhs = (float(side) for side in _hlawka_sides(x, y, z)[:2])
    return lhs, rhs, lhs - rhs


def _hlawka_sides(x, y, z):
    """(lhs, rhs, valid) of Hlawka's inequality lhs >= rhs, elementwise."""
    lhs = np.abs(x) + np.abs(y) + np.abs(z) + np.abs(x + y + z)
    rhs = np.abs(x + z) + np.abs(z + y) + np.abs(x + y)
    return lhs, rhs, np.isfinite(lhs) & np.isfinite(rhs)


def hlawka_margins(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized Hlawka margin lhs - rhs for bulk sampling."""
    return np.subtract(*_hlawka_sides(x, y, z)[:2])
