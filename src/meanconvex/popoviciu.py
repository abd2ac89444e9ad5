"""Three-point (Popoviciu-type) inequalities for the nine mean pairs.

A theorem id MN is fixed by its mean pair. The argument mean M gives the
pair and central means; the value mean N says how f enters both sides:
sums of f (N = A), products of f (N = G, evaluated and compared in log
domain), or sums of 1/f (N = H). The HH left side is implemented in the
reciprocal-sum form of its derivation; the printed statement's plain-sum
left side is dimensionally inconsistent with its own right side.

Direction convention: each theorem states its inequality for one "base"
sense (concave when N = H, else convex); the opposite sense reverses the
printed direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .convexity import FUNCTIONS, PointFunction, Witness
from .errors import DomainError, HypothesisMismatchError
from .intervals import Interval
from .sampling import SamplePlan, _compare, _margin
from .weights import (DEFAULT_TOL, WeightFunction, classify_additivity,
                      classify_multiplicativity, weight_eval)


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


def _claim(tid: TheoremId, sense: str) -> str:
    """The comparison lhs <= rhs or lhs >= rhs that theorem tid states in sense."""
    return "<=" if sense == BASE_SENSE[tid] else ">="


def _pair_and_central(tid: TheoremId, x, y, z):
    """The three pairwise argument means and the central three-point mean."""
    fam = tid.value[0]
    if fam == "A":
        return (x + z) / 2.0, (y + z) / 2.0, (x + y) / 2.0, (x + y + z) / 3.0
    if fam == "G":
        return np.sqrt(x * z), np.sqrt(y * z), np.sqrt(x * y), np.cbrt(x * y * z)
    sxy = x * y + y * z + x * z
    return (2.0 * x * z / (x + z), 2.0 * y * z / (y + z),
            2.0 * x * y / (x + y), 3.0 * x * y * z / sxy)


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


def _point_side(tid: TheoremId, h32: float, h12: float, f: PointFunction, c, x, y, z):
    """Right side: the central term at weight h32 plus the point terms at h12."""
    return _VALUE_TERMS[tid.value[1]][1](h32, f(c)) + h12 * _pair_side(tid, f, x, y, z)


def _theorem_sides(tid: TheoremId, h32: float, h12: float, f: PointFunction,
                   x, y, z):
    """(lhs, rhs, argument means) of the theorem in its comparison domain.

    h32 = h(3/2) and h12 = h(1/2); product theorems give log-domain sides.
    """
    means = m1, m2, m3, c = _pair_and_central(tid, x, y, z)
    return (_pair_side(tid, f, m1, m2, m3), _point_side(tid, h32, h12, f, c, x, y, z),
            means)


def _sides_arrays(tid: TheoremId, h32: float, h12: float, f: PointFunction,
                  x, y, z):
    """Vectorized (lhs, rhs, valid) in the theorem's comparison domain.

    h32 = h(3/2) and h12 = h(1/2), as weight_eval gives them; product
    theorems return log-domain sides.
    """
    with np.errstate(all="ignore"):
        lhs, rhs, means = _theorem_sides(tid, h32, h12, f, x, y, z)
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        for arg in means:
            valid &= np.isfinite(arg) & f.domain.contains_array(arg)
    return np.atleast_1d(lhs), np.atleast_1d(rhs), np.atleast_1d(valid)


def popoviciu_sides(tid: TheoremId, h: WeightFunction, f: PointFunction,
                    x: float, y: float, z: float) -> tuple[float, float]:
    """Both printed sides at one triple; products are exp of log-domain sums."""
    if not all(f.domain.contains(v) for v in (x, y, z)):
        raise DomainError(f"({x}, {y}, {z}) not inside domain of {f.name}")
    arr = lambda v: np.array([float(v)])
    lhs, rhs, valid = _sides_arrays(tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f,
                                    arr(x), arr(y), arr(z))
    if not valid[0]:
        raise DomainError(
            f"triple ({x}, {y}, {z}) not evaluable for theorem {tid.value} on {f.name}")
    if tid.value[1] == "G":
        return float(np.exp(lhs[0])), float(np.exp(rhs[0]))
    return float(lhs[0]), float(rhs[0])


def two_point_reduction(tid: TheoremId, h: WeightFunction, f: PointFunction,
                        x: float, y: float) -> tuple[float, float]:
    """The z = y specialization; identical by construction to the full sides."""
    return popoviciu_sides(tid, h, f, x, y, y)


@dataclass(frozen=True)
class PopoviciuReport:
    theorem: TheoremId
    h_name: str
    f_name: str
    sense: str
    triples_tested: int
    min_margin: float  # relative margin in the comparison domain
    witnesses: list[Witness] = field(default_factory=list)
    skipped: int = 0

    @property
    def status(self) -> str:
        return "refuted" if self.witnesses else "holds-on-samples"

    @property
    def holds(self) -> bool:
        return not self.witnesses


def verify_theorem(tid: TheoremId, h: WeightFunction, f: PointFunction,
                   sense: str = None, plan: SamplePlan | None = None,
                   tol: float = DEFAULT_TOL,
                   box: Optional[Interval] = None) -> PopoviciuReport:
    """Sample triples from f's domain and test the theorem's printed direction.

    sense defaults to the theorem's base sense. The hypotheses on f and h are
    not checked; audits deliberately run theorems under violated ones. The
    sides are evaluated once: up to eight witnesses read lhs and rhs from the
    arrays that decided the verdict (exp of the log-domain sides for product
    theorems).
    """
    if sense is None:
        sense = BASE_SENSE[tid]
    if sense not in ("convex", "concave"):
        raise ValueError(f"sense must be convex|concave, got {sense!r}")
    plan = plan or SamplePlan()
    blocks = plan.triple_blocks(f.sampling_domain(box))
    kernel = partial(_sides_arrays, tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f)
    cmp = _compare(blocks.map(kernel), _claim(tid, sense),
                   f"theorem {tid.value} on {f.name}", tol, limit=8)
    product = tid.value[1] == "G"
    witnesses = []
    for i, wl, wr in cmp.violations:
        x, y, z = blocks.point(i)
        wl, wr = (np.exp(wl), np.exp(wr)) if product else (wl, wr)
        witnesses.append(Witness(x, y, None, float(wl), float(wr), z=z, index=i))
    return PopoviciuReport(tid, h.name, f.name, sense, cmp.samples, cmp.min_margin,
                           witnesses, skipped=cmp.skipped)


# ---------------------------------------------------------------------------
# Equality families: corollary identities exact for every admissible triple.

_IDENTITY_H = (1.5, 0.5)  # h(3/2), h(1/2) of the identity weight

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
    if family not in EQUALITY_FAMILIES:
        raise KeyError(f"unknown equality family {family!r}; "
                       f"choose from {sorted(EQUALITY_FAMILIES)}")
    tid, f = EQUALITY_FAMILIES[family]
    for v in (x, y, z):
        if not f.domain.contains(v):
            raise DomainError(f"{v} outside the {family} domain")
    arr = lambda v: np.array([float(v)])
    lhs, rhs, valid = _sides_arrays(tid, *_IDENTITY_H, f, arr(x), arr(y), arr(z))
    if not valid[0]:
        raise DomainError(f"triple not evaluable for family {family}")
    return float(abs(lhs[0] - rhs[0]))


def theorem_margins(tid: TheoremId, h: WeightFunction, f: PointFunction,
                    x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    sense: str = None) -> np.ndarray:
    """Relative margin of the printed inequality at each triple.

    Negative means violated; +inf marks triples that are not evaluable.
    """
    if sense is None:
        sense = BASE_SENSE[tid]
    lhs, rhs, valid = _sides_arrays(tid, weight_eval(h, 1.5), weight_eval(h, 0.5), f,
                                    *(np.asarray(v, dtype=float) for v in (x, y, z)))
    return _margin(lhs, rhs, valid, _claim(tid, sense))


def equality_max_residual(family: str, plan: SamplePlan | None = None,
                          box: Optional[Interval] = None) -> tuple[float, int]:
    """Max relative |lhs - rhs| of an equality family over sampled triples.

    Returns (max_residual, triples_tested).
    """
    if family not in EQUALITY_FAMILIES:
        raise KeyError(f"unknown equality family {family!r}")
    tid, f = EQUALITY_FAMILIES[family]
    plan = plan or SamplePlan()
    blocks = plan.triple_blocks(f.sampling_domain(box))
    cmp = _compare(blocks.map(partial(_sides_arrays, tid, *_IDENTITY_H, f)), "==",
                   f"family {family}")
    return -cmp.min_margin, cmp.samples


# ---------------------------------------------------------------------------
# Chained corollaries.

@dataclass(frozen=True)
class LinkResult:
    name: str
    min_margin: float  # relative
    samples: int
    skipped: int
    witness: Optional[Witness] = None

    @property
    def holds(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class ChainedReport:
    corollary: str
    f_class: str
    h_class: str
    links: list[LinkResult]

    @property
    def holds(self) -> bool:
        return all(link.holds for link in self.links)


# Every chained corollary requires h superadditive.
_CHAIN_H_HYPOTHESIS = "superadditive"

# corollary -> (f hypothesis, parent theorem, prefix link, suffix link). The
# f hypothesis also names the kind, additive or multiplicative, of the class
# check on f. The middle link is the parent theorem's two sides. A prefix
# (name, lhs(f, x, y, z)) ends at the parent's left side; a suffix
# (name, rhs(f, x, y, z, h32, h12)) starts from its right side. Product-form
# links compare logs.
_CHAINS = {
    "cor4.1": ("subadditive", TheoremId.AA,
               ("f(x+y+z) <= sum of midpoint values",
                lambda f, x, y, z: f(x + y + z)),
               ("central term split to thirds",
                lambda f, x, y, z, h32, h12: h32 * (f(x / 3) + f(y / 3) + f(z / 3))
                + h12 * (f(x) + f(y) + f(z)))),
    "cor4.2": ("superadditive", TheoremId.AA, None,
               ("point sum collapsed to f(x+y+z)",
                lambda f, x, y, z, h32, h12: h32 * f((x + y + z) / 3)
                + h12 * f(x + y + z))),
    "cor8.1": ("submultiplicative", TheoremId.AG,
               ("f of the midpoint product <= product of midpoint values",
                lambda f, x, y, z: np.log(f((x + z) * (y + z) * (x + y) / 8.0))),
               None),
    "cor8.2": ("supermultiplicative", TheoremId.AG, None,
               ("point product collapsed to f(xyz)",
                lambda f, x, y, z, h32, h12: h32 * np.log(f((x + y + z) / 3.0))
                + h12 * np.log(f(x * y * z)))),
    "cor9.1": ("superadditive", TheoremId.AG,
               ("half-point sums <= midpoint values",
                lambda f, x, y, z: np.log((f(x / 2) + f(z / 2)) * (f(y / 2) + f(z / 2))
                                          * (f(x / 2) + f(y / 2)))),
               None),
    "cor9.2": ("subadditive", TheoremId.AG, None,
               ("central value split to thirds",
                lambda f, x, y, z, h32, h12: h32 * np.log(f(x / 3) + f(y / 3) + f(z / 3))
                + h12 * (np.log(f(x)) + np.log(f(y)) + np.log(f(z))))),
    "cor16.1": ("superadditive", TheoremId.GA, None,
                ("point sum collapsed to f(x+y+z)",
                 lambda f, x, y, z, h32, h12: h32 * f(np.cbrt(x * y * z))
                 + h12 * f(x + y + z))),
    "cor16.2": ("subadditive", TheoremId.GA,
                ("f of the summed pair means <= sum",
                 lambda f, x, y, z: f(np.sqrt(x * z) + np.sqrt(y * z) + np.sqrt(x * y))),
                None),
    "cor20.1": ("supermultiplicative", TheoremId.GG, None,
                ("point product collapsed to f(xyz)",
                 lambda f, x, y, z, h32, h12: h32 * np.log(f(np.cbrt(x * y * z)))
                 + h12 * np.log(f(x * y * z)))),
    "cor20.2": ("submultiplicative", TheoremId.GG,
                ("f(xyz) <= product of pair-mean values",
                 lambda f, x, y, z: np.log(f(x * y * z))),
                ("central value split to cube roots",
                 lambda f, x, y, z, h32, h12: h32 * (np.log(f(np.cbrt(x)))
                                                     + np.log(f(np.cbrt(y)))
                                                     + np.log(f(np.cbrt(z))))
                 + h12 * (np.log(f(x)) + np.log(f(y)) + np.log(f(z))))),
    "cor27.1": ("superadditive", TheoremId.HA,
                ("doubled half-harmonic values <= pair-mean values",
                 lambda f, x, y, z: 2.0 * (f(x * z / (x + z)) + f(y * z / (y + z))
                                           + f(x * y / (x + y)))),
                ("point sum collapsed to f(x+y+z)",
                 lambda f, x, y, z, h32, h12: h32 * f(
                     3.0 * x * y * z / (x * y + y * z + x * z)) + h12 * f(x + y + z))),
    "cor27.2": ("subadditive", TheoremId.HA,
                ("f of the summed pair means <= sum",
                 lambda f, x, y, z: f(2 * x * z / (x + z) + 2 * y * z / (y + z)
                                      + 2 * x * y / (x + y))),
                ("tripled central value",
                 lambda f, x, y, z, h32, h12: 3.0 * h32 * f(x * y * z / (x * y + y * z + x * z))
                 + h12 * (f(x) + f(y) + f(z)))),
    # as printed, the middle link compares a sum with a product; see _chain_sides
    "HG-chain": ("superadditive", TheoremId.HG,
                 ("doubled half-harmonic values <= pair-mean value sum",
                  lambda f, x, y, z: 2.0 * (f(x * z / (x + z)) + f(y * z / (y + z))
                                            + f(x * y / (x + y)))),
                 None),
}


def _chain_links(corollary: str) -> list[str]:
    """The name of each link of a corollary, in link order."""
    _, parent, prefix, suffix = _CHAINS[corollary]
    middle = ("pair-mean value sum <= theorem HG right side (as printed)"
              if corollary == "HG-chain" else f"theorem {parent.value}")
    return [link[0] for link in (prefix, (middle,), suffix) if link]


def _chain_sides(corollary: str, h32: float, h12: float, f: PointFunction, x, y, z):
    """lhs, rhs of each link of a corollary in link order, flattened to
    [lhs, rhs, lhs, rhs, ...], in comparison domain."""
    _, parent, prefix, suffix = _CHAINS[corollary]
    if corollary == "HG-chain":
        # the plain sum of f at the harmonic pair means (theorem HA's left
        # side) against theorem HG's right side as a product
        m1, m2, m3, c = _pair_and_central(parent, x, y, z)
        lhs = _pair_side(TheoremId.HA, f, m1, m2, m3)
        rhs = np.exp(_point_side(parent, h32, h12, f, c, x, y, z))
    else:
        lhs, rhs, _ = _theorem_sides(parent, h32, h12, f, x, y, z)
    sides = [lhs, rhs]
    if prefix:
        sides = [prefix[1](f, x, y, z), lhs] + sides
    if suffix:
        sides += [rhs, suffix[1](f, x, y, z, h32, h12)]
    return sides


def _finite_sides(lhs, rhs):
    """(lhs, rhs, valid) of a chain link: usable where both sides are finite."""
    return lhs, rhs, np.isfinite(lhs) & np.isfinite(rhs)


def chained_check(corollary: str, h: WeightFunction, f: PointFunction,
                  plan: SamplePlan | None = None, tol: float = DEFAULT_TOL,
                  box: Optional[Interval] = None,
                  enforce_hypotheses: bool = True) -> ChainedReport:
    """Evaluate each printed link of a chained corollary over sampled triples.

    Raises HypothesisMismatchError when the sampled sub/superadditivity (or
    multiplicativity) classes of f and h contradict the corollary's stated
    hypotheses; pass enforce_hypotheses=False to run anyway (audit mode).
    """
    if corollary not in _CHAINS:
        raise KeyError(f"unknown chained corollary {corollary!r}; "
                       f"choose from {sorted(_CHAINS)}")
    plan = plan or SamplePlan()
    f_hyp = _CHAINS[corollary][0]
    dom = f.sampling_domain(box)
    classify = (classify_multiplicativity if f_hyp.endswith("multiplicative")
                else classify_additivity)
    f_class = classify(f.fn, dom, plan, tol)
    h_class = classify_additivity(h, Interval(0.0, 1.0), plan, tol)
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
        sides = blocks.map(partial(_chain_sides, corollary, h32, h12, f))
    results = []
    for j, name in enumerate(_chain_links(corollary)):
        link = [(offset, shape, _finite_sides(*s[2 * j:2 * j + 2]))
                for offset, shape, s in sides]
        cmp = _compare(link, "<=", f"link {name!r} of {corollary} on {f.name}", tol)
        witness = None
        if cmp.violations:
            i, lhs, rhs = cmp.violations[0]
            x, y, z = blocks.point(i)
            witness = Witness(x, y, None, float(lhs), float(rhs), z=z, index=i)
        results.append(LinkResult(name, cmp.min_margin, cmp.samples, cmp.skipped,
                                  witness))
    return ChainedReport(corollary, f_class.tag, h_class.tag, results)


# ---------------------------------------------------------------------------

def hlawka_check(x: float, y: float, z: float) -> tuple[float, float, float]:
    """|x|+|y|+|z|+|x+y+z| versus |x+z|+|z+y|+|x+y|; margin = lhs - rhs >= 0."""
    lhs = abs(x) + abs(y) + abs(z) + abs(x + y + z)
    rhs = abs(x + z) + abs(z + y) + abs(x + y)
    return lhs, rhs, lhs - rhs


def _hlawka_sides(x, y, z):
    """(lhs, rhs, valid) of Hlawka's inequality lhs >= rhs, elementwise."""
    lhs = np.abs(x) + np.abs(y) + np.abs(z) + np.abs(x + y + z)
    rhs = np.abs(x + z) + np.abs(z + y) + np.abs(x + y)
    return _finite_sides(lhs, rhs)


def hlawka_margins(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized Hlawka margin lhs - rhs for bulk sampling."""
    return np.subtract(*_hlawka_sides(x, y, z)[:2])
