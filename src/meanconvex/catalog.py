"""Built-in functions by name, built from convexity.FUNCTIONS; the claim audit.

The audit replays a catalog of concrete claims -- membership in a mean-pair
convexity class, a three-point inequality, an exact-equality family, a
chained corollary, or the Hlawka inequality -- and reports how each fares
under sampling. Entries tagged "suspect" have directions we do not assert;
they are measured in both directions and reported as-is. The audit itself
never raises: every discrepancy becomes a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .convexity import (FUNCTIONS, PARAMETER_CLAIMS, ConvexitySpec, PointFunction,
                        verify_class, verify_extended_class)
from .errors import MeanConvexError, lookup
from .intervals import Interval
from .means import MeanKind
from .popoviciu import (EQUALITY_FAMILIES, BASE_SENSE, TheoremId, _claim, _equality,
                        _hlawka_sides, _theorem_chunks, chained_check, verify_theorem)
from .sampling import SamplePlan, Verdict, _compare
from .weights import (DEFAULT_TOL, _label, identity_weight, power_weight,
                      reciprocal_weight)


def builtin_functions() -> dict[str, PointFunction]:
    """Every function of the FUNCTIONS table, with its domain and positivity claim."""
    return {name: PointFunction(name, *row) for name, row in FUNCTIONS.items()}


def make_function(name: str, p: Optional[float] = None,
                  a: Optional[float] = None, b: Optional[float] = None,
                  c: Optional[float] = None) -> PointFunction:
    """Resolve a registry name, binding parameters onto a parametric row: power
    takes exponent p, affine slope a and intercept b, const the constant c; a
    parameter the row does not take raises KeyError, as an unknown name does.
    Unset ones keep the row's defaults; the name lists them all."""
    fn, domain, positive = lookup(FUNCTIONS, name, "function")
    takes = getattr(fn, "__kwdefaults__", None) or {}
    given = {k: v for k, v in dict(p=p, a=a, b=b, c=c).items() if v is not None}
    if not given.keys() <= takes.keys():
        raise KeyError(f"function {name!r} takes parameters {list(takes)}, got {list(given)}")
    if not given:
        return PointFunction(name, fn, domain, positive)
    params = {**takes, **given}
    return PointFunction(f"{name}[{','.join(map(_label, params.values()))}]",
                         partial(fn, **params), domain, PARAMETER_CLAIMS[name](**params))


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    kind: str  # class | extended-class | theorem | equality | chain | hlawka | direction-probe
    statement: str
    expected: str  # holds | refuted | equality | suspect | domain-violation
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditFinding:
    key: str
    kind: str
    expected: str
    outcome: str
    agree: bool
    detail: str
    min_margin: Optional[float] = None
    samples: int = 0
    skipped: int = 0


_BOX_01_10 = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
_BOX_01_5 = Interval(0.1, 5.0, closed_lo=True, closed_hi=True)
_BOX_1_4 = Interval(1.0, 4.0, closed_lo=True, closed_hi=True)
_BOX_2_8 = Interval(2.0, 8.0, closed_lo=True, closed_hi=True)
_BOX_0_100 = Interval(0.0, 100.0, closed_lo=True, closed_hi=True)
_BOX_HLAWKA = Interval(-100.0, 100.0, closed_lo=True, closed_hi=True)

_FALSE = "deliberately false"  # the reason of a claim the audit must refute

# Identity-weight class memberships: (f, argument and value mean, sense, box, reason).
_CLASSES = [
    ("square", "AA", "convex", _BOX_01_10, "the classical case"),
    ("square", "AA", "concave", _BOX_01_10, _FALSE),
    ("exp", "AG", "convex", _BOX_01_5, "log-affine, so exact"),
    ("cosh", "AG", "convex", _BOX_01_5, "log cosh is convex"),
    ("reciprocal", "AH", "concave", _BOX_01_10, "an exact identity"),
    ("log", "GA", "concave", None, "an exact identity"),
    ("identity", "GA", "convex", _BOX_01_10, "weighted AM-GM"),
    ("square", "GG", "convex", _BOX_01_10, "an exact identity"),
    ("identity", "HH", "convex", _BOX_01_10, "an exact identity"),
    ("reciprocal", "HA", "convex", _BOX_01_10, "an exact identity"),
]

# Extended classes, arithmetic argument mean, s = 1/2: (f, tag, box, bound).
_EXTENDED = [
    ("square", "P", _BOX_01_10, "f(tx+(1-t)y) <= f(x)+f(y)"),
    ("square", "Q", _BOX_01_10, "Godunova-Levin, weight 1/t"),
    ("square", "K_s2", _BOX_01_10, "s-convex in the second sense"),
]

# Three-point inequalities: (theorem, f, box, sense, reason[, _WEIGHTS key]); the
# weight is identity unless keyed. Sense "both" makes a probe, measured not asserted.
_THEOREMS = [
    ("AA", "square", _BOX_01_10, "convex", "the classical inequality"),
    ("AA", "square", _BOX_01_10, "concave", _FALSE),
    ("AG", "cosh", _BOX_01_5, "convex", "product form"),
    ("AH", "reciprocal", _BOX_01_10, "concave", "reciprocal form"),
    ("GA", "cosh", _BOX_01_5, "convex", "sum form"),
    ("GG", "cosh", _BOX_01_5, "convex", "product form"),
    ("GH", "cosh", _BOX_1_4, "both", "fails both ways, at (1,1,2) and (1,1,1.09375)"),
    ("GH", "reciprocal_log", None, "concave", "an exact identity"),
    ("HA", "reciprocal", _BOX_01_10, "convex", "sum form"),
    ("HG", "exp", _BOX_01_5, "convex", "product form"),
    ("HH", "arctan", _BOX_01_10, "concave", "reciprocal form"),
]
_PROBES = [
    ("AA", "square", _BOX_01_10, "both", "direction measured, not asserted", "reciprocal"),
    ("AG", "cosh", _BOX_01_5, "both", "direction measured, not asserted", "reciprocal"),
    ("AA", "square", _BOX_01_10, "both", "direction measured, not asserted", "squared"),
]
_WEIGHTS = {"reciprocal": reciprocal_weight(), "squared": power_weight(2.0)}

# Identity-weight chained corollaries: (corollary, f, box, reason).
_CHAIN_CASES = [
    ("cor4.1", "identity", _BOX_01_10, "subadditive f"),
    ("cor4.2", "square", _BOX_01_10, "superadditive f"),
    ("cor8.1", "const", _BOX_01_10, "submultiplicative f"),
    ("cor8.2", "cosh", _BOX_2_8, "supermultiplicative f"),
    ("cor9.1", "cosh", _BOX_2_8, "superadditive f"),
    ("cor9.2", "const", _BOX_01_10, "subadditive f"),
    ("cor16.1", "cosh", _BOX_1_4, "superadditive f"),
    ("cor16.2", "sqrt", _BOX_01_10, "subadditive f"),
    ("cor20.1", "square", _BOX_01_10, "supermultiplicative f"),
    ("cor20.2", "sqrt", _BOX_01_10, "submultiplicative f"),
    ("cor27.1", "identity", _BOX_01_10, "superadditive f"),
    ("cor27.2", "sqrt", _BOX_01_10, "subadditive f"),
    ("HG-chain", "square", _BOX_01_10, "as printed it compares a sum against a product"),
]


def _class(key, f, pair, sense, box, reason) -> CatalogEntry:
    expected = ("refuted" if reason == _FALSE else "domain-violation"
                if pair[1] != "A" and not f.positive_on_domain else "holds")
    spec = ConvexitySpec(MeanKind(pair[0]), MeanKind(pair[1]), identity_weight(), sense)
    return CatalogEntry(key, "class", f"{f.name} is {pair}-{sense} ({reason})",
                        expected, {"spec": spec, "f": f, "box": box})


def _theorem(fs, tid, fname, box, sense, reason, weight=None) -> CatalogEntry:
    tid, probe = TheoremId(tid), sense == "both"
    h = _WEIGHTS[weight] if weight else identity_weight()
    key = tid.value + (f"-{weight}-weight" if weight else "") + "-" + fname.replace("_", "-")
    if not probe and sense != BASE_SENSE[tid]:
        key += "-flipped"
    payload = {"tid": tid, "h": h, "f": fs[fname], "box": box}
    return CatalogEntry(
        ("probe/" if probe else "theorem/") + key,
        "direction-probe" if probe else "theorem",
        f"theorem {tid.value} for {fname}, weight {h.name}, sense {sense} ({reason})",
        "suspect" if probe else "refuted" if reason == _FALSE else "holds",
        payload if probe else {**payload, "sense": sense})  # a probe measures both senses


def builtin_claims() -> list[CatalogEntry]:
    """The audited claim catalog (52 entries), derived from the row tables.

    Keys: class/<f>-<pair>-<sense>, extended/<f>-<tag without "_">,
    theorem/<id>-<f>[-flipped] (flipped: not the printed sense),
    probe/<id>[-<weight>-weight]-<f>, chain/<corollary>-<f> and
    domain/<f>-<pair>, with "_" in f read as "-"; only log on (0, 1) has
    its own label, log-unit. Expected outcomes: "refuted" for reason _FALSE;
    "domain-violation" for a class whose f does not claim positive_on_domain
    under a G or H value mean; "suspect" for direction probes and HG-chain,
    which are only measured; "equality" for exact families; else "holds".
    """
    fs = builtin_functions()
    domain_cases = [  # (f, pair, sense, box, key label)
        (fs["neg_square"], "AG", "convex", _BOX_01_10, None),
        (replace(fs["log"], domain=Interval(0.0, 1.0), positive_on_domain=False),
         "GG", "convex", None, "log-unit"),
        (replace(fs["neg_log"], domain=Interval(1.0, 10.0), positive_on_domain=False),
         "AH", "concave", None, None),
    ]
    return [
        *[_class(f"class/{f.replace('_', '-')}-{pair}-{sense}", fs[f], pair, sense,
                 box, reason) for f, pair, sense, box, reason in _CLASSES],
        *[CatalogEntry(f"extended/{f.replace('_', '-')}-{tag.replace('_', '')}",
                       "extended-class", f"{f} is in class {tag} with s = 1/2 ({bound})",
                       "holds", {"class_tag": tag, "f": fs[f], "box": box})
          for f, tag, box, bound in _EXTENDED],
        *[_theorem(fs, *row) for row in _THEOREMS],
        *[CatalogEntry(f"equality/{family}", "equality",
                       f"the {family} specialization is an exact identity",
                       "equality", {"family": family})
          for family in EQUALITY_FAMILIES],
        *[CatalogEntry(f"chain/{cor}-{f.replace('_', '-')}", "chain",
                       f"corollary {cor} for {f} ({reason})",
                       "holds" if enforce else "suspect",
                       {"corollary": cor, "h": identity_weight(), "f": fs[f], "box": box,
                        "enforce_hypotheses": enforce})
          for cor, f, box, reason in _CHAIN_CASES
          for enforce in [cor != "HG-chain"]],  # HG-chain is only measured
        CatalogEntry("hlawka/random", "hlawka",
                     "|x|+|y|+|z|+|x+y+z| >= |x+z|+|z+y|+|x+y| on random triples",
                     "holds", {"box": _BOX_HLAWKA, "claim": ">="}),
        # negating x, y and z is exact and leaves both sides bit for bit the
        # same, so the positive orthant stands for both same-sign orthants
        CatalogEntry("hlawka/same-sign", "hlawka",
                     "Hlawka's inequality is an equality when x, y, z share a sign",
                     "equality", {"box": _BOX_0_100, "claim": "=="}),
        *[_theorem(fs, *row) for row in _PROBES],
        *[_class(f"domain/{label or f.name.replace('_', '-')}-{pair}", f, pair, sense,
                 box, "f is not positive on its domain, yet the value mean needs f > 0")
          for f, pair, sense, box, label in domain_cases],
    ]


_AUDIT_PLAN = SamplePlan(grid_axis=13, grid_t=9, n_random=2000)


def _positivity_violation(f: PointFunction, box, value_mean: str) -> Optional[str]:
    """"f(x) <= 0" at the first sampled x where f <= 0 under a G or H value mean (log
    or reciprocal of f), else None; a +0.0 from an f that claims f > 0 is an underflow."""
    if value_mean == "A":
        return None
    dom = f.sampling_domain(box)
    xs = np.linspace(*dom.sampling_bounds(), 257)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(xs), dtype=float)
    bad = np.isfinite(vals) & (vals <= 0.0)
    if not bad.any():
        return None
    i = np.argmax(bad)
    underflow = f.positive_on_domain and vals[i] == 0.0 and not np.signbit(vals[i])
    return f"{f.name}({xs[i]:.6g}) {'underflows to +0.0 in floats' if underflow else '<= 0'}"


# _audit_*(plan, tol, **payload) -> (outcome, detail, min_margin, samples, skipped)

def _sampled(verdict: Verdict, equality=False):
    """The finding of a sampled claim: refuted at its first witness, named
    (x, y, z) for a triple and x=, y=, t= for a class, else holding; an equality
    claim reads not-equality or equality, and its margin is -min_margin."""
    margin = -verdict.min_margin if equality else verdict.min_margin
    w = next(iter(verdict.witnesses), None)
    if w is None:
        measure = "max relative residual" if equality else "min relative margin"
        detail = f"{measure} {margin:.3e}"
    elif w.z is None:
        detail = f"violated at x={w.x:.6g}, y={w.y:.6g}, t={w.t:.6g}"
    else:
        detail = f"violated at ({w.x:.6g}, {w.y:.6g}, {w.z:.6g})"
    words = ("not-equality", "equality") if equality else ("refuted", "holds")
    return words[verdict.holds], detail, margin, verdict.samples, verdict.skipped


def _audit_class(plan, tol, spec, f, box):
    bad = _positivity_violation(f, box, spec.val_mean.value)
    if bad is not None:
        return "domain-violation", f"{bad} but the value mean needs f > 0", None, 0, 0
    return _sampled(verify_class(spec, f, plan, tol, box))


def _audit_extended(plan, tol, class_tag, f, box):
    return _sampled(verify_extended_class(class_tag, MeanKind.ARITHMETIC, f, plan, tol,
                                          s=0.5, box=box))


def _audit_theorem(plan, tol, tid, h, f, sense, box):
    return _sampled(verify_theorem(tid, h, f, sense, plan, tol, box))


def _audit_equality(plan, tol, family):
    verdict = _equality(family, plan)
    resid = -verdict.min_margin
    return ("equality" if resid <= tol else "not-equality",
            f"max relative residual {resid:.3e}", resid, verdict.samples, verdict.skipped)


def _audit_chain(plan, tol, corollary, h, f, box, enforce_hypotheses):
    report = chained_check(corollary, h, f, plan, tol, box, enforce_hypotheses)
    if not enforce_hypotheses:
        outcome = "measured"
    else:
        outcome = "holds" if report.holds else "refuted"
    return (outcome,
            "; ".join(f"{lk.target}: {lk.min_margin:.3e}" for lk in report.links),
            min(lk.min_margin for lk in report.links),
            min(lk.samples for lk in report.links),
            max(lk.skipped for lk in report.links))


def _audit_hlawka(plan, tol, box, claim):
    blocks = plan.triple_blocks(box)
    return _sampled(_compare(blocks, blocks.map(_hlawka_sides), claim, "Hlawka's inequality",
                             tol), claim == "==")


def _audit_probe(plan, tol, tid, h, f, box):
    """Both senses of a theorem from one evaluation of its sides, each
    reduced to its min margin; no witness is read."""
    blocks, _, results = _theorem_chunks(tid, h, f, plan, box)
    cmps = {sense: _compare(blocks, results, _claim(tid, sense),
                            f"theorem {tid.value} on {f.name}")
            for sense in ("convex", "concave")}
    detail = "; ".join(f"{sense}: min margin {c.min_margin:.3e}" for sense, c in cmps.items())
    return ("measured", detail, None, min(c.samples for c in cmps.values()),
            max(c.skipped for c in cmps.values()))


_DISPATCH = {
    "class": _audit_class,
    "extended-class": _audit_extended,
    "theorem": _audit_theorem,
    "equality": _audit_equality,
    "chain": _audit_chain,
    "hlawka": _audit_hlawka,
    "direction-probe": _audit_probe,
}


def run_audit(plan: SamplePlan | None = None,
              tol: float = DEFAULT_TOL) -> list[AuditFinding]:
    """Replay every catalog claim; a failed claim is a finding, not an error."""
    plan = plan or _AUDIT_PLAN
    findings = []
    for entry in builtin_claims():
        try:
            outcome, *rest = _DISPATCH[entry.kind](plan, tol, **entry.payload)
        except MeanConvexError as exc:
            outcome, rest = "error", [f"{type(exc).__name__}: {exc}", None, 0, 0]
        findings.append(AuditFinding(entry.key, entry.kind, entry.expected, outcome,
                                     outcome in (entry.expected, "measured"), *rest))
    return findings
