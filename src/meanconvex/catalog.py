"""Built-in function registry and the claim audit.

The audit replays a catalog of concrete claims -- membership in a mean-pair
convexity class, a three-point inequality, an exact-equality family, a
chained corollary, or the Hlawka inequality -- and reports how each fares
under sampling. Entries tagged "suspect" have directions we do not assert;
they are measured in both directions and reported as-is. The audit itself
never raises: every discrepancy becomes a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convexity import (ConvexitySpec, PointFunction, verify_class,
                        verify_extended_class)
from .errors import MeanConvexError
from .intervals import Interval
from .means import MeanKind
from .popoviciu import (EQUALITY_FAMILIES, BASE_SENSE, TheoremId, chained_check,
                        equality_max_residual, hlawka_margins, verify_theorem)
from .sampling import SamplePlan
from .weights import (DEFAULT_TOL, identity_weight, power_weight,
                      reciprocal_weight)

_POS = Interval(0.0, np.inf)
_REALS = Interval(-np.inf, np.inf)


def builtin_functions() -> dict[str, PointFunction]:
    """Named test functions with their stated domains and positivity claims."""
    return {f.name: f for f in (
        PointFunction("identity", lambda v: v, _POS),
        PointFunction("affine", lambda v: 2.0 * v + 3.0, _POS),
        PointFunction("square", np.square, _POS),
        PointFunction("neg_square", lambda v: -np.square(v), _POS, positive_on_domain=False),
        PointFunction("sqrt", np.sqrt, _POS),
        PointFunction("power", lambda v: v**2.0, _POS),
        PointFunction("const", lambda v: np.full_like(np.asarray(v, dtype=float), 2.0),
                      _REALS),
        PointFunction("exp", np.exp, _REALS),
        PointFunction("exp_neg", lambda v: np.exp(-v), _REALS),
        PointFunction("log", np.log, Interval(1.0, np.inf)),
        PointFunction("neg_log", lambda v: -np.log(v), Interval(0.0, 1.0)),
        PointFunction("cosh", np.cosh, _REALS),
        PointFunction("arcsin", np.arcsin, Interval(0.0, 1.0)),
        PointFunction("arctan", np.arctan, _POS),
        PointFunction("reciprocal", lambda v: 1.0 / v, _POS),
        PointFunction("reciprocal_log", lambda v: 1.0 / np.log(v), Interval(1.0, np.inf)),
        PointFunction("exp_reciprocal", lambda v: np.exp(1.0 / v), _POS),
    )}


def make_function(name: str, p: Optional[float] = None,
                  a: Optional[float] = None, b: Optional[float] = None,
                  c: Optional[float] = None) -> PointFunction:
    """Resolve a registry name, honoring the parametric builders.

    power takes exponent p, affine takes slope a and intercept b, const
    takes the constant c.
    """
    if name == "power" and p is not None:
        return PointFunction(f"power[{p:g}]", lambda v: v**p, _POS)
    if name == "affine" and (a is not None or b is not None):
        a0, b0 = a if a is not None else 2.0, b if b is not None else 3.0
        return PointFunction(f"affine[{a0:g},{b0:g}]",
                             lambda v: a0 * v + b0, _POS,
                             positive_on_domain=(a0 >= 0 and b0 >= 0))
    if name == "const" and c is not None:
        return PointFunction(f"const[{c:g}]", lambda v: np.full_like(
            np.asarray(v, dtype=float), c), _REALS,
            positive_on_domain=c > 0)
    table = builtin_functions()
    if name not in table:
        raise KeyError(f"unknown function {name!r}; "
                       f"choose from {sorted(table)}")
    return table[name]


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
    return CatalogEntry(
        ("probe/" if probe else "theorem/") + key,
        "direction-probe" if probe else "theorem",
        f"theorem {tid.value} for {fname}, weight {h.name}, sense {sense} ({reason})",
        "suspect" if probe else "refuted" if reason == _FALSE else "holds",
        {"tid": tid, "h": h, "f": fs[fname],
         "sense": BASE_SENSE[tid] if probe else sense, "box": box})


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
        (PointFunction("log", np.log, Interval(0.0, 1.0), positive_on_domain=False),
         "GG", "convex", None, "log-unit"),
        (PointFunction("neg_log", lambda v: -np.log(v), Interval(1.0, 10.0),
                       positive_on_domain=False), "AH", "concave", None, None),
    ]
    return [
        *[_class(f"class/{f.replace('_', '-')}-{pair}-{sense}", fs[f], pair, sense,
                 box, reason) for f, pair, sense, box, reason in _CLASSES],
        *[CatalogEntry(f"extended/{f.replace('_', '-')}-{tag.replace('_', '')}",
                       "extended-class", f"{f} is in class {tag} with s = 1/2 ({bound})",
                       "holds", {"class_tag": tag, "arg_mean": MeanKind.ARITHMETIC,
                                 "f": fs[f], "s": 0.5, "box": box})
          for f, tag, box, bound in _EXTENDED],
        *[_theorem(fs, *row) for row in _THEOREMS],
        *[CatalogEntry(f"equality/{family}", "equality",
                       f"the {family} specialization is an exact identity",
                       "equality", {"family": family})
          for family in EQUALITY_FAMILIES],
        *[CatalogEntry(f"chain/{cor}-{f.replace('_', '-')}", "chain",
                       f"corollary {cor} for {f} ({reason})",
                       "suspect" if cor == "HG-chain" else "holds",
                       {"corollary": cor, "h": identity_weight(), "f": fs[f], "box": box})
          for cor, f, box, reason in _CHAIN_CASES],
        CatalogEntry("hlawka/random", "hlawka",
                     "|x|+|y|+|z|+|x+y+z| >= |x+z|+|z+y|+|x+y| on random triples",
                     "holds", {"mode": "random"}),
        CatalogEntry("hlawka/same-sign", "hlawka",
                     "Hlawka's inequality is an equality when x, y, z share a sign",
                     "equality", {"mode": "same-sign"}),
        *[_theorem(fs, *row) for row in _PROBES],
        *[_class(f"domain/{label or f.name.replace('_', '-')}-{pair}", f, pair, sense,
                 box, "f is not positive on its domain, yet the value mean needs f > 0")
          for f, pair, sense, box, label in domain_cases],
    ]


_AUDIT_PLAN = SamplePlan(grid_axis=13, grid_t=9, n_random=2000)


def _positivity_violation(f: PointFunction, box) -> Optional[float]:
    """Smallest sampled point where f <= 0, or None if f stays positive."""
    dom = f.sampling_domain(box)
    xs = np.linspace(*dom.sampling_bounds(), 257)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(xs), dtype=float)
    bad = np.isfinite(vals) & (vals <= 0.0)
    if bad.any():
        return float(xs[np.argmax(bad)])
    return None


# Each _audit_* returns (outcome, detail, min_margin, samples, skipped).

def _audit_class(entry, plan, tol):
    spec, f, box = entry.payload["spec"], entry.payload["f"], entry.payload.get("box")
    if spec.val_mean is not MeanKind.ARITHMETIC:
        x_bad = _positivity_violation(f, box)
        if x_bad is not None:
            return ("domain-violation",
                    f"{f.name}({x_bad:.6g}) <= 0 but the value mean needs f > 0",
                    None, 0, 0)
    verdict = verify_class(spec, f, plan, tol, box)
    w = verdict.witness
    detail = (f"min relative margin {verdict.min_margin:.3e}" if verdict.holds
              else f"violated at x={w.x:.6g}, y={w.y:.6g}, t={w.t:.6g}")
    return ("holds" if verdict.holds else "refuted", detail, verdict.min_margin,
            verdict.samples_tested, verdict.skipped)


def _audit_extended(entry, plan, tol):
    p = entry.payload
    verdict = verify_extended_class(p["class_tag"], p["arg_mean"], p["f"],
                                    plan, tol, s=p["s"], box=p.get("box"))
    return ("holds" if verdict.holds else "refuted",
            f"min relative margin {verdict.min_margin:.3e}",
            verdict.min_margin, verdict.samples_tested, verdict.skipped)


def _audit_theorem(entry, plan, tol):
    p = entry.payload
    report = verify_theorem(p["tid"], p["h"], p["f"], p["sense"], plan, tol,
                            box=p.get("box"))
    if report.holds:
        detail = f"min relative margin {report.min_margin:.3e}"
    else:
        w = report.witnesses[0]
        detail = f"violated at ({w.x:.6g}, {w.y:.6g}, {w.z:.6g})"
    return ("holds" if report.holds else "refuted", detail, report.min_margin,
            report.triples_tested, report.skipped)


def _audit_equality(entry, plan, tol):
    resid, n = equality_max_residual(entry.payload["family"], plan)
    return ("equality" if resid <= tol else "not-equality",
            f"max relative residual {resid:.3e}", resid, n, 0)


def _audit_chain(entry, plan, tol):
    p = entry.payload
    suspect = entry.expected == "suspect"
    report = chained_check(p["corollary"], p["h"], p["f"], plan, tol,
                           box=p.get("box"), enforce_hypotheses=not suspect)
    if suspect:
        outcome = "measured"
    else:
        outcome = "holds" if report.holds else "refuted"
    return (outcome,
            "; ".join(f"{lk.name}: {lk.min_margin:.3e}" for lk in report.links),
            min(lk.min_margin for lk in report.links),
            min(lk.samples for lk in report.links),
            max(lk.skipped for lk in report.links))


def _audit_hlawka(entry, plan, tol):
    rng = np.random.default_rng(plan.seed)
    n = max(plan.n_random, 10_000)
    if entry.payload["mode"] == "random":
        x, y, z = rng.uniform(-100.0, 100.0, size=(3, n))
        margins = hlawka_margins(x, y, z)
        scale = np.maximum(1.0, np.abs(x) + np.abs(y) + np.abs(z))
        worst = float(np.min(margins / scale))
        return ("holds" if worst >= -1e-12 else "refuted",
                f"min relative margin {worst:.3e}", worst, n, 0)
    x, y, z = rng.uniform(0.0, 100.0, size=(3, n))
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    margins = hlawka_margins(sign * x, sign * y, sign * z)
    scale = np.maximum(1.0, np.abs(x) + np.abs(y) + np.abs(z))
    resid = float(np.max(np.abs(margins) / scale))
    return ("equality" if resid <= 1e-12 else "not-equality",
            f"max relative residual {resid:.3e}", resid, n, 0)


def _audit_probe(entry, plan, tol):
    p = entry.payload
    parts, samples = [], 0
    for sense in ("convex", "concave"):
        report = verify_theorem(p["tid"], p["h"], p["f"], sense, plan, tol,
                                box=p.get("box"))
        parts.append(f"{sense}: min margin {report.min_margin:.3e}")
        samples = report.triples_tested
    return "measured", "; ".join(parts), None, samples, 0


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
            outcome, *rest = _DISPATCH[entry.kind](entry, plan, tol)
        except MeanConvexError as exc:
            outcome, rest = "error", [f"{type(exc).__name__}: {exc}", None, 0, 0]
        findings.append(AuditFinding(entry.key, entry.kind, entry.expected, outcome,
                                     outcome in (entry.expected, "measured"), *rest))
    return findings
