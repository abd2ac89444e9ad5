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
from .weights import (DEFAULT_TOL, WeightFunction, identity_weight,
                      power_weight, reciprocal_weight)

A, G, H = MeanKind.ARITHMETIC, MeanKind.GEOMETRIC, MeanKind.HARMONIC

_POS = Interval(0.0, np.inf)
_REALS = Interval(-np.inf, np.inf)


def builtin_functions() -> dict[str, PointFunction]:
    """Named test functions with their stated domains and positivity claims."""
    return {
        "identity": PointFunction("identity", lambda v: v, _POS),
        "affine": PointFunction("affine", lambda v: 2.0 * v + 3.0, _POS),
        "square": PointFunction("square", np.square, _POS),
        "neg_square": PointFunction("neg_square", lambda v: -np.square(v),
                                    _POS, positive_on_domain=False),
        "sqrt": PointFunction("sqrt", np.sqrt, _POS),
        "power": PointFunction("power", lambda v: v**2.0, _POS),
        "const": PointFunction("const", lambda v: np.full_like(
            np.asarray(v, dtype=float), 2.0), _REALS),
        "exp": PointFunction("exp", np.exp, _REALS),
        "exp_neg": PointFunction("exp_neg", lambda v: np.exp(-v), _REALS),
        "log": PointFunction("log", np.log, Interval(1.0, np.inf)),
        "neg_log": PointFunction("neg_log", lambda v: -np.log(v),
                                 Interval(0.0, 1.0)),
        "cosh": PointFunction("cosh", np.cosh, _REALS),
        "arcsin": PointFunction("arcsin", np.arcsin, Interval(0.0, 1.0)),
        "arctan": PointFunction("arctan", np.arctan, _POS),
        "reciprocal": PointFunction("reciprocal", lambda v: 1.0 / v, _POS),
        "reciprocal_log": PointFunction("reciprocal_log",
                                        lambda v: 1.0 / np.log(v),
                                        Interval(1.0, np.inf)),
        "exp_reciprocal": PointFunction("exp_reciprocal",
                                        lambda v: np.exp(1.0 / v), _POS),
    }


def make_function(name: str, p: Optional[float] = None,
                  a: Optional[float] = None, b: Optional[float] = None,
                  c: Optional[float] = None) -> PointFunction:
    """Resolve a registry name, honoring the parametric builders.

    power takes exponent p, affine takes slope a and intercept b, const
    takes the constant c.
    """
    if name == "power" and p is not None:
        return PointFunction(f"power[{p:g}]", lambda v: v**p, _POS,
                             positive_on_domain=True)
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


def _cls(arg, val, sense, f, h: Optional[WeightFunction] = None, box=None):
    return {"spec": ConvexitySpec(arg, val, h or identity_weight(), sense),
            "f": f, "box": box}


def _thm(tid, f, sense=None, h: Optional[WeightFunction] = None, box=None):
    return {"tid": tid, "h": h or identity_weight(), "f": f,
            "sense": sense or BASE_SENSE[tid], "box": box}


def _chain(cor, f, box=None):
    return {"corollary": cor, "h": identity_weight(), "f": f, "box": box}


_BOX_01_10 = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)
_BOX_01_5 = Interval(0.1, 5.0, closed_lo=True, closed_hi=True)
_BOX_1_4 = Interval(1.0, 4.0, closed_lo=True, closed_hi=True)
_BOX_2_8 = Interval(2.0, 8.0, closed_lo=True, closed_hi=True)


def builtin_claims() -> list[CatalogEntry]:
    """The audited claim catalog (52 entries)."""
    E = CatalogEntry
    fs = builtin_functions()
    entries = [
        # -- mean-pair class memberships -----------------------------------
        E("class/square-AA-convex", "class",
          "x^2 is arithmetic-arithmetic convex with identity weight",
          "holds", _cls(A, A, "convex", fs["square"], box=_BOX_01_10)),
        E("class/square-AA-concave", "class",
          "x^2 is arithmetic-arithmetic concave (deliberately false)",
          "refuted", _cls(A, A, "concave", fs["square"], box=_BOX_01_10)),
        E("class/exp-AG-convex", "class",
          "exp is arithmetic-geometric convex (log-affine, so exact)",
          "holds", _cls(A, G, "convex", fs["exp"], box=_BOX_01_5)),
        E("class/cosh-AG-convex", "class",
          "cosh is arithmetic-geometric convex (log cosh is convex)",
          "holds", _cls(A, G, "convex", fs["cosh"], box=_BOX_01_5)),
        E("class/reciprocal-AH-concave", "class",
          "1/x is arithmetic-harmonic concave (an exact identity)",
          "holds", _cls(A, H, "concave", fs["reciprocal"], box=_BOX_01_10)),
        E("class/log-GA-concave", "class",
          "log is geometric-arithmetic concave on x > 1 (an exact identity)",
          "holds", _cls(G, A, "concave", fs["log"])),
        E("class/identity-GA-convex", "class",
          "x is geometric-arithmetic convex (weighted AM-GM)",
          "holds", _cls(G, A, "convex", fs["identity"], box=_BOX_01_10)),
        E("class/square-GG-convex", "class",
          "x^2 is geometric-geometric convex (an exact identity)",
          "holds", _cls(G, G, "convex", fs["square"], box=_BOX_01_10)),
        E("class/identity-HH-convex", "class",
          "x is harmonic-harmonic convex (an exact identity)",
          "holds", _cls(H, H, "convex", fs["identity"], box=_BOX_01_10)),
        E("class/reciprocal-HA-convex", "class",
          "1/x is harmonic-arithmetic convex (an exact identity)",
          "holds", _cls(H, A, "convex", fs["reciprocal"], box=_BOX_01_10)),
        # -- extended weight classes ---------------------------------------
        E("extended/square-P", "extended-class",
          "x^2 satisfies the P-class bound f(tx+(1-t)y) <= f(x)+f(y)",
          "holds", {"class_tag": "P", "arg_mean": A, "f": fs["square"],
                    "s": 0.5, "box": _BOX_01_10}),
        E("extended/square-Q", "extended-class",
          "x^2 satisfies the Godunova-Levin bound with weight 1/t",
          "holds", {"class_tag": "Q", "arg_mean": A, "f": fs["square"],
                    "s": 0.5, "box": _BOX_01_10}),
        E("extended/square-Ks2", "extended-class",
          "x^2 is s-convex in the second sense with s = 1/2",
          "holds", {"class_tag": "K_s2", "arg_mean": A, "f": fs["square"],
                    "s": 0.5, "box": _BOX_01_10}),
        # -- three-point inequalities --------------------------------------
        E("theorem/AA-square", "theorem",
          "classical three-point inequality for x^2 on (0.1, 10)",
          "holds", _thm(TheoremId.AA, fs["square"], box=_BOX_01_10)),
        E("theorem/AA-square-flipped", "theorem",
          "the same inequality with the direction flipped (deliberately false)",
          "refuted", _thm(TheoremId.AA, fs["square"], sense="concave",
                          box=_BOX_01_10)),
        E("theorem/AG-cosh", "theorem",
          "arithmetic-argument product inequality for cosh",
          "holds", _thm(TheoremId.AG, fs["cosh"], box=_BOX_01_5)),
        E("theorem/AH-reciprocal", "theorem",
          "arithmetic-argument reciprocal inequality for 1/x (concave sense)",
          "holds", _thm(TheoremId.AH, fs["reciprocal"], box=_BOX_01_10)),
        E("theorem/GA-cosh", "theorem",
          "geometric-argument sum inequality for cosh",
          "holds", _thm(TheoremId.GA, fs["cosh"], box=_BOX_01_5)),
        E("theorem/GG-cosh", "theorem",
          "geometric-argument product inequality for cosh",
          "holds", _thm(TheoremId.GG, fs["cosh"], box=_BOX_01_5)),
        E("probe/GH-cosh", "direction-probe",
          "geometric-argument reciprocal inequality for cosh on [1, 4]; "
          "fails numerically in both directions (counterexamples (1,1,2) and "
          "(1,1,1.09375)), so only measured",
          "suspect", _thm(TheoremId.GH, fs["cosh"], box=_BOX_1_4)),
        E("theorem/GH-reciprocal-log", "theorem",
          "geometric-argument reciprocal inequality for 1/log (concave sense, "
          "an exact identity)",
          "holds", _thm(TheoremId.GH, fs["reciprocal_log"])),
        E("theorem/HA-reciprocal", "theorem",
          "harmonic-argument sum inequality for 1/x",
          "holds", _thm(TheoremId.HA, fs["reciprocal"], box=_BOX_01_10)),
        E("theorem/HG-exp", "theorem",
          "harmonic-argument product inequality for exp",
          "holds", _thm(TheoremId.HG, fs["exp"], box=_BOX_01_5)),
        E("theorem/HH-arctan", "theorem",
          "harmonic-argument reciprocal inequality for arctan (concave sense)",
          "holds", _thm(TheoremId.HH, fs["arctan"], box=_BOX_01_10)),
        # -- exact equality families ---------------------------------------
        *[E(f"equality/{family}", "equality",
            f"the {family} specialization is an exact identity",
            "equality", {"family": family})
          for family in EQUALITY_FAMILIES],
        # -- chained corollaries -------------------------------------------
        E("chain/cor4.1-identity", "chain",
          "subadditive chain through the arithmetic sum form, f(x) = x",
          "holds", _chain("cor4.1", fs["identity"], box=_BOX_01_10)),
        E("chain/cor4.2-square", "chain",
          "superadditive chain through the arithmetic sum form, f(x) = x^2",
          "holds", _chain("cor4.2", fs["square"], box=_BOX_01_10)),
        E("chain/cor8.1-const", "chain",
          "submultiplicative chain through the arithmetic product form, f = 2",
          "holds", _chain("cor8.1", fs["const"], box=_BOX_01_10)),
        E("chain/cor8.2-cosh", "chain",
          "supermultiplicative chain through the arithmetic product form, cosh on [2, 8]",
          "holds", _chain("cor8.2", fs["cosh"], box=_BOX_2_8)),
        E("chain/cor9.1-cosh", "chain",
          "superadditive chain through the arithmetic product form, cosh on [2, 8]",
          "holds", _chain("cor9.1", fs["cosh"], box=_BOX_2_8)),
        E("chain/cor9.2-const", "chain",
          "subadditive chain through the arithmetic product form, f = 2",
          "holds", _chain("cor9.2", fs["const"], box=_BOX_01_10)),
        E("chain/cor16.1-cosh", "chain",
          "superadditive chain through the geometric sum form, cosh on [1, 4]",
          "holds", _chain("cor16.1", fs["cosh"], box=_BOX_1_4)),
        E("chain/cor16.2-sqrt", "chain",
          "subadditive chain through the geometric sum form, f(x) = sqrt(x)",
          "holds", _chain("cor16.2", fs["sqrt"], box=_BOX_01_10)),
        E("chain/cor20.1-square", "chain",
          "supermultiplicative chain through the geometric product form, f(x) = x^2",
          "holds", _chain("cor20.1", fs["square"], box=_BOX_01_10)),
        E("chain/cor20.2-sqrt", "chain",
          "submultiplicative chain through the geometric product form, f(x) = sqrt(x)",
          "holds", _chain("cor20.2", fs["sqrt"], box=_BOX_01_10)),
        E("chain/cor27.1-identity", "chain",
          "superadditive chain through the harmonic sum form, f(x) = x",
          "holds", _chain("cor27.1", fs["identity"], box=_BOX_01_10)),
        E("chain/cor27.2-sqrt", "chain",
          "subadditive chain through the harmonic sum form, f(x) = sqrt(x)",
          "holds", _chain("cor27.2", fs["sqrt"], box=_BOX_01_10)),
        E("chain/HG-chain-square", "chain",
          "harmonic product-form chain as printed (compares a sum against a "
          "product; direction not asserted)",
          "suspect", _chain("HG-chain", fs["square"], box=_BOX_01_10)),
        # -- Hlawka --------------------------------------------------------
        E("hlawka/random", "hlawka",
          "|x|+|y|+|z|+|x+y+z| >= |x+z|+|z+y|+|x+y| on random triples",
          "holds", {"mode": "random"}),
        E("hlawka/same-sign", "hlawka",
          "Hlawka's inequality is an equality when x, y, z share a sign",
          "equality", {"mode": "same-sign"}),
        # -- direction probes (suspect printed directions) -----------------
        E("probe/AA-reciprocal-weight-square", "direction-probe",
          "arithmetic sum form under weight 1/t for x^2; direction measured, "
          "not asserted",
          "suspect", _thm(TheoremId.AA, fs["square"], h=reciprocal_weight(),
                          box=_BOX_01_10)),
        E("probe/AG-reciprocal-weight-cosh", "direction-probe",
          "arithmetic product form under weight 1/t for cosh; direction "
          "measured, not asserted",
          "suspect", _thm(TheoremId.AG, fs["cosh"], h=reciprocal_weight(),
                          box=_BOX_01_5)),
        E("probe/AA-squared-weight-square", "direction-probe",
          "arithmetic sum form under weight t^2 for x^2; direction measured, "
          "not asserted",
          "suspect", _thm(TheoremId.AA, fs["square"], h=power_weight(2.0),
                          box=_BOX_01_10)),
        # -- positivity / domain violations --------------------------------
        E("domain/neg-square-AG", "class",
          "-x^2 in a geometric value class (value mean needs positive f)",
          "domain-violation", _cls(A, G, "convex", fs["neg_square"],
                                   box=_BOX_01_10)),
        E("domain/log-unit-GG", "class",
          "log on (0, 1) in a geometric value class (f is negative there)",
          "domain-violation", _cls(G, G, "convex", PointFunction(
              "log", np.log, Interval(0.0, 1.0), positive_on_domain=False))),
        E("domain/neg-log-AH", "class",
          "-log on (1, 10) in a harmonic value class (f is negative there)",
          "domain-violation", _cls(A, H, "concave", PointFunction(
              "neg_log", lambda v: -np.log(v), Interval(1.0, 10.0),
              positive_on_domain=False))),
    ]
    return entries


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
