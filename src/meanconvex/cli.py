"""Command-line front end.

Subcommands:
  verify    test one class membership or three-point inequality by sampling
  audit     replay the built-in claim catalog
  search    hunt for a small violating triple of a three-point inequality
  classify  sub/super-additivity or -multiplicativity of a function
  means     evaluate the weighted two-point means and their ordering

Exit codes: 0 the claim held (or, for search, a violation was found);
1 the claim was refuted (or no violation found); 2 usage or domain error.

JSON reports are byte-stable for a fixed seed: keys are emitted in a fixed
order and floats are rendered with repr-faithful %.17g formatting. Timing
goes to stderr only, never into the report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .catalog import _AUDIT_PLAN, _positivity_violation, make_function, run_audit
from .convexity import DEFAULT_BOX, FUNCTIONS, ConvexitySpec, verify_class
from .errors import DomainError, MeanConvexError
from .intervals import Interval
from .means import MeanKind, check_am_gm_hm, mean_classic
from .popoviciu import BASE_SENSE, TheoremId, search_theorem, verify_theorem
from .sampling import SamplePlan
from .weights import (DEFAULT_TOL, WEIGHT_BUILDERS, classify_additivity,
                      classify_multiplicativity, power_weight_class)


# --------------------------------------------------------------------------
# Byte-stable JSON rendering.

_quote = json.encoder.encode_basestring_ascii  # json.dumps's own ASCII string encoder


def _render_json(value, pad="\n") -> str:
    """value as JSON text, each container item on its own line after pad
    plus two spaces; non-finite floats render as null."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "null"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(str(k)) + ": " + _render_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__}")


def _check_output_paths(args) -> None:
    """Refuse, before any computation, a --json or --csv path in a missing
    directory or naming a directory."""
    for flag in ("json", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise MeanConvexError(f"--{flag} {path}: directory {folder} does not exist")
        if os.path.isdir(path):
            raise MeanConvexError(f"--{flag} {path} is a directory")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_render_json(payload) + "\n")


def _write_csv(path: str, witnesses: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "t", "lhs", "rhs"])
        for w in witnesses:
            writer.writerow(["" if w[k] is None else format(w[k], ".17g")
                             for k in ("x", "y", "z", "t", "lhs", "rhs")])


def _witness_dict(w) -> dict:
    return {"x": w.x, "y": w.y, "z": w.z, "t": w.t, "lhs": w.lhs, "rhs": w.rhs}


def _sides_text(theorem: str | None, lhs: float, rhs: float) -> str:
    """lhs=..., rhs=... of a witness; a theorem with value mean G prints exp of the
    log-domain sides its verdict compares, and a 0 or inf among them is named."""
    text = f"lhs={lhs:.17g}, rhs={rhs:.17g}"
    if theorem and theorem[1] == "G" and not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
        text += " (exp of the log-domain sides the verdict compares, which under- or overflow)"
    return text


def _write_report(args, f, h, sense: str, sizes: dict, report) -> None:
    """Write the --json report and --csv witness rows of a verify or search report."""
    witnesses = [_witness_dict(w) for w in report.witnesses]
    payload = {
        "schema_version": 1,
        "config": {"command": args.command, "target": report.target, "fn": f.name,
                   "weight": h.name, "sense": sense, "lo": args.lo, "hi": args.hi,
                   **sizes, "seed": _resolve_seed(args), "tol": args.tol},
        "verdict": report.status,
        "min_margin": report.min_margin,
        "witnesses": witnesses,
        "skipped": report.skipped,
        "samples": report.samples,
    }
    if args.json:
        _write_json(args.json, payload)
    if args.csv:
        _write_csv(args.csv, witnesses)


# --------------------------------------------------------------------------

def _add_sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lo", type=float, help="sampling box lower edge")
    p.add_argument("--hi", type=float, help="sampling box upper edge")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: MEANCONVEX_SEED or 42)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative tolerance")


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=33, help="grid points per axis")
    p.add_argument("--random", type=int, default=10_000,
                   help="random samples after the grid")


# Each function parameter flag: the one --fn that takes it, and what it sets.
_FN_PARAMS = {"p": ("power", "exponent"), "a": ("affine", "slope"),
              "b": ("affine", "intercept"), "c": ("const", "value")}


def _add_function_args(p: argparse.ArgumentParser, default=None) -> None:
    p.add_argument("--fn", required=default is None, default=default,
                   choices=sorted(FUNCTIONS), help="test function")
    for flag, (fn, what) in _FN_PARAMS.items():
        p.add_argument(f"--{flag}", type=float, help=f"{what} for --fn {fn}")


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", default="identity",
                   choices=sorted(WEIGHT_BUILDERS), help="weight function h")
    p.add_argument("--weight-param", type=float, default=None,
                   help="parameter for power/constant weights")


def _resolve_seed(args) -> int:
    source, text = ("--seed", str(args.seed)) if args.seed is not None else \
        ("MEANCONVEX_SEED", os.environ.get("MEANCONVEX_SEED", "42"))
    if not text.isdecimal():
        raise MeanConvexError(f"{source} must be an integer >= 0, got {text!r}")
    return int(text)


def _build_plan(args, **sizes) -> SamplePlan:
    try:
        return SamplePlan(grid_axis=args.grid, n_random=args.random,
                          seed=_resolve_seed(args), **sizes)
    except ValueError as exc:
        raise MeanConvexError(f"sample plan: {exc}") from None


def _build_box(args, f):
    """The --lo/--hi box (None without either) and f's bounded sampling domain."""
    lo = args.lo if args.lo is not None else DEFAULT_BOX[0]
    hi = args.hi if args.hi is not None else DEFAULT_BOX[1]
    box = None
    try:
        if args.lo is not None or args.hi is not None:
            box = Interval(lo, hi, closed_lo=True, closed_hi=True)
        dom = f.sampling_domain(box)
        dom.sampling_bounds()
        return box, dom
    except ValueError as exc:
        raise DomainError(f"sampling box [{lo:g}, {hi:g}] on {f.name}: {exc}") from None


def _build_weight(args):
    builder, param = WEIGHT_BUILDERS[args.weight], args.weight_param
    given = () if param is None else (param,)
    try:  # a builder raises TypeError only for a wrong number of arguments
        h = builder(*given)
    except TypeError:
        misuse = "needs" if param is None else "takes no"
        raise MeanConvexError(f"--weight {args.weight} {misuse} --weight-param") from None
    if given and not math.isfinite(param):
        raise MeanConvexError(f"--weight-param must be finite, got {param:g}")
    return h


def _build_fn(args):
    params = {flag: getattr(args, flag) for flag in _FN_PARAMS}
    for flag, (fn, _) in _FN_PARAMS.items():
        if params[flag] is not None and args.fn != fn:
            raise MeanConvexError(f"--{flag} goes only with --fn {fn}")
        if params[flag] is not None and not math.isfinite(params[flag]):
            raise MeanConvexError(f"--{flag} must be finite, got {params[flag]:g}")
    return make_function(args.fn, **params)


def _require_positive(f, box, value_mean: str) -> None:
    """Refuse, before any computation, f <= 0 on the box under a G or H
    value mean, which takes the log or the reciprocal of f."""
    bad = _positivity_violation(f, box, value_mean)
    if bad is not None:
        raise DomainError(f"{bad}, but value mean {value_mean} needs f > 0")


# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    plan, f = _build_plan(args, grid_t=args.grid_t), _build_fn(args)
    h, (box, _) = _build_weight(args), _build_box(args, f)
    _require_positive(f, box, args.theorem[1] if args.theorem else args.val)
    t0 = time.perf_counter()
    if args.theorem:
        tid = TheoremId(args.theorem)
        sense = args.sense or BASE_SENSE[tid]
        report = verify_theorem(tid, h, f, sense, plan, args.tol, box)
    else:
        sense = args.sense or "convex"
        spec = ConvexitySpec(MeanKind(args.arg), MeanKind(args.val), h, sense)
        report = verify_class(spec, f, plan, args.tol, box)
    elapsed = time.perf_counter() - t0
    _write_report(args, f, h, sense,
                  {"grid": args.grid, "grid_t": args.grid_t, "random": args.random}, report)
    print(f"{report.target} [{h.name}] on {f.name}: {report.status} "
          f"(min margin {report.min_margin:.3e}, {report.samples} samples, "
          f"{report.skipped} skipped)")
    for w in report.witnesses:
        t_part = "" if w.t is None else f", t={w.t:.6g}"
        z_part = "" if w.z is None else f", z={w.z:.6g}"
        print(f"  witness: x={w.x:.6g}, y={w.y:.6g}{z_part}{t_part}, "
              f"{_sides_text(args.theorem, w.lhs, w.rhs)}")
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.holds else 1


def _cmd_audit(args) -> int:
    plan = _AUDIT_PLAN.with_seed(_resolve_seed(args))
    t0 = time.perf_counter()
    findings = run_audit(plan, args.tol)
    elapsed = time.perf_counter() - t0
    disagreements = 0
    for fd in findings:
        mark = "ok" if fd.agree else "DISAGREE"
        disagreements += not fd.agree
        print(f"[{mark}] {fd.key}: expected {fd.expected}, got {fd.outcome} "
              f"({fd.detail})")
    print(f"{len(findings)} entries audited, {disagreements} disagreement(s)")
    if args.json:
        payload = {
            "schema_version": 1,
            "config": {"command": "audit", "seed": plan.seed, "tol": args.tol},
            "entries": len(findings),
            "disagreements": disagreements,
            "findings": [vars(fd) for fd in findings],
        }
        _write_json(args.json, payload)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_search(args) -> int:
    h, f = _build_weight(args), _build_fn(args)
    box, _ = _build_box(args, f)
    _require_positive(f, box, args.theorem[1])
    tid, seed = TheoremId(args.theorem), _resolve_seed(args)
    sense = args.sense or BASE_SENSE[tid]
    if args.budget < 1:
        raise MeanConvexError(f"--budget must be at least 1, got {args.budget}")
    report = search_theorem(tid, h, f, sense, seed, args.budget, args.tol, box)
    if report.holds:
        print(f"no violation found for theorem {tid.value} ({sense}) on "
              f"{f.name} within {report.samples} evaluations")
        return 1
    w = report.witnesses[0]
    _write_report(args, f, h, sense, {"budget": args.budget}, report)
    print(f"violation of theorem {tid.value} ({sense}) on {f.name}: "
          f"x={w.x:.17g}, y={w.y:.17g}, z={w.z:.17g}, "
          f"{_sides_text(tid.value, w.lhs, w.rhs)} ({report.samples} evaluations)")
    return 0


def _cmd_classify(args) -> int:
    if args.power_exponent is not None:
        cls = power_weight_class(args.power_exponent)
        print(f"x^{args.power_exponent:g} on (0, inf): {cls.tag} (analytic)")
        return 0
    plan, f = _build_plan(args), _build_fn(args)
    _, dom = _build_box(args, f)
    classify = (classify_additivity if args.mode == "additive"
                else classify_multiplicativity)
    cls = classify(f.fn, dom, plan, args.tol)
    label = cls.tag if args.mode == "additive" else \
        cls.tag.replace("additive", "multiplicative")
    line = f"{f.name} on [{dom.lo:g}, {dom.hi:g}]: {label} " \
           f"({cls.samples_tested} samples"
    if cls.witness:
        line += f"; witness s={cls.witness[0]:.6g}, t={cls.witness[1]:.6g}"
    print(line + ")")
    return 0


def _cmd_means(args) -> int:
    h = _build_weight(args)
    chain = check_am_gm_hm(h, args.t, args.x, args.y)  # each mean, or an error
    classic = [mean_classic(kind, args.x, args.y) for kind in MeanKind]  # before output
    for kind, value, c in zip(MeanKind, (chain.a_mean, chain.g_mean, chain.h_mean), classic):
        print(f"{kind.value}-mean [{h.name}, t={args.t:g}]"
              f"({args.x:g}, {args.y:g}) = {value:.17g} (classic {c:.17g})")
    state = "holds" if chain.holds else "violated"
    print(f"harmonic <= geometric <= arithmetic: {state} "
          f"(margins {chain.margin_hg:.3e}, {chain.margin_ga:.3e})")
    return 0


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanconvex",
        description="Numerical verification of weighted mean-convexity "
                    "classes and their three-point inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="test one class or theorem")
    target = pv.add_mutually_exclusive_group(required=True)
    target.add_argument("--theorem", choices=[t.value for t in TheoremId],
                        help="three-point inequality to test")
    target.add_argument("--arg", choices="AGH",
                        help="argument mean of a class membership test")
    pv.add_argument("--val", choices="AGH",
                    help="value mean (required with --arg)")
    pv.add_argument("--sense", choices=["convex", "concave"], default=None)
    _add_function_args(pv)
    _add_weight_args(pv)
    _add_sampling_args(pv)
    _add_plan_args(pv)
    pv.add_argument("--grid-t", type=int, default=17, help="grid points in t")
    pv.add_argument("--json", help="write a JSON report here")
    pv.add_argument("--csv", help="write witness rows here")
    pv.set_defaults(handler=_cmd_verify)

    pa = sub.add_parser("audit", help="replay the built-in claim catalog")
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pa.add_argument("--json", help="write a JSON report here")
    pa.set_defaults(handler=_cmd_audit)

    ps = sub.add_parser("search", help="hunt for a small violating triple")
    ps.add_argument("--theorem", required=True,
                    choices=[t.value for t in TheoremId])
    ps.add_argument("--sense", choices=["convex", "concave"], default=None)
    ps.add_argument("--budget", type=int, default=100_000,
                    help="cap on evaluations: scan points plus the shrink "
                         "trials reached; the witness shrink also stops at "
                         "the first pass that leaves it unchanged")
    _add_function_args(ps)
    _add_weight_args(ps)
    _add_sampling_args(ps)
    ps.add_argument("--json", help="write a JSON report here")
    ps.add_argument("--csv", help="write witness rows here")
    ps.set_defaults(handler=_cmd_search)

    pc = sub.add_parser("classify",
                        help="sub/super-additivity of a function")
    pc.add_argument("--mode", choices=["additive", "multiplicative"],
                    default="additive")
    pc.add_argument("--power-exponent", type=float, default=None,
                    help="analytic class of x^k instead of sampling")
    _add_function_args(pc, default="identity")
    _add_sampling_args(pc)
    _add_plan_args(pc)
    pc.set_defaults(handler=_cmd_classify)

    pm = sub.add_parser("means", help="weighted two-point means at one point")
    pm.add_argument("--x", type=float, required=True)
    pm.add_argument("--y", type=float, required=True)
    pm.add_argument("--t", type=float, default=0.5)
    _add_weight_args(pm)
    pm.set_defaults(handler=_cmd_means)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.arg and not args.val:
        parser.error("--val is required with --arg")
    if args.command == "verify" and args.theorem and args.val:
        parser.error("--val goes only with --arg")
    try:
        tol = getattr(args, "tol", 0.0)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise MeanConvexError(f"--tol must be a finite number >= 0, got {tol:g}")
        _check_output_paths(args)
        return args.handler(args)
    except (MeanConvexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
