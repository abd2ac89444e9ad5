"""Mean-pair convexity predicates and sampling-based verdicts.

The defining inequality compares f at a two-point argument mean M(x, y)
against a value mean N(f(x), f(y)); both are read from means.WEIGHTED_MEANS.
The placements are taken verbatim from the printed case equations: the
argument mean puts t on x and 1 - t on y, the value mean h(t) on f(x) and
h(1 - t) on f(y). Under a harmonic argument mean both pairs are swapped, to
(1 - t, t) and (h(1 - t), h(t)). verify_class reduces the sides through
sampling._compare, the comparison kernel every verdict shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InapplicableSpecError
from .intervals import Interval
from .means import (WEIGHTED_MEANS, MeanKind, require_positive_arguments,
                    require_positive_point)
from .sampling import SamplePlan, Verdict, Witness, _compare  # re-exported
from .weights import (DEFAULT_TOL, WeightFunction, constant_weight, power_weight,
                      reciprocal_weight, weight_eval)

# Default box used to bound sampling when a function's domain is unbounded.
DEFAULT_BOX = (-10.0, 10.0)


@dataclass(frozen=True)
class PointFunction:
    """A scalar function with its stated domain and positivity claim.

    positive_on_domain is a claim, not an assumption: audits sample it.
    fn must be elementwise: verifiers call it on broadcast grid axes (shapes
    such as (n, 1, 1) or (n, 1, n)), and it must return an array of its
    argument's shape. fn must not write into its argument: a plan's sample
    arrays are shared by every check on the plan and are read-only.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: Interval
    positive_on_domain: bool = True

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def sampling_domain(self, box: Optional[Interval] = None) -> Interval:
        dom = self.domain
        if box is not None:
            return dom.clamp(box.lo, box.hi)
        if not dom.bounded:
            return dom.clamp(*DEFAULT_BOX)
        return dom


_POS, _REALS = Interval(0.0, np.inf), Interval(-np.inf, np.inf)

# The built-in functions, one row each: name -> (fn, domain, positive_on_domain).
FUNCTIONS = {
    "identity": (lambda v: v, _POS, True),
    "affine": (lambda v, *, a=2.0, b=3.0: a * v + b, _POS, True),
    "square": (np.square, _POS, True),
    "neg_square": (lambda v: -np.square(v), _POS, False),
    "sqrt": (np.sqrt, _POS, True),
    "power": (lambda v, *, p=2.0: v**p, _POS, True),
    "const": (lambda v, *, c=2.0: np.full_like(np.asarray(v, dtype=float), c), _REALS, True),
    "exp": (np.exp, _REALS, True),
    "exp_neg": (lambda v: np.exp(-v), _REALS, True),
    "log": (np.log, Interval(1.0, np.inf), True),
    "neg_log": (lambda v: -np.log(v), Interval(0.0, 1.0), True),
    "cosh": (np.cosh, _REALS, True),
    "arcsin": (np.arcsin, Interval(0.0, 1.0), True),
    "arctan": (np.arctan, _POS, True),
    "reciprocal": (lambda v: 1.0 / v, _POS, True),
    "reciprocal_log": (lambda v: 1.0 / np.log(v), Interval(1.0, np.inf), True),
    "exp_reciprocal": (lambda v: np.exp(1.0 / v), _POS, True),
}

# The positivity claim of a parametric row at the keyword parameters of its fn.
PARAMETER_CLAIMS = {
    "affine": lambda a, b: a >= 0 and b >= 0 and (a > 0 or b > 0),
    "const": lambda c: c > 0,
    "power": lambda p: True,
}


@dataclass(frozen=True)
class ConvexitySpec:
    """One mean-pair convexity class: argument mean, value mean, weight, sense."""

    arg_mean: MeanKind
    val_mean: MeanKind
    h: WeightFunction
    sense: str = "convex"

    def __post_init__(self):
        if self.sense not in ("convex", "concave"):
            raise ValueError(f"sense must be convex|concave, got {self.sense!r}")

    @property
    def label(self) -> str:
        return f"{self.arg_mean.value}t{self.val_mean.value}[{self.h.name}]-{self.sense}"


def _gap_arrays(spec: ConvexitySpec, f: PointFunction, x, y, t):
    """Vectorized (lhs, rhs, valid-mask) of the defining inequality."""
    with np.errstate(all="ignore"):
        # both weight pairs swap under a harmonic argument mean, as printed
        swap = spec.arg_mean is MeanKind.HARMONIC
        m = WEIGHTED_MEANS[spec.arg_mean](*((1.0 - t, t) if swap else (t, 1.0 - t)), x, y)
        wh = (spec.h(1.0 - t), spec.h(t)) if swap else (spec.h(t), spec.h(1.0 - t))
        lhs = np.asarray(f(m), dtype=float)
        rhs = WEIGHTED_MEANS[spec.val_mean](
            *wh, np.asarray(f(x), dtype=float), np.asarray(f(y), dtype=float))
        in_domain = f.domain.contains_array(m) & np.isfinite(m)
    valid = in_domain & np.isfinite(lhs) & np.isfinite(rhs) \
        & np.isfinite(wh[0]) & np.isfinite(wh[1])
    return lhs, rhs, valid


def defining_gap(spec: ConvexitySpec, f: PointFunction, x: float, y: float,
                 t: float) -> tuple[float, float]:
    """Both sides of the defining inequality at one (x, y, t); no comparison.
    Raises DomainError for a G or H argument mean at x or y <= 0."""
    if not (f.domain.contains(x) and f.domain.contains(y)):
        raise DomainError(f"({x}, {y}) not inside domain of {f.name}")
    require_positive_point(spec.arg_mean, (x, y), f"class {spec.label}")
    if not 0.0 < t < 1.0:
        raise DomainError(f"t={t} outside (0, 1)")
    lhs, rhs, valid = _gap_arrays(spec, f, np.array([x]), np.array([y]), np.array([t]))
    if not valid[0]:
        raise DomainError("argument mean left the domain or a side is not evaluable")
    return float(lhs[0]), float(rhs[0])


def verify_class(spec: ConvexitySpec, f: PointFunction,
                 plan: SamplePlan | None = None, tol: float = DEFAULT_TOL,
                 box: Optional[Interval] = None) -> Verdict:
    """Test the defining inequality over sampled (x, y, t).

    Convex sense requires lhs <= rhs within relative tolerance; concave the
    reverse. Returns the smallest-index witness on refutation. A verdict is
    "on samples" only, never a proof. Raises DomainError when h is not
    positive and finite at t = 1/2, as verify_theorem does, and when a G or
    H argument mean would read a sample x <= 0.
    """
    plan, dom = plan or SamplePlan(), f.sampling_domain(box)
    require_positive_arguments(spec.arg_mean, dom, f"class {spec.label}")
    blocks = plan.pair_t_blocks(dom)
    weight_eval(spec.h, 0.5)
    return _compare(blocks, blocks.map(partial(_gap_arrays, spec, f)),
                    "<=" if spec.sense == "convex" else ">=", f"{spec.label} on {f.name}",
                    tol, target=f"class {spec.label}", f_name=f.name, sense=spec.sense)


_EXTENDED_WEIGHTS = {"Q": reciprocal_weight(), "P": constant_weight()}


def verify_extended_class(class_tag: str, arg_mean: MeanKind, f: PointFunction,
                          plan: SamplePlan | None = None, tol: float = DEFAULT_TOL,
                          s: float = 0.5, box: Optional[Interval] = None) -> Verdict:
    """Godunova-Levin (Q), P-function, and s-convex (K_s2) membership checks."""
    if class_tag == "K_s2":
        if not 0.0 < s <= 1.0:
            raise DomainError("s-convexity requires s in (0, 1]")
        h = power_weight(s)
    elif class_tag in _EXTENDED_WEIGHTS:
        h = _EXTENDED_WEIGHTS[class_tag]
    else:
        raise InapplicableSpecError(f"unknown extended class {class_tag!r}")
    spec = ConvexitySpec(arg_mean, arg_mean, h, "convex")
    return verify_class(spec, f, plan, tol, box)


@dataclass(frozen=True)
class RefutationRecord:
    """A scalar contradiction produced by the diagonal (x = y) probe."""

    case: str
    arg_mean: MeanKind
    x: float
    t: float
    lhs: float
    rhs: float
    refuted: bool
    inequality: str  # the scalar inequality instantiated at y = x


# (val_mean, h name, sense) -> (probe case name, the defining inequality at y = x)
_DIAGONAL_CASES = {
    (MeanKind.ARITHMETIC, "reciprocal", "concave"):
        ("A_1/t-concave", "f(x) >= (1/(1-t) + 1/t) f(x)"),
    (MeanKind.HARMONIC, "reciprocal", "convex"): ("H_1/t-convex", "f(x) <= t(1-t) f(x)"),
    (MeanKind.ARITHMETIC, "constant:1", "concave"): ("A_1-concave", "f(x) >= 2 f(x)"),
    (MeanKind.HARMONIC, "constant:1", "convex"): ("H_1-convex", "f(x) <= f(x)/2"),
    (MeanKind.GEOMETRIC, "reciprocal", "concave"):
        ("G_1/t-concave", "f(x) >= f(x)^(1/(1-t)+1/t)"),
    (MeanKind.GEOMETRIC, "constant:1", "concave"): ("G_1-concave", "f(x) >= f(x)^2"),
}


def diagonal_refute(spec: ConvexitySpec, f: PointFunction, x: float,
                    t: float) -> RefutationRecord:
    """Instantiate the defining inequality at y = x through defining_gap,
    reproducing the non-existence contradictions for the reversed 1/t and
    constant-1 classes.

    The geometric cases additionally require f(x) > 1.
    """
    key = (spec.val_mean, spec.h.name, spec.sense)
    if key not in _DIAGONAL_CASES:
        raise InapplicableSpecError(
            f"diagonal probe does not cover {spec.label}")
    case, ineq = _DIAGONAL_CASES[key]
    if not 0.0 < t < 1.0:
        raise DomainError("probe requires t in (0, 1)")
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain of {f.name}")
    fx = float(f(x))
    if fx <= 0:
        raise DomainError("probe requires f(x) > 0")
    if spec.val_mean is MeanKind.GEOMETRIC and fx <= 1.0:
        raise DomainError("geometric probe requires f(x) > 1")
    lhs, rhs = defining_gap(spec, f, x, x, t)
    refuted = not (lhs <= rhs if spec.sense == "convex" else lhs >= rhs)
    return RefutationRecord(case, spec.arg_mean, x, t, lhs, rhs, refuted,
                            f"{ineq} = {rhs:.6g}")
