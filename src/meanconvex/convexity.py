"""Mean-pair convexity predicates and sampling-based verdicts.

The defining inequality compares f at a two-point argument mean against a
weighted value-mean combination of f(x), f(y). Weight placements differ per
(argument mean, value mean) pair and are taken verbatim from the printed
case equations: three value-mean shapes, with h(t) and h(1 - t) swapped under
a harmonic argument mean; see _VALUE_MEANS.

Every verdict in the package compares its sides through one kernel,
_compare. It takes the sides block by block (the grid, then the random
tail), turns each block into relative margins with _margin, reduces them on
the block's own shape to a usable count, a minimum and the first violations,
and combines the blocks in sample order; the usable-sample rule applies to
the summed counts. _margin is the one margin formula; theorem_margins uses
it for per-point margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InapplicableSpecError
from .intervals import Interval
from .means import MeanKind
from .sampling import SamplePlan
from .weights import (DEFAULT_TOL, WeightFunction, constant_weight, power_weight,
                      reciprocal_weight)

# A verdict needs at least this fraction of usable (non-skipped) samples.
MIN_USABLE_FRACTION = 0.5

# Default box used to bound sampling when a function's domain is unbounded.
DEFAULT_BOX = (-10.0, 10.0)


def _margin(lhs, rhs, valid, claim: str = "<="):
    """Relative margin of the claim lhs <= rhs, lhs >= rhs or lhs == rhs.

    The margin is rhs - lhs, lhs - rhs or -|rhs - lhs| over
    max(1, |lhs|, |rhs|), and +inf where a sample is not usable; negative
    means violated.
    """
    with np.errstate(all="ignore"):  # unusable samples may hold inf or nan
        if claim == ">=":
            gap = lhs - rhs
        else:
            gap = rhs - lhs
            if claim == "==":
                np.negative(np.abs(gap, out=gap), out=gap)
        # rel_scale(lhs, rhs), computed in place
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        np.maximum(1.0, scale, out=scale)
        np.divide(gap, scale, out=gap)
        np.copyto(gap, np.inf, where=~valid)
    return gap


@dataclass(frozen=True)
class Comparison:
    """A claim reduced over all sample blocks."""

    samples: int  # usable samples
    skipped: int
    min_margin: float
    violations: list[tuple[int, float, float]]  # (index, lhs, rhs), sample order


def _compare(blocks, claim: str, what: str, tol: Optional[float] = None,
             limit: int = 1) -> Comparison:
    """Compare lhs and rhs of a claim over the blocks of a sample stream.

    blocks are (offset, shape, (lhs, rhs, valid)) per block, grid first, as
    SampleBlocks.map gives them. Each block's margins are reduced on the
    block's shape; with tol, up to `limit` samples violating the claim by
    more than tol are kept, in sample order, with their lhs and rhs. Raises
    DomainError, naming the claim `what`, when fewer than
    MIN_USABLE_FRACTION of all samples are usable.
    """
    usable = total = 0
    lowest = np.inf
    violations = []
    for offset, shape, (lhs, rhs, valid) in blocks:
        rel = np.broadcast_to(_margin(lhs, rhs, valid, claim), shape)
        if not rel.size:
            continue
        total += rel.size
        usable += int(np.count_nonzero(np.broadcast_to(valid, shape)))
        block_min = float(rel.min())
        lowest = min(lowest, block_min)
        if tol is not None and block_min < -tol and len(violations) < limit:
            bad = np.flatnonzero(rel < -tol)[:limit - len(violations)]
            lhs, rhs = np.broadcast_to(lhs, shape), np.broadcast_to(rhs, shape)
            violations += [(offset + int(i), lhs.flat[i], rhs.flat[i]) for i in bad]
    if usable < MIN_USABLE_FRACTION * total:
        raise DomainError(f"only {usable}/{total} samples usable for {what}")
    return Comparison(usable, total - usable, lowest, violations)


@dataclass(frozen=True)
class PointFunction:
    """A scalar function with its stated domain and positivity claim.

    positive_on_domain is a claim, not an assumption: audits sample it.
    fn must be elementwise: verifiers call it on broadcast grid axes (shapes
    such as (n, 1, 1) or (n, 1, n)), and it must return an array of its
    argument's shape.
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


@dataclass(frozen=True)
class Witness:
    x: float
    y: float
    t: Optional[float]
    lhs: float
    rhs: float
    z: Optional[float] = None
    index: int = 0


@dataclass(frozen=True)
class Verdict:
    status: str  # holds-on-samples | refuted
    samples_tested: int
    min_margin: float  # relative margin: (claimed rhs - lhs) / scale
    witness: Optional[Witness] = None
    skipped: int = 0

    @property
    def holds(self) -> bool:
        return self.status == "holds-on-samples"


def _arg_mean_arrays(kind: MeanKind, x, y, t):
    """Argument mean M(t; x, y) with t weighting x, per the case equations."""
    if kind is MeanKind.ARITHMETIC:
        return t * x + (1.0 - t) * y
    if kind is MeanKind.GEOMETRIC:
        return x**t * y ** (1.0 - t)
    return x * y / (t * x + (1.0 - t) * y)


# rhs of the defining inequality per value mean, with weight wx on f(x) and
# wy on f(y). The printed case equations place (wx, wy) = (h(t), h(1-t)) for
# the arithmetic and geometric argument means and swap them for the harmonic.
_VALUE_MEANS = {
    MeanKind.ARITHMETIC: lambda wx, wy, fx, fy: wx * fx + wy * fy,
    MeanKind.GEOMETRIC: lambda wx, wy, fx, fy: fx**wx * fy**wy,
    MeanKind.HARMONIC: lambda wx, wy, fx, fy: fx * fy / (wy * fx + wx * fy),
}


def _gap_arrays(spec: ConvexitySpec, f: PointFunction, x, y, t):
    """Vectorized (lhs, rhs, valid-mask) of the defining inequality."""
    with np.errstate(all="ignore"):
        m = _arg_mean_arrays(spec.arg_mean, x, y, t)
        ht = np.asarray(spec.h(t), dtype=float)
        h1t = np.asarray(spec.h(1.0 - t), dtype=float)
        lhs = np.asarray(f(m), dtype=float)
        wx, wy = (h1t, ht) if spec.arg_mean is MeanKind.HARMONIC else (ht, h1t)
        rhs = _VALUE_MEANS[spec.val_mean](
            wx, wy, np.asarray(f(x), dtype=float), np.asarray(f(y), dtype=float))
    m, lhs, rhs = np.atleast_1d(m), np.atleast_1d(lhs), np.atleast_1d(rhs)
    with np.errstate(invalid="ignore"):
        in_domain = f.domain.contains_array(m) & np.isfinite(m)
    valid = in_domain & np.isfinite(lhs) & np.isfinite(rhs) \
        & np.isfinite(np.atleast_1d(ht)) & np.isfinite(np.atleast_1d(h1t))
    return lhs, rhs, valid


def defining_gap(spec: ConvexitySpec, f: PointFunction, x: float, y: float,
                 t: float) -> tuple[float, float]:
    """Both sides of the defining inequality at one (x, y, t); no comparison."""
    if not (f.domain.contains(x) and f.domain.contains(y)):
        raise DomainError(f"({x}, {y}) not inside domain of {f.name}")
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
    "on samples" only, never a proof.
    """
    plan = plan or SamplePlan()
    blocks = plan.pair_t_blocks(f.sampling_domain(box))
    cmp = _compare(blocks.map(partial(_gap_arrays, spec, f)),
                   "<=" if spec.sense == "convex" else ">=",
                   f"{spec.label} on {f.name}", tol)
    w = None
    if cmp.violations:
        i, lhs, rhs = cmp.violations[0]
        w = Witness(*blocks.point(i), float(lhs), float(rhs), index=i)
    return Verdict("refuted" if w else "holds-on-samples", cmp.samples,
                   cmp.min_margin, w, cmp.skipped)


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
