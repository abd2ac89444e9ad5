"""Classical and weight-generalized arithmetic/geometric/harmonic means.

Every A/G/H mean formula of the package is written once, in the three tables
below; convexity, popoviciu and the chain links read them from here. Only
mean_eval's geometric branch, in log domain, is written apart.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .sampling import _margin
from .weights import DEFAULT_TOL, WeightFunction, weight_eval


class MeanKind(enum.Enum):
    ARITHMETIC = "A"
    GEOMETRIC = "G"
    HARMONIC = "H"


# Two-point means with weight wa on a and wb on b. mean_eval reads them with
# (wa, wb) = (h(1 - t), h(t)), the placements of the printed generalized means:
# h(t) on the second argument of A and G, on the first in the H denominator.
# No "correction" is applied; the three-point inequalities are proved against
# these exact placements. The class case equations place the weights their
# own way (see convexity).
WEIGHTED_MEANS = {
    MeanKind.ARITHMETIC: lambda wa, wb, a, b: wa * a + wb * b,
    MeanKind.GEOMETRIC: lambda wa, wb, a, b: a**wa * b**wb,
    MeanKind.HARMONIC: lambda wa, wb, a, b: a * b / (wb * a + wa * b),
}

# Unweighted two-point means.
CLASSIC_MEANS = {
    MeanKind.ARITHMETIC: lambda a, b: (a + b) / 2.0,
    MeanKind.GEOMETRIC: lambda a, b: np.sqrt(a * b),
    MeanKind.HARMONIC: lambda a, b: 2.0 * a * b / (a + b),
}

# Unweighted three-point (central) means.
CENTRAL_MEANS = {
    MeanKind.ARITHMETIC: lambda x, y, z: (x + y + z) / 3.0,
    MeanKind.GEOMETRIC: lambda x, y, z: np.cbrt(x * y * z),
    # the denominator first: on arrays one temporary fewer is alive at a time
    MeanKind.HARMONIC: lambda x, y, z: (s := x * y + y * z + x * z, 3.0 * x * y * z / s)[1],
}


@dataclass(frozen=True)
class MeanEvalContext:
    kind: MeanKind
    h: WeightFunction
    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"t={self.t} outside [0, 1]")


def _in_float_range(kind: MeanKind, a: float, b: float, formula, zero_ok=False) -> float:
    """formula() as a float. An inf, nan or 0 mean of positive floats shows that a
    product, a denominator or the mean itself left the float range: an error."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not (0.0 < value < math.inf or (zero_ok and value == 0.0)):
        raise EvaluationError(f"{kind.value}-mean of {a:g} and {b:g} overflows or "
                              "underflows in floats")
    return float(value)


def mean_eval(ctx: MeanEvalContext, a: float, b: float) -> float:
    """Finite generalized mean of positive finite a, b, weights h(t), h(1-t)."""
    if not (0 < a < math.inf and 0 < b < math.inf):  # NaN fails too
        raise DomainError("means are defined for positive finite arguments only")
    ht = weight_eval(ctx.h, ctx.t)
    h1t = weight_eval(ctx.h, 1.0 - ctx.t)
    if ctx.kind is MeanKind.GEOMETRIC:
        # log domain: products of many near-zero factors appear downstream, and
        # an underflow to 0 is the correctly rounded mean
        return _in_float_range(ctx.kind, a, b, lambda: math.exp(
            h1t * math.log(a) + ht * math.log(b)), zero_ok=True)
    return _in_float_range(ctx.kind, a, b, lambda: WEIGHTED_MEANS[ctx.kind](h1t, ht, a, b))


def mean_classic(kind: MeanKind, a: float, b: float) -> float:
    """Unweighted two-point mean; equals mean_eval at h=identity, t=1/2."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError("means are defined for positive finite arguments only")
    return _in_float_range(kind, a, b, lambda: CLASSIC_MEANS[kind](a, b))


@dataclass(frozen=True)
class ChainVerdict:
    """Result of the H_h <= G_h <= A_h ordering check at one (t, a, b)."""

    h_mean: float
    g_mean: float
    a_mean: float
    margin_hg: float  # G_h - H_h
    margin_ga: float  # A_h - G_h
    holds: bool


def check_am_gm_hm(h: WeightFunction, t: float, a: float, b: float,
                   tol: float = DEFAULT_TOL) -> ChainVerdict:
    """Evaluate the generalized mean chain H_h <= G_h <= A_h at (t, a, b).

    The chain is not guaranteed for every positive increasing h (it fails
    numerically for h(t)=t^2); callers record pass/fail per weight.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("chain check samples interior t only")
    hm = mean_eval(MeanEvalContext(MeanKind.HARMONIC, h, t), a, b)
    gm = mean_eval(MeanEvalContext(MeanKind.GEOMETRIC, h, t), a, b)
    am = mean_eval(MeanEvalContext(MeanKind.ARITHMETIC, h, t), a, b)
    rel = _margin(np.array([hm, gm]), np.array([gm, am]), np.True_)  # H <= G, G <= A
    return ChainVerdict(hm, gm, am, gm - hm, am - gm, bool(rel.min() >= -tol))
