"""Classical and weight-generalized arithmetic/geometric/harmonic means.

Weight placements follow the printed generalized-mean formulas verbatim:
the arithmetic and geometric forms put h(t) on the second argument, the
harmonic form puts h(t) on the first argument in the denominator. No
"correction" is applied; the three-point inequalities are proved against
these exact placements.
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


@dataclass(frozen=True)
class MeanEvalContext:
    kind: MeanKind
    h: WeightFunction
    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"t={self.t} outside [0, 1]")


def mean_eval(ctx: MeanEvalContext, a: float, b: float) -> float:
    """Finite generalized mean of positive finite a, b, weights h(t), h(1-t)."""
    if not (0 < a < math.inf and 0 < b < math.inf):  # NaN fails too
        raise DomainError("means are defined for positive finite arguments only")
    ht = weight_eval(ctx.h, ctx.t)
    h1t = weight_eval(ctx.h, 1.0 - ctx.t)
    if ctx.kind is MeanKind.ARITHMETIC:
        value = h1t * a + ht * b
    elif ctx.kind is MeanKind.GEOMETRIC:
        # log domain: products of many near-zero factors appear downstream
        try:
            value = math.exp(h1t * math.log(a) + ht * math.log(b))
        except OverflowError:
            value = math.inf
    else:
        denom = ht * a + h1t * b
        if denom == 0:
            raise EvaluationError("harmonic denominator vanished")
        value = a * b / denom
    if not math.isfinite(value):
        raise EvaluationError(f"{ctx.kind.value}-mean of {a:g} and {b:g} overflows")
    return value


def mean_classic(kind: MeanKind, a: float, b: float) -> float:
    """Unweighted two-point mean; equals mean_eval at h=identity, t=1/2."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError("means are defined for positive finite arguments only")
    if kind is MeanKind.ARITHMETIC:
        return (a + b) / 2.0
    if kind is MeanKind.GEOMETRIC:
        return math.sqrt(a * b)
    return 2.0 * a * b / (a + b)


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
