"""Weight functions on [0, 2] and additivity/multiplicativity classifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .intervals import Interval
from .sampling import SamplePlan, _compare

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """A positive weight on [0, 2], equal to another weight of the same name.

    Must be strictly positive on (0, 1) and evaluable at 1/2 and 3/2.
    weight_eval rejects a pole (1/t at t = 0, say) by its value alone.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __call__(self, t):
        """Vectorized raw evaluation (no domain checks)."""
        return self.fn(np.asarray(t, dtype=float))


def _label(v: float) -> str:
    """v as :g when that reads back as v, else in full: a name fixes its weight."""
    return short if float(short := f"{v:g}") == v else repr(float(v))


_IDENTITY = WeightFunction("identity", lambda t: t)


def identity_weight() -> WeightFunction:
    return _IDENTITY


def power_weight(r: float) -> WeightFunction:
    return WeightFunction(f"power:{_label(r)}", lambda t: t**r)


def reciprocal_weight() -> WeightFunction:
    return WeightFunction("reciprocal", lambda t: 1.0 / t)


def constant_weight(c: float = 1.0) -> WeightFunction:
    return WeightFunction(f"constant:{_label(c)}", lambda t: np.full_like(t, c))


WEIGHT_BUILDERS = {
    "identity": identity_weight,
    "power": power_weight,
    "reciprocal": reciprocal_weight,
    "constant": constant_weight,
}


def weight_eval(h: WeightFunction, t: float) -> float:
    """Evaluate h at t in [0, 2], rejecting poles and nonpositive values."""
    if not 0.0 <= t <= 2.0:
        raise DomainError(f"weight argument {t} outside [0, 2]")
    with np.errstate(all="ignore"):
        value = float(h(t))
    if not math.isfinite(value):
        raise DomainError(f"weight {h.name} not finite at t={t}")
    if 0.0 < t < 1.0 and value <= 0.0:
        raise DomainError(f"weight {h.name} nonpositive at interior point t={t}")
    return value


@dataclass(frozen=True)
class AdditivityClass:
    """Verdict of a sub/super-additivity (or -multiplicativity) check.

    witness_gt is a pair with g(s∘t) > g(s)+g(t) (violates subadditivity);
    witness_lt the reverse. Sampling verdicts are "on samples", never proofs.
    """

    tag: str  # additive | subadditive | superadditive | mixed
    witness_gt: Optional[tuple[float, float]] = None
    witness_lt: Optional[tuple[float, float]] = None
    samples_tested: int = 0

    @property
    def witness(self) -> Optional[tuple[float, float]]:
        if self.tag == "subadditive":
            return self.witness_lt
        if self.tag == "superadditive":
            return self.witness_gt
        return self.witness_gt or self.witness_lt

    def satisfies(self, hypothesis: str) -> bool:
        """Whether this verdict is compatible with a sub/superadditive hypothesis."""
        if hypothesis == "additive":
            return self.tag == "additive"
        if hypothesis in ("subadditive", "superadditive"):
            return self.tag in (hypothesis, "additive")
        raise ValueError(f"unknown hypothesis {hypothesis!r}")


def _classify(g, domain: Interval, plan: SamplePlan, tol: float, op,
              noun: str) -> AdditivityClass:
    """Compare g(op(s, t)) against op(g(s), g(t)) over the plan's (s, t)
    blocks: g(s) and g(t) on the grid axes, g(op(s, t)) on the open mesh.
    Only pairs with op(s, t) in the sampling bounds count, and at least half
    of them must be usable. The sides are evaluated once and reduced twice:
    as the claim g(op(s, t)) <= op(g(s), g(t)), whose first violator is
    witness_gt, and as its reverse, whose first violator is witness_lt."""
    lo, hi = domain.sampling_bounds()

    def sides(s, t):
        at = op(s, t)
        applicable = (at >= lo) & (at <= hi)
        whole = np.asarray(g(at), dtype=float)
        parts = op(np.asarray(g(s), dtype=float), np.asarray(g(t), dtype=float))
        return whole, parts, applicable & np.isfinite(whole) & np.isfinite(parts), \
            applicable

    blocks = plan.pair_blocks(domain)
    with np.errstate(all="ignore"):
        results = blocks.map(sides)
    what = f"pair {noun}s on [{lo:g}, {hi:g}]"
    above, below = (_compare(blocks, results, claim, what, tol) for claim in ("<=", ">="))
    if not above.samples + above.skipped:
        raise DomainError(f"no sampled pair has {noun} in domain")
    gt, lt = ((v.witnesses[0].x, v.witnesses[0].y) if v.witnesses else None
              for v in (above, below))
    tag = ("mixed" if gt and lt else "superadditive" if gt else
           "subadditive" if lt else "additive")
    return AdditivityClass(tag, gt, lt, samples_tested=above.samples)


def classify_additivity(g, domain: Interval, plan: SamplePlan | None = None,
                        tol: float = DEFAULT_TOL) -> AdditivityClass:
    """Compare g(s+t) against g(s)+g(t) over sampled pairs with s+t in domain."""
    return _classify(g, domain, plan or SamplePlan(), tol, np.add, "sum")


def classify_multiplicativity(f, domain: Interval, plan: SamplePlan | None = None,
                              tol: float = DEFAULT_TOL) -> AdditivityClass:
    """Compare f(s*t) against f(s)*f(t); tags read as sub/super-multiplicative."""
    return _classify(f, domain, plan or SamplePlan(), tol, np.multiply, "product")


def power_weight_class(k: float) -> AdditivityClass:
    """Analytic sub/super-additivity of x^k on (0, inf): no sampling.

    For k < 0 the function is positive and decreasing, so f(s+t) is below
    each single term and x^k is subadditive throughout; k in (0, 1] gives
    subadditivity by concavity, k = 1 additivity, and k > 1 superadditivity.
    """
    if not math.isfinite(k):
        raise DomainError(f"power exponent must be finite, got {k:g}")
    return AdditivityClass("additive" if k == 1 else "subadditive" if k < 1
                           else "superadditive")
