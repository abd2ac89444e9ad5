"""Weight functions on [0, 2] and additivity/multiplicativity classifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .intervals import Interval
from .sampling import SamplePlan, rel_scale

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


def identity_weight() -> WeightFunction:
    return WeightFunction("identity", lambda t: t)


def power_weight(r: float) -> WeightFunction:
    return WeightFunction(f"power:{r:g}", lambda t: t**r)


def reciprocal_weight() -> WeightFunction:
    return WeightFunction("reciprocal", lambda t: 1.0 / t)


def constant_weight(c: float = 1.0) -> WeightFunction:
    return WeightFunction(f"constant:{c:g}", lambda t: np.full_like(t, c))


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


def _classify(g, domain: Interval, plan: SamplePlan, tol: float,
              combine, split, empty_msg: str) -> AdditivityClass:
    s, t = plan.scalar_pairs(domain)
    comb = combine(s, t)
    lo, hi = domain.sampling_bounds()
    ok = (comb >= lo) & (comb <= hi)
    if not ok.any():
        raise DomainError(empty_msg)
    s, t, comb = s[ok], t[ok], comb[ok]
    with np.errstate(all="ignore"):
        whole = np.asarray(g(comb), dtype=float)
        parts = split(np.asarray(g(s), dtype=float), np.asarray(g(t), dtype=float))
    finite = np.isfinite(whole) & np.isfinite(parts)
    s, t, whole, parts = s[finite], t[finite], whole[finite], parts[finite]
    if whole.size == 0:
        raise DomainError("no evaluable sample pairs")
    diff = whole - parts
    band = tol * rel_scale(whole, parts)
    gt = diff > band
    lt = diff < -band
    witness_gt = (float(s[np.argmax(gt)]), float(t[np.argmax(gt)])) if gt.any() else None
    witness_lt = (float(s[np.argmax(lt)]), float(t[np.argmax(lt)])) if lt.any() else None
    if witness_gt and witness_lt:
        tag = "mixed"
    elif witness_gt:
        tag = "superadditive"
    elif witness_lt:
        tag = "subadditive"
    else:
        tag = "additive"
    return AdditivityClass(tag, witness_gt, witness_lt, samples_tested=int(whole.size))


def classify_additivity(g, domain: Interval, plan: SamplePlan | None = None,
                        tol: float = DEFAULT_TOL) -> AdditivityClass:
    """Compare g(s+t) against g(s)+g(t) over sampled pairs with s+t in domain."""
    return _classify(g, domain, plan or SamplePlan(), tol,
                     combine=lambda s, t: s + t,
                     split=lambda a, b: a + b,
                     empty_msg="no sampled pair has sum in domain")


def classify_multiplicativity(f, domain: Interval, plan: SamplePlan | None = None,
                              tol: float = DEFAULT_TOL) -> AdditivityClass:
    """Compare f(s*t) against f(s)*f(t); tags read as sub/super-multiplicative."""
    return _classify(f, domain, plan or SamplePlan(), tol,
                     combine=lambda s, t: s * t,
                     split=lambda a, b: a * b,
                     empty_msg="no sampled pair has product in domain")


def power_weight_class(k: float) -> AdditivityClass:
    """Analytic sub/super-additivity of x^k on (0, inf): no sampling.

    For k < 0 the function is positive and decreasing, so f(s+t) is below
    each single term and x^k is subadditive throughout; k in (0, 1] gives
    subadditivity by concavity, k = 1 additivity, and k > 1 superadditivity.
    """
    if k == 1:
        return AdditivityClass("additive")
    if k < 1:
        return AdditivityClass("subadditive")
    return AdditivityClass("superadditive")
