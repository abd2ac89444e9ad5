"""Real intervals with open/closed endpoint flags."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Open endpoints are padded by this fraction of the width when sampling.
OPEN_END_PAD = 1e-6


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x) -> bool:
        return bool(self.contains_array(x))

    def contains_array(self, x):
        """Vectorized membership for numpy arrays."""
        lo_ok = x >= self.lo if self.closed_lo else x > self.lo
        hi_ok = x <= self.hi if self.closed_hi else x < self.hi
        return lo_ok & hi_ok

    def clamp(self, lo: float, hi: float) -> "Interval":
        """Intersect with [lo, hi]; the clamped ends are treated as closed."""
        new_lo, new_hi = max(self.lo, lo), min(self.hi, hi)
        if not new_lo < new_hi:
            raise ValueError("empty intersection")
        return Interval(
            new_lo,
            new_hi,
            closed_lo=self.closed_lo if new_lo == self.lo else True,
            closed_hi=self.closed_hi if new_hi == self.hi else True,
        )

    def sampling_bounds(self) -> tuple[float, float]:
        """Endpoints usable for sampling: open ends are padded inward."""
        if not self.bounded:
            raise ValueError("cannot sample an unbounded interval; clamp first")
        pad = OPEN_END_PAD * (self.hi - self.lo)
        lo = self.lo if self.closed_lo else self.lo + pad
        hi = self.hi if self.closed_hi else self.hi - pad
        return lo, hi
