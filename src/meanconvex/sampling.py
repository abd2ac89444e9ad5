"""Deterministic sampling plans: Cartesian grids plus seeded random points.

All sample streams are ordered (grid first, then random) so that the
"smallest-index witness" reported by a verifier is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .intervals import Interval

T_EPS = 1e-6


@dataclass(frozen=True)
class SamplePlan:
    """Grid sizes and random-sample count for a verification run.

    grid_axis points per spatial axis, grid_t points over the weight
    parameter t, n_random seeded uniform samples appended after the grid.
    """

    grid_axis: int = 33
    grid_t: int = 17
    n_random: int = 10_000
    seed: int = 42

    def __post_init__(self):
        if self.grid_axis < 0 or self.grid_t < 0 or self.n_random < 0:
            raise ValueError("plan sizes must be nonnegative")
        if self.grid_axis + self.n_random == 0:
            raise ValueError("empty sample plan")

    def with_seed(self, seed: int) -> "SamplePlan":
        return replace(self, seed=seed)

    def _spatial(self, domain: Interval) -> tuple[np.ndarray, tuple[float, float]]:
        lo, hi = domain.sampling_bounds()
        return np.linspace(lo, hi, self.grid_axis), (lo, hi)

    def t_grid(self) -> np.ndarray:
        return np.linspace(T_EPS, 1.0 - T_EPS, self.grid_t)

    def _grid_then_random(self, *axes) -> tuple[np.ndarray, ...]:
        """One column per (grid points, (lo, hi)) axis: the Cartesian grid of
        the axes in C order, then n_random seeded uniform draws in [lo, hi),
        taken from one generator a whole axis at a time."""
        grids = np.meshgrid(*(points for points, _ in axes), indexing="ij")
        u = np.random.default_rng(self.seed).random((len(axes), self.n_random))
        return tuple(np.concatenate([g.ravel(), lo + (hi - lo) * row])
                     for g, (_, (lo, hi)), row in zip(grids, axes, u))

    def pairs_with_t(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, t) samples: grid_axis^2 * grid_t grid, then random."""
        xy = self._spatial(domain)
        return self._grid_then_random(xy, xy, (self.t_grid(), (T_EPS, 1.0 - T_EPS)))

    def triples(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, z) samples: grid_axis^3 grid, then random."""
        xyz = self._spatial(domain)
        return self._grid_then_random(xyz, xyz, xyz)

    def scalar_pairs(self, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
        """Ordered (s, t) pairs for additivity/multiplicativity checks."""
        st = self._spatial(domain)
        return self._grid_then_random(st, st)


def rel_scale(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Comparison scale max(1, |lhs|, |rhs|) used by all tolerance checks."""
    return np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
