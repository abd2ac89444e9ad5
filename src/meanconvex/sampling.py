"""Deterministic sampling plans: Cartesian grids plus seeded random points.

A plan yields its samples as two blocks (SampleBlocks): the Cartesian grid
as an open mesh of its axes (np.ix_, so each axis keeps only its own
points), then the seeded random tail as flat columns. A side kernel runs on
each block once; a term that reads only some axes, such as f(x) or
f((x + z) / 2), costs one evaluation per distinct point instead of one per
sample. Verifiers reduce each block's margins on the block's own shape and
combine the reductions, so no full-plan array is built. Samples are
numbered in one order, grid first in C order, then random, so that the
"smallest-index witness" reported by a verifier is reproducible; the flat
views triples, pairs_with_t and scalar_pairs list them in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .intervals import Interval

T_EPS = 1e-6


@dataclass(frozen=True)
class SampleBlocks:
    """A sample stream as its grid block and its random-tail block.

    grid holds one open-mesh axis per coordinate (np.ix_ shapes such as
    (n, 1, 1)); tail holds one flat column per coordinate. Sample i is grid
    point np.unravel_index(i, grid_shape) for i below the grid size, else
    tail row i - grid size. Verifiers reduce the blocks one at a time
    (map); only the flat views join them (evaluate).
    """

    grid: tuple[np.ndarray, ...]
    tail: tuple[np.ndarray, ...]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(axis.size for axis in self.grid)

    def map(self, kernel) -> list[tuple[int, tuple[int, ...], object]]:
        """Run kernel(*coordinates) once on the grid axes, then once on the
        tail: (offset, shape, result) per block, where offset is the index
        of the block's first sample and shape the shape its results
        broadcast to."""
        shape = self.grid_shape
        return [(0, shape, kernel(*self.grid)),
                (math.prod(shape), self.tail[0].shape, kernel(*self.tail))]

    def evaluate(self, kernel) -> tuple[np.ndarray, ...]:
        """Run kernel(*coordinates), which returns a sequence of elementwise
        arrays, on both blocks and join each result into one flat array in
        sample order: the grid broadcast to its full shape and raveled in C
        order, then the tail."""
        (_, shape, grid), (n_grid, (n_tail,), tail) = self.map(kernel)
        joined = []
        for g, r in zip(grid, tail):
            out = np.empty(n_grid + n_tail, np.result_type(g, r))
            out[:n_grid].reshape(shape)[...] = g
            out[n_grid:] = r
            joined.append(out)
        return tuple(joined)

    def flat(self) -> tuple[np.ndarray, ...]:
        """One flat column per coordinate, in sample order."""
        return self.evaluate(lambda *coordinates: coordinates)

    def point(self, i: int) -> tuple[float, ...]:
        """The coordinates of sample i."""
        i, n_grid = int(i), math.prod(self.grid_shape)
        if i >= n_grid:
            return tuple(float(column[i - n_grid]) for column in self.tail)
        index = np.unravel_index(i, self.grid_shape)
        return tuple(float(axis.flat[k]) for axis, k in zip(self.grid, index))


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

    @cached_property
    def _uniform(self) -> np.ndarray:
        """The plan's random block, drawn once: three rows of n_random
        uniform draws in [0, 1) from one generator, a whole row at a time.
        A two-coordinate stream uses the first two rows, which are the
        draws random((2, n_random)) would give."""
        u = np.random.default_rng(self.seed).random((3, self.n_random))
        u.setflags(write=False)
        return u

    def _blocks(self, *axes) -> SampleBlocks:
        """One coordinate per (grid points, (lo, hi)) axis: the open mesh of
        the axes, then the plan's random rows scaled to [lo, hi)."""
        return SampleBlocks(np.ix_(*(points for points, _ in axes)),
                            tuple(lo + (hi - lo) * row
                                  for (_, (lo, hi)), row in zip(axes, self._uniform)))

    def pair_t_blocks(self, domain: Interval) -> SampleBlocks:
        """(x, y, t) blocks: grid_axis^2 * grid_t grid, then random."""
        xy = self._spatial(domain)
        return self._blocks(xy, xy, (self.t_grid(), (T_EPS, 1.0 - T_EPS)))

    def triple_blocks(self, domain: Interval) -> SampleBlocks:
        """(x, y, z) blocks: grid_axis^3 grid, then random."""
        xyz = self._spatial(domain)
        return self._blocks(xyz, xyz, xyz)

    def pairs_with_t(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, t) samples: grid_axis^2 * grid_t grid, then random."""
        return self.pair_t_blocks(domain).flat()

    def triples(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, z) samples: grid_axis^3 grid, then random."""
        return self.triple_blocks(domain).flat()

    def scalar_pairs(self, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
        """Ordered (s, t) pairs for additivity/multiplicativity checks."""
        st = self._spatial(domain)
        return self._blocks(st, st).flat()


def rel_scale(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Comparison scale max(1, |lhs|, |rhs|) used by all tolerance checks."""
    return np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
