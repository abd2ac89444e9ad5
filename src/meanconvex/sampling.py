"""Deterministic sampling plans and the one comparison kernel.

A plan yields its samples as blocks (SampleBlocks): the Cartesian grid as an
open mesh of its axes (np.ix_, so each axis keeps only its own points), then
the seeded random tail as flat columns. A side kernel runs once per chunk of
about _CHUNK samples, so its temporaries stay small at any plan size, and a
term that reads only some axes, such as f(x) or f((x + z) / 2), costs one
evaluation per distinct point of a chunk instead of one per sample. Samples
are numbered in one order, grid first in C order, then random, so that the
"smallest-index witness" reported by a verifier is reproducible; the flat
views triples, pairs_with_t and scalar_pairs list them in that order.

The (x, y, z) stream is symmetric by contract: every kernel run on
triple_blocks (the nine theorems, the chain links, the equality families and
Hlawka) is symmetric in x, y and z, so each grid sample takes the sides of
its sorted triple. Its rows are the n(n+1)(n+2)/6 sorted triples, then the
tail, chunked as one run, and _compare weights each sorted triple by the
number of grid samples it stands for.

Every verdict in the package, additivity classes and Hlawka included,
compares its sides through _compare: _margin turns each chunk into relative
margins (it is the one margin formula), each chunk is reduced on its own
shape, and the reductions are combined in sample order, so no full-plan
array is built; _compare alone decodes the index of each violation it keeps,
and it returns the one result record of every sampled check, a Verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Optional

import numpy as np

from .errors import DomainError
from .intervals import Interval

T_EPS = 1e-6

# A verdict needs at least this fraction of usable (non-skipped) samples.
MIN_USABLE_FRACTION = 0.5

_MEMO_SIZE = 32  # streams and classes a plan keeps; an audit request makes 15 and 11

_CHUNK = 4096  # samples per kernel call; one first-axis slice of a grid may be more


@dataclass(frozen=True)
class SampleBlocks:
    """A sample stream as its grid block and its random-tail block.

    grid holds one open-mesh axis per coordinate (np.ix_ shapes such as
    (n, 1, 1)); tail holds one flat column per coordinate. Sample i is grid
    point np.unravel_index(i, grid_shape) for i below the grid size, else
    tail row i - grid size. Verifiers run their kernels chunk by chunk
    (map); only the flat views join the blocks (flat).

    A symmetric grid's samples take the sides of their sorted triples (_chunks).
    """

    grid: tuple[np.ndarray, ...]
    tail: tuple[np.ndarray, ...]
    symmetric: bool = False

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(axis.size for axis in self.grid)

    @cached_property
    def _chunks(self) -> list[tuple[int, tuple[int, ...], tuple[np.ndarray, ...]]]:
        """(offset, shape, columns) per kernel call, in sample order, none empty and
        read-only: the grid sliced along its first axis, which keeps C order, then the
        tail by rows. A symmetric stream's rows, the sorted triples (_simplex) then the
        tail, go _CHUNK at a time, and its offsets count rows."""
        parts = [self.grid, self.tail]
        if self.symmetric:  # whole chunks are views; the one that straddles is a copy
            simplex = self.grid[0].ravel()[_simplex(self.grid_shape[0])[0]]
            q, fill = simplex.shape[1] // _CHUNK * _CHUNK, -simplex.shape[1] % _CHUNK
            parts = [simplex[:, :q], [np.concatenate([s[q:], t[:fill]]) for s, t in
                                      zip(simplex, self.tail)], [t[fill:] for t in self.tail]]
        chunks, offset = [], 0
        for columns in parts:
            n, *rest = np.broadcast_shapes(*(column.shape for column in columns))
            plane = math.prod(rest)  # samples per first-axis slice
            step = max(1, _CHUNK // max(plane, 1))
            chunks += [(offset + i * plane, (min(step, n - i), *rest),
                        tuple(c[i:i + step] if c.shape[0] == n else c for c in columns))
                       for i in range(0, n if plane else 0, step)]
            offset += n * plane
        for column in (column for _, _, columns in chunks for column in columns):
            column.setflags(write=False)
        return chunks

    def map(self, kernel) -> list[tuple[int, tuple[int, ...], object]]:
        """(offset, shape, kernel(*columns)) per chunk; the results broadcast to shape."""
        return [(offset, shape, kernel(*columns)) for offset, shape, columns in self._chunks]

    def flat(self) -> tuple[np.ndarray, ...]:
        """One flat column per coordinate, in sample order."""
        return tuple(np.concatenate([g.ravel(), r])
                     for g, r in zip(np.broadcast_arrays(*self.grid), self.tail))

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

    def _cached(self, key, build):
        """build(), made once per key and kept while the plan lives. Past _MEMO_SIZE
        entries the oldest goes; an entry is fixed by its key, so eviction changes nothing."""
        memo = vars(self).setdefault("_memo", {})
        if key not in memo:
            if len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = build()
        return memo[key]

    def _blocks(self, *axes, symmetric: bool = False) -> SampleBlocks:
        """One coordinate per (grid points, (lo, hi)) axis: the open mesh of
        the axes, then the plan's random rows scaled to [lo, hi); read-only."""
        tail = tuple(lo + (hi - lo) * row for (_, (lo, hi)), row in zip(axes, self._uniform))
        blocks = SampleBlocks(np.ix_(*(points for points, _ in axes)), tail, symmetric)
        for array in (*blocks.grid, *blocks.tail):
            array.setflags(write=False)
        return blocks

    def pair_t_blocks(self, domain: Interval) -> SampleBlocks:
        """(x, y, t) blocks: grid_axis^2 * grid_t grid, then random."""
        return self._cached(("xyt", domain), lambda: self._blocks(
            *[self._spatial(domain)] * 2, (self.t_grid(), (T_EPS, 1.0 - T_EPS))))

    def triple_blocks(self, domain: Interval) -> SampleBlocks:
        """(x, y, z) blocks: grid_axis^3 symmetric grid, then random."""
        return self._cached(("xyz", domain), lambda: self._blocks(
            *[self._spatial(domain)] * 3, symmetric=True))

    def pair_blocks(self, domain: Interval) -> SampleBlocks:
        """(s, t) blocks: grid_axis^2 grid, then random."""
        return self._cached(("st", domain), lambda: self._blocks(*[self._spatial(domain)] * 2))

    def pairs_with_t(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, t) samples: grid_axis^2 * grid_t grid, then random."""
        return self.pair_t_blocks(domain).flat()

    def triples(self, domain: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered (x, y, z) samples: grid_axis^3 grid, then random."""
        return self.triple_blocks(domain).flat()

    def scalar_pairs(self, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
        """Ordered (s, t) pairs: grid_axis^2 grid, then random."""
        return self.pair_blocks(domain).flat()


@lru_cache(maxsize=8)  # an entry holds about 5·n³ bytes; a process uses few sizes
def _simplex(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted index triples i <= j <= k of an n-point axis, one column
    each in C order, and the number of grid samples (permutations) each
    stands for: 6, 3 or 1. Built once per n and read-only."""
    a = np.arange(n)
    index = np.array(np.nonzero((a[:, None, None] <= a[:, None]) & (a[:, None] <= a)))
    mult = 6 // (1 + (index[0] == index[1])) // (1 + (index[1] == index[2]))
    for array in (index, mult):
        array.setflags(write=False)
    return index, mult


def _orbit(n: int, s: int) -> list[int]:
    """The C-order grid indices of the distinct permutations of sorted triple s."""
    return sorted({(a * n + b) * n + c
                   for a, b, c in permutations(_simplex(n)[0][:, s].tolist())})


def require_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0: a negative one
    counts samples that hold as violations, and NaN hides every violation."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


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
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        np.maximum(1.0, scale, out=scale)
        np.divide(gap, scale, out=gap)
    return np.where(valid, gap, np.inf)


@dataclass(frozen=True)
class Witness:
    """One violating sample: its coordinates, the sides there and its sample index."""

    x: float
    y: float
    t: Optional[float]
    lhs: float
    rhs: float
    z: Optional[float] = None
    index: int = 0


@dataclass(frozen=True)
class Verdict:
    """A claim reduced over a sample stream, for every sampled check: usable
    and skipped samples, the least relative margin (negative means
    violated) and the first violations kept, in sample order. The claim
    holds on the samples when no violation is kept. f_name and sense label
    the verdicts of classes and theorems."""

    target: str
    samples: int  # usable samples
    skipped: int
    min_margin: float
    witnesses: list[Witness]
    f_name: Optional[str] = None
    sense: Optional[str] = None

    @property
    def status(self) -> str:
        return "refuted" if self.witnesses else "holds-on-samples"

    @property
    def holds(self) -> bool:
        return not self.witnesses

    # bench/tracing.py reads these two names until ROADMAP item 9 moves it to samples
    samples_tested = triples_tested = property(lambda self: self.samples)


def _broadcast(a: np.ndarray, shape) -> np.ndarray:
    """a broadcast to shape, without a broadcast_to call where it has it."""
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _compare(blocks: SampleBlocks, results, claim: str, what: str,
             tol: Optional[float] = None, limit: int = 1, target: Optional[str] = None,
             f_name: Optional[str] = None, sense: Optional[str] = None) -> Verdict:
    """Compare lhs and rhs of a claim over the blocks of a sample stream.

    results are (offset, shape, (lhs, rhs, valid[, applicable])) per chunk,
    grid first, as blocks.map gives them; a sample outside the optional
    applicable mask is not counted at all. Each chunk's margins are reduced
    on the chunk's shape; with tol, the first `limit` samples whose margin is
    below -tol are kept, in sample order, as Witnesses of their coordinates
    in blocks, named (x, y, z), (x, y, t) or (x, y) for the (s, t) stream, and
    their lhs and rhs. The Verdict's target is `target`, else `what`. Raises
    DomainError, naming the claim `what`, when fewer than MIN_USABLE_FRACTION
    of the counted samples are usable or the stream is empty, and ValueError
    for a tol that require_tol refuses.

    On a symmetric stream's rows a sorted triple counts as every grid sample
    of its orbit, and the tail's row j is sample n^3 + j. Violators are
    closed under permutation and a sorted triple leads its orbit, so the
    orbits of the first `limit` violating rows of all chunks, cut to `limit`
    once at the end, are the first `limit` violators, with their rows' sides.
    """
    if tol is not None:
        require_tol(tol)
    usable = total = 0
    lowest = np.inf
    found = []  # the first violating rows, as (orbit, lhs, rhs)
    for offset, shape, (lhs, rhs, valid, *applicable) in results:
        rel = _broadcast(_margin(lhs, rhs, valid, claim), shape)
        if blocks.symmetric:  # offset counts rows: the sorted triples, then the tail
            n, mult = blocks.grid_shape[0], _simplex(blocks.grid_shape[0])[1]
            w = mult[offset:offset + rel.size]  # orbit sizes of this chunk's sorted triples
            count = lambda v: int(np.dot(w, v[:w.size])) + np.count_nonzero(v[w.size:])
            size = int(w.sum()) + rel.size - w.size
            orbit = lambda i: (_orbit(n, offset + i) if offset + i < mult.size
                               else [n ** 3 + offset + int(i) - mult.size])
        else:
            count, size, orbit = np.count_nonzero, rel.size, lambda i: [offset + int(i)]
        total += int(count(_broadcast(applicable[0], shape))) if applicable else size
        usable += int(count(_broadcast(valid, shape)))
        block_min = float(rel.min())
        lowest = min(lowest, block_min)
        room = limit - len(found)
        if tol is None or block_min >= -tol or room <= 0:
            continue
        bad = rel < -tol  # argmax finds one violation without listing them all
        index = np.flatnonzero(bad)[:room] if room > 1 else [bad.argmax()]
        lhs, rhs = _broadcast(lhs, shape), _broadcast(rhs, shape)
        found += [(orbit(i), float(lhs.flat[i]), float(rhs.flat[i]))
                  for i in index if bad.flat[i]]
    if not results or usable < MIN_USABLE_FRACTION * total:
        raise DomainError(f"only {usable}/{total} samples usable for {what}")
    found = sorted((j, *sides) for js, *sides in found for j in js)[:limit]
    witnesses = []
    for i, lhs, rhs in found:
        x, y, c = (*blocks.point(i), None)[:3]  # c: z on the symmetric stream, else t
        z, t = (c, None) if blocks.symmetric else (None, c)
        witnesses.append(Witness(x, y, t, lhs, rhs, z, i))
    return Verdict(target or what, usable, total - usable, lowest, witnesses, f_name, sense)
