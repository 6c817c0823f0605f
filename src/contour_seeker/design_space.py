"""Mixed quantitative/qualitative design spaces and randomized point sets.

Quantitative coordinates are kept normalized to [0,1]^p everywhere inside
the library; physical units appear only at the I/O boundary
(``DesignSpace.denormalize`` on output, ``simulators.read_table`` on
input).  Qualitative factors are 1-based level indices.  Point sets
travel as an (n, p) float array of coordinates and an (n, q) int array of
levels; a per-point ``MixedPoint`` is built only where one input is
handed out (a simulator call, the chosen point, a serializer).  All
generators are pure functions of their inputs and a seed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class DesignSpace:
    """Bounds for p quantitative variables plus level counts for q factors.

    ``quant_bounds`` is a tuple of (low, high) pairs in physical units;
    ``qual_levels`` holds the number of levels m_h of each qualitative
    factor (each >= 2).  M is the number of level combinations
    (empty product = 1 when there are no factors).
    """

    quant_bounds: tuple[tuple[float, float], ...]
    qual_levels: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.quant_bounds) < 1:
            raise ValidationError("quant_bounds: at least one quantitative variable required")
        for k, (lo, hi) in enumerate(self.quant_bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValidationError(f"quant_bounds[{k}]: need finite low < high, got [{lo}, {hi}]")
        for h, m in enumerate(self.qual_levels):
            if m < 2:
                raise ValidationError(f"qual_levels[{h}]: level count must be >= 2, got {m}")

    @property
    def p(self) -> int:
        return len(self.quant_bounds)

    @property
    def q(self) -> int:
        return len(self.qual_levels)

    @property
    def num_combos(self) -> int:
        m = 1
        for levels in self.qual_levels:
            m *= levels
        return m

    def level_combos(self) -> list[tuple[int, ...]]:
        """All level combinations in lexicographic order over (z_1,...,z_q)."""
        if self.q == 0:
            return [()]
        return list(itertools.product(*(range(1, m + 1) for m in self.qual_levels)))

    def denormalize(self, x) -> tuple[float, ...]:
        """Map normalized coordinates in [0,1]^p to physical units."""
        return tuple(lo + float(v) * (hi - lo) for v, (lo, hi) in zip(x, self.quant_bounds))

    def validate_point(self, point: "MixedPoint") -> None:
        if len(point.x) != self.p:
            raise ValidationError(f"point has {len(point.x)} quantitative coordinates, space has {self.p}")
        if len(point.z) != self.q:
            raise ValidationError(f"point has {len(point.z)} level indices, space has {self.q}")
        for k, v in enumerate(point.x):
            if not (-1e-12 <= v <= 1 + 1e-12):
                raise ValidationError(f"x[{k}]={v} outside the normalized unit interval")
        for h, (l, m) in enumerate(zip(point.z, self.qual_levels)):
            if not (1 <= l <= m):
                raise ValidationError(f"z[{h}]={l} outside 1..{m}")


@dataclass(frozen=True)
class MixedPoint:
    """One input: normalized quantitative part x, 1-based level indices z."""

    x: tuple[float, ...]
    z: tuple[int, ...] = ()


def point_arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """(n, p) normalized coordinates and (n, q) level indices of a non-empty point sequence."""
    return (np.array([pt.x for pt in points], dtype=float),
            np.array([pt.z for pt in points], dtype=int))


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Candidate inputs as (m, p) normalized coordinates ``x`` and (m, q)
    level indices ``z``, such as ``candidate_set``'s LHD points per level
    combination."""

    x: np.ndarray
    z: np.ndarray

    def point(self, i: int) -> MixedPoint:
        """Candidate i with Python float coordinates and int levels."""
        return MixedPoint(tuple(self.x[i].tolist()), tuple(self.z[i].tolist()))

    @cached_property
    def points(self) -> tuple[MixedPoint, ...]:
        return tuple(self.point(i) for i in range(len(self.x)))


def make_space(quant_bounds, qual_levels=()) -> DesignSpace:
    """Validate and build a DesignSpace from plain sequences."""
    bounds = tuple((float(lo), float(hi)) for lo, hi in quant_bounds)
    levels = tuple(int(m) for m in qual_levels)
    return DesignSpace(bounds, levels)


def _unit_lhd(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Latin hypercube in [0,1]^d: one uniform point per stratum."""
    out = np.empty((n, d))
    for j in range(d):
        out[:, j] = (rng.permutation(n) + rng.random(n)) / n
    return out


def candidate_set(space: DesignSpace, per_combo: int, seed: int) -> CandidateSet:
    """Independent per-combination LHDs, per_combo x M points in total.

    Combinations are enumerated lexicographically; each gets its own
    LHD of size ``per_combo`` drawn from a single seeded stream.
    """
    if per_combo < 1:
        raise ValidationError(f"candidate_set: per_combo must be >= 1, got {per_combo}")
    rng = np.random.default_rng(seed)
    combos = np.array(space.level_combos(), dtype=int).reshape(space.num_combos, space.q)
    x = np.concatenate([_unit_lhd(per_combo, space.p, rng) for _ in combos])
    return CandidateSet(x, np.repeat(combos, per_combo, axis=0))


def _balanced_combo_sample(space: DesignSpace, n: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """n level combinations with counts differing by at most one.

    When n < M the combinations present are sampled without replacement;
    the assignment order is shuffled so rows of the paired LHD are not
    correlated with the enumeration order.
    """
    combos = space.level_combos()
    m = len(combos)
    reps, rem = divmod(n, m)
    counts = np.full(m, reps, dtype=int)
    if rem:
        counts[rng.choice(m, size=rem, replace=False)] += 1
    assignment = [combos[i] for i in range(m) for _ in range(counts[i])]
    rng.shuffle(assignment)
    return assignment


def initial_design(space: DesignSpace, n0: int, seed: int) -> list[MixedPoint]:
    """Starting design: n0-point LHD paired with a nearly balanced sample
    of level combinations (counts differ by at most 1)."""
    if n0 < 2:
        raise ValidationError(f"initial_design: n0 must be >= 2, got {n0}")
    rng = np.random.default_rng(seed)
    grid = _unit_lhd(n0, space.p, rng)
    combos = _balanced_combo_sample(space, n0, rng)
    return [MixedPoint(tuple(row.tolist()), combo) for row, combo in zip(grid, combos)]

