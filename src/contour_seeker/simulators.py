"""Test functions and tabular simulators.

A simulator exposes a declared design space and a deterministic
``evaluate(point)`` returning the raw response at a (normalized)
MixedPoint.  Response transforms (identity / log) are applied by the
campaign at ingestion, never by a simulator: ``tabular_simulator`` loads
its table untransformed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .design_space import DesignSpace, MixedPoint, make_space
from .errors import EvaluationError, IngestionError, ValidationError


class Simulator(Protocol):
    space: DesignSpace
    name: str

    def evaluate(self, point: MixedPoint) -> float: ...


@dataclass(frozen=True)
class ResponseTransform:
    name: str

    def apply(self, value: float) -> float:
        if self.name == "identity":
            return float(value)
        if value <= 0:
            raise ValidationError(f"log transform requires a positive response, got {value}")
        return math.log(value)


def get_transform(name: str) -> ResponseTransform:
    if name not in ("identity", "log"):
        raise ValidationError(f"unknown response transform {name!r}")
    return ResponseTransform(name)


@dataclass(frozen=True)
class FunctionSimulator:
    """Deterministic closed-form test function over a declared space."""

    space: DesignSpace
    fn: Callable
    name: str

    def evaluate(self, point: MixedPoint) -> float:
        self.space.validate_point(point)
        return float(self.fn(self.space.denormalize(point.x), point.z))


def _example1(x, z):
    x1, = x
    if z[0] == 1:
        return 2.0 - math.cos(2.0 * math.pi * x1)
    if z[0] == 2:
        return 1.0 - math.cos(4.0 * math.pi * x1)
    return math.cos(2.0 * math.pi * x1)


def _example2(x, z):
    x1, x2 = x
    i = (x1 + x2 ** 2, x1 ** 2 + x2, x1 ** 2 + x2 ** 2)[z[0] - 1]
    g = (math.cos(x1) + math.cos(2.0 * x2),
         math.cos(2.0 * x1) + math.cos(x2),
         math.cos(2.0 * x1) + math.cos(2.0 * x2))[z[1] - 1]
    return i + g


def _example3(x, z):
    x1, x2, x3 = x
    i = (x1 + x2 ** 2 + x3, x1 ** 2 + x2 + x3, x3 + x1 + x2 ** 2)[z[0] - 1]
    g = (math.cos(x1) + math.cos(2.0 * x2) + math.cos(x3),
         math.cos(x1) + math.cos(2.0 * x2) + math.cos(x3),
         math.cos(2.0 * x1) + math.cos(x2) + math.cos(x3))[z[1] - 1]
    h = (math.sin(x1) + math.sin(2.0 * x2) + math.sin(x3),
         math.sin(x1) + math.sin(2.0 * x2) + math.sin(x3),
         math.sin(2.0 * x1) + math.sin(x2) + math.sin(x3))[z[2] - 1]
    return i + g + h


_BUILTINS = {
    "example1": (_example1, ((0.0, 1.0),), (3,)),
    "example2": (_example2, ((0.0, 1.0), (0.0, 1.0)), (3, 3)),
    "example3": (_example3, ((0.0, 1.0),) * 3, (3, 3, 3)),
}


def builtin_simulator(name: str) -> FunctionSimulator:
    """One of the three closed-form mixed-input test functions."""
    if name not in _BUILTINS:
        raise ValidationError(f"unknown builtin simulator {name!r}; choose from {sorted(_BUILTINS)}")
    fn, bounds, levels = _BUILTINS[name]
    return FunctionSimulator(make_space(bounds, levels), fn, name)


@dataclass(frozen=True, eq=False)
class TabularSimulator:
    """Nearest-grid-row lookup over an ingested table.

    Distance is Euclidean on normalized quantitative coordinates; the
    qualitative levels must match exactly.  Equidistant rows resolve to
    the smaller row index.
    """

    space: DesignSpace
    x_norm: np.ndarray   # (r, p)
    z: np.ndarray        # (r, q)
    y: np.ndarray        # (r,) responses, returned as stored
    name: str = "tabular"

    def evaluate(self, point: MixedPoint) -> float:
        self.space.validate_point(point)
        if self.space.q:
            match = np.all(self.z == np.array(point.z), axis=1)
        else:
            match = np.ones(len(self.y), dtype=bool)
        if not match.any():
            raise EvaluationError(f"no table rows for level combination {point.z}")
        rows = np.flatnonzero(match)
        d2 = np.sum((self.x_norm[rows] - np.array(point.x)) ** 2, axis=1)
        return float(self.y[rows[np.argmin(d2)]])


def read_table(path, space: DesignSpace, response_column: str | None = None,
               transform: str = "identity"):
    """Arrays of a CSV with columns x_1..x_p (physical units), z_1..z_q and,
    when ``response_column`` is given, a response.

    Returns (x_norm, z) or (x_norm, z, y), with y passed through the named
    transform.  Lines starting with '#' are ignored.  An unreadable file, a
    table without data rows, a missing column, a malformed cell, a level
    outside its range, or a response that is non-finite or rejected by the
    transform raises IngestionError, carrying the 1-based line number where
    there is one.
    """
    tr = get_transform(transform)
    try:
        with open(path, newline="") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                    if row and not row[0].lstrip().startswith("#")]
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read table ({exc.strerror})") from None
    if not rows:
        raise IngestionError(f"{path}: empty table", row=None)

    header = [c.strip() for c in rows[0][1]]
    wanted = ([f"x_{k + 1}" for k in range(space.p)] + [f"z_{h + 1}" for h in range(space.q)]
              + ([response_column] if response_column else []))
    try:
        cols = [header.index(c) for c in wanted]
    except ValueError as exc:
        raise IngestionError(f"{path}: missing column ({exc}); expected {wanted}", row=rows[0][0]) from None

    def bad(lineno, problem):
        return IngestionError(f"{path}: line {lineno}: {problem}", row=lineno)

    n = len(rows) - 1
    if n == 0:
        raise IngestionError(f"{path}: table has a header but no data rows", row=rows[0][0])
    x, z, y = np.empty((n, space.p)), np.empty((n, space.q), dtype=int), np.empty(n)
    for i, (lineno, row) in enumerate(rows[1:]):
        try:
            vals = [row[c] for c in cols]
            x[i] = [float(v) for v in vals[:space.p]]
            z[i] = [int(v) for v in vals[space.p:space.p + space.q]]
            if response_column:
                y[i] = tr.apply(float(vals[-1]))
        except (ValueError, IndexError, ValidationError) as exc:
            raise bad(lineno, exc) from None
        for h, (l, m) in enumerate(zip(z[i], space.qual_levels)):
            if not 1 <= l <= m:
                raise bad(lineno, f"z_{h + 1}={l} outside 1..{m}")
        if response_column and not math.isfinite(y[i]):
            raise bad(lineno, f"non-finite response {vals[-1]!r}")
    lo, hi = np.array(space.quant_bounds).T
    x_norm = (x - lo) / (hi - lo)
    return (x_norm, z, y) if response_column else (x_norm, z)


def tabular_simulator(path, space: DesignSpace, response_column: str = "y") -> TabularSimulator:
    """Ingest a CSV grid with columns x_1..x_p, z_1..z_q and a raw response.

    Lines starting with '#' are ignored.
    """
    x_norm, z, y = read_table(path, space, response_column)
    return TabularSimulator(space=space, x_norm=x_norm, z=z, y=y)
