"""Acquisition criteria for contour search over a finite candidate set.

Every criterion is scored by one array function, ``_criterion``, the only
place a criterion name is read: the Bernoulli-entropy locator (``ecl``),
the contour expected improvement (``ei``) and the contour
lower-confidence-bound (``lcb``), each as scores where larger is better.
``partition`` computes the confidence bounds on |Y - a| once and holds the
adaptive search region {lb <= min ub}; the region-based cooperative step
(RCC), the restricted-region distance criterion (ARSD) and the
coverage check all read that partition.  All selectors break ties toward
the smallest candidate index so that results are deterministic.  The
standard normal cdf is ``scipy.special.ndtr``, taken from its compiled
module ``scipy.special._special_ufuncs`` without the ``scipy.special``
package import, and the pdf is ``scipy.stats.norm``'s expression for it,
so the scores carry ``scipy.stats.norm``'s bits without importing
``scipy.stats``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .ezgp import _scipy_extension

ndtr, = _scipy_extension("special", "_special_ufuncs", "ndtr")

_PROB_CLIP = 1e-12
_RCC_INNER = ("ecl", "ei")
_SQRT_2PI = math.sqrt(2 * math.pi)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density, in ``scipy.stats.norm.pdf``'s own expression."""
    return np.exp(-x**2/2.0) / _SQRT_2PI


def beta_n(n: int, num_combos: int, alpha: float) -> float:
    """Confidence-band width multiplier 2 log(pi^2 n^2 M / (6 alpha)).

    Strictly increasing in n and M, strictly decreasing in alpha.
    """
    if n < 1:
        raise ValidationError(f"beta_n: n must be >= 1, got {n}")
    if num_combos < 1:
        raise ValidationError(f"beta_n: combination count must be >= 1, got {num_combos}")
    if not 0 < alpha < 1:
        raise ValidationError(f"beta_n: alpha must be in (0, 1), got {alpha}")
    return 2.0 * math.log(math.pi ** 2 * n ** 2 * num_combos / (6.0 * alpha))


@dataclass(frozen=True)
class AcquisitionContext:
    """Everything the criteria need beyond (mean, sd) of each candidate.

    ``delta`` arbitrates between the two region finalists; ``rho`` tunes
    the confidence-bound criteria; ``ei_alpha`` sets the improvement
    band half-width in predictive-sd units.
    """

    contour_level: float
    n: int
    num_combos: int
    alpha: float = 0.05
    delta: float = 0.05
    rho: float = 2.0
    ei_alpha: float = 1.96

    def __post_init__(self):
        for name in ("contour_level", "delta", "rho", "ei_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.rho < 0:
            raise ValidationError(f"rho must be >= 0, got {self.rho}")
        if self.ei_alpha <= 0:
            raise ValidationError(f"ei_alpha must be positive, got {self.ei_alpha}")
        self.beta  # validates n, num_combos, alpha

    @property
    def beta(self) -> float:
        return beta_n(self.n, self.num_combos, self.alpha)


def _criterion(kind: str, means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext) -> np.ndarray:
    """Scores of criterion ``kind`` ("ecl", "ei" or "lcb"); larger is better.

    ``lcb`` scores are the negated distance bound |mean - a| - rho sd.
    ``ecl`` and ``ei`` are zero where sd is zero.
    """
    level = ctx.contour_level
    if kind == "lcb":
        return -(np.abs(means - level) - ctx.rho * sds)
    if kind not in _RCC_INNER:
        raise ValidationError(f"unknown criterion {kind!r}; choose from ('ecl', 'ei', 'lcb')")
    out = np.zeros(len(means))
    pos = sds > 0
    if not pos.any():
        return out
    mu, sd = means[pos], sds[pos]
    if kind == "ecl":
        with np.errstate(over="ignore"):
            p = ndtr((mu - level) / sd)
        p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
        out[pos] = -(1.0 - p) * np.log1p(-p) - p * np.log(p)
        return out
    eps = ctx.ei_alpha * sd
    # u may overflow to +/-inf for extreme |mu - level| / sd; the improvement
    # tends to 0 there, so non-finite intermediates are mapped to 0
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = (level - mu - eps) / sd
        u2 = (level - mu + eps) / sd
        pdf1, pdf2 = _norm_pdf(u1), _norm_pdf(u2)
        val = ((eps ** 2 - (mu - level) ** 2 - sd ** 2) * (ndtr(u2) - ndtr(u1))
               + sd ** 2 * (u2 * pdf2 - u1 * pdf1)
               + 2.0 * (mu - level) * sd * (pdf2 - pdf1))
    out[pos] = np.maximum(np.where(np.isfinite(val), val, 0.0), 0.0)
    return out


@dataclass(frozen=True)
class RegionPartition:
    """Candidates split by the confidence bounds lb, ub on |Y - a|.

    ``a1`` holds indices whose lower bound is positive (level outside the
    band), ``a2`` the rest.  ``restricted`` is the adaptive search region
    {lb <= min_ub}, ``min_ub`` the global minimum upper bound; it contains
    all of a2, and ``a1_min`` is its part in a1.  Index arrays ascend and
    are computed on first use.

    A 2-D partition holds one candidate set per row: ``min_ub`` is then one
    minimum per row and ``region`` the row-wise mask of the search region;
    the index arrays are for one candidate set only.
    """

    lb: np.ndarray
    ub: np.ndarray

    @cached_property
    def min_ub(self) -> float | np.ndarray:
        least = np.min(self.ub, axis=-1)
        return float(least) if self.ub.ndim == 1 else least

    @cached_property
    def region(self) -> np.ndarray:
        return self.lb <= np.expand_dims(self.min_ub, -1)

    @cached_property
    def a1(self) -> np.ndarray:
        return np.flatnonzero(self.lb > 0)

    @cached_property
    def a2(self) -> np.ndarray:
        return np.flatnonzero(~(self.lb > 0))

    @cached_property
    def restricted(self) -> np.ndarray:
        return np.flatnonzero(self.region)

    @cached_property
    def a1_min(self) -> np.ndarray:
        return self.restricted[self.lb[self.restricted] > 0]


def partition(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext) -> RegionPartition:
    """The bounds of one candidate set, or of one set per row of 2-D arrays."""
    if np.size(means) == 0:
        raise ValidationError("partition: empty prediction arrays")
    dist = np.abs(means - ctx.contour_level)
    half = math.sqrt(ctx.beta) * sds
    return RegionPartition(dist - half, dist + half)


@dataclass(frozen=True)
class Finalist:
    index: int
    mean: float
    sd: float
    acq_value: float
    score: float


@dataclass(frozen=True)
class SelectionReport:
    """Audit record of one selection step (region sizes, both finalists)."""

    chosen_index: int
    region: str  # "A1" | "A2" | "fallback" | "global"
    a1_finalist: Finalist | None
    a2_finalist: Finalist | None
    a1_size: int
    a2_size: int
    a1_min_size: int
    min_ub: float


def _finalist(means, sds, i: int, ctx: AcquisitionContext, acq_value: float) -> Finalist:
    mean, sd = float(means[i]), float(sds[i])
    return Finalist(i, mean, sd, acq_value, float(sd / max(ctx.delta, abs(mean - ctx.contour_level))))


def select_rcc(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext,
               inner: str = "ecl") -> SelectionReport:
    """The paper's region-based cooperative step.

    The confidence bounds split the candidates into A1 (lb > 0) and the
    band region A2.  The A1 finalist has the largest sd in A1's part of the
    search region {lb <= min ub}; the A2 finalist is the best ``inner``
    criterion (``ecl`` or ``ei``) over A2.  Of the two, the larger
    sd / max(delta, |mean - a|) is chosen, ties going to A2; a lone
    finalist is chosen with region tag "fallback".  One always exists: the
    candidate with the least upper bound is in the search region, so A1's
    part of it is empty only when A2 is not.
    """
    part = partition(means, sds, ctx)
    if inner not in _RCC_INNER:
        raise ValidationError(f"unknown inner criterion {inner!r}; choose from {_RCC_INNER}")
    f1 = f2 = None
    if len(part.a1_min):
        i1 = int(part.a1_min[np.argmax(sds[part.a1_min])])
        f1 = _finalist(means, sds, i1, ctx, float(sds[i1]))
    if len(part.a2):
        acq = _criterion(inner, means[part.a2], sds[part.a2], ctx)
        k = int(np.argmax(acq))
        f2 = _finalist(means, sds, int(part.a2[k]), ctx, float(acq[k]))
    if f1 is not None and f2 is not None:
        chosen, region = (f1.index, "A1") if f1.score > f2.score else (f2.index, "A2")
    else:
        chosen, region = (f1 or f2).index, "fallback"
    return SelectionReport(chosen, region, f1, f2, len(part.a1), len(part.a2), len(part.a1_min), part.min_ub)


def select_arsd(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext) -> int:
    """LCB restricted to the adaptive region {lb <= min ub}.

    The restriction is never empty: the candidate attaining the minimum
    upper bound has lb <= ub = min_ub.  When sqrt(beta) >= rho (at the
    default rho = 2, for every alpha <= 0.22) it holds ``select_global``'s
    LCB pick k: with d = |mean - a| - rho sd, lb_k <= d_k <= d_j <= ub_j.
    """
    region = partition(means, sds, ctx).restricted
    return int(region[np.argmax(_criterion("lcb", means[region], sds[region], ctx))])


def select_global(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext, kind: str) -> int:
    """Unrestricted best of criterion ``kind`` (EI, ECL or LCB) over all candidates."""
    if len(means) == 0:
        raise ValidationError("select_global: empty prediction arrays")
    return int(np.argmax(_criterion(kind, means, sds, ctx)))
