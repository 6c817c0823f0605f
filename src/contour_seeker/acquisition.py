"""Acquisition criteria for contour search over a finite candidate set.

Includes the contour expected improvement, the Bernoulli-entropy locator,
the contour lower-confidence-bound, confidence-band region partitioning
with the per-region selectors, the restricted-region distance criterion,
and the two-finalist arbitration rule.  All selectors break ties toward
the smallest candidate index so that results are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import SelectionError, ValidationError

_PROB_CLIP = 1e-12


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


def _ei_array(means: np.ndarray, sds: np.ndarray, level: float, ei_alpha: float) -> np.ndarray:
    out = np.zeros_like(means)
    pos = sds > 0
    if not pos.any():
        return out
    mu, sd = means[pos], sds[pos]
    eps = ei_alpha * sd
    # u may overflow to +/-inf for extreme |mu - level| / sd; the improvement
    # tends to 0 there, so non-finite intermediates are mapped to 0
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = (level - mu - eps) / sd
        u2 = (level - mu + eps) / sd
        val = ((eps ** 2 - (mu - level) ** 2 - sd ** 2) * (norm.cdf(u2) - norm.cdf(u1))
               + sd ** 2 * (u2 * norm.pdf(u2) - u1 * norm.pdf(u1))
               + 2.0 * (mu - level) * sd * (norm.pdf(u2) - norm.pdf(u1)))
    val = np.where(np.isfinite(val), val, 0.0)
    out[pos] = np.maximum(val, 0.0)
    return out


def ei_contour(mean: float, sd: float, ctx: AcquisitionContext) -> float:
    """Expected improvement toward the contour level (closed form).

    The improvement of a response y is eps^2 - min{(y - a)^2, eps^2}
    with eps = ei_alpha * sd; zero when sd is zero.
    """
    return float(_ei_array(np.array([mean]), np.array([sd]), ctx.contour_level, ctx.ei_alpha)[0])


def _ecl_array(means: np.ndarray, sds: np.ndarray, level: float) -> np.ndarray:
    out = np.zeros_like(means)
    pos = sds > 0
    if not pos.any():
        return out
    with np.errstate(over="ignore"):
        p = norm.cdf((means[pos] - level) / sds[pos])
    p = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    out[pos] = -(1.0 - p) * np.log1p(-p) - p * np.log(p)
    return out


def ecl(mean: float, sd: float, level: float) -> float:
    """Bernoulli entropy of the exceedance probability; in [0, log 2].

    Maximal where the surrogate is most uncertain about which side of
    the contour the point lies on; zero when sd is zero.
    """
    return float(_ecl_array(np.array([mean]), np.array([sd]), level)[0])


def lcb_contour(mean: float, sd: float, ctx: AcquisitionContext) -> float:
    """|mean - a| - rho * sd; smaller is better."""
    return abs(mean - ctx.contour_level) - ctx.rho * sd


def bounds(mean: float, sd: float, ctx: AcquisitionContext) -> tuple[float, float]:
    """Confidence bounds on the distance |Y - a|: |mean - a| -/+ sqrt(beta) sd."""
    dist = abs(mean - ctx.contour_level)
    half = math.sqrt(ctx.beta) * sd
    return dist - half, dist + half


def _bound_arrays(means, sds, ctx) -> tuple[np.ndarray, np.ndarray]:
    dist = np.abs(means - ctx.contour_level)
    half = math.sqrt(ctx.beta) * sds
    return dist - half, dist + half


@dataclass(frozen=True)
class RegionPartition:
    """Candidate split by whether the level lies outside the confidence band.

    ``a1`` holds indices whose lower bound is positive (level outside the
    band), ``a2`` the rest; ``a1_min`` is the subset of a1 whose lower
    bound does not exceed the global minimum upper bound ``min_ub``.
    """

    a1: np.ndarray
    a2: np.ndarray
    a1_min: np.ndarray
    min_ub: float
    lb: np.ndarray
    ub: np.ndarray


def partition(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext) -> RegionPartition:
    if len(means) == 0:
        raise ValidationError("partition: empty prediction arrays")
    lb, ub = _bound_arrays(means, sds, ctx)
    idx = np.arange(len(means))
    in_a1 = lb > 0
    min_ub = float(np.min(ub))
    a1 = idx[in_a1]
    return RegionPartition(
        a1=a1,
        a2=idx[~in_a1],
        a1_min=a1[lb[a1] <= min_ub],
        min_ub=min_ub,
        lb=lb,
        ub=ub,
    )


def select_a1(sds: np.ndarray, part: RegionPartition) -> int | None:
    """Largest predictive sd inside the restricted exploration region."""
    if len(part.a1_min) == 0:
        return None
    return int(part.a1_min[np.argmax(sds[part.a1_min])])


def select_a2(means: np.ndarray, sds: np.ndarray, part: RegionPartition, ctx: AcquisitionContext,
              inner: str = "ecl") -> int | None:
    """Best inner criterion (entropy or expected improvement) inside the band region."""
    if len(part.a2) == 0:
        return None
    if inner == "ecl":
        vals = _ecl_array(means[part.a2], sds[part.a2], ctx.contour_level)
    elif inner == "ei":
        vals = _ei_array(means[part.a2], sds[part.a2], ctx.contour_level, ctx.ei_alpha)
    else:
        raise ValidationError(f"unknown inner criterion {inner!r}")
    return int(part.a2[np.argmax(vals)])


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


def _score(mean: float, sd: float, ctx: AcquisitionContext) -> float:
    return float(sd / max(ctx.delta, abs(mean - ctx.contour_level)))


def _finalist(means, sds, i: int, ctx: AcquisitionContext, acq_value: float) -> Finalist:
    mean, sd = float(means[i]), float(sds[i])
    return Finalist(i, mean, sd, acq_value, _score(mean, sd, ctx))


def arbitrate(means: np.ndarray, sds: np.ndarray, i1: int | None, i2: int | None,
              ctx: AcquisitionContext, part: RegionPartition | None = None,
              inner: str = "ecl") -> SelectionReport:
    """Pick between the two region finalists by sd / max(delta, |mean - a|).

    Ties go to the band-region finalist; a single finalist is chosen with
    region tag "fallback".
    """
    if i1 is None and i2 is None:
        raise SelectionError("arbitrate: no finalist from either region")
    f1 = _finalist(means, sds, i1, ctx, float(sds[i1])) if i1 is not None else None
    f2 = None
    if i2 is not None:
        mean2, sd2 = float(means[i2]), float(sds[i2])
        acq2 = ecl(mean2, sd2, ctx.contour_level) if inner == "ecl" else ei_contour(mean2, sd2, ctx)
        f2 = _finalist(means, sds, i2, ctx, acq2)

    if f1 is not None and f2 is not None:
        chosen, region = (f1.index, "A1") if f1.score > f2.score else (f2.index, "A2")
    elif f1 is not None:
        chosen, region = f1.index, "fallback"
    else:
        chosen, region = f2.index, "fallback"

    sizes = (len(part.a1), len(part.a2), len(part.a1_min)) if part is not None else (0, 0, 0)
    min_ub = part.min_ub if part is not None else float("nan")
    return SelectionReport(chosen, region, f1, f2, sizes[0], sizes[1], sizes[2], min_ub)


def select_rcc(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext,
               inner: str = "ecl") -> SelectionReport:
    """Full region-based cooperative step: partition, per-region picks, arbitration."""
    part = partition(means, sds, ctx)
    i1 = select_a1(sds, part)
    i2 = select_a2(means, sds, part, ctx, inner=inner)
    return arbitrate(means, sds, i1, i2, ctx, part, inner=inner)


def select_arsd(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext) -> int:
    """Distance criterion restricted to the adaptive region {lb <= min ub}.

    The restriction is never empty: the candidate attaining the minimum
    upper bound has lb <= ub = min_ub.
    """
    if len(means) == 0:
        raise ValidationError("select_arsd: empty prediction arrays")
    lb, ub = _bound_arrays(means, sds, ctx)
    restricted = np.flatnonzero(lb <= np.min(ub))
    crit = np.abs(means[restricted] - ctx.contour_level) - ctx.rho * sds[restricted]
    return int(restricted[np.argmin(crit)])


def select_global(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext, kind: str) -> int:
    """Unrestricted argmax (EI, ECL) or argmin (LCB) over all candidates."""
    if len(means) == 0:
        raise ValidationError("select_global: empty prediction arrays")
    if kind == "ei":
        return int(np.argmax(_ei_array(means, sds, ctx.contour_level, ctx.ei_alpha)))
    if kind == "ecl":
        return int(np.argmax(_ecl_array(means, sds, ctx.contour_level)))
    if kind == "lcb":
        return int(np.argmin(np.abs(means - ctx.contour_level) - ctx.rho * sds))
    raise ValidationError(f"unknown global criterion {kind!r}")
