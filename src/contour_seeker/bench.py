"""Benchmark harness, contour accuracy metric, and coverage verification.

``replicate_benchmark`` reruns every (strategy, budget, level) cell over
seeded replicates with paired randomness: within a replicate all
strategies share the initial design and candidate streams, so observed
differences come from the selection rules alone.  ``coverage_check``
verifies the confidence-interval guarantees of the band construction by
Monte Carlo on GP paths sampled from known hyperparameters.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .acquisition import AcquisitionContext, partition
from .design_space import DesignSpace, candidate_set
from .engine import CampaignConfig, Strategy, _evaluate, derive_seed, run_adaptive, run_one_shot
from .errors import ContourSeekerError, MetricUndefinedError, ValidationError
# condition is not called here; it stays bound because perfbench/tracing.py rebinds bench.condition
from .ezgp import (_STACK_ELEMENTS, Dataset, EzGpParams, FitConfig, FittedModel, _factor_gram, _posterior,
                   _predictive, _set_blas_threads, condition, cross_covariance, predict_batch)
from .simulators import Simulator, get_transform

# Seed tags local to the benchmark layer.
_TAG_REFERENCE = 90
_TAG_REPLICATE = 100
_TAG_ONESHOT = 7


@dataclass(frozen=True)
class ReferenceContour:
    """Near-contour reference points, as (r, p) coordinates and (r, q) levels,
    with their true (modeling-scale) values."""

    x: np.ndarray
    z: np.ndarray
    truths: np.ndarray
    level: float
    eps: float


def reference_contour(sim: Simulator, space: DesignSpace, level: float, eps: float,
                      per_combo: int, seed: int, transform: str = "identity") -> ReferenceContour:
    """Evaluate a dense candidate grid and keep points within eps of the level.

    Raises MetricUndefinedError when the band captures nothing; widen eps
    (or move the level) in that case.  A failed evaluation is an EvaluationError.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"reference_contour: eps must be finite and positive, got {eps}")
    tr = get_transform(transform)
    level_eff = tr.apply(level)
    cand = candidate_set(space, per_combo, seed)
    truths = np.array([_evaluate(sim, pt, tr)[1] for pt in cand.points])
    keep = np.abs(truths - level_eff) <= eps
    if not keep.any():
        raise MetricUndefinedError(
            f"no reference points within {eps} of level {level}; use a larger eps")
    return ReferenceContour(cand.x[keep], cand.z[keep], truths[keep], level_eff, eps)


def m_c0(model: FittedModel, ref: ReferenceContour) -> float:
    """Mean absolute gap between true values and predictive means on the
    reference set; zero iff the surrogate is exact there."""
    means, _ = predict_batch(model, ref.x, ref.z)
    return float(np.mean(np.abs(ref.truths - means)))


@dataclass(frozen=True)
class BenchConfig:
    strategies: tuple[Strategy, ...]
    levels: tuple[float, ...]
    budgets: tuple[int, ...]
    n0: int
    replicates: int = 10
    per_combo: int = 100
    ref_per_combo: int = 200
    eps: float = 0.05
    seed: int = 0
    fit: FitConfig = FitConfig()
    transform: str = "identity"

    def __post_init__(self):
        if not self.strategies or not self.levels or not self.budgets:
            raise ValidationError("benchmark grid must have strategies, levels, and budgets")
        for name in ("replicates", "per_combo", "ref_per_combo"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValidationError(f"eps must be finite and positive, got {self.eps}")
        for level in self.levels:
            CampaignConfig.check_level(level)
        for s in self.strategies:
            for n in self.budgets:
                CampaignConfig.check_budget(s.kind, n if s.kind == "one_shot" else self.n0, n)


@dataclass
class BenchRow:
    strategy: str
    level: float
    budget: int
    replicate: int
    m_c0: float
    wall_time_s: float
    failed: bool = False
    error: str = ""


@dataclass
class SummaryRow:
    strategy: str
    level: float
    budget: int
    mean_m_c0: float
    rel_efficiency: float
    n_ok: int
    n_failed: int
    valid: bool


@dataclass
class BenchResult:
    rows: list[BenchRow]
    summary: list[SummaryRow]
    fairness_checked: int = 0
    fairness_violations: int = 0


def _initial_fingerprint(data: Dataset, n0: int):
    """The first n0 design points and responses, as comparable lists."""
    return data.x[:n0].tolist(), data.z[:n0].tolist(), data.responses[:n0].tolist()


def _fail_rows(strategy: Strategy, level: float, budgets, replicate: int, exc) -> list[BenchRow]:
    return [BenchRow(strategy.kind, level, n, replicate, float("nan"), float("nan"),
                     failed=True, error=str(exc)) for n in budgets]


def _run_replicate(sim: Simulator, cfg: BenchConfig, replicate: int, refs: dict):
    """All cells of one replicate; returns (rows, initial-design fingerprints)."""
    rep_seed = derive_seed(cfg.seed, _TAG_REPLICATE, replicate)
    rows: list[BenchRow] = []
    fingerprints = []
    n_max = max(cfg.budgets)

    for strategy in cfg.strategies:
        if strategy.kind == "one_shot":
            for n in cfg.budgets:
                try:
                    trace = run_one_shot(sim, sim.space, n, derive_seed(rep_seed, _TAG_ONESHOT, n),
                                         cfg.fit, cfg.transform)
                except ContourSeekerError as exc:
                    for level in cfg.levels:
                        rows.extend(_fail_rows(strategy, level, [n], replicate, exc))
                    continue
                for level in cfg.levels:
                    rows.append(BenchRow(strategy.kind, level, n, replicate,
                                         m_c0(trace.model, refs[level]),
                                         trace.checkpoint_times[n]))
            continue

        for level in cfg.levels:
            run_cfg = CampaignConfig(
                space=sim.space, strategy=strategy, level=level, n0=cfg.n0,
                total_runs=n_max, per_combo=cfg.per_combo, seed=rep_seed,
                fit=cfg.fit, transform=cfg.transform, checkpoint_sizes=tuple(cfg.budgets),
            )
            try:
                trace = run_adaptive(sim, run_cfg)
            except ContourSeekerError as exc:
                rows.extend(_fail_rows(strategy, level, cfg.budgets, replicate, exc))
                continue
            fingerprints.append((strategy.kind, level,
                                 _initial_fingerprint(trace.dataset, cfg.n0)))
            for n in cfg.budgets:
                rows.append(BenchRow(strategy.kind, level, n, replicate,
                                     m_c0(trace.checkpoints[n], refs[level]),
                                     trace.checkpoint_times[n]))
    return rows, fingerprints


def resolve_workers(requested: int) -> int:
    """Check a requested worker count (>= 1) and apply the
    CONTOUR_SEEKER_THREADS cap to it."""
    if requested < 1:
        raise ValidationError(f"parallel workers must be >= 1, got {requested}")
    cap = os.environ.get("CONTOUR_SEEKER_THREADS")
    if cap:
        try:
            requested = min(requested, max(int(cap), 1))
        except ValueError:
            raise ValidationError(f"CONTOUR_SEEKER_THREADS must be an integer, got {cap!r}")
    return requested


def replicate_benchmark(sim: Simulator, cfg: BenchConfig, workers: int = 1) -> BenchResult:
    """Run the full grid; replicates may run in parallel processes, each
    with single-threaded BLAS.

    Cells with more than 20% failed replicates are marked invalid in the
    summary.  Relative efficiency is the one-shot mean divided by the
    strategy mean for the same (level, budget) cell.
    """
    workers = resolve_workers(workers)
    refs = {level: reference_contour(sim, sim.space, level, cfg.eps, cfg.ref_per_combo,
                                     derive_seed(cfg.seed, _TAG_REFERENCE, i), cfg.transform)
            for i, level in enumerate(cfg.levels)}

    if workers > 1 and cfg.replicates > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import is ~20 ms of process start

        # each worker runs the bundled OpenBLAS on one thread: at its default of one thread per
        # CPU, several workers' threads oversubscribe the CPUs and each small BLAS call slows
        # several-fold
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads, initargs=(1,)) as pool:
            outcomes = list(pool.map(_run_replicate,
                                     [sim] * cfg.replicates, [cfg] * cfg.replicates,
                                     range(cfg.replicates), [refs] * cfg.replicates))
    else:
        outcomes = [_run_replicate(sim, cfg, r, refs) for r in range(cfg.replicates)]

    rows: list[BenchRow] = []
    fairness_checked = 0
    fairness_violations = 0
    for rep_rows, fingerprints in outcomes:
        rows.extend(rep_rows)
        if fingerprints:
            baseline = fingerprints[0][2]
            for _kind, _level, fp in fingerprints[1:]:
                fairness_checked += 1
                if fp != baseline:
                    fairness_violations += 1

    summary = _summarize(rows, cfg)
    return BenchResult(rows, summary, fairness_checked, fairness_violations)


def _summarize(rows: list[BenchRow], cfg: BenchConfig) -> list[SummaryRow]:
    def cell(kind, level, n):
        return [r for r in rows if r.strategy == kind and r.level == level and r.budget == n]

    one_shot_mean = {}
    if any(s.kind == "one_shot" for s in cfg.strategies):
        for level in cfg.levels:
            for n in cfg.budgets:
                ok = [r.m_c0 for r in cell("one_shot", level, n) if not r.failed]
                one_shot_mean[(level, n)] = float(np.mean(ok)) if ok else float("nan")

    summary = []
    for strategy in cfg.strategies:
        for level in cfg.levels:
            for n in cfg.budgets:
                rows_cell = cell(strategy.kind, level, n)
                ok = [r.m_c0 for r in rows_cell if not r.failed]
                n_failed = len(rows_cell) - len(ok)
                mean = float(np.mean(ok)) if ok else float("nan")
                base = one_shot_mean.get((level, n), float("nan"))
                rel = base / mean if ok and math.isfinite(base) and mean > 0 else float("nan")
                valid = bool(rows_cell) and n_failed <= 0.2 * len(rows_cell)
                summary.append(SummaryRow(strategy.kind, level, n, mean, rel, len(ok), n_failed, valid))
    return summary


@dataclass
class CoverageResult:
    """Monte-Carlo check of the band guarantees under known hyperparameters."""

    draws: int
    hits: int
    skipped: int
    coverage: float
    target: float
    theorem1_checked: int
    theorem1_violations: int


def _draws_per_block(n_train: int, n_grid: int) -> int:
    """Draws conditioned together: as many as keep the block's (draws, n_train,
    n_grid) cross-covariance stack within ``_STACK_ELEMENTS``, and at least one."""
    return max(_STACK_ELEMENTS // (n_train * n_grid), 1)


@dataclass(frozen=True)
class VerifyConfig:
    """The settings of ``coverage_check``, checked on construction: ``params``
    pass ``EzGpParams.validate`` against ``space``; ``level`` finite and
    ``alpha`` in (0, 1) (``AcquisitionContext``'s rule); ``draws`` and
    ``per_combo`` >= 1; ``n_train`` in [2, ``per_combo`` * combinations];
    ``seed`` >= 0."""

    space: DesignSpace
    params: EzGpParams
    level: float
    alpha: float = 0.1
    draws: int = 500
    per_combo: int = 50
    n_train: int = 10
    seed: int = 0

    def __post_init__(self):
        self.params.validate(self.space)
        AcquisitionContext(self.level, 1, self.space.num_combos, alpha=self.alpha)
        for name in ("draws", "per_combo"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        n_grid = self.per_combo * self.space.num_combos
        if not 2 <= self.n_train <= n_grid:
            raise ValidationError(f"n_train must be in [2, per_combo * combinations = {n_grid}], got {self.n_train}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def coverage_check(cfg: VerifyConfig) -> CoverageResult:
    """Sample GP paths on a finite grid, condition on a small random subset
    with the true hyperparameters, and count how often the minimum of
    |Y - level| falls inside [min lb, min ub].

    Each draw conditions on rows of the grid Gram that samples the paths;
    a draw whose training Gram cannot be factorized counts as skipped.
    Paths come from one stream, ``default_rng(derive_seed(seed, 1))``, and
    training subsets from another, ``default_rng(derive_seed(seed, 2))``:
    draw i takes row i of the standard normals and, as its subset, the
    ``n_train`` smallest of row i of the uniforms (a uniform subset).  Both
    streams fill rows in draw order, so a draw does not depend on the block
    size or on ``draws``.  Draws run in blocks (``_draws_per_block``): a
    block samples its paths with one stacked product and is conditioned and
    predicted in one ``_posterior`` and one ``_predictive`` call, with the
    bits of one draw at a time.

    Also verifies, on every covered draw, the bound
    |min |mean - level| - min |Y - level|| <= sqrt(beta) * sup sd over the
    adaptive search region {lb <= min ub} (``RegionPartition.region``).
    """
    true_params, level, draws, n_train = cfg.params, cfg.level, cfg.draws, cfg.n_train
    grid = candidate_set(cfg.space, cfg.per_combo, derive_seed(cfg.seed, 0))
    n_grid = len(grid.x)

    gram = cross_covariance(true_params, grid.x, grid.z, grid.x, grid.z)
    chol = np.tril(_factor_gram(gram)[0])
    ctx = AcquisitionContext(contour_level=level, n=n_train, num_combos=cfg.space.num_combos,
                             alpha=cfg.alpha, delta=1.0)
    root_beta = math.sqrt(ctx.beta)

    hits = skipped = violations = 0
    block = _draws_per_block(n_train, n_grid)
    path_rng, train_rng = (np.random.default_rng(derive_seed(cfg.seed, tag)) for tag in (1, 2))
    for first in range(0, draws, block):
        size = min(block, draws - first)
        paths = true_params.mu + np.matmul(chol, path_rng.standard_normal((size, n_grid))[:, :, None])[:, :, 0]
        train = np.argpartition(train_rng.random((size, n_grid)), n_train - 1, axis=1)[:, :n_train]
        post = _posterior(gram[train[:, :, None], train[:, None, :]], np.take_along_axis(paths, train, axis=1))
        factored = ~np.isnan(post.jitter)
        skipped += size - int(np.count_nonzero(factored))
        if not factored.any():
            continue
        means, sds = _predictive(post, true_params.total_variance, gram[train])
        means, sds, paths = means[factored], sds[factored], paths[factored]
        part = partition(means, sds, ctx)
        h_min = np.min(np.abs(paths - level), axis=1)
        covered = (np.min(part.lb, axis=1) - 1e-12 <= h_min) & (h_min <= part.min_ub + 1e-12)
        sup_sd = np.max(sds, axis=1, where=part.region, initial=-np.inf)
        gap = np.abs(np.min(np.abs(means - level), axis=1) - h_min)
        hits += int(np.count_nonzero(covered))
        violations += int(np.count_nonzero(covered & (gap > root_beta * sup_sd + 1e-12)))

    return CoverageResult(
        draws=draws,
        hits=hits,
        skipped=skipped,
        coverage=hits / draws,
        target=1.0 - cfg.alpha,
        theorem1_checked=hits,
        theorem1_violations=violations,
    )
