"""Sequential campaign driver, its one-shot baseline and ``suggest``'s step.

A campaign starts from a balanced initial design, then repeats: fit the
surrogate, draw a fresh per-combination candidate LHD, score candidates
with the configured strategy, evaluate the chosen input, append.  All
randomness is derived from the campaign seed with fixed tags, so two
strategies sharing a seed see identical initial designs and candidate
streams and differ only at the selection step.  ``derive_seed`` makes each
tagged seed with numpy's SeedSequence.

``run_adaptive`` and ``suggest_next`` share one selection step.  It skips
candidates that coincide with a design point (the next fit would reject
them), and its ``chosen_index`` is a row of the caller's candidate set.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .acquisition import AcquisitionContext, SelectionReport, select_arsd, select_global, select_rcc
from .design_space import CandidateSet, DesignSpace, MixedPoint, candidate_set, initial_design
from .errors import CampaignError, ContourSeekerError, EvaluationError, ValidationError
from .ezgp import Dataset, FitConfig, FittedModel, coincident_rows, fit, params_to_dict, predict_batch
from .simulators import ResponseTransform, Simulator, get_transform

STRATEGY_KINDS = ("rcc", "rcc_ei", "arsd", "ecl", "ei", "lcb", "one_shot")

# Seed-derivation tags; fixed so that replays and paired strategies agree.
_TAG_INIT = 0
_TAG_FIT = 1
_TAG_CAND = 2

_DELTA_RANGE_FRACTION = 0.05


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministic child seed for a tagged sub-stream of a campaign:
    ``np.random.SeedSequence([seed, tag + 1 ..., number of tags]).generate_state(1)[0]``.

    Tags are offset and length-suffixed because SeedSequence ignores
    trailing zero entropy words.  ``seed`` and each tag must be a
    non-negative int or numpy integer, else a ValidationError.
    """
    for word in (seed, *tags):
        if isinstance(word, bool) or not isinstance(word, (int, np.integer)) or word < 0:
            raise ValidationError(f"seed and tags must be non-negative integers, got {word!r}")
    return int(np.random.SeedSequence([seed, *(t + 1 for t in tags), len(tags)]).generate_state(1)[0])


@dataclass(frozen=True)
class Strategy:
    """Selection rule plus its tuning constants, checked on construction:
    ``rho`` finite and >= 0, ``delta`` None or finite and > 0, ``alpha`` in
    (0, 1) and ``ei_alpha`` finite and > 0 (``AcquisitionContext``'s rule).
    ``delta`` of None resolves per iteration to 5% of the observed
    response range (on the modeling scale).
    """

    kind: str
    rho: float = AcquisitionContext.rho
    delta: float | None = None
    alpha: float = AcquisitionContext.alpha
    ei_alpha: float = AcquisitionContext.ei_alpha

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValidationError(f"unknown strategy {self.kind!r}; choose from {STRATEGY_KINDS}")
        AcquisitionContext(0.0, 1, 1, alpha=self.alpha, delta=1.0 if self.delta is None else self.delta,
                           rho=self.rho, ei_alpha=self.ei_alpha)


@dataclass(frozen=True)
class CampaignConfig:
    space: DesignSpace
    strategy: Strategy
    level: float                      # contour level on the raw response scale
    n0: int
    total_runs: int                   # budget N including the initial design
    per_combo: int = 100
    seed: int = 0
    fit: FitConfig = FitConfig()
    transform: str = "identity"
    checkpoint_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n0 < 2:
            raise ValidationError(f"n0 must be >= 2, got {self.n0}")
        self.check_level(self.level)
        self.check_budget(self.strategy.kind, self.n0, self.total_runs)
        if self.per_combo < 1:
            raise ValidationError(f"per_combo must be >= 1, got {self.per_combo}")
        get_transform(self.transform)
        for s in self.checkpoint_sizes:
            if not self.n0 <= s <= self.total_runs:
                raise ValidationError(f"checkpoint size {s} outside [{self.n0}, {self.total_runs}]")

    @staticmethod
    def check_level(level: float) -> None:
        """The level rule: a contour level is finite."""
        if not math.isfinite(level):
            raise ValidationError(f"level must be finite, got {level}")

    @staticmethod
    def check_budget(kind: str, n0: int, total_runs: int) -> None:
        """The budget rule: N > n0 for an adaptive strategy, N == n0 for
        ``one_shot``, whose budget is its starting design."""
        one_shot = kind == "one_shot"
        if total_runs != n0 if one_shot else total_runs <= n0:
            raise ValidationError(f"strategy {kind!r} needs N {'==' if one_shot else '>'} n0, "
                                  f"got N={total_runs}, n0={n0}")


@dataclass
class IterationRecord:
    iteration: int
    n_before: int
    candidate_seed: int
    point: MixedPoint
    y_raw: float
    y_model: float
    report: SelectionReport
    beta: float
    delta: float
    nll: float
    params: dict
    duration_s: float
    note: str = ""


@dataclass
class CampaignTrace:
    """Complete audit log of one campaign run."""

    config: CampaignConfig
    records: list[IterationRecord]
    dataset: Dataset
    raw_responses: list[float]
    model: FittedModel | None
    checkpoints: dict[int, FittedModel] = field(default_factory=dict)
    checkpoint_times: dict[int, float] = field(default_factory=dict)
    aborted: bool = False
    error: str | None = None


def default_delta(responses: np.ndarray) -> float:
    span = float(np.max(responses) - np.min(responses))
    return max(_DELTA_RANGE_FRACTION * span, 1e-8)


def select_point(means: np.ndarray, sds: np.ndarray, ctx: AcquisitionContext,
                 strategy: Strategy) -> SelectionReport:
    """Dispatch one selection step; returns a report with the chosen index."""
    if strategy.kind in ("rcc", "rcc_ei"):
        return select_rcc(means, sds, ctx, inner="ei" if strategy.kind == "rcc_ei" else "ecl")
    if strategy.kind == "one_shot":
        raise ValidationError("strategy 'one_shot' has no selection step")
    if strategy.kind == "arsd":
        idx = select_arsd(means, sds, ctx)
    else:
        idx = select_global(means, sds, ctx, strategy.kind)
    return SelectionReport(idx, "global", None, None, 0, 0, 0, float("nan"))


def _evaluate(sim: Simulator, point: MixedPoint, tr: ResponseTransform) -> tuple[float, float]:
    """(raw, modeling-scale) response at one input, as Python floats; a simulator
    exception (as the cause), a non-numeric or non-finite response, or one the
    transform rejects is an EvaluationError."""
    try:
        y = float(sim.evaluate(point))
    except Exception as exc:
        raise EvaluationError(f"simulator raised {exc!r} at x={point.x}, z={point.z}") from exc
    if not math.isfinite(y):
        raise EvaluationError(f"simulator returned {y!r} at x={point.x}, z={point.z}")
    try:
        return y, tr.apply(y)
    except ValidationError as exc:
        raise EvaluationError(f"{exc} at x={point.x}, z={point.z}") from exc


def _evaluate_design(sim: Simulator, points, tr: ResponseTransform) -> tuple[list[float], Dataset]:
    """Raw responses and dataset of a starting design; a failure here aborts
    before any trace exists."""
    try:
        raw, y_model = zip(*(_evaluate(sim, pt, tr) for pt in points))
    except EvaluationError as exc:
        raise CampaignError(f"simulator failed on the starting design: {exc}") from exc
    return list(raw), Dataset(tuple(points), np.array(y_model), transform=tr.name)


def _select(model: FittedModel, cand: CandidateSet, strategy: Strategy,
            level_eff: float) -> tuple[SelectionReport, float, float, int]:
    """``(report, beta, delta, skipped)`` of the selection step at the
    modeling-scale level; the report's indices are rows of ``cand``.
    Candidates that all coincide with design points are a CampaignError."""
    data = model.data
    keep = np.flatnonzero(~coincident_rows(cand.x, cand.z, data.x, data.z))
    if len(keep) == 0:
        raise CampaignError("all candidates duplicate existing design points")
    means, sds = predict_batch(model, cand.x[keep], cand.z[keep])
    ctx = AcquisitionContext(level_eff, len(data), model.space.num_combos, alpha=strategy.alpha,
                             delta=default_delta(data.responses) if strategy.delta is None else strategy.delta,
                             rho=strategy.rho, ei_alpha=strategy.ei_alpha)
    report = select_point(means, sds, ctx, strategy)

    def remap(f):
        return None if f is None else replace(f, index=int(keep[f.index]))

    report = replace(report, chosen_index=int(keep[report.chosen_index]), a1_finalist=remap(report.a1_finalist),
                     a2_finalist=remap(report.a2_finalist))
    return report, ctx.beta, ctx.delta, len(cand.x) - len(keep)


def _abort(trace: CampaignTrace, error: str) -> CampaignError:
    """Mark the trace aborted with ``error``; the CampaignError to raise."""
    trace.aborted, trace.error = True, error
    return CampaignError(error, trace)


def _fit_with_retry(data: Dataset, space: DesignSpace, cfg: FitConfig, warm) -> FittedModel:
    try:
        return fit(data, space, cfg, warm_start=warm)
    except ContourSeekerError:
        retry = replace(cfg, seed=cfg.seed + 1, jitter_scale=cfg.jitter_scale * 100.0)
        return fit(data, space, retry, warm_start=warm)


def run_adaptive(sim: Simulator, cfg: CampaignConfig) -> CampaignTrace:
    """Execute one adaptive campaign; raises CampaignError with the partial
    trace attached if the simulator or a retried fit fails (no trace when
    the starting design fails)."""
    tr = get_transform(cfg.transform)
    # only a selection step needs the level on the modeling scale
    level_eff = tr.apply(cfg.level) if cfg.n0 < cfg.total_runs else None
    space = cfg.space
    t0 = time.perf_counter()

    points = initial_design(space, cfg.n0, derive_seed(cfg.seed, _TAG_INIT))
    raw, data = _evaluate_design(sim, points, tr)

    trace = CampaignTrace(cfg, [], data, raw, None)
    checkpoints = set(cfg.checkpoint_sizes)
    warm = None
    iteration = 0
    while True:
        n = len(data)
        it_start = time.perf_counter()
        try:
            model = _fit_with_retry(data, space, replace(cfg.fit, seed=derive_seed(cfg.seed, _TAG_FIT, n)), warm)
        except ContourSeekerError as exc:
            raise _abort(trace, f"fit failed at n={n}: {exc}") from exc
        warm, trace.model = model.params, model
        if n in checkpoints or n == cfg.total_runs:
            trace.checkpoints[n] = model
            trace.checkpoint_times[n] = time.perf_counter() - t0
        if n >= cfg.total_runs:
            break

        cand_seed = derive_seed(cfg.seed, _TAG_CAND, n)
        cand = candidate_set(space, cfg.per_combo, cand_seed)
        try:
            report, beta, delta, skipped = _select(model, cand, cfg.strategy, level_eff)
        except CampaignError as exc:
            raise _abort(trace, f"{exc} at n={n}") from exc
        chosen = cand.point(report.chosen_index)
        try:
            y_raw, y_model = _evaluate(sim, chosen, tr)
        except EvaluationError as exc:
            raise _abort(trace, f"simulator failed at n={n}: {exc}") from exc
        trace.dataset = data = data.extended(chosen, y_model)
        trace.raw_responses.append(y_raw)
        trace.records.append(IterationRecord(
            iteration=iteration,
            n_before=n,
            candidate_seed=cand_seed,
            point=chosen,
            y_raw=y_raw,
            y_model=y_model,
            report=report,
            beta=beta,
            delta=delta,
            nll=model.nll,
            params=params_to_dict(model.params),
            duration_s=time.perf_counter() - it_start,
            note=f"skipped {skipped} duplicate candidates" if skipped else "",
        ))
        iteration += 1
    return trace


def run_one_shot(sim: Simulator, space: DesignSpace, n: int, seed: int,
                 fit_config: FitConfig = FitConfig(), transform: str = "identity") -> CampaignTrace:
    """A campaign whose budget is its starting design: one evaluation pass,
    one fit, no adaptive records, and a level that is never used."""
    return run_adaptive(sim, CampaignConfig(space, Strategy("one_shot"), 0.0, n0=n, total_runs=n,
                                            per_combo=1, seed=seed, fit=fit_config, transform=transform))


def suggest_next(model: FittedModel, candidates: CandidateSet, strategy: Strategy,
                 level: float) -> tuple[MixedPoint, SelectionReport]:
    """Stateless selection step for externally driven loops: the campaign's
    step, so candidates that coincide with a design point are skipped and
    ``chosen_index`` is a row of ``candidates``.

    ``level`` is on the raw response scale and is mapped through the
    model's response transform.  An empty candidate set is a
    ValidationError; one of design points only is a CampaignError.
    """
    if len(candidates.x) == 0:
        raise ValidationError("suggest_next: empty candidate set")
    report = _select(model, candidates, strategy, get_transform(model.data.transform).apply(level))[0]
    return candidates.point(report.chosen_index), report
