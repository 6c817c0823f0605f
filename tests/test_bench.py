import ctypes
import functools
import glob
import json
import math
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import contour_seeker as cs
from contour_seeker import bench, ezgp
from contour_seeker.acquisition import AcquisitionContext, partition
from contour_seeker.design_space import point_arrays
from contour_seeker.engine import derive_seed
from contour_seeker.errors import IllConditionedModelError, MetricUndefinedError, ValidationError
from contour_seeker.traceio import params_from_doc, space_from_dict

QUICK_FIT = cs.FitConfig(n_starts=2, max_fev=300)


def blas_thread_counts() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy, by library path."""
    counts = {}
    for pkg in (np, scipy):
        for path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    counts[path] = getter()
    return counts


class Poisoned:
    """example1, except that evaluating ``poison`` divides by zero.

    Defined at module level so that bench worker processes can unpickle it.
    """

    def __init__(self, poison):
        self.sim = cs.builtin_simulator("example1")
        self.space, self.name, self.poison = self.sim.space, "poisoned", poison

    def evaluate(self, point):
        if point == self.poison:
            return 1.0 / 0.0
        return self.sim.evaluate(point)


class FaultAt:
    """example1, counting calls; call number ``at`` (0-based) raises or returns NaN."""

    def __init__(self, at=None, fault="raise"):
        self.sim = cs.builtin_simulator("example1")
        self.space, self.name = self.sim.space, "fault-at"
        self.at, self.fault, self.calls = at, fault, 0

    def evaluate(self, point):
        call, self.calls = self.calls, self.calls + 1
        if call == self.at:
            if self.fault == "raise":
                raise RuntimeError("injected fault")
            return float("nan")
        return self.sim.evaluate(point)


FAULT_GRID = cs.BenchConfig(
    strategies=(cs.Strategy("rcc", delta=0.05), cs.Strategy("one_shot")),
    levels=(-0.9, 0.5), budgets=(7, 8), n0=6, replicates=2,
    per_combo=10, ref_per_combo=60, eps=0.05, seed=5, fit=QUICK_FIT,
)


def campaign_calls(cfg):
    """(row keys, simulator calls) of every campaign, in the order the grid runs them."""
    out = []
    for rep in range(cfg.replicates):
        for s in cfg.strategies:
            if s.kind == "one_shot":
                out += [([(s.kind, level, n, rep) for level in cfg.levels], n) for n in cfg.budgets]
            else:
                out += [([(s.kind, level, n, rep) for n in cfg.budgets], max(cfg.budgets))
                        for level in cfg.levels]
    return out


def run_with_healthy_reference(sim, cfg):
    healthy, real_reference = cs.builtin_simulator("example1"), bench.reference_contour
    with mock.patch.object(bench, "reference_contour",
                           lambda _sim, *args: real_reference(healthy, *args)):
        return cs.replicate_benchmark(sim, cfg, workers=1)


@functools.cache
def fault_free_rows():
    sim = FaultAt()
    rows = run_with_healthy_reference(sim, FAULT_GRID).rows
    assert sim.calls == sum(calls for _keys, calls in campaign_calls(FAULT_GRID))
    assert not any(r.failed for r in rows)
    return rows


def row_key(r):
    return r.strategy, r.level, r.budget, r.replicate


class TestReferenceContour:
    def test_example1_band_nonempty(self, ex1_sim):
        ref = cs.reference_contour(ex1_sim, ex1_sim.space, -0.9, 0.05, 200, seed=42)
        assert len(ref.truths) > 0
        assert np.all(np.abs(ref.truths - (-0.9)) <= 0.05)

    def test_level_above_maximum_is_undefined(self, ex1_sim):
        with pytest.raises(MetricUndefinedError):
            cs.reference_contour(ex1_sim, ex1_sim.space, 5.0, 0.05, 50, seed=0)

    def test_huge_eps_keeps_everything(self, ex1_sim):
        ref = cs.reference_contour(ex1_sim, ex1_sim.space, 0.0, 1e9, 40, seed=1)
        assert len(ref.truths) == 40 * 3

    def test_eps_must_be_positive(self, ex1_sim):
        with pytest.raises(ValidationError):
            cs.reference_contour(ex1_sim, ex1_sim.space, 0.0, 0.0, 10, seed=0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_eps_must_be_finite(self, ex1_sim, eps):
        def fn(x, z):
            pytest.fail("the simulator ran before eps was checked")

        sim = cs.FunctionSimulator(ex1_sim.space, fn, "guard")
        with pytest.raises(ValidationError, match="finite"):
            cs.reference_contour(sim, sim.space, 0.0, eps, 10, seed=0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "raise"])
    def test_failed_truth_is_evaluation_error(self, ex1_sim, bad):
        # level 2 fails; a non-finite truth used to be dropped without a word
        def fn(x, z):
            if z[0] != 2:
                return ex1_sim.fn(x, z)
            return 1.0 / 0.0 if bad == "raise" else float(bad)

        sim = cs.FunctionSimulator(ex1_sim.space, fn, "half-broken")
        with pytest.raises(cs.EvaluationError, match="z=\\(2,\\)") as err:
            cs.reference_contour(sim, sim.space, 0.0, 1e9, 20, seed=1)
        if bad == "raise":
            assert isinstance(err.value.__cause__, ZeroDivisionError)


class TestMc0:
    def test_hand_arithmetic(self):
        # predictions (1.1, 1.8) against truths (1.0, 2.0) average to 0.15
        sp = cs.make_space([(0, 1)], [2])
        pts = (cs.MixedPoint((0.2,), (1,)), cs.MixedPoint((0.8,), (2,)))
        data = cs.Dataset(pts, np.array([1.1, 1.8]))
        params = cs.EzGpParams(0.0, np.array([1.0, 0.5]), np.array([4.0]),
                               (np.array([[4.0, 4.0]]),))
        model = cs.condition(params, data, sp, jitter=1e-12)
        ref = cs.ReferenceContour(*point_arrays(pts), np.array([1.0, 2.0]), level=1.5, eps=0.6)
        assert cs.m_c0(model, ref) == pytest.approx(0.15, abs=1e-7)

    def test_interpolating_model_scores_zero(self, ex1_sim):
        pts = tuple(cs.initial_design(ex1_sim.space, 6, seed=9))
        truths = np.array([ex1_sim.evaluate(pt) for pt in pts])
        data = cs.Dataset(pts, truths)
        params = cs.EzGpParams(0.0, np.array([1.0, 0.5]), np.array([6.0]),
                               (np.array([[6.0, 6.0, 6.0]]),))
        model = cs.condition(params, data, ex1_sim.space)
        ref = cs.ReferenceContour(*point_arrays(pts), truths, level=0.0, eps=1e9)
        assert cs.m_c0(model, ref) <= 1e-6


@pytest.fixture(scope="module")
def result():
    sim = cs.builtin_simulator("example1")
    cfg = cs.BenchConfig(
        strategies=(cs.Strategy("rcc", delta=0.05), cs.Strategy("ecl", delta=0.05),
                    cs.Strategy("one_shot")),
        levels=(-0.9,),
        budgets=(11,),
        n0=9,
        replicates=2,
        per_combo=30,
        ref_per_combo=60,
        eps=0.05,
        seed=17,
        fit=QUICK_FIT,
    )
    return cs.replicate_benchmark(sim, cfg)


class TestReplicateBenchmark:
    def test_row_count(self, result):
        assert len(result.rows) == 3 * 1 * 1 * 2

    def test_one_shot_efficiency_is_one(self, result):
        rows = [s for s in result.summary if s.strategy == "one_shot"]
        assert rows and all(s.rel_efficiency == pytest.approx(1.0) for s in rows)

    def test_paired_initial_designs(self, result):
        assert result.fairness_checked == 2  # ecl vs rcc in each replicate
        assert result.fairness_violations == 0

    def test_summary_shape(self, result):
        assert len(result.summary) == 3
        for s in result.summary:
            assert s.n_ok == 2 and s.n_failed == 0 and s.valid

    def test_metric_positive(self, result):
        for r in result.rows:
            assert not r.failed
            assert r.m_c0 >= 0.0

    def test_failure_accounting(self):
        import math

        sim = cs.builtin_simulator("example1")

        class FailsAfterReference:
            """Healthy while the reference contour is built, dead afterwards."""

            space = sim.space
            name = "flaky"

            def __init__(self, budget):
                self.calls = 0
                self.budget = budget

            def evaluate(self, point):
                self.calls += 1
                if self.calls > self.budget:
                    raise cs.EvaluationError("simulator budget exhausted")
                return sim.evaluate(point)

        cfg = cs.BenchConfig(
            strategies=(cs.Strategy("rcc", delta=0.05),),
            levels=(-0.9,), budgets=(11,), n0=9, replicates=2,
            per_combo=10, ref_per_combo=60, eps=0.05, seed=3, fit=QUICK_FIT,
        )
        flaky = FailsAfterReference(60 * 3)  # exactly the reference evaluations
        result = cs.replicate_benchmark(flaky, cfg)
        assert all(r.failed for r in result.rows)
        summary = result.summary[0]
        assert summary.n_failed == 2 and summary.n_ok == 0
        assert not summary.valid
        assert math.isnan(summary.mean_m_c0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_simulator_keeps_the_grid(self, workers):
        # the simulator divides by zero at the point replicate 1 picks first,
        # after its starting design and first fit
        sim = cs.builtin_simulator("example1")
        cfg = cs.BenchConfig(
            strategies=(cs.Strategy("rcc", delta=0.05),),
            levels=(-0.9,), budgets=(10, 11), n0=9, replicates=2,
            per_combo=10, ref_per_combo=60, eps=0.05, seed=3, fit=QUICK_FIT,
        )
        first_step = cs.run_adaptive(sim, cs.CampaignConfig(
            space=sim.space, strategy=cfg.strategies[0], level=-0.9, n0=9, total_runs=10,
            per_combo=10, seed=derive_seed(cfg.seed, bench._TAG_REPLICATE, 1), fit=QUICK_FIT))
        poisoned = Poisoned(first_step.records[0].point)
        result = cs.replicate_benchmark(poisoned, cfg, workers=workers)
        assert [(r.replicate, r.budget, r.failed) for r in result.rows] == \
               [(0, 10, False), (0, 11, False), (1, 10, True), (1, 11, True)]
        assert all("ZeroDivisionError" in r.error and "simulator failed at n=9" in r.error
                   for r in result.rows if r.failed)
        assert all(math.isfinite(r.m_c0) for r in result.rows if not r.failed)
        assert [(s.budget, s.n_ok, s.n_failed) for s in result.summary] == [(10, 1, 1), (11, 1, 1)]

    @settings(max_examples=8)
    @given(st.integers(0, sum(calls for _keys, calls in campaign_calls(FAULT_GRID)) - 1),
           st.sampled_from(["raise", "nan"]))
    def test_fault_at_any_call_fails_only_its_campaign(self, at, fault):
        cfg, campaigns = FAULT_GRID, campaign_calls(FAULT_GRID)
        ends = np.cumsum([calls for _keys, calls in campaigns])
        hit = set(campaigns[int(np.searchsorted(ends, at, side="right"))][0])
        result = run_with_healthy_reference(FaultAt(at, fault), cfg)

        assert sorted(map(row_key, result.rows)) == sorted(
            (s.kind, level, n, rep) for s in cfg.strategies for level in cfg.levels
            for n in cfg.budgets for rep in range(cfg.replicates))
        assert {row_key(r) for r in result.rows if r.failed} == hit
        healthy = {row_key(r): r for r in fault_free_rows()}
        for r in result.rows:
            if row_key(r) not in hit:
                assert replace(r, wall_time_s=0.0) == replace(healthy[row_key(r)], wall_time_s=0.0)

    def test_nonfinite_responses_keep_the_grid(self, monkeypatch):
        sim = cs.builtin_simulator("example1")
        # level 1 has no finite response, and every starting design visits it
        blind = cs.FunctionSimulator(
            sim.space, lambda x, z: float("nan") if z[0] == 1 else sim.fn(x, z), "blind")
        # a non-finite truth is an error, so the reference comes from the healthy function
        real_reference = bench.reference_contour
        monkeypatch.setattr(bench, "reference_contour",
                            lambda _sim, *args: real_reference(sim, *args))
        cfg = cs.BenchConfig(
            strategies=(cs.Strategy("rcc", delta=0.05), cs.Strategy("one_shot")),
            levels=(0.5,), budgets=(11,), n0=9, replicates=2,
            per_combo=10, ref_per_combo=60, eps=0.05, seed=3, fit=QUICK_FIT,
        )
        result = cs.replicate_benchmark(blind, cfg)
        assert len(result.rows) == 4
        assert all(r.failed and "starting design" in r.error for r in result.rows)
        assert [s.valid for s in result.summary] == [False, False]


VERIFY_BAND = Path(__file__).resolve().parent.parent / "configs" / "verify_band.json"


def per_draw_coverage(space, truth, level, alpha, draws, per_combo, seed, n_train, record=None):
    """``coverage_check`` one draw at a time through ``_posterior`` and
    ``_predictive`` with no leading axis, each draw's normals and uniforms
    taken from the two streams one row at a time: (hits, skipped,
    violations).  Appends each conditioned draw's (means, sds) to
    ``record`` when given."""
    grid = cs.candidate_set(space, per_combo, derive_seed(seed, 0))
    n_grid = len(grid.x)
    gram = ezgp.cross_covariance(truth, grid.x, grid.z, grid.x, grid.z)
    chol = np.tril(ezgp._factor_gram(gram)[0])
    ctx = AcquisitionContext(contour_level=level, n=n_train, num_combos=space.num_combos, alpha=alpha, delta=1.0)
    hits = skipped = violations = 0
    path_rng, train_rng = np.random.default_rng(derive_seed(seed, 1)), np.random.default_rng(derive_seed(seed, 2))
    for _ in range(draws):
        path = truth.mu + chol @ path_rng.standard_normal(n_grid)
        train = np.argpartition(train_rng.random(n_grid), n_train - 1)[:n_train]
        try:
            post = ezgp._posterior(gram[np.ix_(train, train)], path[train])
        except IllConditionedModelError:
            skipped += 1
            continue
        means, sds = ezgp._predictive(post, truth.total_variance, gram[train])
        if record is not None:
            record.append((means, sds))
        part = partition(means, sds, ctx)
        h_min = float(np.min(np.abs(path - level)))
        if float(np.min(part.lb)) - 1e-12 <= h_min <= part.min_ub + 1e-12:
            hits += 1
            sup_sd = float(np.max(sds[part.restricted]))
            if abs(float(np.min(np.abs(means - level))) - h_min) > math.sqrt(ctx.beta) * sup_sd + 1e-12:
                violations += 1
    return hits, skipped, violations


def verify_band_inputs():
    doc = json.loads(VERIFY_BAND.read_text())
    return (space_from_dict(doc["space"]), params_from_doc(doc["params"]),
            {key: doc[key] for key in ("level", "alpha", "draws", "per_combo", "seed", "n_train")})


def rough_inputs():
    """A wiggly path conditioned on two points at alpha 0.5, where some draws miss the band."""
    rate = 200.0
    params = cs.EzGpParams(0.0, np.array([1.0, 0.5]), np.array([rate]), (np.full((1, 3), rate),))
    return (cs.make_space([(0, 1)], [3]), params,
            {"level": -3.0, "alpha": 0.5, "draws": 30, "per_combo": 20, "seed": 0, "n_train": 2})


def blocked_coverage(monkeypatch, space, truth, settings):
    """``coverage_check`` with the (means, sds) of each conditioned draw, taken
    from its block's ``partition`` call."""
    record, real = [], bench.partition

    def recording(means, sds, ctx):
        assert means.ndim == 2
        record.extend(zip(means, sds))
        return real(means, sds, ctx)

    monkeypatch.setattr(bench, "partition", recording)
    return cs.coverage_check(cs.VerifyConfig(space, truth, **settings)), record


def assert_equals_per_draw(res, record, space, truth, settings):
    oracle_record = []
    hits, skipped, violations = per_draw_coverage(space, truth, **settings, record=oracle_record)
    assert (res.hits, res.skipped, res.theorem1_violations) == (hits, skipped, violations)
    assert res.theorem1_checked == hits and res.draws == settings["draws"]
    assert len(record) == len(oracle_record) == settings["draws"] - skipped
    for (means, sds), (ref_means, ref_sds) in zip(record, oracle_record):
        assert np.array_equal(means, ref_means) and np.array_equal(sds, ref_sds)


class TestBlockedDraws:
    """Draws run in blocks, with the results and the bits of one draw at a time."""

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (2, 0), (1, 3)], ids=["one", "two-blocks", "block+3"])
    def test_block_boundaries_equal_per_draw(self, monkeypatch, blocks, extra):
        space, truth, settings = verify_band_inputs()
        block = bench._draws_per_block(settings["n_train"], space.num_combos * settings["per_combo"])
        assert block > 1
        settings.update(draws=blocks * block + extra)
        res, record = blocked_coverage(monkeypatch, space, truth, settings)
        assert_equals_per_draw(res, record, space, truth, settings)

    def test_missed_draws_equal_per_draw(self, monkeypatch):
        space, truth, settings = rough_inputs()
        res, record = blocked_coverage(monkeypatch, space, truth, settings)
        assert 0 < res.hits < res.draws
        assert_equals_per_draw(res, record, space, truth, settings)

    def test_skipped_draws_equal_per_draw(self, monkeypatch):
        # the draws whose first two training points covary weakly fail at every rung
        real = ezgp._try_cholesky

        def try_cholesky(phi, jitter):
            return None if len(phi) == 6 and phi[0, 1] < 0.5 else real(phi, jitter)

        monkeypatch.setattr(ezgp, "_try_cholesky", try_cholesky)
        space, truth, settings = verify_band_inputs()
        settings.update(draws=25, n_train=6)
        res, record = blocked_coverage(monkeypatch, space, truth, settings)
        assert 0 < res.skipped < res.draws
        assert_equals_per_draw(res, record, space, truth, settings)

    def test_draws_do_not_depend_on_blocking(self, monkeypatch):
        # rough_inputs' default block holds every draw, and 31 draws fill no block of 3
        space, truth, settings = rough_inputs()

        def run(block, draws):
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(bench, "_draws_per_block", lambda n_train, n_grid: block)
                res, record = blocked_coverage(patch, space, truth, {**settings, "draws": draws})
            return (res.hits, res.skipped, res.theorem1_violations), record

        def assert_same_draws(record, ref):
            assert len(record) == len(ref)
            for (means, sds), (ref_means, ref_sds) in zip(record, ref):
                assert np.array_equal(means, ref_means) and np.array_equal(sds, ref_sds)

        counts, record = run(None, 31)
        assert 0 < counts[0] < 31 and counts[1] == 0
        for block in (1, 3):
            blocked_counts, blocked = run(block, 31)
            assert blocked_counts == counts
            assert_same_draws(blocked, record)
        for block in (None, 3):
            longer_counts, longer = run(block, 38)
            assert counts[0] <= longer_counts[0] <= counts[0] + 7
            assert_same_draws(longer[:31], record)

    def test_block_size_follows_the_input(self):
        cap = ezgp._STACK_ELEMENTS
        assert bench._draws_per_block(10, 150) == cap // 1500
        assert bench._draws_per_block(10, cap // 10) == 1
        assert bench._draws_per_block(10, cap) == 1  # one draw over the cap still runs

    def test_peak_memory_near_per_draw(self):
        # a block holds a few (draws, n_train, n_grid) stacks; one block of
        # every draw would hold 500 of each
        space, truth, settings = verify_band_inputs()
        peaks, cfg = [], cs.VerifyConfig(space, truth, **settings)
        for run in (functools.partial(per_draw_coverage, space, truth, **settings),
                    functools.partial(cs.coverage_check, cfg)):
            run()  # caches and lazy imports before tracing
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1_000_000


class TestCoverage:
    def truth(self, space):
        return cs.EzGpParams(
            mu=0.0,
            sigma2=np.array([1.0, 0.5]),
            theta0=np.array([5.0]),
            theta=(np.array([[5.0, 5.0, 5.0]]),),
        )

    def test_full_grid_conditioning_always_hits(self):
        space = cs.make_space([(0, 1)], [3])
        res = cs.coverage_check(cs.VerifyConfig(space, self.truth(space), level=0.0, alpha=0.1,
                                                draws=5, per_combo=8, seed=2, n_train=24))
        assert res.hits == res.draws
        assert res.theorem1_violations == 0

    def test_moderate_alpha_coverage(self):
        space = cs.make_space([(0, 1)], [3])
        res = cs.coverage_check(cs.VerifyConfig(space, self.truth(space), level=0.0, alpha=0.5,
                                                draws=40, per_combo=15, seed=7, n_train=8))
        assert res.coverage >= 0.5
        assert res.theorem1_violations == 0
        assert res.target == pytest.approx(0.5)

    def test_level_below_path_minimum_still_valid(self):
        # the guarantee holds for any level, even an unattainable one
        space = cs.make_space([(0, 1)], [3])
        res = cs.coverage_check(cs.VerifyConfig(space, self.truth(space), level=-1e6, alpha=0.5,
                                                draws=30, per_combo=10, seed=11, n_train=6))
        assert res.coverage >= 0.8
        assert res.theorem1_violations == 0

    def test_ill_conditioned_draws_are_skipped(self, monkeypatch):
        # a training factorization that fails at every jitter rung skips its
        # draw; here the draws whose first two training points covary weakly
        real, failed = ezgp._try_cholesky, set()

        def try_cholesky(phi, jitter):
            if len(phi) == 6 and phi[0, 1] < 0.5:
                failed.add(phi.tobytes())
                return None
            return real(phi, jitter)

        monkeypatch.setattr(ezgp, "_try_cholesky", try_cholesky)
        space = cs.make_space([(0, 1)], [3])
        res = cs.coverage_check(cs.VerifyConfig(space, self.truth(space), level=0.0, alpha=0.5,
                                                draws=20, per_combo=10, seed=11, n_train=6))
        assert 0 < len(failed) < res.draws
        assert res.skipped == len(failed)
        assert 0 < res.hits <= res.draws - res.skipped

    def test_draws_equal_condition_and_predict_batch(self, monkeypatch):
        # each draw conditions on rows of the grid Gram; that must give the
        # bits of a model conditioned on the same training points
        space = cs.make_space([(0, 1)] * 3, [3, 3, 3])
        truth = cs.EzGpParams(0.0, np.array([1.0, 0.3, 0.2, 0.4]), np.array([2.0, 3.0, 1.5]),
                              tuple(np.full((3, 3), r) for r in (1.0, 2.0, 0.5)))
        seed, per_combo, n_train, draws = 4, 2, 10, 5
        responses, predictions = [], []
        real_posterior, real_partition = bench._posterior, bench.partition

        def posterior(phi, y, jitter=None):
            responses.extend(y)  # one row per draw of the block
            return real_posterior(phi, y, jitter)

        def partition(means, sds, ctx):
            predictions.extend(zip(means, sds))
            return real_partition(means, sds, ctx)

        monkeypatch.setattr(bench, "_posterior", posterior)
        monkeypatch.setattr(bench, "partition", partition)
        res = cs.coverage_check(cs.VerifyConfig(space, truth, level=0.0, alpha=0.1, draws=draws,
                                                per_combo=per_combo, seed=seed, n_train=n_train))
        assert res.skipped == 0 and len(predictions) == draws
        grid = cs.candidate_set(space, per_combo, derive_seed(seed, 0))
        train_rng = np.random.default_rng(derive_seed(seed, 2))
        for y, (means, sds) in zip(responses, predictions):
            train = np.argpartition(train_rng.random(len(grid.x)), n_train - 1)[:n_train]
            model = cs.condition(truth, cs.Dataset(tuple(grid.point(i) for i in train), y), space)
            ref_means, ref_sds = cs.predict_batch(model, grid.x, grid.z)
            assert np.array_equal(means, ref_means) and np.array_equal(sds, ref_sds)

    def test_validation(self):
        # VerifyConfig holds every check; coverage_check holds none of its own
        space = cs.make_space([(0, 1)], [3])
        with pytest.raises(ValidationError):
            cs.VerifyConfig(space, self.truth(space), 0.0, 0.1, draws=0, per_combo=5, seed=0)
        with pytest.raises(ValidationError):
            cs.VerifyConfig(space, self.truth(space), 0.0, 0.1, draws=5, per_combo=5, seed=0, n_train=1)
        with pytest.raises(ValidationError):
            cs.VerifyConfig(space, self.truth(space), 0.0, 0.1, draws=5, per_combo=2, seed=0, n_train=100)
        for bad, match in (({"level": float("nan")}, "contour_level must be finite"),
                           ({"alpha": 1.5}, "alpha must be in"), ({"per_combo": 0}, "per_combo must be >= 1"),
                           ({"seed": -1}, "seed must be >= 0")):
            with pytest.raises(ValidationError, match=match):
                cs.VerifyConfig(space, self.truth(space), **{"level": 0.0, **bad})


class TestWorkerCap:
    def test_env_cap(self, monkeypatch):
        from contour_seeker.bench import resolve_workers
        monkeypatch.setenv("CONTOUR_SEEKER_THREADS", "2")
        assert resolve_workers(8) == 2
        monkeypatch.delenv("CONTOUR_SEEKER_THREADS")
        assert resolve_workers(8) == 8

    def test_env_cap_invalid(self, monkeypatch):
        from contour_seeker.bench import resolve_workers
        monkeypatch.setenv("CONTOUR_SEEKER_THREADS", "lots")
        with pytest.raises(ValidationError):
            resolve_workers(4)

    @pytest.mark.parametrize("requested", [0, -4])
    def test_below_one_is_invalid(self, requested):
        # a count below 1 used to run serially, as one worker does
        from contour_seeker.bench import resolve_workers
        with pytest.raises(ValidationError, match="parallel workers must be >= 1"):
            resolve_workers(requested)

    def test_workers_run_blas_on_one_thread(self):
        # the initializer replicate_benchmark gives its pool
        with ProcessPoolExecutor(max_workers=1, initializer=ezgp._set_blas_threads, initargs=(1,)) as pool:
            counts = pool.submit(blas_thread_counts).result(timeout=60)
        assert all(count == 1 for count in counts.values())

    def test_fit_runs_blas_on_one_thread(self, monkeypatch):
        if not blas_thread_counts():
            pytest.skip("no OpenBLAS thread-count symbols found")
        sim = cs.builtin_simulator("example1")
        points = cs.initial_design(sim.space, 9, seed=5)
        data = cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))
        original, seen = ezgp.minimize, []

        def recording(fun, x0, **kwargs):
            seen.append(blas_thread_counts())
            return original(fun, x0, **kwargs)

        def raising(fun, x0, **kwargs):
            seen.append(blas_thread_counts())
            raise RuntimeError("optimizer failed")

        restore = ezgp._set_blas_threads(2)
        try:
            monkeypatch.setattr(ezgp, "minimize", recording)
            cs.fit(data, sim.space, QUICK_FIT)
            assert set(blas_thread_counts().values()) == {2}
            monkeypatch.setattr(ezgp, "minimize", raising)
            with pytest.raises(RuntimeError):
                cs.fit(data, sim.space, QUICK_FIT)
            assert set(blas_thread_counts().values()) == {2}
        finally:
            ezgp._set_blas_threads(restore)
        assert len(seen) == 3
        assert all(set(counts.values()) == {1} for counts in seen)

    def test_parallel_matches_serial(self):
        sim = cs.builtin_simulator("example1")
        cfg = cs.BenchConfig(
            strategies=(cs.Strategy("rcc", delta=0.05),),
            levels=(-0.9,), budgets=(10,), n0=9, replicates=2,
            per_combo=10, ref_per_combo=60, eps=0.05, seed=23, fit=QUICK_FIT,
        )
        serial = cs.replicate_benchmark(sim, cfg, workers=1)
        parallel = cs.replicate_benchmark(sim, cfg, workers=2)
        assert [(r.strategy, r.replicate, r.m_c0) for r in serial.rows] == \
               [(r.strategy, r.replicate, r.m_c0) for r in parallel.rows]
