import json
from dataclasses import replace

import numpy as np
import pytest

import contour_seeker as cs
from contour_seeker.design_space import point_arrays
from contour_seeker.engine import derive_seed, select_point
from contour_seeker.errors import CampaignError, ValidationError
from contour_seeker.ezgp import DUPLICATE_TOL, coincident, coincident_rows, condition
from contour_seeker.traceio import params_from_doc, read_csv, save_trace

from conftest import Prediction as P, arrays, normalize


def quick_cfg(sim, strategy="rcc", total=12, seed=3, per_combo=50, **kw):
    return cs.CampaignConfig(
        space=sim.space,
        strategy=cs.Strategy(strategy, delta=0.05),
        level=-0.9,
        n0=9,
        total_runs=total,
        per_combo=per_combo,
        seed=seed,
        fit=cs.FitConfig(n_starts=2, max_fev=300),
        **kw,
    )


SEEDS = [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 100 + 3, 20261017]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 3) == derive_seed(7, 1, 3)

    def test_tag_sensitivity(self):
        seeds = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1), derive_seed(7, 0, 1)}
        assert len(seeds) == 4

    @staticmethod
    def oracle(seed, *tags):
        """numpy's own SeedSequence hash of the entropy derive_seed documents."""
        return int(np.random.SeedSequence([seed, *(t + 1 for t in tags), len(tags)]).generate_state(1)[0])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tags", [(), (0,), (3,), (0, 0), (1, 4), (100, 7, 2)])
    def test_equals_seed_sequence(self, seed, tags):
        assert derive_seed(seed, *tags) == self.oracle(seed, *tags)

    @pytest.mark.parametrize("seed, tags, expected", [(0, (), 2968811710), (20261017, (1, 3), 515443411),
                                                      (2 ** 100 + 3, (100, 7, 2), 1233270238)])
    def test_pinned_values(self, seed, tags, expected):
        # a numpy whose SeedSequence gave other values would move every campaign, bench and verify stream
        assert derive_seed(seed, *tags) == expected

    # an array tag used to give one seed for all its entries, a negative tag numpy's bare
    # ValueError, and True or 5.5 no error or a TypeError
    @pytest.mark.parametrize("seed, tags", [(-1, ()), (-3, (1, 2)), (5, (1, np.array([3, 4]))), (5, (-3,)),
                                            (5, (-1,)), (5, (True,)), (5.5, (1,))])
    def test_rejects_negative_or_out_of_range_entropy(self, seed, tags):
        with pytest.raises(ValidationError):
            derive_seed(seed, *tags)


class TestRunAdaptive:
    def test_budget_equal_to_initial_design_is_empty_loop(self, ex1_sim):
        cfg = quick_cfg(ex1_sim, strategy="one_shot", total=9)
        trace = cs.run_adaptive(ex1_sim, cfg)
        assert trace.records == []
        assert len(trace.dataset) == 9
        assert trace.model is not None

    @pytest.mark.parametrize("strategy, total", [("rcc", 9), ("ecl", 8), ("one_shot", 12)])
    def test_budget_rule(self, ex1_sim, strategy, total):
        with pytest.raises(ValidationError, match=f"strategy '{strategy}' needs N"):
            quick_cfg(ex1_sim, strategy=strategy, total=total)

    def test_structural_rcc_run(self, ex1_sim):
        trace = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        assert len(trace.records) == 3
        assert len(trace.dataset) == 12
        assert trace.dataset.duplicate_pairs() == []
        for rec in trace.records:
            ex1_sim.space.validate_point(rec.point)
            assert rec.report.region in ("A1", "A2", "fallback")
            assert rec.beta == pytest.approx(cs.beta_n(rec.n_before, 3, 0.05))

    def test_deterministic(self, ex1_sim):
        t1 = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        t2 = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a.point == b.point
            assert a.y_raw == b.y_raw
            assert a.report.chosen_index == b.report.chosen_index
            assert a.report.region == b.report.region
        np.testing.assert_array_equal(t1.dataset.responses, t2.dataset.responses)

    def test_strategies_share_initial_design_and_candidates(self, ex1_sim):
        t_rcc = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim, strategy="rcc"))
        t_ecl = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim, strategy="ecl"))
        for a, b in zip(t_rcc.dataset.points[:9], t_ecl.dataset.points[:9]):
            assert a == b
        np.testing.assert_array_equal(t_rcc.dataset.responses[:9], t_ecl.dataset.responses[:9])
        for ra, rb in zip(t_rcc.records, t_ecl.records):
            assert ra.candidate_seed == rb.candidate_seed

    def test_all_strategies_run(self, ex1_sim):
        for kind in ("rcc", "rcc_ei", "arsd", "ecl", "ei", "lcb"):
            trace = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim, strategy=kind, total=10))
            assert len(trace.records) == 1

    def test_checkpoints_recorded(self, ex1_sim):
        cfg = quick_cfg(ex1_sim, checkpoint_sizes=(10, 12))
        trace = cs.run_adaptive(ex1_sim, cfg)
        assert set(trace.checkpoints) == {10, 12}
        assert set(trace.checkpoint_times) == {10, 12}
        assert len(trace.checkpoints[10].data) == 10

    def test_simulator_failure_aborts_with_partial_trace(self, ex1_sim):
        class FailAfter:
            space = ex1_sim.space
            name = "failing"

            def __init__(self, limit):
                self.calls = 0
                self.limit = limit

            def evaluate(self, point):
                self.calls += 1
                if self.calls > self.limit:
                    raise cs.EvaluationError("budget exhausted")
                return ex1_sim.evaluate(point)

        with pytest.raises(CampaignError) as err:
            cs.run_adaptive(FailAfter(10), quick_cfg(ex1_sim))
        trace = err.value.trace
        assert trace.aborted
        assert len(trace.records) == 1
        assert len(trace.dataset) == 10

    def test_simulator_exception_aborts_with_partial_trace(self, ex1_sim):
        class DividesByZeroAfter:
            space = ex1_sim.space
            name = "dividing"

            def __init__(self, limit):
                self.calls = 0
                self.limit = limit

            def evaluate(self, point):
                self.calls += 1
                return 1.0 / 0.0 if self.calls > self.limit else ex1_sim.evaluate(point)

        with pytest.raises(CampaignError, match="simulator failed at n=10") as err:
            cs.run_adaptive(DividesByZeroAfter(10), quick_cfg(ex1_sim))
        cause = err.value.__cause__
        assert isinstance(cause, cs.EvaluationError) and isinstance(cause.__cause__, ZeroDivisionError)
        assert "ZeroDivisionError" in str(cause) and "x=(" in str(cause)
        assert len(err.value.trace.records) == 1 and len(err.value.trace.dataset) == 10

        with pytest.raises(CampaignError, match="starting design"):
            cs.run_adaptive(DividesByZeroAfter(3), quick_cfg(ex1_sim))

    def test_responses_are_python_floats(self, ex1_sim, tmp_path):
        # a numpy float used to be written to design.csv as "np.float64(...)"
        class Returning:
            space = ex1_sim.space
            name = "returning"

            def __init__(self, wrap):
                self.wrap = wrap

            def evaluate(self, point):
                return self.wrap(ex1_sim.evaluate(point))

        trace = cs.run_one_shot(Returning(np.float64), ex1_sim.space, 4, seed=1,
                                fit_config=cs.FitConfig(n_starts=1, max_fev=30))
        assert all(type(y) is float for y in trace.raw_responses)
        save_trace(trace, tmp_path)
        assert "np.float64" not in (tmp_path / "design.csv").read_text()
        with pytest.raises(CampaignError, match="starting design.*ValueError"):
            cs.run_one_shot(Returning(lambda y: "oops"), ex1_sim.space, 4, seed=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_response_aborts_with_partial_trace(self, ex1_sim, bad):
        class BadAfter:
            space = ex1_sim.space
            name = "nonfinite"

            def __init__(self, limit):
                self.calls = 0
                self.limit = limit

            def evaluate(self, point):
                self.calls += 1
                return bad if self.calls > self.limit else ex1_sim.evaluate(point)

        with pytest.raises(CampaignError, match="simulator failed at n=10") as err:
            cs.run_adaptive(BadAfter(10), quick_cfg(ex1_sim))
        assert isinstance(err.value.__cause__, cs.EvaluationError)
        trace = err.value.trace
        assert trace.aborted
        assert len(trace.records) == 1
        assert len(trace.dataset) == 10

        with pytest.raises(CampaignError, match="starting design"):
            cs.run_adaptive(BadAfter(3), quick_cfg(ex1_sim))
        with pytest.raises(CampaignError, match="starting design"):
            cs.run_one_shot(BadAfter(3), ex1_sim.space, 6, seed=4,
                            fit_config=cs.FitConfig(n_starts=2, max_fev=100))

    def test_transform_rejection_aborts_with_partial_trace(self, ex1_sim):
        class NegativeAfter:
            space = ex1_sim.space
            name = "negative"

            def __init__(self, limit):
                self.calls = 0
                self.limit = limit

            def evaluate(self, point):
                self.calls += 1
                return -1.0 if self.calls > self.limit else 2.0 + ex1_sim.evaluate(point)

        cfg = replace(quick_cfg(ex1_sim), level=2.5, transform="log")
        with pytest.raises(CampaignError, match="simulator failed at n=10") as err:
            cs.run_adaptive(NegativeAfter(10), cfg)
        assert isinstance(err.value.__cause__, cs.EvaluationError)
        trace = err.value.trace
        assert trace.aborted
        assert len(trace.records) == 1
        assert len(trace.dataset) == 10

        with pytest.raises(CampaignError, match="starting design"):
            cs.run_adaptive(NegativeAfter(3), cfg)
        with pytest.raises(CampaignError, match="starting design"):
            cs.run_one_shot(NegativeAfter(3), ex1_sim.space, 6, seed=4, transform="log",
                            fit_config=cs.FitConfig(n_starts=2, max_fev=100))


    def test_unmappable_level_rejected_before_evaluation(self, ex1_sim):
        # a one-shot campaign never maps its level; an adaptive one must,
        # and must do it before the first simulator call
        class Counting:
            space = ex1_sim.space
            name = "counting"
            calls = 0

            def evaluate(self, point):
                self.calls += 1
                return 2.0 + ex1_sim.evaluate(point)

        sim = Counting()
        with pytest.raises(ValidationError, match="positive"):
            cs.run_adaptive(sim, replace(quick_cfg(ex1_sim), level=-0.9, transform="log"))
        assert sim.calls == 0


class TestRefitSchedule:
    """A full fit at every third step from n0, at checkpoints and at N; a warm
    refit (the warm start alone) at every other step."""

    @staticmethod
    def spied_campaign(sim, monkeypatch, fit_config):
        """(fit calls as (n, config, starts, model), trace notes) of an
        example1 campaign from 9 to 21 with checkpoint 14, where every
        candidate set also holds the first design point, so each step skips
        one candidate."""
        from contour_seeker import engine

        calls, models = [], []
        real_fit, real_candidates = engine.fit, engine.candidate_set

        def spy(data, space, config, warm_start=()):
            calls.append((len(data), config, warm_start, data))
            models.append(real_fit(data, space, config, warm_start=warm_start))
            return models[-1]

        def with_design_point(space, per_combo, seed):
            cand = real_candidates(space, per_combo, seed)
            data = calls[-1][3]
            return replace(cand, x=np.vstack([cand.x, data.x[:1]]), z=np.vstack([cand.z, data.z[:1]]))

        monkeypatch.setattr(engine, "fit", spy)
        monkeypatch.setattr(engine, "candidate_set", with_design_point)
        cfg = cs.CampaignConfig(space=sim.space, strategy=cs.Strategy("rcc", delta=0.05), level=-0.9, n0=9,
                                total_runs=21, per_combo=20, seed=3, fit=fit_config, checkpoint_sizes=(14,))
        trace = cs.run_adaptive(sim, cfg)
        return (cfg, [(n, config, warm, model) for (n, config, warm, _), model in zip(calls, models)],
                [r.note for r in trace.records])

    def test_full_fit_every_third_step_checkpoints_and_end(self, ex1_sim, monkeypatch):
        cfg, calls, notes = self.spied_campaign(ex1_sim, monkeypatch, cs.FitConfig(max_fev=30))
        assert [n for n, _, _, _ in calls] == list(range(9, 22))
        full = {9, 12, 14, 15, 18, 21}
        for n, config, warm, _ in calls:
            seeded = replace(cfg.fit, seed=derive_seed(cfg.seed, 1, n))
            assert config == (seeded if n in full else replace(seeded, n_starts=1)), n
            assert (warm == ()) == (n == 9), n
        assert notes == [("skipped 1 duplicate candidates" if n in full
                          else "warm refit; skipped 1 duplicate candidates") for n in range(9, 21)]

    def test_two_starts_fit_every_step_in_full(self, ex1_sim, monkeypatch):
        cfg, calls, notes = self.spied_campaign(ex1_sim, monkeypatch, cs.FitConfig(n_starts=2, max_fev=30))
        assert [config for _, config, _, _ in calls] == [replace(cfg.fit, seed=derive_seed(cfg.seed, 1, n))
                                                         for n in range(9, 22)]
        assert notes == ["skipped 1 duplicate candidates"] * 12

    def test_full_fits_carry_the_last_full_fits_best_end_points(self, ex1_sim, monkeypatch):
        cfg, calls, _ = self.spied_campaign(ex1_sim, monkeypatch, cs.FitConfig(max_fev=30))
        # every fit after the first starts from the last step's hyperparameters
        for (_, _, _, last), (n, _, starts, _) in zip(calls, calls[1:]):
            assert starts[0] is last.params, n
        full = [(n, starts, model) for n, config, starts, model in calls if config.n_starts == 8]
        assert [n for n, _, _ in full] == [9, 12, 14, 15, 18, 21]
        for (_, _, last), (n, starts, model) in zip(full, full[1:]):
            assert len(last.end_points) >= 4
            assert len(starts) == 5 and all(a is b for a, b in zip(starts[1:], last.end_points)), n
            # the warm start, the centre, 4 carried end points and 2 LHD points
            assert len(model.start_objectives) == 8


class TestFailedWarmRefit:
    def test_falls_back_to_the_steps_full_fit(self, ex1_sim, monkeypatch):
        from contour_seeker import engine

        # at 1e-16 of the diagonal, this warm start's Gram does not factor, so a
        # one-start fit from it raises
        fit_config = cs.FitConfig(jitter_scale=1e-8, theta_bounds=(1e-4, 1e2), max_fev=30)
        bad = cs.EzGpParams(0.0, np.array([1.0, 1e-6]), np.full(1, 1e-4), (np.full((1, 3), 1e-4),))
        calls, real_fit = [], engine.fit

        def spy(data, space, config, warm_start=()):
            if config.n_starts == 1:
                warm_start = (bad, *warm_start[1:])
            try:
                model = real_fit(data, space, config, warm_start=warm_start)
            except cs.FitFailureError:
                calls.append((len(data), config, "raised"))
                raise
            calls.append((len(data), config, "ok"))
            return model

        monkeypatch.setattr(engine, "fit", spy)
        cfg = replace(quick_cfg(ex1_sim, total=12), fit=fit_config)
        trace = cs.run_adaptive(ex1_sim, cfg)
        seeded = {n: replace(fit_config, seed=derive_seed(cfg.seed, 1, n)) for n in range(9, 13)}
        assert calls == [(9, seeded[9], "ok"),
                         (10, replace(seeded[10], n_starts=1), "raised"), (10, seeded[10], "ok"),
                         (11, replace(seeded[11], n_starts=1), "raised"), (11, seeded[11], "ok"),
                         (12, seeded[12], "ok")]
        assert [r.note for r in trace.records] == ["", "full fit after a failed warm refit",
                                                   "full fit after a failed warm refit"]
        assert not trace.aborted and len(trace.dataset) == 12


class TestDuplicateGuard:
    @pytest.mark.parametrize("existing,cands,expected", [
        # q=0: quantitative coordinates alone decide
        ([((0.25, 0.5), ()), ((0.75, 0.1), ())],
         [((0.25, 0.5), ()), ((0.25 + 5e-13, 0.5), ()), ((0.25, 0.5 + 1e-9), ())],
         [True, True, False]),
        # q=3: every level must match
        ([((0.25,), (1, 2, 3)), ((0.75,), (3, 2, 1))],
         [((0.25,), (1, 2, 3)), ((0.25,), (1, 2, 1)), ((0.75 - 5e-13,), (3, 2, 1)), ((0.75,), (1, 2, 3))],
         [True, False, True, False]),
        # q=0, design points sharing a first coordinate: the other coordinates decide
        ([((0.5, 0.1), ()), ((0.5, 0.4), ()), ((0.5, 0.9), ()), ((0.2, 0.4), ())],
         [((0.5, 0.4 + 5e-13), ()), ((0.5 + 5e-13, 0.9), ()), ((0.5, 0.5), ()), ((0.2, 0.1), ()),
          ((0.5 + 1e-9, 0.1), ()), ((0.2 - 5e-13, 0.4 - 5e-13), ())],
         [True, True, False, False, False, True]),
        # q=3, design points sharing a first coordinate: the levels decide
        ([((0.3, 0.6), (1, 1, 1)), ((0.3, 0.6), (2, 1, 1)), ((0.3, 0.2), (1, 2, 3))],
         [((0.3 + 5e-13, 0.6), (2, 1, 1)), ((0.3, 0.6), (2, 2, 3)), ((0.3 - 1e-9, 0.6), (1, 1, 1)),
          ((0.3, 0.2), (1, 2, 3)), ((0.3, 0.2 + 1e-9), (1, 2, 3))],
         [True, False, False, True, False]),
    ])
    def test_mask_factor_counts(self, existing, cands, expected):
        data = cs.Dataset(tuple(cs.MixedPoint(x, z) for x, z in existing), np.arange(len(existing), dtype=float))
        x, z = point_arrays([cs.MixedPoint(x, z) for x, z in cands])
        assert coincident(x, z, data.x, data.z).any(axis=1).tolist() == expected
        assert coincident_rows(x, z, data.x, data.z).tolist() == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_mask_equals_coincident_at_tolerance_edges(self, seed):
        # a few first coordinates shared by many design points, and candidates
        # moved off design points by steps around DUPLICATE_TOL, in each coordinate
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.choice([0.0, 0.125, 0.3, 0.7, 1.0], 40), rng.random((40, 2))])
        z = rng.integers(1, 3, (40, 2))
        steps = DUPLICATE_TOL * np.array([0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 2.001, 3.0, 1e3])
        rows = rng.integers(0, 40, 400)
        cx = x[rows] + rng.choice([-1.0, 1.0], (400, 3)) * rng.choice(steps, (400, 3)) * (rng.random((400, 3)) < 0.5)
        cz = np.where(rng.random((400, 1)) < 0.8, z[rows], rng.integers(1, 3, (400, 2)))
        expected = coincident(cx, cz, x, z).any(axis=1)
        assert 0 < expected.sum() < len(expected)
        assert np.array_equal(coincident_rows(cx, cz, x, z), expected)

    @pytest.mark.parametrize("pts,pairs", [
        ([((0.1, 0.2), ()), ((0.3, 0.4), ()), ((0.1, 0.2), ()), ((0.3, 0.4 + 5e-13), ())],
         [(0, 2), (1, 3)]),
        ([((0.1,), (1, 1, 2)), ((0.1,), (1, 1, 1)), ((0.1,), (1, 1, 2))], [(0, 2)]),
    ])
    def test_dataset_duplicate_pairs(self, pts, pairs):
        points = tuple(cs.MixedPoint(x, z) for x, z in pts)
        with pytest.raises(ValidationError, match=", ".join(rf"\({i}, {j}\)" for i, j in pairs)):
            cs.Dataset(points, np.arange(len(points), dtype=float))

    def test_mask_flags_exact_copy(self, ex1_space):
        pts = (cs.MixedPoint((0.25,), (1,)), cs.MixedPoint((0.75,), (2,)))
        data = cs.Dataset(pts, np.array([1.0, 2.0]))
        cands = [cs.MixedPoint((0.25,), (1,)),   # exact duplicate
                 cs.MixedPoint((0.25,), (2,)),   # same x, other level: kept
                 cs.MixedPoint((0.26,), (1,))]
        mask = coincident(*point_arrays(cands), data.x, data.z).any(axis=1)
        assert mask.tolist() == [True, False, False]

    def test_run_skips_candidate_within_tolerance(self, ex1_sim, tmp_path, monkeypatch):
        # offsets exact in binary: a copy of a design point moved by 2**-40
        # (9.1e-13) is within DUPLICATE_TOL, one moved by 2**-39 (1.8e-12) is not
        from contour_seeker import engine

        fitted, predicted = [], []
        real_fit, real_candidates, real_predict = engine.fit, engine.candidate_set, engine.predict_batch

        def recording_fit(data, *args, **kwargs):
            fitted.append(data)
            return real_fit(data, *args, **kwargs)

        def with_near_copies(space, per_combo, seed):
            cand = real_candidates(space, per_combo, seed)
            x, z = fitted[-1].x[0], fitted[-1].z[0]
            step = -1.0 if x[0] >= 0.5 else 1.0
            near = np.array([x, x])
            near[:, 0] += step * np.array([2.0 ** -40, 2.0 ** -39])
            assert np.abs(near[:, 0] - x[0]).tolist() == [2.0 ** -40, 2.0 ** -39]
            return replace(cand, x=np.vstack([cand.x, near]), z=np.vstack([cand.z, [z, z]]))

        def recording_predict(model, x, z):
            predicted.append(x)
            return real_predict(model, x, z)

        monkeypatch.setattr(engine, "fit", recording_fit)
        monkeypatch.setattr(engine, "candidate_set", with_near_copies)
        monkeypatch.setattr(engine, "predict_batch", recording_predict)
        trace = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim, total=10))
        x0 = fitted[0].x[0, 0]
        assert np.sum(np.abs(predicted[0][:, 0] - x0) == 2.0 ** -40) == 0
        assert np.sum(np.abs(predicted[0][:, 0] - x0) == 2.0 ** -39) == 1
        save_trace(trace, tmp_path)
        header, rows = read_csv(tmp_path / "trace.csv")
        assert [row[header.index("note")] for row in rows] == ["skipped 1 duplicate candidates"]

    def test_run_with_design_candidates_only_aborts(self, ex1_sim, monkeypatch):
        from contour_seeker import engine

        real_fit = engine.fit
        fitted = []

        def recording_fit(data, *args, **kwargs):
            fitted.append(data)
            return real_fit(data, *args, **kwargs)

        monkeypatch.setattr(engine, "fit", recording_fit)
        monkeypatch.setattr(engine, "candidate_set", lambda *args: cs.CandidateSet(fitted[-1].x, fitted[-1].z))
        with pytest.raises(CampaignError, match="^all candidates duplicate existing design points at n=9$") as err:
            cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        trace = err.value.trace
        assert trace.aborted and trace.error == str(err.value)
        assert trace.records == [] and len(trace.dataset) == 9

    def test_mask_tolerance(self, ex1_space):
        pts = (cs.MixedPoint((0.25,), (1,)), cs.MixedPoint((0.75,), (2,)))
        data = cs.Dataset(pts, np.array([1.0, 2.0]))
        cands = [cs.MixedPoint((0.25 + 5e-13,), (1,)), cs.MixedPoint((0.25 + 1e-9,), (1,))]
        mask = coincident(*point_arrays(cands), data.x, data.z).any(axis=1)
        assert mask.tolist() == [True, False]


class TestSelectPointDispatch:
    def test_ecl_returns_max_entropy_candidate(self):
        preds = [P(1.0, 0.0), P(0.0, 2.0), P(4.0, 0.1)]
        ctx = cs.AcquisitionContext(0.0, 9, 3, delta=0.05)
        report = select_point(*arrays(preds), ctx, cs.Strategy("ecl"))
        assert report.chosen_index == 1
        assert report.region == "global"

    def test_rcc_all_in_band_equals_a2_pick(self):
        preds = [P(0.5, 10.0), P(0.0, 10.0)]
        ctx = cs.AcquisitionContext(0.0, 9, 3, delta=0.05)
        report = select_point(*arrays(preds), ctx, cs.Strategy("rcc"))
        part = cs.partition(*arrays(preds), ctx)
        assert len(part.a1) == 0
        assert report == cs.select_rcc(*arrays(preds), ctx)
        assert report.chosen_index == report.a2_finalist.index == 1

    def test_unknown_strategy_kind(self):
        with pytest.raises(ValidationError):
            cs.Strategy("magic")


class TestSuggestNext:
    def test_deterministic_and_member(self, small_model):
        cand = cs.candidate_set(small_model.space, 40, seed=12)
        strat = cs.Strategy("rcc", delta=0.05)
        p1, r1 = cs.suggest_next(small_model, cand, strat, level=-0.9)
        p2, r2 = cs.suggest_next(small_model, cand, strat, level=-0.9)
        assert p1 == p2 and r1.chosen_index == r2.chosen_index
        assert p1 in cand.points

    def test_matches_global_selector(self, small_model):
        cand = cs.candidate_set(small_model.space, 40, seed=12)
        means, sds = cs.predict_batch(small_model, cand.x, cand.z)
        ctx = cs.AcquisitionContext(-0.9, len(small_model.data), 3,
                                    delta=0.05, rho=2.0, ei_alpha=1.96)
        expected = cs.select_global(means, sds, ctx, "ecl")
        point, report = cs.suggest_next(small_model, cand,
                                        cs.Strategy("ecl", delta=0.05), level=-0.9)
        assert report.chosen_index == expected
        assert point == cand.points[expected]

    def test_empty_candidates_rejected(self, small_model):
        empty = cs.CandidateSet(np.empty((0, 1)), np.empty((0, 1), dtype=int))
        with pytest.raises(ValidationError):
            cs.suggest_next(small_model, empty, cs.Strategy("rcc"), level=0.0)

    @pytest.mark.parametrize("kind", ["ecl", "rcc"])
    def test_skips_design_points(self, small_model, kind):
        # at the level of a design response, the design point itself is the
        # likeliest pick of an unfiltered step
        data = small_model.data
        extra = cs.candidate_set(small_model.space, 30, seed=12)
        cand = cs.CandidateSet(np.vstack([data.x, extra.x]), np.vstack([data.z, extra.z]))
        for level in data.responses:
            point, report = cs.suggest_next(small_model, cand, cs.Strategy(kind, delta=0.05), level=float(level))
            assert report.chosen_index >= len(data)
            assert point == cand.point(report.chosen_index)
            assert point not in data.points

    def test_design_points_only_rejected(self, small_model):
        data = small_model.data
        with pytest.raises(CampaignError, match="all candidates duplicate existing design points"):
            cs.suggest_next(small_model, cs.CandidateSet(data.x, data.z), cs.Strategy("rcc"), level=0.0)


class TestRunOneShot:
    def test_minimal_two_points(self, ex1_sim, quick_fit):
        trace = cs.run_one_shot(ex1_sim, ex1_sim.space, 2, seed=4, fit_config=quick_fit)
        assert len(trace.dataset) == 2
        assert trace.records == []
        assert trace.model is not None

    def test_balanced_and_deterministic(self, ex1_sim, quick_fit):
        t1 = cs.run_one_shot(ex1_sim, ex1_sim.space, 21, seed=5, fit_config=quick_fit)
        t2 = cs.run_one_shot(ex1_sim, ex1_sim.space, 21, seed=5, fit_config=quick_fit)
        from collections import Counter
        counts = Counter(pt.z for pt in t1.dataset.points)
        assert sorted(counts.values()) == [7, 7, 7]
        for a, b in zip(t1.dataset.points, t2.dataset.points):
            assert a == b


class TestTracePersistence:
    def test_files_written(self, ex1_sim, tmp_path):
        trace = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        out = tmp_path / "run"
        cs.save_trace(trace, out)
        for name in ("trace.csv", "design.csv", "model.json", "config.json", "timing.csv"):
            assert (out / name).exists()
        assert (out / "trace.csv").read_text().startswith("# schema=1\n")
        header, rows = read_csv(out / "trace.csv")
        assert len(rows) == len(trace.records)
        cfg_doc = json.loads((out / "config.json").read_text())
        assert cfg_doc["n0"] == 9 and cfg_doc["N"] == 12

    def test_replay_from_persisted_trace(self, ex1_sim, tmp_path):
        """Recorded hyperparameters + candidate seeds must reproduce every
        chosen index."""
        cfg = quick_cfg(ex1_sim)
        trace = cs.run_adaptive(ex1_sim, cfg)
        out = tmp_path / "run"
        cs.save_trace(trace, out)

        theader, trows = read_csv(out / "trace.csv")
        dheader, drows = read_csv(out / "design.csv")
        space = ex1_sim.space
        col = {name: i for i, name in enumerate(theader)}
        dcol = {name: i for i, name in enumerate(dheader)}

        points = [cs.MixedPoint(normalize(space, (float(r[dcol["x_1"]]),)),
                                (int(r[dcol["z_1"]]),)) for r in drows]
        y_model = [float(r[dcol["y_model"]]) for r in drows]

        for row in trows:
            n_before = int(row[col["n_before"]])
            data = cs.Dataset(tuple(points[:n_before]), np.array(y_model[:n_before]))
            params = params_from_doc(json.loads(row[col["params"]]))
            model = condition(params, data, space)
            cand = cs.candidate_set(space, cfg.per_combo, int(row[col["candidate_seed"]]))
            mask = coincident(cand.x, cand.z, data.x, data.z).any(axis=1)
            keep = np.flatnonzero(~mask)
            means, sds = cs.predict_batch(model, cand.x[keep], cand.z[keep])
            ctx = cs.AcquisitionContext(cfg.level, n_before, space.num_combos,
                                        alpha=cfg.strategy.alpha, delta=float(row[col["delta"]]),
                                        rho=cfg.strategy.rho, ei_alpha=cfg.strategy.ei_alpha)
            report = select_point(means, sds, ctx, cfg.strategy)
            assert int(keep[report.chosen_index]) == int(row[col["chosen_index"]])

    def test_failed_fit_keeps_last_point_in_design(self, ex1_sim, tmp_path, monkeypatch):
        from contour_seeker import engine

        real_fit = engine.fit

        def fail_at_ten(data, *args, **kwargs):
            if len(data) == 10:
                raise cs.FitFailureError("forced")
            return real_fit(data, *args, **kwargs)

        monkeypatch.setattr(engine, "fit", fail_at_ten)
        with pytest.raises(CampaignError, match="fit failed at n=10") as err:
            cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        out = tmp_path / "aborted"
        save_trace(err.value.trace, out)
        theader, trows = read_csv(out / "trace.csv")
        dheader, drows = read_csv(out / "design.csv")
        assert len(trows) == 1 and len(drows) == 10
        cols = ["x_1", "z_1", "y_raw", "y_model"]
        assert ([drows[-1][dheader.index(c)] for c in cols]
                == [trows[0][theader.index(c)] for c in cols])

    def test_partial_trace_persisted_on_abort(self, ex1_sim, tmp_path):
        trace = cs.run_adaptive(ex1_sim, quick_cfg(ex1_sim))
        trace.aborted, trace.error = True, "synthetic"
        out = tmp_path / "aborted"
        cs.save_trace(trace, out)
        doc = json.loads((out / "config.json").read_text())
        assert doc["aborted"] is True and doc["error"] == "synthetic"
