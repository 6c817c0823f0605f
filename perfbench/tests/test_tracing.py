"""Self-time and per-layer arithmetic on synthetic spans."""
import math

import pytest

from perfbench.tracing import Span, Tracer, additivity_errors, layer_metrics, op_counts, self_times
from perfbench.workloads import p95


def spans_from(rows):
    """rows: (name, parent index or None, start, end, attrs)."""
    return [Span(i, name, parent, 0, start, end, dict(attrs))
            for i, (name, parent, start, end, attrs) in enumerate(rows)]


def test_self_time_subtracts_direct_children_only():
    spans = spans_from([
        ("cli.main", None, 0.0, 10.0, {}),
        ("ezgp.load_model", 0, 1.0, 3.0, {}),
        ("engine.suggest_next", 0, 4.0, 8.0, {}),
        ("ezgp.predict_batch", 2, 5.0, 6.0, {}),
    ])
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})
    assert additivity_errors(spans) == []


def test_overlapping_children_are_counted_once_and_flagged():
    spans = spans_from([
        ("cli.main", None, 0.0, 10.0, {}),
        ("ezgp.fit", 0, 1.0, 5.0, {}),
        ("ezgp.fit", 0, 4.0, 8.0, {}),
    ])
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert additivity_errors(spans) == [0]


def test_fit_metrics_from_minimize_children():
    spans = spans_from([
        ("cli.main", None, 0.0, 1.0, {}),
        ("ezgp.fit", 0, 0.1, 0.9, {"nll": 1.0}),
        ("ezgp.minimize", 1, 0.1, 0.4, {"nfev": 100, "fun": 2.0}),
        ("ezgp.minimize", 1, 0.4, 0.7, {"nfev": 50, "fun": 1.0}),
        ("ezgp.condition", 1, 0.8, 0.85, {}),
    ])
    m = layer_metrics(spans, ops=1)
    assert m["ezgp.nll_evals"] == 150
    assert m["ezgp.opt_starts"] == 2
    assert m["ezgp.useful_eval_frac"] == pytest.approx(50 / 150)
    assert m["ezgp.nll_eval_us"] == pytest.approx(1e6 * (0.8 - 0.05) / 150)
    assert m["ezgp.fit_ms"] == pytest.approx(800.0)
    assert m["ezgp.condition_ms"] == pytest.approx(50.0)
    assert sum(m[f"{layer}.self_share"] for layer in ("cli", "ezgp")) == pytest.approx(1.0)
    assert op_counts(spans) == {0: {"nll_evals": 150, "opt_starts": 2, "eval_calls": 0}}


def test_campaign_steps_skip_a_retried_fit():
    spans = spans_from([
        ("engine.run_adaptive", None, 0.0, 10.0, {}),
        ("ezgp.fit", 0, 0.0, 1.0, {"nll": 0.0}),
        ("ezgp.fit", 0, 3.0, 4.0, {"error": "FitFailureError"}),
        ("ezgp.fit", 0, 4.0, 5.0, {"nll": 0.0}),
        ("ezgp.fit", 0, 7.0, 8.0, {"nll": 0.0}),
    ])
    m = layer_metrics(spans, ops=1)
    assert m["engine.step_ms"] == pytest.approx(3500.0)  # steps of 3 s and 4 s
    assert m["ezgp.fit_retries"] == 1
    assert m["engine.self_ms_per_step"] == pytest.approx(1e3 * 6.0 / 2)


def test_layers_without_work_read_zero():
    m = layer_metrics(spans_from([("cli.main", None, 0.0, 1.0, {})]), ops=1)
    assert m["cli.self_share"] == 1.0 and m["cli.self_ms"] == 1000.0
    assert all(v == 0 for k, v in m.items() if k not in ("cli.self_share", "cli.self_ms"))


def test_tracer_wraps_and_restores_module_attributes():
    import types

    mod = types.SimpleNamespace(work=lambda x: x * 2)
    original = mod.work
    tracer = Tracer()
    with tracer.patched([(mod, "work", "ezgp.work", lambda attrs, args, res: attrs.update(n=res))]):
        with tracer.span("cli.main"):
            assert mod.work(3) == 6
    assert mod.work is original
    assert [(s.name, s.parent, s.attrs) for s in tracer.spans] == [("cli.main", None, {}),
                                                                   ("ezgp.work", 0, {"n": 6})]
    assert all(math.isfinite(s.duration) and s.duration >= 0 for s in tracer.spans)


def test_p95_is_nearest_rank():
    assert p95([3.0, 1.0, 2.0]) == 3.0
    samples = list(range(1, 201))
    assert p95(samples) == 190
    assert sum(x > p95(samples) for x in samples) == 10
