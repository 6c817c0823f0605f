"""Span tracing at the layer boundaries of contour_seeker, from outside the library.

A traced operation rebinds module attributes (``contour_seeker.cli.fit``,
``contour_seeker.engine.predict_batch``, ...) to timing wrappers and puts
the originals back afterwards, so no file of the library changes.  A span
is named ``<layer>.<function>`` after the module that owns the called
function; its layer is the part before the first dot.  Spans stay in
memory until the benchmark writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "traceio", "engine", "ezgp", "design_space", "acquisition", "simulators", "bench")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Collects the spans of one single-threaded process.

    ``op`` is the id stamped on every span opened; the caller sets it
    before each operation.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` inside a span; ``annotate(attrs, args, result)`` records counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(s.attrs, args, result)
                return result
            except BaseException as exc:
                s.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(s)
        return traced

    @contextlib.contextmanager
    def patched(self, boundaries):
        """Rebind each ``(module, attr, span_name, annotate)`` for the block."""
        saved = []
        try:
            for module, attr, name, annotate in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class _TracedSimulator:
    """A simulator whose ``evaluate`` calls are spans; everything else delegates."""

    def __init__(self, sim, tracer: Tracer):
        self._sim = sim
        self.evaluate = tracer.wrap(sim.evaluate, "simulators.evaluate")

    def __getattr__(self, attr):
        return getattr(self._sim, attr)


def _points_len(pts) -> int:
    return len(pts.points if hasattr(pts, "points") else pts)


def _minimize_attrs(attrs, args, res):
    attrs["nfev"] = int(res.nfev)
    attrs["njev"] = int(getattr(res, "njev", 0))
    attrs["fun"] = float(res.fun)


def _fit_attrs(attrs, args, model):
    attrs["nll"] = float(model.nll)


def _predict_attrs(attrs, args, result):
    attrs["n"] = _points_len(args[1])


def _candidates_attrs(attrs, args, cand):
    attrs["n"] = len(cand.points)


def _preds_attrs(attrs, args, result):
    attrs["n"] = len(args[0])


def _coverage_attrs(attrs, args, result):
    attrs["draws"] = int(result.draws)
    attrs["skipped"] = int(result.skipped)


def library_boundaries():
    """Every module attribute a traced operation rebinds, with its span name.

    Names follow the callee: ``cli.fit`` is the ezgp function as bound in
    the cli module, so its span is ``ezgp.fit``.
    """
    from contour_seeker import bench, cli, engine, ezgp

    return [
        (cli, "run_adaptive", "engine.run_adaptive", None),
        (cli, "suggest_next", "engine.suggest_next", None),
        (cli, "save_trace", "traceio.save_trace", None),
        (cli, "read_csv", "traceio.read_csv", None),
        (cli, "write_csv", "traceio.write_csv", None),
        (cli, "load_model", "ezgp.load_model", None),
        (cli, "save_model", "ezgp.save_model", None),
        (cli, "fit", "ezgp.fit", _fit_attrs),
        (cli, "candidate_set", "design_space.candidate_set", _candidates_attrs),
        (cli, "coverage_check", "bench.coverage_check", _coverage_attrs),
        (engine, "fit", "ezgp.fit", _fit_attrs),
        (engine, "predict_batch", "ezgp.predict_batch", _predict_attrs),
        (engine, "candidate_set", "design_space.candidate_set", _candidates_attrs),
        (engine, "initial_design", "design_space.initial_design", None),
        (engine, "select_rcc", "acquisition.select_rcc", _preds_attrs),
        (engine, "select_arsd", "acquisition.select_arsd", _preds_attrs),
        (engine, "select_global", "acquisition.select_global", _preds_attrs),
        (ezgp, "minimize", "ezgp.minimize", _minimize_attrs),
        (ezgp, "condition", "ezgp.condition", None),
        (bench, "condition", "ezgp.condition", None),
        (bench, "predict_batch", "ezgp.predict_batch", _predict_attrs),
        (bench, "partition", "acquisition.partition", _preds_attrs),
        (bench, "candidate_set", "design_space.candidate_set", _candidates_attrs),
    ]


@contextlib.contextmanager
def traced_library(tracer: Tracer):
    """Trace every layer boundary for the block, simulators included."""
    from contour_seeker import cli

    factory = cli.builtin_simulator

    def traced_factory(name):
        return _TracedSimulator(factory(name), tracer)

    with tracer.patched(library_boundaries()):
        cli.builtin_simulator = traced_factory
        try:
            yield tracer
        finally:
            cli.builtin_simulator = factory


def children_of(spans) -> dict[int, list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(kids[s.sid], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.sid] = s.duration - covered
    return out


def additivity_errors(spans, tol: float = 1e-9) -> list[int]:
    """Ids of spans whose self time plus child durations differ from their duration.

    Empty when every child lies inside its parent and siblings do not
    overlap, which holds for a single-threaded call tree.
    """
    kids = children_of(spans)
    selfs = self_times(spans)
    bad = []
    for s in spans:
        total = selfs[s.sid] + sum(c.duration for c in kids[s.sid])
        if abs(total - s.duration) > tol * max(1.0, s.duration):
            bad.append(s.sid)
    return bad


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_counts(spans) -> dict[int, dict[str, int]]:
    """Exact per-operation counts that must repeat across runs of one seed."""
    out = defaultdict(lambda: {"nll_evals": 0, "opt_starts": 0, "eval_calls": 0})
    for s in spans:
        row = out[s.op]
        if s.name == "ezgp.minimize":
            row["nll_evals"] += s.attrs.get("nfev", 0)
            row["opt_starts"] += 1
        elif s.name == "simulators.evaluate":
            row["eval_calls"] += 1
    return dict(out)


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics of ``ops`` traced operations; 0 where a layer did no work."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    kids = children_of(spans)
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)

    def dur(name):
        return sum(s.duration for s in by_name[name])

    def attr_sum(names, key):
        return sum(s.attrs.get(key, 0) for name in names for s in by_name[name])

    fits = by_name["ezgp.fit"]
    nfev = attr_sum(["ezgp.minimize"], "nfev")
    fit_condition = sum(c.duration for f in fits for c in kids[f.sid] if c.name == "ezgp.condition")
    useful = 0
    for f in fits:
        if "error" in f.attrs:
            continue
        # The fit keeps the start whose optimum it reports; a start whose
        # optimizer never beat its initial point matches no result here.
        for c in kids[f.sid]:
            if c.name == "ezgp.minimize" and c.attrs["fun"] == f.attrs["nll"]:
                useful += c.attrs["nfev"]
                break

    steps = []
    for run in by_name["engine.run_adaptive"]:
        starts, retrying = [], False
        for c in sorted(kids[run.sid], key=lambda c: c.start):
            if c.name == "ezgp.fit":
                if not retrying:
                    starts.append(c.start)
                retrying = "error" in c.attrs
        steps.extend(b - a for a, b in zip(starts, starts[1:]))

    select = ["acquisition.select_rcc", "acquisition.select_arsd", "acquisition.select_global",
              "acquisition.partition"]
    sims = by_name["simulators.evaluate"]
    metrics = {
        "ezgp.nll_evals": _ratio(nfev, ops),
        "ezgp.opt_starts": _ratio(len(by_name["ezgp.minimize"]), ops),
        "ezgp.nll_eval_us": 1e6 * _ratio(dur("ezgp.fit") - fit_condition, nfev),
        "ezgp.useful_eval_frac": _ratio(useful, nfev),
        "ezgp.fit_ms": 1e3 * _median([s.duration for s in fits]),
        "ezgp.fit_retries": _ratio(sum("error" in s.attrs for s in fits), ops),
        "ezgp.condition_ms": 1e3 * _median([s.duration for s in by_name["ezgp.condition"]]),
        "ezgp.predict_us_per_cand": 1e6 * _ratio(dur("ezgp.predict_batch"),
                                                 attr_sum(["ezgp.predict_batch"], "n")),
        "design_space.cand_us_per_point": 1e6 * _ratio(dur("design_space.candidate_set"),
                                                       attr_sum(["design_space.candidate_set"], "n")),
        "acquisition.select_us_per_cand": 1e6 * _ratio(sum(dur(n) for n in select), attr_sum(select, "n")),
        "engine.step_ms": 1e3 * _median(steps),
        "engine.self_ms_per_step": 1e3 * _ratio(sum(selfs[s.sid] for s in by_name["engine.run_adaptive"]),
                                                len(steps)),
        "simulators.eval_calls": _ratio(len(sims), ops),
        "simulators.eval_us": 1e6 * _ratio(sum(s.duration for s in sims), len(sims)),
        "cli.load_model_ms": 1e3 * _median([s.duration for s in by_name["ezgp.load_model"]]),
        "cli.self_ms": 1e3 * _median([selfs[s.sid] for s in by_name["cli.main"]]),
        "traceio.save_ms": 1e3 * _median([s.duration for s in by_name["traceio.save_trace"]]),
        "bench.draw_self_us": 1e6 * _ratio(sum(selfs[s.sid] for s in by_name["bench.coverage_check"]),
                                           attr_sum(["bench.coverage_check"], "draws")),
        "bench.skipped_draws": _ratio(attr_sum(["bench.coverage_check"], "skipped"), ops),
    }
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.sid]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(layer_self[layer], total)
    return metrics


# Units of the per-layer metrics, including the three the benchmark adds
# (tracing overhead and the two deterministic quality values).
PER_LAYER_UNITS = {
    "ezgp.nll_evals": "count", "ezgp.opt_starts": "count", "ezgp.nll_eval_us": "us",
    "ezgp.useful_eval_frac": "ratio", "ezgp.fit_ms": "ms", "ezgp.fit_retries": "count",
    "ezgp.condition_ms": "ms", "ezgp.predict_us_per_cand": "us",
    "design_space.cand_us_per_point": "us", "acquisition.select_us_per_cand": "us",
    "engine.step_ms": "ms", "engine.self_ms_per_step": "ms",
    "simulators.eval_calls": "count", "simulators.eval_us": "us",
    "cli.load_model_ms": "ms", "cli.self_ms": "ms", "traceio.save_ms": "ms",
    "bench.draw_self_us": "us", "bench.skipped_draws": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio", "quality.m_c0": "1", "quality.fit_nll": "1",
}
