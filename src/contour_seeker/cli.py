"""Command-line front end.

Subcommands: ``run`` (adaptive or one-shot campaign from a JSON config),
``suggest`` (stateless next-point selection from a saved model), ``fit``
(hyperparameter estimation from a CSV), ``bench`` (replicated strategy
comparison), ``verify`` (Monte-Carlo check of the band guarantees).

Exit codes: 0 success, 2 invalid input, 3 runtime failure.  Failures
print a one-line JSON object to stderr.  The environment variable
CONTOUR_SEEKER_THREADS caps worker processes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from functools import cache, partial

from .bench import BenchConfig, VerifyConfig, coverage_check, replicate_benchmark, resolve_workers
from .design_space import CandidateSet, MixedPoint, candidate_set
from .engine import STRATEGY_KINDS, CampaignConfig, Strategy, run_adaptive, suggest_next
from .errors import CampaignError, ContourSeekerError, ValidationError
from .ezgp import Dataset, FitConfig, fit, params_to_dict
from .simulators import builtin_simulator, read_table, tabular_simulator
# read_csv is not called here; it stays bound as cli.read_csv, one of the
# boundaries that perfbench/tracing.py rebinds
from .traceio import (CONFIG_KEYS, _reject_unknown_keys, config_to_dict, fit_config_from_dict, given_fields, integral,
                      integrals, load_document, load_model, params_from_doc, read_csv, real, reals, save_model,
                      save_trace, seed_value, space_from_dict, strategy_from_dict, write_csv, write_json)

EXIT_OK = 0
EXIT_USER = 2
EXIT_RUNTIME = 3


def _fail(exc, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)
    return code


def _simulator(doc: dict):
    """The simulator a config names."""
    sim_doc = doc["simulator"]
    if "table" in sim_doc:
        return tabular_simulator(sim_doc["table"], space_from_dict(doc["space"]),
                                 **given_fields(sim_doc, {"response_column": str}))
    return builtin_simulator(sim_doc["builtin"])


def _given(**values) -> dict:
    """The values a command-line flag sets."""
    return {k: v for k, v in values.items() if v is not None}


def _strategy(spec, overrides: dict | None = None) -> Strategy:
    """A strategy from its name or object, with the set CLI overrides applied."""
    if not isinstance(spec, (str, dict)):
        raise TypeError("strategy must be a name or an object")
    base = Strategy(spec) if isinstance(spec, str) else strategy_from_dict(spec)
    return replace(base, **(overrides or {}))


def _strategy_overrides(args) -> dict:
    return _given(kind=args.strategy, delta=args.delta, rho=args.rho, alpha=args.alpha, ei_alpha=args.ei_alpha)


# The optional keys of run, bench and verify configs, each with its conversion.
_SHARED = {"candidates_per_combo": integral, "seed": seed_value, "fit": fit_config_from_dict, "transform": str}
_RUN_OPTIONAL = {**_SHARED, "checkpoint_sizes": integrals}
_BENCH_OPTIONAL = {**_SHARED, "replicates": integral, "ref_per_combo": integral, "eps": real}
_FIELD_NAMES = {key: name for name, key in CONFIG_KEYS.items()}
# Every key each config may hold; any other is a misspelt setting.  The
# outcome keys that a resolved config.json adds are allowed and ignored, so
# that file decodes as the config it resolves.
_RUN_KEYS = {"simulator", "space", "strategy", "level", "n0", "N", "out", *_RUN_OPTIONAL, "aborted", "error"}
_BENCH_KEYS = {"simulator", "space", "strategies", "levels", "budgets", "n0", "out", *_BENCH_OPTIONAL,
               "fairness_checked", "fairness_violations"}
_VERIFY_OPTIONAL = {"alpha": real, "draws": integral, "per_combo": integral, "n_train": integral, "seed": integral}
_VERIFY_KEYS = {"space", "params", "level", "out", *_VERIFY_OPTIONAL}


def _decode_run(args, doc: dict):
    """(simulator, campaign config, config extras) of a run config; a one-shot
    config takes no n0, candidates_per_combo or checkpoint_sizes."""
    _reject_unknown_keys(doc, _RUN_KEYS, "run config")
    doc = {**doc, **_given(level=args.level, seed=args.seed, out=args.out,
                           candidates_per_combo=args.candidates_per_combo)}
    sim = _simulator(doc)
    strategy = _strategy(doc.get("strategy", "rcc"), _strategy_overrides(args))
    if strategy.kind == "one_shot":
        for key in ("n0", "candidates_per_combo", "checkpoint_sizes"):
            if key in doc:
                raise ValueError(f"field '{key}' does not apply to a one_shot run")
        doc.update(n0=doc["N"], candidates_per_combo=1)
    cfg = CampaignConfig(space=space_from_dict(doc["space"]) if "space" in doc else sim.space,
                         strategy=strategy, level=real(doc["level"]), n0=integral(doc["n0"]),
                         total_runs=integral(doc["N"]), **given_fields(doc, _RUN_OPTIONAL, _FIELD_NAMES))
    return sim, cfg, {"simulator": doc["simulator"], "out": doc["out"]}


def cmd_run(args) -> int:
    sim, cfg, extra = load_document(args.config, partial(_decode_run, args), "run config")
    try:
        trace = run_adaptive(sim, cfg)
    except CampaignError as exc:
        if exc.trace is not None:
            save_trace(exc.trace, extra["out"], extra)
        raise
    save_trace(trace, extra["out"], extra)
    print(json.dumps({"out": extra["out"], "n": len(trace.dataset), "iterations": len(trace.records)}))
    return EXIT_OK


def _read_points(path, space, response_column=None, transform="identity"):
    """The points of a CSV, each checked against the space, and its
    ``read_table`` arrays."""
    cols = read_table(path, space, response_column, transform)
    points = tuple(MixedPoint(tuple(x), tuple(z)) for x, z in zip(cols[0].tolist(), cols[1].tolist()))
    for point in points:
        space.validate_point(point)
    return points, cols


def cmd_suggest(args) -> int:
    if args.level is None:
        raise ValidationError("suggest: --level is required")
    strategy = _strategy(args.strategy or "rcc", _strategy_overrides(args))
    if not args.candidates and args.per_combo < 1:
        raise ValidationError(f"suggest: per_combo must be >= 1, got {args.per_combo}")
    model = load_model(args.model)
    if args.candidates:
        cands = CandidateSet(*_read_points(args.candidates, model.space)[1])
    else:
        cands = candidate_set(model.space, args.per_combo, args.seed or 0)
    point, report = suggest_next(model, cands, strategy, args.level)
    out = {
        "point": {"x": list(model.space.denormalize(point.x)), "z": list(point.z)},
        "report": {
            "chosen_index": report.chosen_index,
            "region": report.region,
            "a1_size": report.a1_size,
            "a2_size": report.a2_size,
            "a1_min_size": report.a1_min_size,
        },
        "strategy": asdict(strategy),
        "level": args.level,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_fit(args) -> int:
    config = FitConfig(**_given(n_starts=args.starts, seed=args.seed, max_fev=args.max_fev))
    space = load_document(args.space, space_from_dict, "space")
    points, (_, _, y) = _read_points(args.data, space, "y", args.transform)
    data = Dataset(points, y, transform=args.transform)
    model = fit(data, space, config)
    save_model(model, args.out)
    print(json.dumps({"out": args.out, "nll": model.nll, "jitter": model.jitter,
                      "fit": asdict(config), "transform": args.transform}))
    return EXIT_OK


def _decode_bench(args, doc: dict):
    """(simulator, bench config, config extras) of a bench config."""
    _reject_unknown_keys(doc, _BENCH_KEYS, "bench config")
    doc = {**doc, **_given(replicates=args.replicates, seed=args.seed, out=args.out)}
    sim = _simulator(doc)
    cfg = BenchConfig(strategies=tuple(_strategy(s) for s in doc["strategies"]),
                      levels=reals(doc["levels"]),
                      budgets=integrals(doc["budgets"]), n0=integral(doc["n0"]),
                      **given_fields(doc, _BENCH_OPTIONAL, _FIELD_NAMES))
    return sim, cfg, {"simulator": doc["simulator"], "out": doc["out"]}


def cmd_bench(args) -> int:
    workers = resolve_workers(args.parallel)  # before the config is read
    sim, cfg, extra = load_document(args.config, partial(_decode_bench, args), "bench config")
    outdir = extra["out"]
    result = replicate_benchmark(sim, cfg, workers=workers)
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "results.csv"),
              ["strategy", "a", "N", "replicate", "m_c0", "wall_time_s", "failed", "error"],
              [[r.strategy, r.level, r.budget, r.replicate, r.m_c0, r.wall_time_s,
                int(r.failed), r.error] for r in result.rows])
    write_csv(os.path.join(outdir, "summary.csv"),
              ["strategy", "a", "N", "mean_m_c0", "rel_efficiency", "n_ok", "n_failed", "valid"],
              [[s.strategy, s.level, s.budget, s.mean_m_c0, s.rel_efficiency,
                s.n_ok, s.n_failed, int(s.valid)] for s in result.summary])
    resolved = {**extra, **config_to_dict(cfg), "fairness_checked": result.fairness_checked,
                "fairness_violations": result.fairness_violations}
    write_json(os.path.join(outdir, "config.json"), resolved, sort_keys=True)
    print(json.dumps({"out": outdir, "rows": len(result.rows),
                      "fairness_violations": result.fairness_violations}))
    return EXIT_OK


def _decode_verify(args, doc: dict):
    """(verify config, config extras) of a verify config."""
    _reject_unknown_keys(doc, _VERIFY_KEYS, "verify config")
    doc = {**doc, **_given(seed=args.seed, out=args.out)}
    cfg = VerifyConfig(space_from_dict(doc["space"]), params_from_doc(doc["params"]), real(doc["level"]),
                       **given_fields(doc, _VERIFY_OPTIONAL))
    return cfg, {"space": doc["space"], "out": doc["out"]}


def cmd_verify(args) -> int:
    cfg, extra = load_document(args.config, partial(_decode_verify, args), "verify config")
    result = coverage_check(cfg)
    outdir = extra["out"]
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "coverage.csv"),
              ["alpha", "draws", "hits", "skipped", "coverage", "target",
               "theorem1_checked", "theorem1_violations"],
              [[cfg.alpha, result.draws, result.hits, result.skipped,
                result.coverage, result.target, result.theorem1_checked,
                result.theorem1_violations]])
    write_json(os.path.join(outdir, "config.json"), {**vars(cfg), **extra, "params": params_to_dict(cfg.params)},
               sort_keys=True)
    print(json.dumps({"coverage": result.coverage, "target": result.target,
                      "theorem1_violations": result.theorem1_violations}))
    return EXIT_OK


def _add_tuning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGY_KINDS)
    p.add_argument("--level", type=float, help="contour level on the raw response scale")
    p.add_argument("--delta", type=float, help="arbitration threshold")
    p.add_argument("--rho", type=float, help="confidence-bound tuning parameter")
    p.add_argument("--alpha", type=float, help="band coverage parameter in (0,1)")
    p.add_argument("--ei-alpha", dest="ei_alpha", type=float, help="improvement band width in sd units")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared after it:
    each ``parse_args`` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(prog="contour-seeker",
                                     description="Adaptive contour estimation for mixed-input computer experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--candidates-per-combo", dest="candidates_per_combo", type=int)
    p_run.add_argument("--out")
    _add_tuning_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sug = sub.add_parser("suggest", help="suggest the next input from a saved model")
    p_sug.add_argument("--model", required=True)
    p_sug.add_argument("--candidates", help="CSV of candidate points (x_1..x_p, z_1..z_q)")
    p_sug.add_argument("--per-combo", dest="per_combo", type=int, default=100)
    p_sug.add_argument("--seed", type=int)
    _add_tuning_flags(p_sug)
    p_sug.set_defaults(func=cmd_suggest)

    p_fit = sub.add_parser("fit", help="fit the surrogate to a CSV dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--space", required=True, help="JSON file with quant_bounds/qual_levels")
    p_fit.add_argument("--out", default="model.json")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--starts", type=int)
    p_fit.add_argument("--max-fev", dest="max_fev", type=int)
    p_fit.add_argument("--transform", default="identity", choices=["identity", "log"])
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("bench", help="replicated strategy benchmark")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--replicates", type=int)
    p_bench.add_argument("--parallel", type=int, default=1)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser("verify", help="Monte-Carlo verification of the band guarantees")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            args.seed = seed_value(args.seed)
        return args.func(args)
    except ValidationError as exc:
        return _fail(exc, EXIT_USER)
    except ContourSeekerError as exc:
        return _fail(exc, EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
