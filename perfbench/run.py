#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ex1_campaign --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; the run fails with exit code 2 when it is
missing.  Each operation is one in-process call of
``contour_seeker.cli.main`` with inputs made from ``--seed``.  Operations
repeat, one at a time, until ``--seconds`` have passed.

``--trace 0`` times the operations untraced and reports the end-to-end
metrics.  ``--trace 1`` runs each operation twice on the same inputs, once
untraced and once with spans at every layer boundary, alternating which
goes first; it reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give every metric with its unit and sample count.  A full record
(machine stamp, samples, digests) goes to ``perfbench/_results/`` and, for
a traced run, the spans too.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "_results"

SETUP_PROBES = {"full": 3, "tiny": 1}
# Set-up is timed against a fresh interpreter doing this fixed import, whose
# wall time on the baseline machine is REF_IMPORT_NOMINAL_S (see NOTES.md).
REF_IMPORT = "import numpy, scipy.linalg"
REF_IMPORT_NOMINAL_S = 0.58
WARMUP_SECONDS = 2.0


# Exact counts that must repeat for one seed (ROADMAP aim 2's byte-identity gate).
EXACT_COUNTS = ("nll_evals", "opt_starts", "eval_calls")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                   help="input size; 'tiny' is for smoke tests")
    p.add_argument("--setup-probe", dest="setup_probe", metavar="DIR",
                   help="set up into DIR and exit (used to time set-up in a fresh interpreter)")
    return p.parse_args(argv)


def source_hash() -> str:
    """Hash of the program and benchmark sources; keys the determinism record."""
    h = hashlib.sha256()
    files = sorted((SRC / "contour_seeker").glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files + [ROOT / "configs" / "verify_band.json"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git(*args) -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)perfbench") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_hash(),
    }


def call_cli(argv) -> tuple[int | None, str, str, float]:
    """One in-process ``cli.main`` call: (exit code, stdout, stderr, seconds).

    An exception escaping the CLI counts as a failed operation, not a crash.
    """
    from contour_seeker import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


def run_op(wl, i: int, tracer=None) -> dict:
    """Prepare, run and check operation ``i``; traced when ``tracer`` is given."""
    from perfbench.tracing import traced_library

    argv = wl.argv(i)
    if tracer is None:
        rc, stdout, stderr, seconds = call_cli(argv)
    else:
        tracer.op = i
        with traced_library(tracer), tracer.span("cli.main"):
            rc, stdout, stderr, seconds = call_cli(argv)
    rec = {"op": i, "seconds": seconds, "rc": rc, "problems": [], "digest": None, "quality": None}
    if rc != 0:
        rec["problems"].append(f"exit code {rc}: {stderr.strip()[-500:]}")
        return rec
    try:
        rec["problems"], rec["digest"], rec["quality"] = wl.check(i, stdout)
    except Exception as exc:  # a missing or malformed output is a failed check
        rec["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
    return rec


def setup_probe(args) -> int:
    """Set up in this fresh interpreter, including one tiny warm-up call.

    Prints when set-up ended, on ``time.monotonic``, which all processes share.
    """
    from perfbench.workloads import WORKLOADS

    make_workload(WORKLOADS[args.workload], args, Path(args.setup_probe))
    print(json.dumps({"done": time.monotonic()}))
    return 0


def make_workload(cls, args, workdir: Path):
    """Set up a workload and a tiny twin; one tiny call warms lazy imports.

    Returns (workload, tiny twin).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tiny = cls(args.seed, workdir / "warmup", "tiny", ROOT)
    tiny.dir.mkdir(exist_ok=True)
    tiny.setup()
    call_cli(tiny.argv(0))
    wl = cls(args.seed, workdir, args.size, ROOT)
    wl.setup()
    return wl, tiny


def warm_up(tiny, seconds: float) -> None:
    """Keep this process busy with tiny calls before timing.

    After waiting on the set-up children, the first calls here run up to
    ten times slower for about a second, as the idle CPU comes back.
    """
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        call_cli(tiny.argv(0))


def time_reference_import() -> float:
    """Wall time of a fresh interpreter that runs REF_IMPORT and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", REF_IMPORT], cwd=ROOT, capture_output=True, check=True,
                   timeout=170)
    return time.monotonic() - t0


def time_setup(args, workdir: Path) -> list[dict]:
    """Set-up in fresh interpreters, one child at a time, between reference imports.

    Each sample holds the wall time from launching the child to the end of
    its set-up, the mean of the reference imports just before and after it,
    and their ratio expressed in seconds (times REF_IMPORT_NOMINAL_S).
    """
    samples = []
    before = time_reference_import()
    for k in range(SETUP_PROBES[args.size]):
        probe_dir = workdir / f"probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe", str(probe_dir)]
        t0 = time.monotonic()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        wall = json.loads(res.stdout.strip().splitlines()[-1])["done"] - t0
        after = time_reference_import()
        ref = (before + after) / 2
        samples.append({"wall_s": wall, "ref_import_s": ref,
                        "scaled_s": wall / ref * REF_IMPORT_NOMINAL_S})
        before = after
    return samples


def determinism_check(args, records, counts, fixed_inputs: bool) -> list[str]:
    """Compare per-operation digests and exact counts with earlier runs of this seed.

    With ``fixed_inputs`` every operation of the run must also match op 0.

    The record lives in ``perfbench/_results`` and is keyed by the source
    hash, so a change to the program or the benchmark starts a new one.
    """
    path = RESULTS_DIR / f"determinism-{args.workload}-{args.size}-seed{args.seed}.json"
    code = source_hash()
    digests = [r["digest"] for r in records]
    old = json.loads(path.read_text()) if path.is_file() else {}
    if old.get("code") != code:
        old = {"code": code, "digests": [], "counts": {}}
    problems = [f"op {i}: digest differs from an earlier run of this seed"
                for i, (a, b) in enumerate(zip(digests, old["digests"])) if a != b]
    if fixed_inputs:
        problems += [f"op {i}: digest differs from op 0 on the same inputs"
                     for i, d in enumerate(digests) if d != digests[0]]
        problems += [f"op {op}: counts {row} differ from op 0 on the same inputs"
                     for op, row in counts.items() if row != counts[0]]
    for op, row in counts.items():
        prev = old["counts"].get(str(op))
        if prev is not None and prev != row:
            problems.append(f"op {op}: counts {row} differ from an earlier run {prev}")
    if not problems:
        merged = digests if len(digests) > len(old["digests"]) else old["digests"]
        old_counts = {**old["counts"], **{str(op): row for op, row in counts.items()}}
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"code": code, "digests": merged, "counts": old_counts}, indent=1))
    return problems


def measure(wl, seconds: float) -> tuple[list[dict], list[float]]:
    """Untraced operations until ``seconds`` pass, with reference probes.

    Returns the operation records and the probe samples (perfbench/probe.py).
    A record's ``seconds`` excludes probing inside it; ``wall_s`` includes it.
    """
    from perfbench.probe import Prober

    prober = Prober()
    prober.block()
    records = []
    t0 = time.perf_counter()
    while not records or time.perf_counter() - t0 < seconds:
        with prober.inside() as spent:
            rec = run_op(wl, len(records))
        rec["wall_s"], rec["seconds"] = rec["seconds"], rec["seconds"] - spent[0]
        records.append(rec)
        prober.maybe_block()
    return records, prober.samples


def measure_traced(wl, seconds: float, tracer):
    """Pairs of (untraced, traced) runs of the same operation."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        i = len(plain)
        if i % 2 == 0:
            plain.append(run_op(wl, i))
            traced.append(run_op(wl, i, tracer))
        else:
            traced.append(run_op(wl, i, tracer))
            plain.append(run_op(wl, i))
    return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contour_seeker" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import contour_seeker

    if Path(contour_seeker.__file__).resolve().parent != SRC / "contour_seeker":
        print(f"perfbench: imported contour_seeker from {contour_seeker.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, p95

    stamp = machine_stamp()
    setup_samples = time_setup(args, workdir)
    setup_s = statistics.median(x["scaled_s"] for x in setup_samples)
    wl, tiny = make_workload(WORKLOADS[args.workload], args, workdir)
    warm_up(tiny, WARMUP_SECONDS)

    tracer = Tracer()
    if args.trace:
        records, traced = measure_traced(wl, args.seconds, tracer)
    else:
        (records, probes), traced = measure(wl, args.seconds), []
    ops = records + traced
    problems = [f"op {r['op']}: {p}" for r in ops for p in r["problems"]]
    failed = sum(bool(r["problems"]) for r in ops)

    secs = [r["seconds"] for r in records]
    qualities = [r["quality"] for r in records if r["quality"] is not None]
    lines = wl.headline(secs, qualities) + [
        ("setup_s", setup_s, "s", len(setup_samples)),
        ("setup_wall_s", statistics.median(x["wall_s"] for x in setup_samples), "s", len(setup_samples)),
        ("setup_ref_import_s", statistics.median(x["ref_import_s"] for x in setup_samples), "s",
         len(setup_samples)),
        ("failed_frac", failed / len(ops), "1", len(ops))]
    if args.trace:
        metrics, counts = traced_metrics(args, records, traced, tracer, qualities, problems)
        lines += [(name, m["value"], m["unit"], len(traced)) for name, m in metrics.items()]
    else:
        counts = {}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_s = statistics.median(probes)
        metrics = {
            "op_p50_probes": {"value": statistics.median(secs) / probe_s, "unit": "probes"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        lines += [("op_p50_ms", 1e3 * statistics.median(secs), "ms", len(secs)),
                  ("op_p95_ms", 1e3 * p95(secs), "ms", len(secs)),
                  ("op_samples_beyond_p95", sum(x > p95(secs) for x in secs), "count", len(secs)),
                  ("peak_rss_mb", peak_mb, "MB", 1),
                  ("reference_probe_ms", 1e3 * probe_s, "ms", len(probes)),
                  ("op_p50_probes", statistics.median(secs) / probe_s, "probes", len(secs))]
    problems += determinism_check(args, records, counts, wl.FIXED_INPUTS)

    correct = not problems
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "stamp": stamp, "summary": [list(x) for x in lines],
        "setup_samples": setup_samples, "problems": problems, "result": result,
        "ops": records, "traced_ops": traced, "counts": {str(k): v for k, v in counts.items()},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"failed={failed} correct={correct} record={out.relative_to(ROOT)}")
    for name, value, unit, n in lines:
        print(f"#   {name:<32} {value:>14.6g} {unit:<6} n={n}")
    for p in problems[:20]:
        print(f"# problem: {p}")
    print(json.dumps(result))
    return 0


def traced_metrics(args, records, traced, tracer, qualities, problems):
    """Per-layer metrics and exact per-operation counts of a traced run.

    Appends to ``problems`` when traced outputs differ from untraced ones or
    a span's children do not add up to it, and writes the spans out.
    """
    from perfbench.tracing import PER_LAYER_UNITS, additivity_errors, layer_metrics, op_counts

    problems += [f"op {a['op']}: traced output differs from untraced"
                 for a, b in zip(records, traced) if a["digest"] != b["digest"]]
    problems += [f"span {sid}: children do not add up" for sid in additivity_errors(tracer.spans)]
    counts = {op: dict.fromkeys(EXACT_COUNTS, 0) for op in range(len(traced))}
    for op, row in op_counts(tracer.spans).items():
        counts[op] = {k: row[k] for k in EXACT_COUNTS}

    spent_plain = sum(r["seconds"] for r in records)
    layer = layer_metrics(tracer.spans, len(traced))
    layer["trace.overhead_frac"] = (sum(r["seconds"] for r in traced) - spent_plain) / spent_plain
    mean_quality = statistics.fmean(qualities) if qualities else 0.0
    layer["quality.m_c0"] = mean_quality if args.workload == "ex1_campaign" else 0.0
    layer["quality.fit_nll"] = mean_quality if args.workload == "ex3_fit" else 0.0

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.to_dict(), separators=(",", ":")) + "\n")
    return {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in layer.items()}, counts


if __name__ == "__main__":
    sys.exit(main())
