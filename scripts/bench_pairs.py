"""Paired perfbench runs of a parent checkout and this one, written as one JSON record.

    python3 scripts/bench_pairs.py --parent-dir ../parent --out BENCH_<tag>.json

For each workload, runs ``perfbench/run.py`` untraced ``--pairs`` times in
each checkout, alternating which side goes first, then traced in two pairs,
parent first and then change first, so that drift between runs falls on
both sides.  The record holds, per workload and side, the median and the
runs of each end-to-end metric (``op_p50_probes``, ``setup_s``,
``peak_rss_mb``), whether every run was correct with no failed operation,
and the mean and the runs of each traced per-layer metric.  It also holds
the machine stamp, each side's ``source_sha256`` (perfbench's hash of the
program and benchmark sources, taken in that side's checkout), each side's
commit and, per side, the best NLL, the evaluation count and a digest of
the fitted parameters of ``fit`` on five fixed designs.  A side's commit is
its HEAD when the directory is the top of a git checkout; otherwise (a
``git archive`` export, say) it is the newest commit in this checkout's
history whose sources hash to that side's ``source_sha256``, or null when
none does.  Run from the repository root; both checkouts need
``perfbench/`` and ``src/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ex1_campaign", "ex3_fit", "ex3_suggest", "band_verify")
END_TO_END = ("op_p50_probes", "setup_s", "peak_rss_mb")
# (simulator, n) fitted from initial_design(space, n, seed=5) with the default FitConfig;
# "ex3_fit" is the ex3_fit workload's design and fit, through the CLI
FIT_DESIGNS = (("example1", 9), ("example1", 20), ("example2", 18), ("example3", 27), ("ex3_fit", 27))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent-dir", help="checkout of the parent commit (required)")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--pairs", type=int, default=3, help="untraced runs per side and workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", help="output file (default: standard output)")
    p.add_argument("--fit-table", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.parent_dir is None and not args.fit_table:
        p.error("--parent-dir is required")
    return args


def perfbench(side_dir: Path, args, workload: str, trace: int) -> dict:
    """One perfbench run in ``side_dir``: the JSON object on its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size, "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {side_dir} printed nothing: {res.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def fit_table() -> list[dict]:
    """Best NLL, L-BFGS-B evaluation count and fitted-parameter digest of ``fit`` on FIT_DESIGNS.

    Runs in a child whose ``sys.path`` starts with one side's ``src`` and root.
    """
    import numpy as np

    import contour_seeker as cs
    from contour_seeker import ezgp
    from perfbench.run import call_cli
    from perfbench.workloads import Ex3Fit

    nfev, original = [], ezgp.minimize

    def counting(fun, x0, **kwargs):
        res = original(fun, x0, **kwargs)
        nfev.append(res.nfev)
        return res

    ezgp.minimize = counting
    rows = []
    for name, n in FIT_DESIGNS:
        nfev.clear()
        if name == "ex3_fit":
            with tempfile.TemporaryDirectory() as tmp:
                wl = Ex3Fit(1, tmp, "full", Path.cwd())
                wl.setup()
                rc, stdout, stderr, _ = call_cli(wl.argv(0))
                if rc != 0:
                    raise RuntimeError(f"ex3_fit fit failed: {stderr.strip()[-500:]}")
                nll = json.loads(stdout)["nll"]
                params = cs.load_model(wl.model_file).params
        else:
            sim = cs.builtin_simulator(name)
            points = cs.initial_design(sim.space, n, seed=5)
            data = cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))
            model = cs.fit(data, sim.space)
            nll, params = model.nll, model.params
        digest = hashlib.sha256(json.dumps(ezgp.params_to_dict(params)).encode()).hexdigest()
        rows.append({"design": name, "n": n, "nll": nll, "evaluations": sum(nfev), "params_sha256": digest})
    return rows


def side_fit_table(side_dir: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(side_dir / "src"), str(side_dir)]))
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--fit-table"],
                         cwd=side_dir, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"fit table in {side_dir} failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout)


def source_sha256(side_dir: Path) -> str:
    """perfbench's ``source_hash`` of the checkout in ``side_dir``."""
    res = subprocess.run([sys.executable, "-c", "from perfbench.run import source_hash; print(source_hash())"],
                         cwd=side_dir, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"source hash in {side_dir} failed: {res.stderr.strip()[-500:]}")
    return res.stdout.strip()


def git(repo: Path, *args: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=text)


def checkout_head(side_dir: Path) -> str | None:
    """HEAD of the git checkout whose top is ``side_dir``, else None: a
    directory inside another repository does not take that repository's HEAD."""
    top = git(side_dir, "rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != side_dir.resolve():
        return None
    head = git(side_dir, "rev-parse", "HEAD")
    return head.stdout.strip() if head.returncode == 0 else None


def side_commit(side_dir: Path, source: str) -> str | None:
    """The commit ``side_dir`` holds: its HEAD if it is the top of a checkout,
    else the newest commit of this checkout whose ``git archive`` export has
    ``source`` as its ``source_sha256``, else None."""
    head = checkout_head(side_dir)
    if head is not None:
        return head
    for commit in git(ROOT, "rev-list", "HEAD").stdout.split():
        archive = git(ROOT, "archive", commit, "src", "perfbench", "configs", text=False)
        if archive.returncode != 0:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            try:
                if source_sha256(Path(tmp)) == source:
                    return commit
            except RuntimeError:  # a commit from before perfbench's source_hash
                continue
    return None


def compare(args) -> dict:
    sides = {"parent": Path(args.parent_dir).resolve(), "change": ROOT}
    sys.path.insert(0, str(ROOT))
    from perfbench.run import machine_stamp

    workloads = {}
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(perfbench(sides[side], args, workload, trace=0))
        traced = {side: [] for side in sides}
        for order in (("parent", "change"), ("change", "parent")):
            for side in order:
                traced[side].append(perfbench(sides[side], args, workload, trace=1))
        entry = {}
        for metric in END_TO_END:
            entry[metric] = {}
            for side in sides:
                values = [r["metrics"][metric]["value"] for r in runs[side]]
                entry[metric][side] = {"median": statistics.median(values), "runs": values}
        entry["all_runs_correct_failed_0"] = all(r["correct"] and r["failed"] == 0
                                                 for side in sides for r in [*runs[side], *traced[side]])
        entry["traced"] = {}
        for name in traced["change"][0]["metrics"]:
            entry["traced"][name] = {}
            for side in sides:
                values = [r["metrics"][name]["value"] for r in traced[side]]
                entry["traced"][name][side] = {"mean": statistics.fmean(values), "runs": values}
        workloads[workload] = entry
    sources = {side: source_sha256(path) for side, path in sides.items()}
    return {
        "commands": {
            "untraced": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds} "
                        f"--size {args.size} --trace 0; {args.pairs} pairs per workload, alternating "
                        "which side runs first",
            "traced": "the same with --trace 1; two pairs per workload, parent first and then change first",
            "fit_table": "fit(data, space) on initial_design(space, n, seed=5) with the default FitConfig; "
                         "ex3_fit is the ex3_fit workload's seed-1 design and fit through the CLI; "
                         "params_sha256 is the sha256 of json.dumps(params_to_dict(params))",
        },
        "stamp": machine_stamp(),
        "commits": {side: side_commit(path, sources[side]) for side, path in sides.items()},
        "sources": {side: {"source_sha256": sources[side]} for side in sides},
        "workloads": workloads,
        "fit_table": {side: side_fit_table(path) for side, path in sides.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.fit_table:
        print(json.dumps(fit_table()))
        return 0
    text = json.dumps(compare(args), indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
