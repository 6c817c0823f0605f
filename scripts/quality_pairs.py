"""Paired quality statistics of ``bench`` results, as one JSON record.

    python3 scripts/quality_pairs.py runs/change/results.csv [--parent runs/parent/results.csv] --out q.json

Reads the ``results.csv`` of one or more ``contour-seeker bench`` runs.
Within a replicate every strategy shares the initial design and candidate
streams, so a replicate pairs the strategies of one (level, budget).  For
each cell (strategy, level a, budget N) the record holds ``n_ok``, the
replicates that did not fail, and for each comparison the paired mean and
95% t-interval of log(m_c0 / m_c0 of the reference) over the replicates
where both are ok, with how many of them differ at all:
- ``vs_rcc``: against RCC in the same replicate;
- ``vs_one_shot``: against the one-shot design of the same size;
- ``change_vs_parent``: given ``--parent`` files, one per results file and
  from the same config, log(m_c0 / m_c0 of the parent's run) of the same
  strategy and replicate.

``above_zero`` lists each cell whose change/parent interval lies wholly
above 0, that is, where the change is worse with 95% confidence.  A
comparison of fewer than two pairs has no interval (null).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
from scipy.special import stdtrit


def read_results(path) -> dict:
    """{(strategy, a, N): {replicate: m_c0}} of the rows that did not fail
    and have a finite, positive m_c0; every cell of the file is a key."""
    cells = defaultdict(dict)
    with open(path, newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            values = cells[row["strategy"], float(row["a"]), int(row["N"])]
            m = float(row["m_c0"])
            if row["failed"] == "0" and math.isfinite(m) and m > 0:
                values[int(row["replicate"])] = m
    return dict(cells)


def paired(values: dict, reference: dict | None) -> dict | None:
    """Mean and 95% t-interval of log(value / reference) over the replicates
    both hold, and how many of those differ; None without a reference."""
    if reference is None:
        return None
    common = sorted(set(values) & set(reference))
    logs = np.array([math.log(values[r] / reference[r]) for r in common])
    out = {"pairs": len(common), "differ": int(np.count_nonzero(logs)), "mean": None, "low": None, "high": None}
    if common:
        out["mean"] = float(logs.mean())
    if len(common) >= 2:
        half = float(stdtrit(len(common) - 1, 0.975) * logs.std(ddof=1) / math.sqrt(len(common)))
        out["low"], out["high"] = out["mean"] - half, out["mean"] + half
    return out


def table(results_path, parent_path=None) -> dict:
    change = read_results(results_path)
    parent = read_results(parent_path) if parent_path else None
    cells = []
    for (strategy, a, n), values in change.items():
        cell = {"strategy": strategy, "a": a, "N": n, "n_ok": len(values),
                "vs_rcc": paired(values, change.get(("rcc", a, n))),
                "vs_one_shot": paired(values, change.get(("one_shot", a, n)))}
        if parent is not None:
            cell["parent_n_ok"] = len(parent.get((strategy, a, n), {}))
            cell["change_vs_parent"] = paired(values, parent.get((strategy, a, n), {}))
        cells.append(cell)
    return {"results": str(results_path), "parent": parent_path and str(parent_path), "cells": cells}


def record(results, parents) -> dict:
    tables = [table(path, parent) for path, parent in zip(results, parents)]
    above = [{"results": t["results"], "strategy": c["strategy"], "a": c["a"], "N": c["N"]}
             for t in tables for c in t["cells"]
             if c.get("change_vs_parent") and c["change_vs_parent"]["low"] is not None
             and c["change_vs_parent"]["low"] > 0]
    stamp = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
             "machine": platform.machine(), "system": platform.system()}
    return {"stamp": stamp, "tables": tables, "above_zero": above}


def fmt(stats: dict | None) -> str:
    if stats is None or stats["mean"] is None:
        return "-"
    interval = "" if stats["low"] is None else f" [{stats['low']:+.2f}, {stats['high']:+.2f}]"
    return f"{stats['mean']:+.2f}{interval} ({stats['differ']} differ)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="+", help="results.csv of a bench run (the change side)")
    p.add_argument("--parent", nargs="+", help="the parent's results.csv for each results file, in order")
    p.add_argument("--out", help="output file (default: standard output)")
    args = p.parse_args(argv)
    if args.parent is not None and len(args.parent) != len(args.results):
        p.error(f"--parent needs one file per results file, got {len(args.parent)} for {len(args.results)}")
    doc = record(args.results, args.parent or [None] * len(args.results))
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        for t in doc["tables"]:
            print(t["results"])
            for c in t["cells"]:
                print(f"  {c['strategy']:>8} a={c['a']:<6} N={c['N']:<3} n_ok={c['n_ok']:<3} "
                      f"vs RCC {fmt(c['vs_rcc']):<32} vs one-shot {fmt(c['vs_one_shot']):<32}"
                      + (f" change/parent {fmt(c['change_vs_parent'])}" if "change_vs_parent" in c else ""))
        print(f"cells with a change/parent interval wholly above 0: {len(doc['above_zero'])}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
