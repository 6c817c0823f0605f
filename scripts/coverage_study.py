"""Empirical coverage of the confidence band for several alpha values.

Each row samples GP paths from known hyperparameters on a finite mixed
grid and reports how often the minimum distance to the contour level
falls inside [min lb, min ub], together with the count of violations of
the minimum-gap bound on covered draws.
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import contour_seeker as cs
from contour_seeker.traceio import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.05, 0.1, 0.25, 0.5])
    ap.add_argument("--draws", type=int, default=500)
    ap.add_argument("--per-combo", type=int, default=50)
    ap.add_argument("--n-train", type=int, default=10)
    ap.add_argument("--level", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="runs/coverage_study")
    args = ap.parse_args()

    space = cs.make_space([(0, 1)], [3])
    truth = cs.EzGpParams(
        mu=0.0,
        sigma2=np.array([1.0, 0.5]),
        theta0=np.array([5.0]),
        theta=(np.array([[4.0, 6.0, 8.0]]),),
    )

    rows = []
    for alpha in args.alphas:
        res = cs.coverage_check(cs.VerifyConfig(space, truth, args.level, alpha, draws=args.draws,
                                                per_combo=args.per_combo, n_train=args.n_train, seed=args.seed))
        rows.append([alpha, res.draws, res.hits, res.skipped, res.coverage,
                     res.target, res.theorem1_checked, res.theorem1_violations])
        print(f"alpha={alpha:<5} coverage={res.coverage:.3f} (target > {res.target:.2f}) "
              f"bound violations={res.theorem1_violations}")

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "coverage.csv"),
              ["alpha", "draws", "hits", "skipped", "coverage", "target",
               "theorem1_checked", "theorem1_violations"], rows)
    print(f"written to {args.out}/coverage.csv")


if __name__ == "__main__":
    main()
