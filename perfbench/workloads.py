"""The benchmark's workloads: seeded inputs, one CLI argv per operation, output checks.

Every operation is one in-process call of ``contour_seeker.cli.main``, the
path users take.  A workload writes its inputs under its work directory,
builds the argv of operation ``i`` from the run seed, and afterwards checks
the operation's outputs and hashes the ones that must be byte-stable.

``ex1_campaign`` and ``ex3_fit`` give every operation of a run the same
inputs (``FIXED_INPUTS``), so a run's median always times the same campaign
or fit, however many operations fit into the run; their operations must
then also agree with each other on digests and exact counts.

``size`` is ``full`` for measurement and ``tiny`` for the warm-up call and
the smoke tests; both sizes run the same code paths.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

import contour_seeker as cs
from contour_seeker.ezgp import DUPLICATE_TOL
from contour_seeker.traceio import read_csv, write_csv

LEVELS_3 = (3, 3, 3)

# Fixed hyperparameters of the ex3_suggest model: no fit runs in that workload.
SUGGEST_PARAMS = cs.EzGpParams(
    mu=0.0,
    sigma2=np.array([1.0, 0.3, 0.3, 0.3]),
    theta0=np.array([2.0, 2.0, 2.0]),
    theta=tuple(np.full((3, 3), 1.0) for _ in range(3)),
)


def sub_seed(seed: int, tag: int, i: int) -> int:
    """Seed of input stream ``tag``, item ``i``, derived from the run seed."""
    return int(np.random.SeedSequence([seed % 2**64, tag, i]).generate_state(1)[0] % 2**31)


def p95(samples) -> float:
    """95th percentile by nearest rank.

    Ten samples lie beyond it from 200 samples on; with fewer it reads as
    one of the slowest operations, and the summary says how many lie beyond.
    """
    xs = sorted(samples)
    return xs[math.ceil(0.95 * len(xs)) - 1]


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _rows(path) -> list[list[str]]:
    return read_csv(path)[1]


class Workload:
    """Base: subclasses set ``name`` and ``SIZES`` and implement the hooks."""

    name = ""
    SIZES: dict[str, dict] = {}
    FIXED_INPUTS = False

    def __init__(self, seed: int, workdir, size: str, root):
        self.seed = seed
        self.dir = Path(workdir)
        self.size = self.SIZES[size]
        self.root = Path(root)

    def setup(self) -> None:
        """Write the inputs every operation shares."""

    def argv(self, i: int) -> list[str]:
        """Prepare operation ``i``'s inputs and return its CLI arguments."""
        raise NotImplementedError

    def check(self, i: int, stdout: str) -> tuple[list[str], str, float | None]:
        """(problems, digest of byte-stable outputs, quality value or None)."""
        raise NotImplementedError

    def headline(self, secs: list[float], qualities: list[float]) -> list[tuple]:
        """This workload's own end-to-end figures: (name, value, unit, samples)."""
        raise NotImplementedError


class Ex1Campaign(Workload):
    """``run`` of example1 with RCC: the paper's headline campaign."""

    name = "ex1_campaign"
    FIXED_INPUTS = True
    SIZES = {
        "full": {"N": 21, "per_combo": 100, "fit": {}, "ref_per_combo": 200, "eps": 0.05},
        "tiny": {"N": 11, "per_combo": 10, "fit": {"n_starts": 1, "max_fev": 40},
                 "ref_per_combo": 50, "eps": 0.2},
    }
    LEVEL = -0.9
    N0 = 9

    def setup(self):
        self.config = self.dir / "ex1_rcc.json"
        self.out = self.dir / "ex1_out"
        doc = {
            "simulator": {"builtin": "example1"},
            "strategy": {"kind": "rcc", "delta": 0.05},
            "level": self.LEVEL, "n0": self.N0, "N": self.size["N"],
            "candidates_per_combo": self.size["per_combo"],
            "fit": self.size["fit"], "seed": 0, "out": str(self.out),
        }
        self.config.write_text(json.dumps(doc, indent=1))
        sim = cs.builtin_simulator("example1")
        self.ref = cs.reference_contour(sim, sim.space, self.LEVEL, self.size["eps"],
                                        self.size["ref_per_combo"], sub_seed(self.seed, 10, 0))

    def argv(self, i):
        return ["run", str(self.config), "--seed", str(sub_seed(self.seed, 1, 0)), "--out", str(self.out)]

    def check(self, i, stdout):
        problems = []
        files = [self.out / n for n in ("trace.csv", "design.csv", "model.json")]
        design = _rows(files[1])
        if len(design) != self.size["N"]:
            problems.append(f"design has {len(design)} points, expected {self.size['N']}")
        if len(_rows(files[0])) != self.size["N"] - self.N0:
            problems.append("trace.csv does not have one row per iteration")
        model = cs.load_model(files[2])
        pts = model.data.points
        dupes = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))
                 if pts[a].z == pts[b].z
                 and max(abs(u - v) for u, v in zip(pts[a].x, pts[b].x)) <= DUPLICATE_TOL]
        if dupes:
            problems.append(f"duplicate design points {dupes}")
        err = cs.m_c0(model, self.ref)
        if not math.isfinite(err):
            problems.append(f"m_c0 is {err}")
        return problems, sha256_files(*files), err

    def headline(self, secs, qualities):
        return [("campaign_s", statistics.median(secs), "s", len(secs)),
                ("m_c0", statistics.fmean(qualities) if qualities else math.nan, "1", len(qualities))]


class Ex3Fit(Workload):
    """``fit`` of a 27-point example3 design, one point per level combination, written at set-up."""

    name = "ex3_fit"
    FIXED_INPUTS = True
    SIZES = {"full": {"extra": []}, "tiny": {"extra": ["--starts", "1", "--max-fev", "40"]}}
    N_POINTS = 27

    def setup(self):
        self.space_file = self.dir / "ex3_space.json"
        self.data_file = self.dir / "ex3_design.csv"
        self.model_file = self.dir / "ex3_model.json"
        self.space_file.write_text(json.dumps({"quant_bounds": [[0.0, 1.0]] * 3,
                                               "qual_levels": list(LEVELS_3)}))
        sim = cs.builtin_simulator("example3")
        points = cs.initial_design(sim.space, self.N_POINTS, sub_seed(self.seed, 2, 0))
        rows = [[*sim.space.denormalize(pt.x), *pt.z, sim.evaluate(pt)] for pt in points]
        write_csv(self.data_file, ["x_1", "x_2", "x_3", "z_1", "z_2", "z_3", "y"], rows)

    def argv(self, i):
        return ["fit", "--data", str(self.data_file), "--space", str(self.space_file),
                "--out", str(self.model_file), "--seed", str(sub_seed(self.seed, 3, 0)),
                *self.size["extra"]]

    def check(self, i, stdout):
        problems = []
        model = cs.load_model(self.model_file)
        recomputed = cs.neg_log_likelihood(model.params, model.data, model.space, model.jitter)
        if recomputed != model.nll:
            problems.append(f"saved nll {model.nll!r} != likelihood of saved params {recomputed!r}")
        if json.loads(stdout)["nll"] != model.nll:
            problems.append("printed nll differs from the saved model")
        return problems, sha256_files(self.model_file), model.nll

    def headline(self, secs, qualities):
        return [("fit_s", statistics.median(secs), "s", len(secs)),
                ("fit_nll", statistics.fmean(qualities) if qualities else math.nan, "1", len(qualities))]


class Ex3Suggest(Workload):
    """``suggest`` against a conditioned 30-point example3 model (no fit)."""

    name = "ex3_suggest"
    SIZES = {"full": {"per_combo": 200}, "tiny": {"per_combo": 5}}
    N_POINTS = 30
    LEVEL = 5.0

    def setup(self):
        sim = cs.builtin_simulator("example3")
        self.space = sim.space
        points = cs.initial_design(sim.space, self.N_POINTS, sub_seed(self.seed, 4, 0))
        data = cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))
        self.model_file = self.dir / "ex3_suggest_model.json"
        cs.save_model(cs.condition(SUGGEST_PARAMS, data, sim.space), self.model_file)

    def argv(self, i):
        return ["suggest", "--model", str(self.model_file), "--strategy", "rcc",
                "--level", str(self.LEVEL), "--per-combo", str(self.size["per_combo"]),
                "--seed", str(sub_seed(self.seed, 5, i))]

    def check(self, i, stdout):
        problems = []
        point = json.loads(stdout)["point"]
        for k, (v, (lo, hi)) in enumerate(zip(point["x"], self.space.quant_bounds)):
            if not lo <= v <= hi:
                problems.append(f"x_{k + 1}={v} outside [{lo}, {hi}]")
        for h, (l, m) in enumerate(zip(point["z"], self.space.qual_levels)):
            if not 1 <= l <= m:
                problems.append(f"z_{h + 1}={l} outside 1..{m}")
        if len(point["x"]) != self.space.p or len(point["z"]) != self.space.q:
            problems.append(f"point {point} has the wrong dimensions")
        return problems, hashlib.sha256(stdout.encode()).hexdigest(), None

    def headline(self, secs, qualities):
        return [("suggest_p50_ms", 1e3 * statistics.median(secs), "ms", len(secs)),
                ("suggest_p95_ms", 1e3 * p95(secs), "ms", len(secs))]


class BandVerify(Workload):
    """``verify`` on the space and hyperparameters of ``configs/verify_band.json``."""

    name = "band_verify"
    SIZES = {"full": {"draws": 500}, "tiny": {"draws": 3}}

    def setup(self):
        base = json.loads((self.root / "configs" / "verify_band.json").read_text())
        self.out = self.dir / "verify_out"
        doc = {k: base[k] for k in ("space", "params", "level", "alpha", "per_combo", "n_train")}
        doc.update(draws=self.size["draws"], seed=0, out=str(self.out))
        self.config = self.dir / "verify_band.json"
        self.config.write_text(json.dumps(doc, indent=1))

    def argv(self, i):
        return ["verify", "--config", str(self.config), "--seed", str(sub_seed(self.seed, 6, i)),
                "--out", str(self.out)]

    def check(self, i, stdout):
        problems = []
        coverage = self.out / "coverage.csv"
        header, rows = read_csv(coverage)
        row = dict(zip(header, rows[0]))
        if float(row["coverage"]) < float(row["target"]):
            problems.append(f"coverage {row['coverage']} below target {row['target']}")
        if int(row["theorem1_violations"]) != 0:
            problems.append(f"{row['theorem1_violations']} theorem-1 violations")
        if int(row["skipped"]) != 0:
            problems.append(f"{row['skipped']} skipped draws")
        return problems, sha256_files(coverage), None

    def headline(self, secs, qualities):
        return [("verify_draws_per_s", self.size["draws"] / statistics.median(secs), "1/s", len(secs))]


WORKLOADS = {w.name: w for w in (Ex1Campaign, Ex3Fit, Ex3Suggest, BandVerify)}
