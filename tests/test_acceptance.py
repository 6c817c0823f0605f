"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with `pytest -s` to see all
of them).  Criteria 6 and 7 share one benchmark run via a module fixture.
"""
import json
import math
import time

import numpy as np
import pytest

import contour_seeker as cs
from contour_seeker.cli import main
from contour_seeker.design_space import point_arrays
from contour_seeker.ezgp import condition, cross_covariance
from contour_seeker.traceio import read_csv

from conftest import Prediction, covariance, normalize, random_params, random_points, score


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_gp_property_suite():
    """Kernel symmetry exact; Gram PSD on 200 random draws; interpolation
    within 1e-6 of the response range; n<=4 brute-force equivalence at
    1e-9 relative.  Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    space = cs.make_space([(0, 1), (0, 1)], [3, 2])

    # kernel symmetry: exact float equality
    for _ in range(200):
        params = random_params(space, rng)
        a, b = random_points(space, 2, rng, min_dist=0.0)
        (xa, za), (xb, zb) = point_arrays([a]), point_arrays([b])
        assert cross_covariance(params, xa, za, xb, zb) == cross_covariance(params, xb, zb, xa, za)

    # PSD check on 200 random (params, points <= 12) draws
    for _ in range(200):
        n = int(rng.integers(2, 13))
        params = random_params(space, rng)
        pts = random_points(space, n, rng, min_dist=0.0)
        x = np.array([p.x for p in pts])
        z = np.array([p.z for p in pts])
        gram = cross_covariance(params, x, z, x, z)
        assert float(np.linalg.eigvalsh(gram)[0]) >= -1e-8 * np.trace(gram) / n

    # interpolation on conditioned models
    for _ in range(20):
        n = int(rng.integers(4, 11))
        params = random_params(space, rng, theta_range=(0.1, 30.0))
        pts = random_points(space, n, rng)
        y = rng.normal(size=n)
        data = cs.Dataset(tuple(pts), y)
        model = condition(params, data, space)
        span = float(np.ptp(y))
        for pt, target in zip(pts, y):
            means, sds = cs.predict_batch(model, *point_arrays([pt]))
            assert abs(means[0] - target) <= 1e-6 * span
            assert sds[0] ** 2 <= 10.0 * model.jitter

    # n <= 4 brute-force equivalence (likelihood and prediction)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        params = random_params(space, rng)
        pts = random_points(space, n, rng)
        data = cs.Dataset(tuple(pts), rng.normal(size=n))
        jitter = 1e-8 * params.total_variance
        phi = np.array([[covariance(params, a, b) for b in pts] for a in pts]) + jitter * np.eye(n)
        inv = np.linalg.inv(phi)
        ones = np.ones(n)
        y = data.responses
        sign, logdet = np.linalg.slogdet(phi)
        brute = logdet + y @ inv @ y - (ones @ inv @ y) ** 2 / (ones @ inv @ ones)
        fast = cs.neg_log_likelihood(params, data, space, jitter=jitter)
        assert fast == pytest.approx(brute, rel=1e-9, abs=1e-9)

        model = condition(params, data, space, jitter=jitter)
        w = random_points(space, 1, rng)[0]
        r0 = np.array([covariance(params, w, pt) for pt in pts])
        mu_hat = (ones @ inv @ y) / (ones @ inv @ ones)
        mean = mu_hat + r0 @ inv @ (y - mu_hat * ones)
        var = max(params.total_variance - r0 @ inv @ r0
                  + (1 - ones @ inv @ r0) ** 2 / (ones @ inv @ ones), 0.0)
        means, sds = cs.predict_batch(model, *point_arrays([w]))
        assert means[0] == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert sds[0] ** 2 == pytest.approx(var, rel=1e-9, abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"GP property suite in {elapsed:.1f}s")


def test_criterion_2_ei_monte_carlo_oracle():
    """Closed-form improvement matches the Monte-Carlo mean of the raw
    improvement (1e6 draws) within 3 standard errors at 20 random
    configurations.  Budget: 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    z = rng.standard_normal(1_000_000)
    worst = 0.0
    for _ in range(20):
        dist = float(rng.uniform(-3.0, 3.0))
        sd = float(rng.uniform(0.05, 2.5))
        ei_alpha = float(rng.uniform(0.5, 3.0))
        level = 0.7
        mean = level + dist
        y = mean + sd * z
        eps = ei_alpha * sd
        draws = eps ** 2 - np.minimum((y - level) ** 2, eps ** 2)
        se = float(draws.std() / math.sqrt(len(draws)))
        ctx = cs.AcquisitionContext(level, 9, 3, delta=0.05, ei_alpha=ei_alpha)
        gap = abs(score("ei", mean, sd, ctx) - float(draws.mean()))
        worst = max(worst, gap / se if se > 0 else 0.0)
        # the 1e-10 floor covers pure float roundoff when the improvement is
        # identically zero on every draw (SE collapses to 0)
        assert gap <= 3.0 * se + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"20 configs, worst gap {worst:.2f} SE, {elapsed:.1f}s")


def test_criterion_3_ecl_identities():
    """Maximum log 2 at the level (1e-12); reflection symmetry (1e-12);
    monotone decay in the standardized distance."""
    def ecl(mean, sd, level):
        return score("ecl", mean, sd, cs.AcquisitionContext(level, n=1, num_combos=1))

    assert ecl(1.23, 0.8, 1.23) == pytest.approx(math.log(2.0), abs=1e-12)
    rng = np.random.default_rng(3003)
    for _ in range(300):
        c = float(rng.uniform(1e-4, 20.0))
        sd = float(rng.uniform(1e-3, 10.0))
        level = float(rng.normal())
        assert abs(ecl(level + c, sd, level) - ecl(level - c, sd, level)) <= 1e-12
    ts = np.linspace(0.0, 8.0, 200)
    vals = [ecl(t, 1.0, 0.0) for t in ts]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= math.log(2.0) + 1e-12 for v in vals)
    report(3, "max, symmetry, monotone decay verified")


def test_criterion_4_partition_invariants():
    """1000 random prediction sets: disjoint cover, filter soundness, and a
    never-empty restricted region for the distance criterion."""
    rng = np.random.default_rng(4004)
    for _ in range(1000):
        n = int(rng.integers(1, 80))
        preds = [Prediction(float(rng.normal(scale=2.0)), float(rng.uniform(0, 2.0)))
                 for _ in range(n)]
        means = np.array([p.mean for p in preds])
        sds = np.array([p.sd for p in preds])
        ctx = cs.AcquisitionContext(float(rng.normal()), int(rng.integers(1, 60)), 3, delta=0.05)
        part = cs.partition(means, sds, ctx)
        assert len(part.a1) + len(part.a2) == n
        assert set(part.a1).isdisjoint(part.a2)
        assert set(part.a1_min) <= set(part.a1)
        for i in part.a1_min:
            assert part.lb[i] <= part.min_ub
        for i in set(part.a1) - set(part.a1_min):
            assert part.lb[i] > part.min_ub
        idx = cs.select_arsd(means, sds, ctx)
        assert 0 <= idx < n
    report(4, "1000 random prediction sets")


def test_criterion_5_coverage_and_theorem_bound():
    """Known-parameter coverage of [min lb, min ub] at alpha=0.1 over 500
    draws on a 50 x M grid: at least 88% hits and no bound violations on
    covered draws.  Budget: 5 min."""
    t0 = time.perf_counter()
    space = cs.make_space([(0, 1)], [3])
    truth = cs.EzGpParams(
        mu=0.0,
        sigma2=np.array([1.0, 0.5]),
        theta0=np.array([5.0]),
        theta=(np.array([[4.0, 6.0, 8.0]]),),
    )
    result = cs.coverage_check(cs.VerifyConfig(space, truth, level=0.0, alpha=0.1,
                                               draws=500, per_combo=50, seed=5005, n_train=10))
    elapsed = time.perf_counter() - t0
    assert result.coverage >= 0.88
    assert result.theorem1_violations == 0
    assert elapsed < 300.0
    report(5, f"coverage {result.coverage:.3f} (target > 0.90 conservative), "
              f"0 bound violations, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def example1_benchmark():
    """Shared desk-scale reproduction run for criteria 6 and 7."""
    sim = cs.builtin_simulator("example1")
    cfg = cs.BenchConfig(
        strategies=(cs.Strategy("rcc", delta=0.05), cs.Strategy("one_shot")),
        levels=(-0.9,),
        budgets=(12, 21),
        n0=9,
        replicates=10,
        per_combo=100,
        ref_per_combo=200,
        eps=0.05,
        seed=2024,
        fit=cs.FitConfig(),
    )
    t0 = time.perf_counter()
    result = cs.replicate_benchmark(sim, cfg, workers=4)
    return result, time.perf_counter() - t0


def _cell_mean(result, strategy, budget):
    row = [s for s in result.summary if s.strategy == strategy and s.budget == budget][0]
    assert row.valid
    return row.mean_m_c0, row.rel_efficiency


def test_criterion_6_example1_desk_scale(example1_benchmark):
    """10 replicates at N=21, level -0.9: RCC mean contour error at most
    0.01 and no worse than the one-shot baseline.  Budget: 10 min."""
    result, elapsed = example1_benchmark
    rcc_mean, rcc_eff = _cell_mean(result, "rcc", 21)
    one_shot_mean, _ = _cell_mean(result, "one_shot", 21)
    assert rcc_mean <= 0.01
    assert rcc_mean <= one_shot_mean
    assert rcc_eff >= 1.0
    assert elapsed < 600.0
    report(6, f"RCC mean {rcc_mean:.2e} vs one-shot {one_shot_mean:.2e} "
              f"(efficiency {rcc_eff:.1f}), {elapsed:.0f}s")


def test_criterion_7_example1_budget_trend(example1_benchmark):
    """Paired replicates: the RCC error at N=21 is strictly below N=12."""
    result, _ = example1_benchmark
    rcc_12, _ = _cell_mean(result, "rcc", 12)
    rcc_21, _ = _cell_mean(result, "rcc", 21)
    assert rcc_21 < rcc_12
    report(7, f"RCC mean improves {rcc_12:.2e} -> {rcc_21:.2e} with budget")


def test_criterion_8_strategy_fairness():
    """Every strategy in a replicate starts from the same initial dataset
    (element-wise equality enforced by the harness)."""
    sim = cs.builtin_simulator("example1")
    cfg = cs.BenchConfig(
        strategies=(cs.Strategy("rcc", delta=0.05), cs.Strategy("ecl", delta=0.05),
                    cs.Strategy("arsd", delta=0.05)),
        levels=(-0.9,),
        budgets=(11,),
        n0=9,
        replicates=2,
        per_combo=20,
        ref_per_combo=60,
        eps=0.05,
        seed=88,
        fit=cs.FitConfig(n_starts=2, max_fev=250),
    )
    result = cs.replicate_benchmark(sim, cfg)
    assert result.fairness_checked == 4  # 2 comparisons x 2 replicates
    assert result.fairness_violations == 0
    report(8, f"{result.fairness_checked} element-wise comparisons, 0 violations")


def test_criterion_9_cli_determinism(tmp_path):
    """Two runs of the same campaign config produce byte-identical
    trace.csv and design.csv."""
    outs = []
    for tag in ("a", "b"):
        doc = {
            "simulator": {"builtin": "example1"},
            "strategy": {"kind": "rcc", "delta": 0.05},
            "level": -0.9, "n0": 9, "N": 12,
            "candidates_per_combo": 50, "seed": 31,
            "fit": {"n_starts": 2, "max_fev": 250},
            "out": str(tmp_path / tag),
        }
        path = tmp_path / f"cfg_{tag}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        outs.append(tmp_path / tag)
    for name in ("trace.csv", "design.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(9, "trace.csv and design.csv byte-identical across reruns")


def test_criterion_10_tabular_round_trip(tmp_path):
    """A synthetic 100-row grid: exact queries return exact responses;
    off-grid queries return the documented nearest row."""
    space = cs.make_space([(0.0, 4.0), (10.0, 20.0)], [2])
    rng = np.random.default_rng(1010)
    xs1 = np.linspace(0.0, 4.0, 10)
    xs2 = np.linspace(10.0, 20.0, 5)
    rows = []
    for v1 in xs1:
        for v2 in xs2:
            for lev in (1, 2):
                rows.append((v1, v2, lev, float(rng.normal())))
    assert len(rows) == 100
    path = tmp_path / "grid.csv"
    path.write_text("x_1,x_2,z_1,y\n" + "\n".join(
        f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in rows) + "\n")
    sim = cs.tabular_simulator(path, space)

    for v1, v2, lev, y in rows:
        got = sim.evaluate(cs.MixedPoint(normalize(space, (v1, v2)), (lev,)))
        assert got == y

    x_norm = np.array([normalize(space, (r[0], r[1])) for r in rows])
    for _ in range(200):
        q = (float(rng.uniform(0, 4)), float(rng.uniform(10, 20)))
        lev = int(rng.integers(1, 3))
        q_norm = np.array(normalize(space, q))
        match = [i for i, r in enumerate(rows) if r[2] == lev]
        d2 = np.sum((x_norm[match] - q_norm) ** 2, axis=1)
        expected = rows[match[int(np.argmin(d2))]][3]
        got = sim.evaluate(cs.MixedPoint(tuple(q_norm), (lev,)))
        assert got == expected
    report(10, "100-row grid exact + 200 nearest-row queries")
