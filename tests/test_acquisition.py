import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import contour_seeker as cs
from contour_seeker import acquisition
from contour_seeker.acquisition import Finalist
from contour_seeker.errors import ValidationError

from conftest import Prediction as P, arrays, score


def ctx_for(level=0.0, n=9, num_combos=3, alpha=0.05, delta=0.05, rho=2.0, ei_alpha=1.96):
    return cs.AcquisitionContext(level, n, num_combos, alpha, delta, rho, ei_alpha)


class TestBeta:
    def test_matches_formula(self):
        for n, m, alpha in [(1, 1, 0.9), (9, 3, 0.05), (40, 6, 0.5)]:
            expected = 2.0 * math.log(math.pi ** 2 * n ** 2 * m / (6.0 * alpha))
            assert cs.beta_n(n, m, alpha) == pytest.approx(expected, rel=1e-15)

    def test_reference_value(self):
        assert cs.beta_n(9, 3, 0.05) == pytest.approx(17.97298803873057, abs=1e-9)

    def test_doubling_n_adds_constant(self):
        for n, m, alpha in [(3, 2, 0.1), (10, 9, 0.5), (7, 1, 0.01)]:
            assert cs.beta_n(2 * n, m, alpha) - cs.beta_n(n, m, alpha) == pytest.approx(
                2 * math.log(4.0), rel=1e-12)

    @given(st.integers(1, 1000))
    def test_strictly_increasing_in_n(self, n):
        assert cs.beta_n(n + 1, 3, 0.05) > cs.beta_n(n, 3, 0.05)

    @pytest.mark.parametrize("n,m,alpha", [(0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.0), (1, 1, 1.0)])
    def test_domain_errors(self, n, m, alpha):
        with pytest.raises(ValidationError):
            cs.beta_n(n, m, alpha)


class TestEiContour:
    def test_zero_sd(self):
        assert score("ei", 0.3, 0.0, ctx_for(level=0.0)) == 0.0

    def test_symmetric_in_distance(self):
        ctx = ctx_for(level=1.0)
        for c in (0.1, 0.7, 2.3):
            assert score("ei", 1.0 + c, 0.8, ctx) == pytest.approx(
                score("ei", 1.0 - c, 0.8, ctx), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        ctx = ctx_for(level=0.5)
        for _ in range(200):
            assert score("ei", float(rng.normal(scale=3)), float(rng.uniform(0, 2)), ctx) >= 0.0

    def test_monte_carlo_oracle(self):
        # expectation of eps^2 - min{(y-a)^2, eps^2} over y ~ N(mean, sd^2)
        rng = np.random.default_rng(99)
        z = rng.standard_normal(200_000)
        for mean, sd, level, ei_alpha in [(0.0, 1.0, 0.0, 1.96), (1.3, 0.7, 0.5, 1.0), (-0.4, 2.0, 0.1, 2.5)]:
            y = mean + sd * z
            eps = ei_alpha * sd
            draws = eps ** 2 - np.minimum((y - level) ** 2, eps ** 2)
            se = draws.std() / math.sqrt(len(draws))
            closed = score("ei", mean, sd, ctx_for(level=level, ei_alpha=ei_alpha))
            assert abs(closed - draws.mean()) <= 5 * se


class TestEcl:
    def test_max_at_level(self):
        assert score("ecl", 0.0, 1.0, ctx_for(level=0.0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_vanishes_far_from_level(self):
        # the 1e-12 probability clip floors the tail entropy near 3e-11
        assert score("ecl", 1e9, 1.0, ctx_for(level=0.0)) == pytest.approx(0.0, abs=1e-10)
        assert score("ecl", 0.0, 0.0, ctx_for(level=1.0)) == 0.0

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e3))
    def test_reflection_symmetry(self, c, sd):
        ctx = ctx_for(level=0.37)
        assert score("ecl", 0.37 + c, sd, ctx) == pytest.approx(score("ecl", 0.37 - c, sd, ctx), abs=1e-12)

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e3))
    def test_bounds(self, mean, sd):
        val = score("ecl", mean, sd, ctx_for(level=0.0))
        assert 0.0 <= val <= math.log(2.0) + 1e-12

    def test_monotone_in_standardized_distance(self):
        ts = np.linspace(0.0, 6.0, 40)
        vals = [score("ecl", t, 1.0, ctx_for(level=0.0)) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestLcb:
    def test_rho_zero(self):
        assert -score("lcb", 1.4, 2.0, ctx_for(level=1.0, rho=0.0)) == pytest.approx(0.4)

    def test_at_level(self):
        assert -score("lcb", 1.0, 0.5, ctx_for(level=1.0, rho=2.0)) == pytest.approx(-1.0)

    def test_shift_invariance(self):
        a = -score("lcb", 1.7, 0.3, ctx_for(level=1.0))
        b = -score("lcb", 11.7, 0.3, ctx_for(level=11.0))
        assert a == pytest.approx(b, rel=1e-12)


def norm_criterion(kind, means, sds, ctx):
    """ECL, EI and LCB scores in closed form through ``scipy.stats.norm``."""
    from scipy.stats import norm

    level = ctx.contour_level
    if kind == "lcb":
        return -(np.abs(means - level) - ctx.rho * sds)
    out = np.zeros(len(means))
    pos = sds > 0
    mu, sd = means[pos], sds[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "ecl":
            p = np.clip(norm.cdf((mu - level) / sd), 1e-12, 1.0 - 1e-12)
            out[pos] = -(1.0 - p) * np.log1p(-p) - p * np.log(p)
            return out
        eps = ctx.ei_alpha * sd
        u1 = (level - mu - eps) / sd
        u2 = (level - mu + eps) / sd
        val = ((eps ** 2 - (mu - level) ** 2 - sd ** 2) * (norm.cdf(u2) - norm.cdf(u1))
               + sd ** 2 * (u2 * norm.pdf(u2) - u1 * norm.pdf(u1))
               + 2.0 * (mu - level) * sd * (norm.pdf(u2) - norm.pdf(u1)))
    out[pos] = np.maximum(np.where(np.isfinite(val), val, 0.0), 0.0)
    return out


def extreme_batch(rng, n=48):
    """Seeded (means, sds) with sd = 0, sd ~ 1e-300 (the standardized
    distance overflows to +/-inf) and |mean| = 1e300 mixed in."""
    means = rng.normal(scale=3.0, size=n)
    sds = rng.uniform(0.0, 2.0, n)
    case = rng.integers(0, 5, n)
    sds[case == 1] = 0.0
    sds[case >= 2] = rng.uniform(0.5, 2.0, n)[case >= 2] * 1e-300
    means[case >= 3] = rng.choice([-1e300, 1e300], n)[case >= 3]
    sds[case == 4] = rng.uniform(0.0, 2.0, n)[case == 4]
    return means, sds


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestCriterionBits:
    """The criteria keep ``scipy.stats.norm``'s bits without importing it."""

    def test_batches_equal_norm_reference(self):
        rng = np.random.default_rng(20261019)
        overflowed = positive = 0
        for _ in range(200):
            means, sds = extreme_batch(rng)
            ctx = ctx_for(level=float(rng.normal()), rho=float(rng.uniform(0.0, 3.0)),
                          ei_alpha=float(rng.uniform(0.1, 3.0)))
            for kind in ("ecl", "ei", "lcb"):
                got = acquisition._criterion(kind, means, sds, ctx)
                assert same_bits(got, norm_criterion(kind, means, sds, ctx)), kind
                positive += int(np.sum(got > 0)) if kind != "lcb" else 0
            with np.errstate(over="ignore"):
                overflowed += int(np.isinf((means[sds > 0] - ctx.contour_level) / sds[sds > 0]).sum())
        # the batches reach the overflow paths and nonzero scores
        assert overflowed > 0 and positive > 0

    def test_scalar_wrappers_equal_norm_reference(self):
        rng = np.random.default_rng(7)
        means, sds = extreme_batch(rng, n=300)
        for mean, sd in zip(means.tolist(), sds.tolist()):
            ctx = ctx_for(level=0.25, rho=1.5, ei_alpha=1.2)
            one = np.array([mean]), np.array([sd])
            assert same_bits(score("ecl", mean, sd, ctx), norm_criterion("ecl", *one, ctx)[0])
            assert same_bits(score("ei", mean, sd, ctx), norm_criterion("ei", *one, ctx)[0])
            assert same_bits(score("lcb", mean, sd, ctx), norm_criterion("lcb", *one, ctx)[0])


class TestBounds:
    def test_zero_sd_collapses(self):
        part = cs.partition(np.array([2.0]), np.array([0.0]), ctx_for(level=1.5))
        assert part.lb[0] == part.ub[0] == pytest.approx(0.5)

    def test_beta_four_case(self):
        # alpha chosen so that beta_n(1, 1, alpha) = 4
        alpha = math.pi ** 2 * math.exp(-2.0) / 6.0
        ctx = ctx_for(level=0.0, n=1, num_combos=1, alpha=alpha)
        assert ctx.beta == pytest.approx(4.0, abs=1e-12)
        part = cs.partition(np.array([0.0]), np.array([1.0]), ctx)
        assert part.lb[0] == pytest.approx(-2.0, abs=1e-12)
        assert part.ub[0] == pytest.approx(2.0, abs=1e-12)

    @given(st.floats(-10, 10), st.floats(0, 10))
    def test_width_identity(self, mean, sd):
        ctx = ctx_for(level=0.3)
        part = cs.partition(np.array([mean]), np.array([sd]), ctx)
        assert part.ub[0] - part.lb[0] == pytest.approx(2.0 * math.sqrt(ctx.beta) * sd, rel=1e-9, abs=1e-9)


def random_preds(rng, n):
    return [P(float(rng.normal(scale=2)), float(rng.uniform(0, 1.5))) for _ in range(n)]


class TestPartition:
    def test_huge_sd_everything_in_band_region(self):
        preds = [P(5.0, 100.0), P(-3.0, 50.0)]
        part = cs.partition(*arrays(preds), ctx_for())
        assert len(part.a1) == 0 and list(part.a2) == [0, 1]

    def test_zero_sd_means_off_level(self):
        preds = [P(2.0, 0.0), P(1.5, 0.0), P(3.0, 0.0), P(1.5, 0.0)]
        part = cs.partition(*arrays(preds), ctx_for(level=1.0))
        assert len(part.a2) == 0
        assert sorted(part.a1) == [0, 1, 2, 3]
        # the filter keeps exactly the argmin-|mean-level| set
        assert sorted(part.a1_min) == [1, 3]

    @given(st.integers(1, 60), st.integers(0, 10_000))
    def test_disjoint_cover(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = random_preds(rng, n)
        part = cs.partition(*arrays(preds), ctx_for())
        assert len(part.a1) + len(part.a2) == n
        assert set(part.a1).isdisjoint(part.a2)
        assert set(part.a1_min) <= set(part.a1)
        for i in part.a1_min:
            assert part.lb[i] <= part.min_ub
        for i in set(part.a1) - set(part.a1_min):
            assert part.lb[i] > part.min_ub
        assert part.min_ub == pytest.approx(float(np.min(part.ub)))

    @given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 10_000))
    def test_rows_equal_one_set_at_a_time(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        means, sds = rng.normal(0.0, 2.0, (rows, n)), rng.uniform(0.0, 1.0, (rows, n))
        sds[:, 0] = 0.0
        part = cs.partition(means, sds, ctx_for())
        assert part.min_ub.shape == (rows,) and part.region.shape == (rows, n)
        for k in range(rows):
            one = cs.partition(means[k], sds[k], ctx_for())
            assert type(one.min_ub) is float  # trace.csv prints it with repr
            assert np.array_equal(part.lb[k], one.lb) and np.array_equal(part.ub[k], one.ub)
            assert part.min_ub[k] == one.min_ub
            assert np.array_equal(np.flatnonzero(part.region[k]), one.restricted)


class TestSelectA1:
    """The A1 finalist of ``select_rcc``: the largest sd in A1's part of the search region."""

    def test_singleton(self):
        preds = [P(10.0, 0.1), P(0.0, 5.0)]
        ctx = ctx_for(level=0.0, n=100)
        part = cs.partition(*arrays(preds), ctx)
        if len(part.a1_min) == 1:
            assert cs.select_rcc(*arrays(preds), ctx).a1_finalist.index == part.a1_min[0]

    def test_tie_smallest_index(self):
        # a wide A2 candidate keeps min_ub large enough to admit both A1 points
        preds = [P(3.0, 0.1), P(3.0, 0.1), P(0.0, 5.0)]
        part = cs.partition(*arrays(preds), ctx_for(level=0.0))
        assert sorted(part.a1) == [0, 1]
        assert sorted(part.a1_min) == [0, 1]
        assert cs.select_rcc(*arrays(preds), ctx_for(level=0.0)).a1_finalist.index == 0

    def test_empty_region(self):
        preds = [P(0.0, 10.0)]
        assert cs.select_rcc(*arrays(preds), ctx_for()).a1_finalist is None


class TestSelectA2:
    """The A2 finalist of ``select_rcc``: the best inner criterion over the band region."""

    def test_singleton(self):
        preds = [P(100.0, 0.01), P(0.0, 1.0)]
        part = cs.partition(*arrays(preds), ctx_for(level=0.0))
        assert list(part.a2) == [1]
        assert cs.select_rcc(*arrays(preds), ctx_for(level=0.0)).a2_finalist.index == 1

    def test_entropy_peak_wins(self):
        preds = [P(0.0, 1.0), P(0.9, 1.0), P(-2.0, 1.5)]
        assert cs.select_rcc(*arrays(preds), ctx_for(level=0.0)).a2_finalist.index == 0

    def test_empty_region(self):
        preds = [P(50.0, 0.001)]
        assert cs.select_rcc(*arrays(preds), ctx_for(level=0.0)).a2_finalist is None

    def test_ei_inner(self):
        preds = [P(10.0, 4.0), P(0.0, 4.0)]
        assert cs.select_rcc(*arrays(preds), ctx_for(level=0.0), inner="ei").a2_finalist.index == 1


class TestArbitrate:
    """``select_rcc``'s choice between its two finalists by sd / max(delta, |mean - a|)."""

    def test_close_means_larger_sd_wins(self):
        # both finalists within delta of the level: score reduces to sd/delta
        ctx = ctx_for(level=0.0, delta=0.5)
        report = cs.select_rcc(*arrays([P(0.1, 0.02), P(-0.2, 1.1)]), ctx)
        assert (report.a1_finalist.index, report.a2_finalist.index) == (0, 1)
        assert report.a1_finalist.score == 0.02 / 0.5 and report.a2_finalist.score == 1.1 / 0.5
        assert report.chosen_index == 1

    def test_single_finalist_is_fallback(self):
        ctx = ctx_for(level=0.0)
        report = cs.select_rcc(*arrays([P(0.3, 0.2), P(5.0, 0.1)]), ctx)
        assert report.a1_finalist is None
        assert report.chosen_index == 0 and report.region == "fallback"
        report = cs.select_rcc(*arrays([P(5.0, 0.1), P(0.3, 0.02)]), ctx)
        assert report.a2_finalist is None
        assert report.chosen_index == 1 and report.region == "fallback"

    def test_score_shift_invariance(self):
        (means_a, sds_a), ctx_a = arrays([P(1.3, 0.05), P(2.0, 0.9)]), ctx_for(level=1.0)
        (means_b, sds_b), ctx_b = arrays([P(11.3, 0.05), P(12.0, 0.9)]), ctx_for(level=11.0)
        ra, rb = cs.select_rcc(means_a, sds_a, ctx_a), cs.select_rcc(means_b, sds_b, ctx_b)
        assert ra.chosen_index == rb.chosen_index
        assert ra.a1_finalist.score == pytest.approx(rb.a1_finalist.score, rel=1e-12)

    def test_tie_prefers_band_region(self):
        # equal scores 0.1 / max(1, |mean|) from an A1 and an A2 candidate
        ctx = ctx_for(level=0.0, delta=1.0)
        report = cs.select_rcc(*arrays([P(0.5, 0.1), P(0.0, 0.1)]), ctx)
        assert report.a1_finalist.score == report.a2_finalist.score
        assert report.region == "A2" and report.chosen_index == 1


class TestSelectArsd:
    def test_single_candidate(self):
        assert cs.select_arsd(*arrays([P(3.0, 1.0)]), ctx_for()) == 0

    def test_rho_zero_equal_sd(self):
        ctx = ctx_for(level=1.0, rho=0.0)
        preds = [P(3.0, 1.0), P(1.2, 1.0), P(0.0, 1.0)]
        assert cs.select_arsd(*arrays(preds), ctx) == 1

    def test_high_lb_excluded(self):
        # candidate 0 is precisely known and far from the level: lb > min ub
        ctx = ctx_for(level=0.0, n=50, rho=1000.0)
        preds = [P(10.0, 1e-6), P(0.5, 0.01)]
        part = cs.partition(*arrays(preds), ctx)
        assert part.lb[0] > part.min_ub
        assert cs.select_arsd(*arrays(preds), ctx) == 1

    @given(st.integers(1, 50), st.integers(0, 10_000))
    def test_restriction_never_empty(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = random_preds(rng, n)
        idx = cs.select_arsd(*arrays(preds), ctx_for())
        assert 0 <= idx < n


def plain_arsd(means, sds, ctx):
    """(restricted region, ARSD pick) in plain Python: the indices with
    lb <= min ub in ascending order, and the first argmin of the LCB there."""
    level, root = ctx.contour_level, math.sqrt(ctx.beta)
    means, sds = [float(m) for m in means], [float(s) for s in sds]
    lb = [abs(m - level) - root * s for m, s in zip(means, sds)]
    min_ub = min(abs(m - level) + root * s for m, s in zip(means, sds))
    region = [i for i in range(len(means)) if lb[i] <= min_ub]
    lcb = [abs(means[i] - level) - ctx.rho * sds[i] for i in region]
    return region, region[lcb.index(min(lcb))]


class TestSelectionCoreOracle:
    @given(st.integers(1, 40), st.integers(0, 10_000), st.floats(0.0, 5.0), st.booleans())
    def test_restricted_region_and_arsd(self, n, seed, rho, coarse):
        rng = np.random.default_rng(seed)
        if coarse:  # few distinct values, so bounds and LCB values tie
            means = rng.choice([-1.0, 0.0, 0.5, 2.0], n)
            sds = rng.choice([0.0, 0.25, 1.0], n)
        else:
            means, sds = rng.normal(scale=2, size=n), rng.uniform(0, 1.5, n)
        ctx = ctx_for(level=float(rng.choice([0.0, 0.5, rng.normal()])), n=int(rng.integers(1, 50)),
                      rho=rho)
        part = cs.partition(means, sds, ctx)
        region, pick = plain_arsd(means, sds, ctx)
        assert part.restricted.tolist() == region
        assert part.restricted.tolist() == sorted(set(part.a1_min.tolist()) | set(part.a2.tolist()))
        assert cs.select_arsd(means, sds, ctx) == pick

    def test_rcc_inner_rejects_lcb(self):
        preds = [P(0.0, 1.0), P(3.0, 0.1)]
        ctx = ctx_for(level=0.0)
        part = cs.partition(*arrays(preds), ctx)
        assert len(part.a2) > 0
        with pytest.raises(ValidationError, match="unknown inner criterion 'lcb'"):
            cs.select_rcc(*arrays(preds), ctx, inner="lcb")
        # also with no band region, where no inner criterion is scored
        assert len(cs.partition(*arrays([P(3.0, 0.1)]), ctx).a2) == 0
        with pytest.raises(ValidationError, match="unknown inner criterion 'lcb'"):
            cs.select_rcc(*arrays([P(3.0, 0.1)]), ctx, inner="lcb")


class TestSelectGlobal:
    def test_single_candidate(self):
        for kind in ("ei", "ecl", "lcb"):
            assert cs.select_global(*arrays([P(1.0, 1.0)]), ctx_for(), kind) == 0

    def test_ecl_prefers_uncertain_level_point(self):
        preds = [P(0.0, 0.0), P(0.0, 1.0), P(3.0, 0.0)]
        assert cs.select_global(*arrays(preds), ctx_for(level=0.0), "ecl") == 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        preds = random_preds(rng, 20)
        shifted = [P(p.mean + 5.0, p.sd) for p in preds]
        for kind in ("ei", "ecl", "lcb"):
            assert (cs.select_global(*arrays(preds), ctx_for(level=0.0), kind)
                    == cs.select_global(*arrays(shifted), ctx_for(level=5.0), kind))

    def test_permutation_maps_back(self):
        rng = np.random.default_rng(8)
        preds = random_preds(rng, 15)
        perm = rng.permutation(15)
        permuted = [preds[i] for i in perm]
        for kind in ("ei", "ecl", "lcb"):
            i = cs.select_global(*arrays(preds), ctx_for(), kind)
            j = cs.select_global(*arrays(permuted), ctx_for(), kind)
            # unique optimum: the permuted winner is the same prediction
            assert permuted[j] == preds[i]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            cs.select_global(*arrays([P(0.0, 1.0)]), ctx_for(), "nope")


def candidate_arrays(rng, n, level, root, kind):
    """(means, sds) of a seeded candidate set with sd = 0 entries: spread out,
    with few distinct values so that bounds and scores tie, or clustered at
    the a1/a2 boundary |mean - level| / sd = root."""
    if kind == "coarse":
        return level + rng.choice([-1.0, 0.0, 0.5, 2.0], n), rng.choice([0.0, 0.25, 1.0], n)
    sds = rng.uniform(0.0, 1.5, n)
    sds[rng.random(n) < 0.2] = 0.0
    if kind == "boundary":
        shift = rng.choice([-1e-3, -1e-6, 0.0, 1e-6, 1e-3, rng.uniform(-0.2, 0.2)], n)
        return level + rng.choice([-1.0, 1.0], n) * root * (1.0 + shift) * sds, sds
    return level + rng.normal(0.0, 3.0, n), sds


class TestSelectRcc:
    def test_band_only_candidates_fall_back(self):
        preds = [P(0.0, 10.0), P(1.0, 10.0)]
        ctx = ctx_for(level=0.0)
        report = cs.select_rcc(*arrays(preds), ctx)
        part = cs.partition(*arrays(preds), ctx)
        assert len(part.a1) == 0
        assert report.region == "fallback" and report.a1_finalist is None
        assert report.chosen_index == report.a2_finalist.index == 0

    def test_report_records_both_finalists(self):
        ctx = ctx_for(level=0.0, n=30, delta=0.1)
        # candidate 2 is in A1 and inside the search region, so both finalists exist
        preds = [P(8.0, 0.3), P(0.2, 0.5), P(-1.5, 0.2)]
        report = cs.select_rcc(*arrays(preds), ctx)
        assert report.a1_size + report.a2_size == 3
        assert isinstance(report.a1_finalist, Finalist) and isinstance(report.a2_finalist, Finalist)
        assert (report.a1_finalist.index, report.a2_finalist.index) == (2, 1)
        assert report.chosen_index in (report.a1_finalist.index, report.a2_finalist.index)

    @given(st.integers(1, 40), st.integers(0, 10_000), st.sampled_from(["spread", "coarse", "boundary"]),
           st.sampled_from(["ecl", "ei"]))
    def test_finalist_fields(self, n, seed, kind, inner):
        # the A2 value is read from the criterion over all of A2; it has the bits of a one-element call
        rng = np.random.default_rng(seed)
        ctx = ctx_for(level=float(rng.normal()), n=int(rng.integers(1, 50)), delta=float(rng.uniform(0.01, 1.0)))
        means, sds = candidate_arrays(rng, n, ctx.contour_level, math.sqrt(ctx.beta), kind)
        report = cs.select_rcc(means, sds, ctx, inner=inner)
        for f in (report.a1_finalist, report.a2_finalist):
            if f is None:
                continue
            i = f.index
            one = means[i:i + 1], sds[i:i + 1]
            acq = sds[i] if f is report.a1_finalist else acquisition._criterion(inner, *one, ctx)[0]
            assert same_bits([f.mean, f.sd, f.acq_value], [means[i], sds[i], acq])
            assert f.score == sds[i] / max(ctx.delta, abs(means[i] - ctx.contour_level))


class TestStrategiesCoincide:
    """Where ARSD is LCB and where RCC's band finalist is the global ECL pick."""

    @given(st.integers(1, 40), st.integers(0, 10_000), st.sampled_from(["spread", "coarse", "boundary"]),
           st.floats(0.01, 0.99), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def test_arsd_is_lcb_when_root_beta_covers_rho(self, n, seed, kind, alpha, share):
        rng = np.random.default_rng(seed)
        level, n_train, combos = float(rng.normal()), int(rng.integers(1, 50)), int(rng.integers(1, 10))
        root = math.sqrt(cs.beta_n(n_train, combos, alpha))
        # share 1 is rho = sqrt(beta) exactly
        ctx = ctx_for(level=level, n=n_train, num_combos=combos, alpha=alpha, rho=root * share)
        assert math.sqrt(ctx.beta) >= ctx.rho
        means, sds = candidate_arrays(rng, n, level, root, kind)
        assert cs.select_arsd(means, sds, ctx) == cs.select_global(means, sds, ctx, "lcb")

    @given(st.integers(1, 40), st.integers(0, 10_000), st.sampled_from(["spread", "coarse", "boundary"]),
           st.floats(0.01, 0.99))
    def test_band_finalist_is_global_ecl_pick(self, n, seed, kind, alpha):
        rng = np.random.default_rng(seed)
        level, n_train, combos = float(rng.normal()), int(rng.integers(1, 50)), int(rng.integers(1, 10))
        ctx = ctx_for(level=level, n=n_train, num_combos=combos, alpha=alpha)
        root = math.sqrt(ctx.beta)
        means, sds = candidate_arrays(rng, n, level, root, kind)
        report = cs.select_rcc(means, sds, ctx, inner="ecl")
        # every non-empty set has a finalist, and the chosen candidate is one
        finalists = [f.index for f in (report.a1_finalist, report.a2_finalist) if f is not None]
        assert report.chosen_index in finalists
        part = cs.partition(means, sds, ctx)
        pos = sds > 0
        near = np.abs(np.abs(means[pos] - level) / sds[pos] - root) <= 1e-6 * root
        assume(np.any(sds[part.a2] > 0) and not near.any())
        assert report.a2_finalist.index == cs.select_global(means, sds, ctx, "ecl")

    def test_arsd_differs_when_rho_exceeds_root_beta(self):
        # rho = 1000 makes the wide, far candidate 0 the LCB pick, outside the search region
        ctx = ctx_for(level=0.0, rho=1000.0)
        means, sds = np.array([10.0, 0.5]), np.array([1.0, 0.01])
        assert cs.partition(means, sds, ctx).restricted.tolist() == [1]
        assert cs.select_arsd(means, sds, ctx) == 1
        assert cs.select_global(means, sds, ctx, "lcb") == 0

    def test_band_of_zero_sd_only(self):
        # A2 = {0} scores ECL 0, below candidate 1's positive ECL outside A2
        ctx = ctx_for(level=0.0, n=10, num_combos=3)
        means, sds = np.array([0.0, 5.0]), np.array([0.0, 1.0])
        assert cs.partition(means, sds, ctx).a2.tolist() == [0]
        assert cs.select_rcc(means, sds, ctx).a2_finalist.index == 0
        assert cs.select_global(means, sds, ctx, "ecl") == 1

    def test_standardized_distance_at_root_beta(self):
        # 1 - p of ndtr near 1 loses its last digits, so the two ECLs tie
        # across the boundary and the global pick is the A1 candidate 0
        ctx = ctx_for(level=0.0, n=10, num_combos=3)
        root = math.sqrt(ctx.beta)
        means, sds = np.array([root * (1 + 1e-15), root * (1 - 1e-15)]), np.ones(2)
        part = cs.partition(means, sds, ctx)
        assert (part.a1.tolist(), part.a2.tolist()) == ([0], [1])
        ecl = acquisition._criterion("ecl", means, sds, ctx)
        assert ecl[1] >= ecl[0] * (1 - 2.5e-9)
        assert cs.select_rcc(means, sds, ctx).a2_finalist.index == 1
        assert cs.select_global(means, sds, ctx, "ecl") == 0


class TestContextValidation:
    def test_delta_positive(self):
        with pytest.raises(ValidationError):
            ctx_for(delta=0.0)

    def test_rho_nonnegative(self):
        with pytest.raises(ValidationError):
            ctx_for(rho=-1.0)

    def test_beta_matches_formula(self):
        ctx = ctx_for(n=17, num_combos=9, alpha=0.2)
        assert ctx.beta == pytest.approx(cs.beta_n(17, 9, 0.2), rel=1e-15)
