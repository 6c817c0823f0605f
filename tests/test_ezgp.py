import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.optimize
from hypothesis import given, settings, strategies as st

import contour_seeker as cs
from contour_seeker import ezgp
from contour_seeker.design_space import point_arrays
from contour_seeker.errors import IllConditionedModelError, ValidationError
from contour_seeker.ezgp import condition, cross_covariance, neg_log_likelihood

from conftest import covariance, random_params, random_points


def simple_params(space, sigma=1.0, theta=1.0):
    return cs.EzGpParams(
        mu=0.0,
        sigma2=np.full(space.q + 1, sigma),
        theta0=np.full(space.p, theta),
        theta=tuple(np.full((space.p, m), theta) for m in space.qual_levels),
    )


def brute_nll(params, data, space, jitter):
    """Explicit-inverse oracle for the profiled objective."""
    n = len(data)
    phi = np.array([[covariance(params, a, b) for b in data.points] for a in data.points])
    phi = phi + jitter * np.eye(n)
    inv = np.linalg.inv(phi)
    ones = np.ones(n)
    y = data.responses
    sign, logdet = np.linalg.slogdet(phi)
    assert sign > 0
    return logdet + y @ inv @ y - (ones @ inv @ y) ** 2 / (ones @ inv @ ones)


def brute_predict(params, data, space, w, jitter):
    """Explicit-inverse oracle for the predictive mean and variance."""
    n = len(data)
    phi = np.array([[covariance(params, a, b) for b in data.points] for a in data.points])
    phi = phi + jitter * np.eye(n)
    inv = np.linalg.inv(phi)
    ones = np.ones(n)
    y = data.responses
    mu_hat = (ones @ inv @ y) / (ones @ inv @ ones)
    r0 = np.array([covariance(params, w, pt) for pt in data.points])
    mean = mu_hat + r0 @ inv @ (y - mu_hat * ones)
    var = (float(np.sum(params.sigma2)) - r0 @ inv @ r0
           + (1.0 - ones @ inv @ r0) ** 2 / (ones @ inv @ ones))
    return mean, max(var, 0.0)


def kernel(params, a, b):
    """``cross_covariance`` between two single points."""
    return float(cross_covariance(params, *point_arrays([a]), *point_arrays([b]))[0, 0])


class TestCovariance:
    def test_same_point_total_variance(self):
        sp = cs.make_space([(0, 1)], [3, 2])
        params = simple_params(sp, sigma=0.7)
        pt = cs.MixedPoint((0.3,), (2, 1))
        assert kernel(params, pt, pt) == pytest.approx(0.7 * 3, abs=1e-14)

    def test_no_shared_level_base_term_only(self):
        sp = cs.make_space([(0, 1)], [3])
        params = simple_params(sp, sigma=1.0, theta=2.0)
        a = cs.MixedPoint((0.2,), (1,))
        b = cs.MixedPoint((0.6,), (2,))
        assert kernel(params, a, b) == pytest.approx(math.exp(-2.0 * 0.16), rel=1e-12)

    def test_unit_example(self):
        sp = cs.make_space([(0, 1)], [3])
        params = simple_params(sp)
        a = cs.MixedPoint((0.0,), (1,))
        b = cs.MixedPoint((1.0,), (1,))
        assert kernel(params, a, b) == pytest.approx(0.7357588823428847, abs=1e-12)

    def test_symmetry_exact(self):
        sp = cs.make_space([(0, 1), (0, 1)], [3, 2])
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_params(sp, rng)
            a, b = random_points(sp, 2, rng, min_dist=0.0)
            assert kernel(params, a, b) == kernel(params, b, a)

    @pytest.mark.parametrize("levels", [(3, 3, 3), ()])
    def test_cross_covariance_matches_scalar_oracle(self, levels):
        sp = cs.make_space([(0, 1)] * 3, levels)
        rng = np.random.default_rng(11)
        for n1, n2 in [(4, 9), (7, 2), (1, 5)]:
            params = random_params(sp, rng)
            a = random_points(sp, n1, rng, min_dist=0.0)
            b = random_points(sp, n2, rng, min_dist=0.0)
            x1, z1 = np.array([p.x for p in a]), np.array([p.z for p in a], dtype=int)
            x2, z2 = np.array([p.x for p in b]), np.array([p.z for p in b], dtype=int)
            k = cross_covariance(params, x1, z1, x2, z2)
            assert k.shape == (n1, n2)
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    assert k[i, j] == pytest.approx(covariance(params, u, v), rel=1e-12, abs=0)

    def test_cross_covariance_skips_one_sided_levels(self):
        # factor 1 level 3 occurs only on the left, factor 2 level 2 only on
        # the right: no pair shares them, so their terms are dropped
        sp = cs.make_space([(0, 1)] * 2, [3, 2])
        rng = np.random.default_rng(5)
        params = random_params(sp, rng)
        a = [cs.MixedPoint(tuple(rng.random(2)), z) for z in [(1, 1), (3, 1), (3, 1), (2, 1), (1, 1)]]
        b = [cs.MixedPoint(tuple(rng.random(2)), z) for z in [(1, 2), (2, 2), (1, 1)]]
        (x1, z1), (x2, z2) = point_arrays(a), point_arrays(b)
        k = cross_covariance(params, x1, z1, x2, z2)
        assert k.shape == (5, 3)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                assert k[i, j] == pytest.approx(covariance(params, u, v), rel=1e-12, abs=0)
        # a design without factor 1's level 3 and factor 2's level 2: its pair table
        # gives rows to exactly the other levels, one row each (the widest level has all
        # 10 pairs).  In _pack's order theta[0][k, col] sits at 5 + 3k + col and
        # theta[1][k, col] at 11 + 2k + col
        x, z = point_arrays([cs.MixedPoint(tuple(rng.random(2)), z) for z in [(1, 1), (2, 1), (2, 1), (1, 1)]])
        ws = ezgp._KernelWorkspace(x, z, sp.qual_levels)
        assert ws.variance_index[ws.base_rows:, 0].tolist() == [1, 1, 2]
        assert ws.rate_index[ws.base_rows:, :, 0].tolist() == [[5, 8], [6, 9], [11, 13]]


class TestDataset:
    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            cs.Dataset((cs.MixedPoint((0.5,), (1,)),), np.array([1.0]))

    def test_duplicates_rejected_with_indices(self):
        pts = (cs.MixedPoint((0.5,), (1,)), cs.MixedPoint((0.2,), (2,)), cs.MixedPoint((0.5,), (1,)))
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            cs.Dataset(pts, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_responses_rejected(self, bad):
        pts = (cs.MixedPoint((0.1,), (1,)), cs.MixedPoint((0.9,), (2,)), cs.MixedPoint((0.5,), (1,)))
        with pytest.raises(ValidationError, match=r"\[1\]"):
            cs.Dataset(pts, np.array([1.0, bad, 2.0]))

    def test_near_duplicates_at_tolerance(self):
        # offsets exact in binary: 2**-40 (9.1e-13) is within DUPLICATE_TOL, 2**-39 (1.8e-12) is not
        assert 2.0 ** -40 <= ezgp.DUPLICATE_TOL < 2.0 ** -39
        near = (cs.MixedPoint((0.5,), (1,)), cs.MixedPoint((0.5 + 2.0 ** -40,), (1,)))
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            cs.Dataset(near, np.array([1.0, 2.0]))
        apart = (cs.MixedPoint((0.5,), (1,)), cs.MixedPoint((0.5 + 2.0 ** -39,), (1,)))
        assert len(cs.Dataset(apart, np.array([1.0, 2.0]))) == 2

    def test_same_x_different_level_allowed(self):
        pts = (cs.MixedPoint((0.5,), (1,)), cs.MixedPoint((0.5,), (2,)))
        data = cs.Dataset(pts, np.array([1.0, 2.0]))
        assert len(data) == 2

    def test_extended(self):
        pts = (cs.MixedPoint((0.1,), (1,)), cs.MixedPoint((0.9,), (2,)))
        data = cs.Dataset(pts, np.array([1.0, 2.0]))
        bigger = data.extended(cs.MixedPoint((0.5,), (3,)), 7.0)
        assert len(bigger) == 3 and bigger.responses[-1] == 7.0


def broadcast_coincident(x1, z1, x2, z2):
    """``coincident``'s mask from one (n1, n2, p) broadcast and its max over p."""
    same_x = np.max(np.abs(x1[:, None, :] - x2[None, :, :]), axis=2) <= ezgp.DUPLICATE_TOL
    return same_x & np.all(z1[:, None, :] == z2[None, :, :], axis=2)


class TestCoincident:
    """``coincident`` compares one coordinate and one factor at a time, with
    the broadcast's mask."""

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("p", [1, 3])
    def test_equals_broadcast(self, p, q):
        rng = np.random.default_rng(10 * p + q)
        x2, z2 = rng.random((40, p)), rng.integers(1, 3, (40, q))
        # second-set points moved by offsets around the tolerance in each coordinate,
        # some with one level changed, then points drawn afresh and a NaN coordinate
        src = rng.integers(40, size=300)
        offsets = np.array([0.0, 0.999, 1.0, 1.001, 2.0]) * ezgp.DUPLICATE_TOL
        x1 = x2[src] + rng.choice(offsets, (300, p)) * rng.choice([-1.0, 1.0], (300, p))
        z1 = z2[src].copy()
        other = rng.random((300, q)) < 0.1
        z1[other] = 3 - z1[other]
        x1[-30:] = rng.random((30, p))
        x1[0, -1] = np.nan
        mask = ezgp.coincident(x1, z1, x2, z2)
        expected = broadcast_coincident(x1, z1, x2, z2)
        assert mask.dtype == bool and mask.shape == (300, 40)
        assert np.array_equal(mask, expected)
        assert 0 < expected[1:].any(axis=1).sum() < 299 and not mask[0].any()

    def test_dataset_reports_planted_duplicates(self):
        space = cs.make_space([(0, 1)] * 3, [2, 3])
        points = list(cs.initial_design(space, 12, seed=2))
        tol = ezgp.DUPLICATE_TOL

        def moved(i, offset, z=None):
            return cs.MixedPoint(tuple(np.add(points[i].x, offset)), points[i].z if z is None else z)

        points += [
            moved(1, 0.0),                        # 12: a copy of 1
            moved(4, 0.5 * tol),                  # 13: within the tolerance of 4 in every coordinate
            moved(1, [0.5 * tol, 0.0, 0.0]),      # 14: within the tolerance of 1, and so of 12
            moved(7, [0.0, 0.0, 2.5 * tol]),      # 15: out of reach of 7
            moved(9, 0.0, z=(points[9].z[0], points[9].z[1] % 3 + 1)),  # 16: 9 at another level
        ]
        with pytest.raises(ValidationError) as info:
            cs.Dataset(tuple(points), np.zeros(len(points)))
        assert str(info.value) == "duplicate design points at index pairs [(1, 12), (1, 14), (4, 13), (12, 14)]"


class TestGram:
    def test_two_well_separated_points(self):
        sp = cs.make_space([(0, 1)], [3])
        params = simple_params(sp, theta=5.0)
        data = cs.Dataset((cs.MixedPoint((0.0,), (1,)), cs.MixedPoint((1.0,), (2,))), np.array([0.0, 1.0]))
        model = condition(params, data, sp)
        factor, jitter = model.factor, model.jitter
        diag = np.diag(factor)
        assert np.all(diag > 0) and jitter > 0

    def test_psd_before_jitter(self):
        rng = np.random.default_rng(7)
        sp = cs.make_space([(0, 1), (0, 1)], [3])
        for _ in range(30):
            n = int(rng.integers(2, 13))
            params = random_params(sp, rng)
            pts = random_points(sp, n, rng, min_dist=0.0)
            x = np.array([p.x for p in pts])
            z = np.array([p.z for p in pts])
            gram = cross_covariance(params, x, z, x, z)
            eigmin = float(np.linalg.eigvalsh(gram)[0])
            assert eigmin >= -1e-8 * np.trace(gram) / n

    @pytest.mark.parametrize("phi, match", [
        pytest.param(np.diag([1.0, np.inf, 1.0]), "diagonal", id="inf"),
        pytest.param(np.diag([1.0, np.nan, 1.0]), "diagonal", id="nan"),
        pytest.param(np.array([[1.0, 2.0], [2.0, 1.0]]), "failed at jitter", id="indefinite")])
    def test_nonfinite_diagonal_is_ill_conditioned(self, phi, match):
        # an infinite diagonal used to grow the jitter ladder without end,
        # a NaN one to fail inside numpy's condition-number SVD; an indefinite
        # Gram fails at every rung and reports its condition number
        with pytest.raises(IllConditionedModelError, match=match) as raised:
            ezgp._factor_gram(phi)
        if match == "failed at jitter":
            assert raised.value.condition == pytest.approx(3.0)


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("field", ["sigma2", "theta0", "theta", "mu"])
    def test_rejected(self, field, bad):
        sp = cs.make_space([(0, 1)], [2])
        params = simple_params(sp)
        if field == "mu":
            params = replace(params, mu=bad)
        else:
            (params.theta[0] if field == "theta" else getattr(params, field)).flat[-1] = bad
        with pytest.raises(ValidationError, match="finite"):
            params.validate(sp)
        data = cs.Dataset((cs.MixedPoint((0.2,), (1,)), cs.MixedPoint((0.7,), (2,))), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="finite"):
            condition(params, data, sp)


class TestJitter:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_jitter_rejected(self, bad):
        sp = cs.make_space([(0, 1)], [2])
        params = simple_params(sp)
        data = cs.Dataset((cs.MixedPoint((0.2,), (1,)), cs.MixedPoint((0.7,), (2,))), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="jitter must be"):
            condition(params, data, sp, jitter=bad)
        with pytest.raises(ValidationError, match="jitter must be"):
            neg_log_likelihood(params, data, sp, jitter=bad)


class TestLikelihood:
    def test_constant_response_profiles_mean(self):
        sp = cs.make_space([(0, 1)], [2])
        params = simple_params(sp, theta=3.0)
        pts = (cs.MixedPoint((0.1,), (1,)), cs.MixedPoint((0.5,), (2,)), cs.MixedPoint((0.9,), (1,)))
        data = cs.Dataset(pts, np.array([2.5, 2.5, 2.5]))
        model = condition(params, data, sp)
        assert model.mu_hat == pytest.approx(2.5, abs=1e-10)
        # residual y - mu 1 is zero, so the objective reduces to log|Phi|
        factor, jitter = model.factor, model.jitter
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
        assert neg_log_likelihood(params, data, sp, jitter=jitter) == pytest.approx(logdet, abs=1e-9)

    def test_two_point_brute_force(self):
        sp = cs.make_space([(0, 1)], [3])
        params = simple_params(sp, sigma=0.8, theta=2.0)
        data = cs.Dataset((cs.MixedPoint((0.2,), (1,)), cs.MixedPoint((0.7,), (1,))), np.array([1.0, -0.5]))
        jitter = 1e-9
        assert neg_log_likelihood(params, data, sp, jitter=jitter) == pytest.approx(
            brute_nll(params, data, sp, jitter), abs=1e-10)

    def test_brute_force_small_n(self):
        rng = np.random.default_rng(11)
        sp = cs.make_space([(0, 1)], [2])
        for _ in range(25):
            n = int(rng.integers(2, 5))
            params = random_params(sp, rng)
            pts = random_points(sp, n, rng)
            data = cs.Dataset(tuple(pts), rng.normal(size=n))
            jitter = 1e-8 * params.total_variance
            fast = neg_log_likelihood(params, data, sp, jitter=jitter)
            slow = brute_nll(params, data, sp, jitter)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_variance_scaling_identity(self):
        # scaling all variances by c adds n log c and divides the quadratic by c
        sp = cs.make_space([(0, 1)], [2])
        params = simple_params(sp, sigma=1.0, theta=4.0)
        pts = (cs.MixedPoint((0.1,), (1,)), cs.MixedPoint((0.5,), (2,)), cs.MixedPoint((0.9,), (1,)))
        data = cs.Dataset(pts, np.array([0.3, -1.2, 0.8]))
        n, c = len(data), 3.5
        scaled = cs.EzGpParams(0.0, params.sigma2 * c, params.theta0,
                               params.theta)
        base_obj = neg_log_likelihood(params, data, sp, jitter=0.0)
        scaled_obj = neg_log_likelihood(scaled, data, sp, jitter=0.0)
        factor = condition(params, data, sp, jitter=0.0).factor
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
        quad = base_obj - logdet
        assert scaled_obj == pytest.approx(logdet + n * math.log(c) + quad / c, rel=1e-10)


def reference_gram(params, x, z, qual_levels):
    """Full-grid Gram build: one np.where over all pairs per shared level."""
    d2 = np.square(x[:, None, :] - x[None, :, :])
    k = params.sigma2[0] * np.exp(-(d2 @ params.theta0))
    for h, m in enumerate(qual_levels):
        for level in range(m):
            mask = (z[:, h] == level + 1)[:, None] & (z[:, h] == level + 1)[None, :]
            if mask.any():
                k += np.where(mask, params.sigma2[h + 1] * np.exp(-(d2 @ params.theta[h][:, level])), 0.0)
    return k


def reference_gram_derivatives(params, x, z, qual_levels, jitter_rate):
    """Full-grid dPhi/d(log-parameter) in ``_pack``'s order, built as
    ``reference_gram`` is, with the jitter ``jitter_rate`` x (mean Gram
    diagonal) moving with the variances."""
    d2 = np.square(x[:, None, :] - x[None, :, :])
    base = params.sigma2[0] * np.exp(-(d2 @ params.theta0))
    d_sigma = [base]
    d_theta0 = [-params.theta0[k] * d2[..., k] * base for k in range(len(params.theta0))]
    d_theta = []
    for h, m in enumerate(qual_levels):
        d_sigma_h, d_mat = np.zeros_like(base), np.zeros((len(params.theta0), m) + base.shape)
        for level in range(m):
            mask = (z[:, h] == level + 1)[:, None] & (z[:, h] == level + 1)[None, :]
            term = np.where(mask, params.sigma2[h + 1] * np.exp(-(d2 @ params.theta[h][:, level])), 0.0)
            d_sigma_h += term
            for k in range(len(params.theta0)):
                d_mat[k, level] = -params.theta[h][k, level] * d2[..., k] * term
        d_sigma.append(d_sigma_h)
        d_theta.extend(d_mat.reshape((-1,) + base.shape))
    eye = np.eye(len(x))
    return [d + jitter_rate * float(np.mean(np.diag(d))) * eye for d in d_sigma] + d_theta0 + d_theta


def reference_gradient(params, data, space, jitter_rate=1e-8):
    """Dense sum(W * dPhi) with W = Phi^{-1} - alpha alpha' through cho_factor/cho_solve."""
    phi = reference_gram(params, data.x, data.z, space.qual_levels)
    phi = phi + jitter_rate * float(np.mean(np.diag(phi))) * np.eye(len(phi))
    factor = sla.cho_factor(phi, lower=True)
    inv = sla.cho_solve(factor, np.eye(len(phi)))
    y, ones = data.responses, np.ones(len(phi))
    mu_hat = (ones @ inv @ y) / (ones @ inv @ ones)
    alpha = inv @ (y - mu_hat)
    w = inv - np.outer(alpha, alpha)
    return np.array([np.sum(w * d) for d in
                     reference_gram_derivatives(params, data.x, data.z, space.qual_levels, jitter_rate)])


def reference_unpack(vec, space):
    """Log-parameter vector to EzGpParams, one exp per parameter block."""
    p, q = space.p, space.q
    mats, pos = [], q + 1 + p
    for m in space.qual_levels:
        mats.append(np.exp(vec[pos:pos + p * m]).reshape(p, m))
        pos += p * m
    return cs.EzGpParams(0.0, np.exp(vec[:q + 1]), np.exp(vec[q + 1:q + 1 + p]), tuple(mats))


def reference_nll(phi, jitter, y):
    """Profiled objective through scipy's cho_factor/cho_solve, or None when
    the jittered Gram is not positive definite."""
    try:
        factor = sla.cho_factor(phi + jitter * np.eye(len(y)), lower=True)
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    ones = np.ones(len(y))
    sol_y = sla.cho_solve(factor, y)
    sol_1 = sla.cho_solve(factor, ones)
    one_quad = float(ones @ sol_1)
    one_y = float(ones @ sol_y)
    return logdet + float(y @ sol_y) - one_y * one_y / one_quad


class _Captured(Exception):
    pass


def unequal_level_counts(data) -> bool:
    """Whether some factor's levels hold different numbers of points, so
    that the Gram builder pads its stacked level rows."""
    return any(len(set(np.bincount(col)[1:])) > 1 for col in data.z.T)


# designs whose level counts differ at initial_design seed 3
UNEQUAL_LEVEL_COUNTS = [("example2", 31), ("example3", 41)]


class TestBitIdentity:
    """The likelihood hot path gives exactly the bits of the plain
    full-grid, cho_factor/cho_solve formulation."""

    @pytest.mark.parametrize("name, n", [("example1", 12), ("example3", 27)] + UNEQUAL_LEVEL_COUNTS)
    def test_objective_and_nll_equal_reference(self, name, n, monkeypatch):
        sim = cs.builtin_simulator(name)
        space = sim.space
        points = cs.initial_design(space, n, seed=3)
        data = cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))
        y = data.responses
        assert unequal_level_counts(data) == ((name, n) in UNEQUAL_LEVEL_COUNTS)

        captured = []

        def capture(fun, x0, **kwargs):
            captured.append(fun)
            raise _Captured

        monkeypatch.setattr(ezgp, "minimize", capture)
        with pytest.raises(_Captured):
            cs.fit(data, space)
        objective = captured[0]

        lo, hi = ezgp._log_bounds(space, cs.FitConfig(), y)
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            vec = lo + rng.random(len(lo)) * (hi - lo)
            params = reference_unpack(vec, space)
            phi = reference_gram(params, data.x, data.z, space.qual_levels)
            assert np.array_equal(cross_covariance(params, data.x, data.z, data.x, data.z), phi)
            scale = float(np.mean(np.diag(phi)))
            ref = reference_nll(phi, 1e-8 * scale, y)
            assert objective(vec)[0] == (np.inf if ref is None else ref)
            j = 1e-8 * scale
            while ref is None and j * 10 <= 1e-4 * scale * (1 + 1e-9):
                j *= 10
                ref = reference_nll(phi, j, y)
            if ref is None:
                with pytest.raises(IllConditionedModelError):
                    neg_log_likelihood(params, data, space)
            else:
                assert neg_log_likelihood(params, data, space) == ref


def wide_design(p, n=30, seed=3):
    """A design of n points in p quantitative coordinates and one factor of
    three levels, with standard normal responses."""
    space = cs.make_space([(0, 1)] * p, [3])
    rng = np.random.default_rng(seed)
    return space, cs.Dataset(tuple(cs.initial_design(space, n, seed=seed)), rng.standard_normal(n))


# The fit's pair table and cross_covariance agree bit for bit only while
# OpenBLAS's gemv gives each row the same bits whatever other rows share the
# call.  With numpy 2.4.6's OpenBLAS 0.3.31 that holds for p <= 6, not from
# p = 7 on (the open FOUND on the gemv in CHANGES.md).
GEMV_ROW_BITS = pytest.mark.xfail(strict=False, reason="FOUND: from p = 7 on, OpenBLAS's gemv bits of a row depend "
                                                       "on the rows sharing its call")
WIDE_P = [4, 5, 6]


class TestPairTable:
    """The fit's Gram is built on the pairs of its lower triangle only."""

    @pytest.mark.parametrize("name, n", [("example1", 12), ("example2", 18), ("example3", 27), ("example1", 150)]
                             + UNEQUAL_LEVEL_COUNTS)
    def test_lower_triangle_equals_cross_covariance(self, name, n, monkeypatch):
        space, data = design_data(name, n, seed=3)
        assert unequal_level_counts(data) == ((name, n) in UNEQUAL_LEVEL_COUNTS)
        # at n = 150 each level's 1275 pairs pass the row cap and fill two stacked rows
        width = ezgp._KernelWorkspace(data.x, data.z, space.qual_levels).width
        assert (width == ezgp._STACK_ROWS) == (n == 150)
        self.assert_lower_triangle_equals_cross_covariance(space, data, monkeypatch)

    @pytest.mark.parametrize("p", WIDE_P + [pytest.param(8, marks=GEMV_ROW_BITS)])
    def test_wide_lower_triangle_equals_cross_covariance(self, p, monkeypatch):
        space, data = wide_design(p)
        self.assert_lower_triangle_equals_cross_covariance(space, data, monkeypatch)

    @staticmethod
    def assert_lower_triangle_equals_cross_covariance(space, data, monkeypatch):
        captured = []

        def capture(fun, x0, **kwargs):
            captured.append(fun)
            raise _Captured

        monkeypatch.setattr(ezgp, "minimize", capture)
        with pytest.raises(_Captured):
            cs.fit(data, space)
        grams, original = [], ezgp._try_cholesky

        def recording(phi, jitter):
            grams.append((phi.copy(), jitter))
            return original(phi, jitter)

        monkeypatch.setattr(ezgp, "_try_cholesky", recording)
        lo, hi = ezgp._log_bounds(space, cs.FitConfig(), data.responses)
        rng = np.random.default_rng(20261019)
        for _ in range(20):
            vec = lo + rng.random(len(lo)) * (hi - lo)
            params = reference_unpack(vec, space)
            grams.clear()
            captured[0](vec)
            (phi, jitter), = grams
            full = cross_covariance(params, data.x, data.z, data.x, data.z)
            assert np.array_equal(phi, np.tril(full))
            assert jitter == 1e-8 * float(np.mean(np.diag(full)))


def reference_cross_covariance(params, x1, z1, x2, z2, qual_levels):
    """Full-grid cross-covariance built as ``reference_gram`` is."""
    d2 = np.square(x1[:, None, :] - x2[None, :, :])
    k = params.sigma2[0] * np.exp(-(d2 @ params.theta0))
    for h, m in enumerate(qual_levels):
        for level in range(m):
            mask = (z1[:, h] == level + 1)[:, None] & (z2[:, h] == level + 1)[None, :]
            if mask.any():
                k += np.where(mask, params.sigma2[h + 1] * np.exp(-(d2 @ params.theta[h][:, level])), 0.0)
    return k


B = ezgp._GRID_COLUMNS  # the block width of cross_covariance


class TestGridGram:
    """One-shot cross-covariances (``predict_batch``, ``condition``,
    ``coverage_check``) are built in column blocks with the reference's bits."""

    @pytest.mark.parametrize("name, n, per_combo, m", [
        ("example3", 30, 23, 600), ("example2", 18, 40, 360),
        ("example3", 30, 100, B - 1), ("example3", 30, 100, B), ("example3", 30, 100, B + 1),
        ("example2", 18, 300, 2 * B + 1), ("example1", 12, 400, B + 1)])
    def test_rectangular_equals_reference(self, name, n, per_combo, m):
        space, data = design_data(name, n, seed=3)
        cand = cs.candidate_set(space, per_combo, seed=4)
        x2, z2 = cand.x[:m], cand.z[:m]
        lo, hi = ezgp._log_bounds(space, cs.FitConfig(), data.responses)
        rng = np.random.default_rng(20261020)
        for _ in range(5):
            params = reference_unpack(lo + rng.random(len(lo)) * (hi - lo), space)
            k = cross_covariance(params, data.x, data.z, x2, z2)
            assert k.shape == (n, m)
            assert np.array_equal(k, reference_cross_covariance(params, data.x, data.z, x2, z2, space.qual_levels))

    @pytest.mark.parametrize("quant, levels", [(2, ()), (1, (3, 2))])
    @pytest.mark.parametrize("m", [0, 5, B + 1])
    def test_other_spaces_equal_reference(self, quant, levels, m):
        # q = 0, p = 1, and no second-set points at all
        space = cs.make_space([(0, 1)] * quant, levels)
        rng = np.random.default_rng(7)
        data = cs.Dataset(tuple(cs.initial_design(space, 10, seed=4)), rng.standard_normal(10))
        cand = cs.candidate_set(space, B + 1, seed=2)
        x2, z2 = cand.x[:m], cand.z[:m]
        for _ in range(3):
            params = random_params(space, rng)
            k = cross_covariance(params, data.x, data.z, x2, z2)
            assert k.shape == (10, m)
            assert np.array_equal(k, reference_cross_covariance(params, data.x, data.z, x2, z2, space.qual_levels))

    @pytest.mark.parametrize("p", WIDE_P)
    def test_wide_equals_reference(self, p):
        space, data = wide_design(p)
        cand = cs.candidate_set(space, 300, seed=4)
        lo, hi = ezgp._log_bounds(space, cs.FitConfig(), data.responses)
        rng = np.random.default_rng(20261020)
        for _ in range(5):
            params = reference_unpack(lo + rng.random(len(lo)) * (hi - lo), space)
            assert np.array_equal(cross_covariance(params, data.x, data.z, cand.x, cand.z),
                                  reference_cross_covariance(params, data.x, data.z, cand.x, cand.z,
                                                             space.qual_levels))

    def test_one_sided_levels_equal_reference(self):
        # factor 1 level 3 occurs only in the first set, factor 2 level 2 only in the second
        space = cs.make_space([(0, 1)] * 2, [3, 2])
        rng = np.random.default_rng(5)
        x1, z1 = rng.random((5, 2)), np.array([(1, 1), (3, 1), (3, 1), (2, 1), (1, 1)])
        x2, z2 = rng.random((B + 1, 2)), np.array([(1, 2), (2, 2), (1, 1)] * B)[:B + 1]
        params = random_params(space, rng)
        assert np.array_equal(cross_covariance(params, x1, z1, x2, z2),
                              reference_cross_covariance(params, x1, z1, x2, z2, space.qual_levels))

    def test_single_column_equals_its_column_in_a_block(self):
        # a one-column product would be a dot: a single point gets the bits it has in a wider block
        space, data = design_data("example3", 30, seed=3)
        cand = cs.candidate_set(space, 2, seed=4)
        params = random_params(space, np.random.default_rng(3))
        wide = cross_covariance(params, data.x, data.z, cand.x, cand.z)
        for j in range(len(cand.x)):
            one = cross_covariance(params, data.x, data.z, cand.x[j:j + 1], cand.z[j:j + 1])
            assert np.array_equal(one, wide[:, j:j + 1])

    def test_build_peak_memory(self):
        # the whole predict_batch call: the kernel, one block's buffers and the
        # predictive's temporaries, no pair table
        space, data = design_data("example3", 30, seed=3)
        cand = cs.candidate_set(space, 200, seed=4)
        model = condition(simple_params(space), data, space)
        k_nbytes = 30 * 5400 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            means, sds = ezgp.predict_batch(model, cand.x, cand.z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert means.shape == sds.shape == (5400,)
        assert peak <= 3 * k_nbytes


class TestPredict:
    def test_interpolates_training_points(self, small_model):
        span = float(np.ptp(small_model.data.responses))
        for pt, y in zip(small_model.data.points, small_model.data.responses):
            means, sds = cs.predict_batch(small_model, *point_arrays([pt]))
            assert abs(means[0] - y) <= 1e-6 * span
            assert sds[0] ** 2 <= 10.0 * small_model.jitter

    def test_far_point_reverts_to_prior(self):
        sp = cs.make_space([(0, 1)], [3])
        params = simple_params(sp, sigma=0.9, theta=100.0)
        pts = (cs.MixedPoint((0.0,), (1,)), cs.MixedPoint((0.15,), (1,)), cs.MixedPoint((0.3,), (2,)))
        data = cs.Dataset(pts, np.array([1.0, 2.0, 0.5]))
        model = condition(params, data, sp)
        means, sds = cs.predict_batch(model, *point_arrays([cs.MixedPoint((1.0,), (3,))]))
        assert means[0] == pytest.approx(model.mu_hat, abs=1e-8)
        # far-field variance: total variance plus mean uncertainty
        assert sds[0] ** 2 == pytest.approx(params.total_variance + 1.0 / model.ones_quad, rel=1e-8)

    def test_symmetric_two_point_brute_force(self):
        sp = cs.make_space([(0, 1)], [2])
        params = simple_params(sp, sigma=1.3, theta=2.5)
        data = cs.Dataset((cs.MixedPoint((0.25,), (1,)), cs.MixedPoint((0.75,), (1,))), np.array([1.0, 3.0]))
        jitter = 1e-9
        model = condition(params, data, sp, jitter=jitter)
        w = cs.MixedPoint((0.5,), (1,))
        mean, var = brute_predict(params, data, sp, w, jitter)
        means, sds = cs.predict_batch(model, *point_arrays([w]))
        assert means[0] == pytest.approx(mean, abs=1e-10)
        assert sds[0] ** 2 == pytest.approx(var, abs=1e-10)

    def test_brute_force_small_n(self):
        rng = np.random.default_rng(23)
        sp = cs.make_space([(0, 1), (0, 1)], [2])
        for _ in range(15):
            n = int(rng.integers(2, 5))
            params = random_params(sp, rng)
            data = cs.Dataset(tuple(random_points(sp, n, rng)), rng.normal(size=n))
            jitter = 1e-8 * params.total_variance
            model = condition(params, data, sp, jitter=jitter)
            w = random_points(sp, 1, rng)[0]
            mean, var = brute_predict(params, data, sp, w, jitter)
            means, sds = cs.predict_batch(model, *point_arrays([w]))
            assert means[0] == pytest.approx(mean, rel=1e-9, abs=1e-9)
            assert sds[0] ** 2 == pytest.approx(var, rel=1e-9, abs=1e-9)


class TestPredictBatch:
    def test_training_point_interpolates(self, small_model):
        pt = small_model.data.points[0]
        means, _ = cs.predict_batch(small_model, *point_arrays([cs.MixedPoint((0.5,), (1,)), pt]))
        span = float(np.ptp(small_model.data.responses))
        assert abs(means[1] - small_model.data.responses[0]) <= 1e-6 * span

    def test_permutation(self, small_model):
        pts = [cs.MixedPoint((v,), (int(z),)) for v, z in zip((0.1, 0.4, 0.8), (1, 2, 3))]
        fwd = cs.predict_batch(small_model, *point_arrays(pts))
        rev = cs.predict_batch(small_model, *point_arrays(pts[::-1]))
        for a, b in zip(fwd, rev):
            np.testing.assert_array_equal(a, b[::-1])

    def test_accepts_candidate_set(self, small_model):
        cand = cs.candidate_set(small_model.space, 3, seed=0)
        means, sds = cs.predict_batch(small_model, cand.x, cand.z)
        assert len(means) == len(sds) == len(cand.points)


class TestFit:
    def test_deterministic(self, ex1_sim, quick_fit):
        sp = ex1_sim.space
        points = cs.initial_design(sp, 8, seed=2)
        data = cs.Dataset(tuple(points), np.array([ex1_sim.evaluate(pt) for pt in points]))
        m1 = cs.fit(data, sp, quick_fit)
        m2 = cs.fit(data, sp, quick_fit)
        np.testing.assert_array_equal(m1.params.sigma2, m2.params.sigma2)
        np.testing.assert_array_equal(m1.params.theta0, m2.params.theta0)
        for a, b in zip(m1.params.theta, m2.params.theta):
            np.testing.assert_array_equal(a, b)
        assert m1.nll == m2.nll

    @pytest.mark.parametrize("jitter_scale", [1.0, 100.0])
    @settings(max_examples=4)
    @given(seed=st.integers(0, 10_000))
    def test_stored_nll_is_likelihood_of_factor(self, jitter_scale, seed):
        sim = cs.builtin_simulator("example1")
        points = cs.initial_design(sim.space, 9, seed=seed)
        data = cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))
        config = cs.FitConfig(n_starts=2, max_fev=200, seed=seed, jitter_scale=jitter_scale)
        m = cs.fit(data, sim.space, config)
        assert neg_log_likelihood(m.params, m.data, m.space, m.jitter) == m.nll

    # design and fit seeds; the first three are fits whose stored nll differed
    # from the objective while the model's Gram came from cross_covariance
    @pytest.mark.parametrize("seed, fit_seed", [(1, 1), (6, 0), (9, 0), (0, 0)])
    def test_stored_nll_is_objective_at_returned_params_wide(self, seed, fit_seed, tmp_path, monkeypatch):
        # at p = 8 the pair table and cross_covariance differ in last bits
        # (GEMV_ROW_BITS); the model must still be the posterior the
        # objective scored, and a saved model must load as that posterior
        space, data = wide_design(8, seed=seed)
        config = cs.FitConfig(n_starts=2, max_fev=200, seed=fit_seed)
        model, starts = recorded_starts(data, space, config, monkeypatch)
        e = ezgp._param_vector(model.params)
        objective, vec = next((fun, v) for fun, x0, res in starts for v in (res.x, x0)
                              if np.array_equal(np.exp(v), e))
        assert objective(vec)[0] == model.nll
        path = tmp_path / "model.json"
        cs.save_model(model, path)
        assert cs.load_model(path).nll == model.nll

    def test_never_worse_than_any_start(self, small_model):
        achieved = small_model.nll
        assert small_model.start_objectives
        for initial, final in small_model.start_objectives:
            assert final <= initial + 1e-9
        assert achieved <= min(final for _, final in small_model.start_objectives) + 1e-9

    def test_constant_response(self):
        sp = cs.make_space([(0, 1)], [2])
        rng = np.random.default_rng(3)
        pts = random_points(sp, 6, rng)
        data = cs.Dataset(tuple(pts), np.full(6, 3.7))
        model = cs.fit(data, sp, cs.FitConfig(n_starts=2, max_fev=200))
        assert model.mu_hat == pytest.approx(3.7, abs=1e-9)
        for x in (0.05, 0.45, 0.95):
            _, sds = cs.predict_batch(model, *point_arrays([cs.MixedPoint((x,), (1,))]))
            assert sds[0] ** 2 <= (model.params.total_variance + 1.0 / model.ones_quad) * (1 + 1e-8) + 1e-12

    def test_simulate_and_refit_tracks_truth(self):
        # sample one path from a known surrogate, refit it, and require the
        # refit to stay within 1.5x of the known-parameter out-of-sample error
        sp = cs.make_space([(0, 1)], [3])
        truth = cs.EzGpParams(
            mu=2.0,
            sigma2=np.array([1.0, 0.6]),
            theta0=np.array([8.0]),
            theta=(np.array([[6.0, 10.0, 14.0]]),),
        )
        all_pts = cs.candidate_set(sp, 50, seed=31).points  # 150 grid points
        x = np.array([p.x for p in all_pts])
        z = np.array([p.z for p in all_pts])
        gram = cross_covariance(truth, x, z, x, z)
        chol = np.linalg.cholesky(gram + 1e-10 * np.eye(len(all_pts)))
        rng = np.random.default_rng(5)
        y = truth.mu + chol @ rng.standard_normal(len(all_pts))

        train = rng.choice(len(all_pts), size=80, replace=False)
        test = np.setdiff1d(np.arange(len(all_pts)), train)
        data = cs.Dataset(tuple(all_pts[i] for i in train), y[train])

        known = condition(truth, data, sp)
        fitted = cs.fit(data, sp, cs.FitConfig(n_starts=6, seed=1, max_fev=900))

        test_pts = [all_pts[i] for i in test]
        mae_known = np.mean(np.abs(cs.predict_batch(known, *point_arrays(test_pts))[0] - y[test]))
        mae_fit = np.mean(np.abs(cs.predict_batch(fitted, *point_arrays(test_pts))[0] - y[test]))
        assert mae_fit <= 1.5 * mae_known + 1e-9


def design_data(name, n, seed=5):
    sim = cs.builtin_simulator(name)
    points = cs.initial_design(sim.space, n, seed=seed)
    return sim.space, cs.Dataset(tuple(points), np.array([sim.evaluate(pt) for pt in points]))


def recorded_starts(data, space, config, monkeypatch):
    """Fit with ``ezgp.minimize`` recording, per start, the objective, x0 and the result."""
    starts, original = [], ezgp.minimize

    def recording(fun, x0, **kwargs):
        res = original(fun, x0, **kwargs)
        starts.append((fun, x0, res))
        return res

    monkeypatch.setattr(ezgp, "minimize", recording)
    return cs.fit(data, space, config), starts


class TestOptimizer:
    @pytest.mark.parametrize("name, n", [("example1", 12), ("example2", 18), ("example3", 27)])
    def test_gradient_matches_central_differences(self, name, n, monkeypatch):
        # well-conditioned Grams only: near-singular ones (example1, n=20)
        # leave finite-difference noise near 1e-2
        space, data = design_data(name, n)
        _, starts = recorded_starts(data, space, cs.FitConfig(n_starts=3, max_fev=1), monkeypatch)
        step = 1e-5
        for fun, x0, _ in starts:
            value, grad = fun(x0)
            assert np.isfinite(value)
            central = np.array([(fun(x0 + step * e)[0] - fun(x0 - step * e)[0]) / (2 * step)
                                for e in np.eye(len(x0))])
            assert np.linalg.norm(grad - central) <= 1e-3 * np.linalg.norm(central)

    @pytest.mark.parametrize("name, n", [("example1", 12), ("example2", 18), ("example3", 27)])
    def test_gradient_equals_dense_reference(self, name, n, monkeypatch):
        space, data = design_data(name, n)
        _, starts = recorded_starts(data, space, cs.FitConfig(n_starts=3, max_fev=1), monkeypatch)
        for fun, x0, _ in starts:
            grad = fun(x0)[1]
            ref = reference_gradient(reference_unpack(x0, space), data, space)
            assert np.linalg.norm(grad - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_each_start_evaluates_x0_once(self, monkeypatch):
        # the never-worse guard takes f0 from L-BFGS-B's first evaluation
        space, data = design_data("example1", 12)
        calls, counts = [0], []
        cholesky, minimize = ezgp._try_cholesky, ezgp.minimize

        def counting(phi, jitter):
            calls[0] += 1
            return cholesky(phi, jitter)

        def recording(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            counts.append((calls[0], res.nfev))
            return res

        monkeypatch.setattr(ezgp, "_try_cholesky", counting)
        monkeypatch.setattr(ezgp, "minimize", recording)
        model = cs.fit(data, space, cs.FitConfig(n_starts=4, max_fev=60))
        ends = [0] + [end for end, _ in counts]
        assert [b - a for a, b in zip(ends, ends[1:])] == [nfev for _, nfev in counts]
        for initial, final in model.start_objectives:
            assert final <= initial

    def test_objective_inf_on_part_of_the_box(self, monkeypatch):
        # a jitter of 1e-16 of the diagonal lets smooth Grams fail to factor
        space, data = design_data("example1", 30)
        model, starts = recorded_starts(data, space, cs.FitConfig(jitter_scale=1e-8), monkeypatch)
        initial = [fun(x0)[0] for fun, x0, _ in starts]
        assert not all(np.isfinite(initial))
        assert np.isfinite(model.nll)
        assert model.nll <= min(f for f in initial if np.isfinite(f))
        assert neg_log_likelihood(model.params, model.data, model.space, model.jitter) == model.nll

    @pytest.mark.parametrize("name, n", [("example1", 12), ("example3", 27)])
    def test_max_fev_caps_each_start(self, name, n, monkeypatch):
        space, data = design_data(name, n)
        _, starts = recorded_starts(data, space, cs.FitConfig(n_starts=4, max_fev=40), monkeypatch)
        nfev = [res.nfev for _, _, res in starts]
        # a soft cap: the line search in progress finishes
        assert max(nfev) <= 45 and max(nfev) >= 40

    def test_fit_calls_minimize_once_per_start(self, monkeypatch):
        space, data = design_data("example1", 12)
        calls, nfev, original = [0], [], ezgp.minimize

        def recording(fun, x0, **kwargs):
            def counted(vec):
                calls[0] += 1
                return fun(vec)

            res = original(counted, x0, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(ezgp, "minimize", recording)
        cs.fit(data, space, cs.FitConfig(n_starts=5, max_fev=60))
        assert len(nfev) == 5
        assert sum(nfev) == calls[0]


def captured_objective(data, space, config, monkeypatch):
    """The objective ``fit`` hands its first start, captured before any evaluation."""
    captured = []

    def capture(fun, x0, **kwargs):
        captured.append(fun)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(ezgp, "minimize", capture)
        with pytest.raises(_Captured):
            cs.fit(data, space, config)
    return captured[0]


class TestObjectiveBuffer:
    def test_reused_gram_keeps_no_state(self, monkeypatch):
        # the objective factors one Gram buffer in place at every evaluation; a
        # jitter of 1e-24 of the diagonal leaves failed, partial factors in it
        space, data = design_data("example1", 30)
        config = cs.FitConfig(jitter_scale=1e-16)
        lo, hi = ezgp._log_bounds(space, config, data.responses)
        rng = np.random.default_rng(20261020)
        points = [lo + rng.random(len(lo)) * (hi - lo) for _ in range(16)]
        objective = captured_objective(data, space, config, monkeypatch)
        forwards = [objective(vec) for vec in points]
        backwards = [objective(vec) for vec in reversed(points)][::-1]
        fresh = [captured_objective(data, space, config, monkeypatch)(vec) for vec in points]
        values = [value for value, _ in forwards]
        assert 0 < sum(np.isfinite(values)) < len(points)
        for (value, grad), *others in zip(forwards, backwards, fresh):
            for other_value, other_grad in others:
                assert other_value == value and np.array_equal(other_grad, grad)


class TestLbfgsbLoop:
    """``ezgp.minimize`` is scipy's L-BFGS-B without its per-evaluation wrappers."""

    @pytest.mark.parametrize("config", [cs.FitConfig(), cs.FitConfig(max_fev=7), cs.FitConfig(jitter_scale=1e-8)],
                             ids=["default", "max_fev=7", "jitter_scale=1e-8"])
    @pytest.mark.parametrize("name, n", [("example1", 9), ("example1", 20), ("example2", 18), ("example3", 27)])
    def test_equals_scipy_lbfgsb(self, name, n, config, monkeypatch):
        space, data = design_data(name, n)
        lbfgsb, captured = ezgp.minimize, []

        def capture(fun, x0, **kwargs):
            captured.append((fun, x0, kwargs))
            raise _Captured

        monkeypatch.setattr(ezgp, "minimize", capture)
        with pytest.raises(_Captured):
            cs.fit(data, space, config)
        (objective, first, kwargs), = captured

        lo, hi = ezgp._log_bounds(space, config, data.responses)
        options = {} if config.max_fev is None else {"maxfun": config.max_fev}
        rng = np.random.default_rng(0)
        # the fit's first start, points of the box, and one partly outside it
        x0s = [first] + [lo + rng.random(len(lo)) * (hi - lo) for _ in range(4)]
        x0s.append(lo + (rng.random(len(lo)) * 1.4 - 0.2) * (hi - lo))
        inf_runs = 0
        for x0 in x0s:
            values = []

            def fun(vec):
                out = objective(vec)
                values.append(out[0])
                return out

            with ezgp._one_blas_thread():
                ours = lbfgsb(fun, x0.copy(), **kwargs)
                ref = scipy.optimize.minimize(objective, x0.copy(), jac=True, method="L-BFGS-B",
                                              bounds=list(zip(lo, hi)), options=options)
            assert np.array_equal(ours.x, ref.x)
            assert ours.fun == ref.fun
            assert np.array_equal(ours.jac, ref.jac)
            assert (ours.nfev, ours.njev, ours.nit, ours.status) == (ref.nfev, ref.njev, ref.nit, ref.status)
            assert len(values) == ours.nfev
            inf_runs += not all(np.isfinite(values[1:]))
        if (name, n, config.jitter_scale) == ("example1", 20, 1e-8):
            # at 1e-16 of the diagonal, some trial points' Grams do not factor
            # and score inf; the loop follows scipy there too
            assert inf_runs

    def test_bounds_of_another_length_rejected(self):
        # the kernel would read past the end of a shorter bound array
        with pytest.raises(ValueError, match="one per entry of x0"):
            ezgp.minimize(lambda v: (float(v @ v), 2 * v), np.ones(2), jac=True, method="L-BFGS-B",
                          bounds=[(0.0, 3.0)])

    @pytest.mark.parametrize("kwargs", [{"jac": None}, {"bounds": None}, {"bounds": [(0.0, np.inf)] * 2},
                                        {"options": {"maxiter": 5}}, {"tol": 1e-3}],
                             ids=["no gradient", "no bounds", "infinite bound", "maxiter", "tol"])
    def test_lbfgsb_takes_only_what_fit_passes(self, kwargs):
        # nothing falls through to scipy's own L-BFGS-B driver
        call = {"jac": True, "method": "l-bfgs-b", "bounds": [(0.0, 3.0)] * 2, **kwargs}
        with pytest.raises(ValueError):
            ezgp.minimize(lambda v: (float(v @ v), 2 * v), np.ones(2), **call)

    def test_other_methods_are_scipys_minimize(self):
        kwargs = {"method": "Nelder-Mead", "bounds": [(-4.0, 4.0)] * 2, "options": {"maxfev": 10}}
        ours = ezgp.minimize(lambda v: float(v @ v), [1.0, 0.5], **kwargs)
        ref = scipy.optimize.minimize(lambda v: float(v @ v), [1.0, 0.5], **kwargs)
        assert np.array_equal(ours.x, ref.x) and ours.fun == ref.fun and ours.nfev == ref.nfev == 10


class TestCachedSolves:
    def test_solves_satisfy_linear_systems(self, small_model):
        # Phi := Gram + jitter I must reproduce both cached right-hand sides
        space = small_model.space
        x = small_model.data.x
        z = small_model.data.z
        phi = cross_covariance(small_model.params, x, z, x, z)
        phi = phi + small_model.jitter * np.eye(len(phi))
        y = small_model.data.responses
        ones = np.ones(len(y))
        rhs = y - small_model.mu_hat * ones
        assert np.linalg.norm(phi @ small_model.resid_solve - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-30)
        assert np.linalg.norm(phi @ small_model.ones_solve - ones) <= 1e-8 * np.linalg.norm(ones)


def stacked_problems(lead, n=9, m=40, seed=3):
    """Training Grams (*lead, n, n), responses (*lead, n) and cross-covariances
    (*lead, n, m) of random subsets of one example2 point set."""
    space = cs.builtin_simulator("example2").space
    rng = np.random.default_rng(seed)
    params = random_params(space, rng)
    x, z = point_arrays(random_points(space, n + m, rng))
    gram = cross_covariance(params, x, z, x, z)
    train = np.array([rng.choice(n + m, size=n, replace=False) for _ in range(math.prod(lead))])
    train = train.reshape(*lead, n)
    return (params, gram[train[..., :, None], train[..., None, :]], rng.standard_normal((*lead, n)),
            gram[train])


def assert_stack_equals_one_at_a_time(post, means, sds, phi, y, r, prior_var):
    """Each Gram of the stack that factored, conditioned and predicted alone, has the stack's bits."""
    for i in np.ndindex(phi.shape[:-2]):
        if np.isnan(post.jitter[i]):
            continue
        one = ezgp._posterior(phi[i], y[i])
        one_means, one_sds = ezgp._predictive(one, prior_var, r[i])
        assert np.array_equal(post.factor[i], one.factor)
        for name in ("jitter", "mu_hat", "nll", "ones_quad", "resid_solve", "ones_solve"):
            assert np.array_equal(getattr(post, name)[i], getattr(one, name)), name
        assert np.array_equal(means[i], one_means) and np.array_equal(sds[i], one_sds)


class TestStackedConditioning:
    """A stack of training Grams conditions and predicts with the bits of one Gram at a time."""

    @pytest.mark.parametrize("lead", [(1,), (7,), (2, 3)])
    def test_stack_equals_one_gram_at_a_time(self, lead):
        params, phi, y, r = stacked_problems(lead)
        post = ezgp._posterior(phi, y)
        means, sds = ezgp._predictive(post, params.total_variance, r)
        assert post.jitter.shape == post.nll.shape == lead and means.shape == sds.shape == (*lead, r.shape[-1])
        assert_stack_equals_one_at_a_time(post, means, sds, phi, y, r, params.total_variance)

    def test_one_gram_gives_floats(self):
        # trace.csv and model.json print these with repr
        _, phi, y, _ = stacked_problems((1,))
        post = ezgp._posterior(phi[0], y[0])
        assert all(type(getattr(post, name)) is float for name in ("jitter", "mu_hat", "nll", "ones_quad"))

    def test_a_failing_gram_climbs_its_ladder_alone(self, monkeypatch):
        params, phi, y, r = stacked_problems((5,))
        real, tried = ezgp._try_cholesky, []

        def try_cholesky(a, jitter):
            k = next(k for k in range(5) if np.array_equal(a, phi[k]))
            tried.append(k)
            if k == 3 or (k == 1 and jitter < 5e-8 * a.trace() / len(a)):
                return None
            return real(a, jitter)

        monkeypatch.setattr(ezgp, "_try_cholesky", try_cholesky)
        post = ezgp._posterior(phi, y)
        means, sds = ezgp._predictive(post, params.total_variance, r)
        # Gram 1 factors at the second rung; Gram 3 tries all five rungs and fails
        assert tried == [0, 1, 1, 2, 3, 3, 3, 3, 3, 4]
        scale = phi.trace(axis1=1, axis2=2) / phi.shape[-1]
        assert post.jitter[0] == 1e-8 * scale[0] and post.jitter[1] == 1e-8 * scale[1] * 10
        failed = np.isnan(post.jitter)
        assert failed.tolist() == [False, False, False, True, False]
        assert np.isnan(post.nll[3]) and np.isnan(means[3]).all() and np.isnan(sds[3]).all()
        with pytest.raises(IllConditionedModelError):
            ezgp._posterior(phi[3], y[3])
        assert_stack_equals_one_at_a_time(post, means, sds, phi, y, r, params.total_variance)


class TestSerialization:
    def test_round_trip_predictions_identical(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        cs.save_model(small_model, path)
        loaded = cs.load_model(path)
        grid = [cs.MixedPoint((v,), (int(zb),)) for v in np.linspace(0, 1, 17) for zb in (1, 2, 3)]
        a = cs.predict_batch(small_model, *point_arrays(grid))
        b = cs.predict_batch(loaded, *point_arrays(grid))
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
        assert loaded.jitter == small_model.jitter
        assert loaded.mu_hat == small_model.mu_hat

    def test_whole_float_level_loads(self, small_model, tmp_path):
        # levels are read as whole numbers (1.5 or true is invalid), and 2.0 is one
        path = tmp_path / "model.json"
        cs.save_model(small_model, path)
        doc = json.loads(path.read_text())
        doc["data"]["z"][0] = [2.0]
        path.write_text(json.dumps(doc))
        assert cs.load_model(path).data.z[0].tolist() == [2]
