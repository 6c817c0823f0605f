import math
from collections import namedtuple

import hypothesis
import numpy as np
import pytest

import contour_seeker as cs
from contour_seeker.acquisition import _criterion

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def ex1_sim():
    return cs.builtin_simulator("example1")


@pytest.fixture
def ex1_space(ex1_sim):
    return ex1_sim.space


@pytest.fixture
def quick_fit():
    """Small optimizer budget: enough for structural tests, fast."""
    return cs.FitConfig(n_starts=2, max_fev=300)


@pytest.fixture
def small_model(ex1_sim, quick_fit):
    space = ex1_sim.space
    points = cs.initial_design(space, 9, seed=5)
    y = np.array([ex1_sim.evaluate(pt) for pt in points])
    data = cs.Dataset(tuple(points), y)
    return cs.fit(data, space, quick_fit)


def random_params(space, rng, theta_range=(0.05, 50.0), sigma_range=(0.1, 4.0)):
    """Valid random hyperparameters for a space."""
    lo, hi = np.log(theta_range[0]), np.log(theta_range[1])
    slo, shi = np.log(sigma_range[0]), np.log(sigma_range[1])
    return cs.EzGpParams(
        mu=float(rng.normal()),
        sigma2=np.exp(rng.uniform(slo, shi, space.q + 1)),
        theta0=np.exp(rng.uniform(lo, hi, space.p)),
        theta=tuple(np.exp(rng.uniform(lo, hi, (space.p, m))) for m in space.qual_levels),
    )


def random_points(space, n, rng, min_dist=0.02):
    """Random point set with a minimum pairwise separation within each
    level combination (keeps Gram matrices well away from singularity)."""
    points = []
    guard = 0
    while len(points) < n and guard < 10000:
        guard += 1
        x = tuple(rng.random(space.p))
        z = tuple(int(rng.integers(1, m + 1)) for m in space.qual_levels)
        ok = all(not (pt.z == z and max(abs(a - b) for a, b in zip(pt.x, x)) < min_dist)
                 for pt in points)
        if ok:
            points.append(cs.MixedPoint(x, z))
    assert len(points) == n
    return points


def normalize(space, x_phys):
    """Physical coordinates mapped to [0,1]^p: the inverse of ``DesignSpace.denormalize``."""
    return tuple((float(v) - lo) / (hi - lo) for v, (lo, hi) in zip(x_phys, space.quant_bounds))


def covariance(params, a, b):
    """Brute-force oracle of the kernel between two ``MixedPoint``s: the base
    term plus each shared level's term, one point pair at a time."""
    d2 = np.square(np.asarray(a.x) - np.asarray(b.x))
    val = params.sigma2[0] * math.exp(-float(d2 @ params.theta0))
    for h, (la, lb) in enumerate(zip(a.z, b.z)):
        if la == lb:
            val += params.sigma2[h + 1] * math.exp(-float(d2 @ params.theta[h][:, la - 1]))
    return float(val)


# one candidate's predictive mean and sd
Prediction = namedtuple("Prediction", ["mean", "sd"])


def score(kind, mean, sd, ctx):
    """Criterion ``kind`` at one (mean, sd): ``_criterion`` on one-element arrays."""
    return float(_criterion(kind, np.array([mean]), np.array([sd]), ctx)[0])


def arrays(preds):
    """(means, sds) arrays of a list of predictions."""
    return np.array([p.mean for p in preds]), np.array([p.sd for p in preds])
