import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import contour_seeker as cs
from contour_seeker.design_space import _unit_lhd, point_arrays
from contour_seeker.errors import ValidationError

from conftest import normalize


class TestMakeSpace:
    def test_example1_shape(self):
        sp = cs.make_space([(0, 1)], [3])
        assert (sp.p, sp.q, sp.num_combos) == (1, 1, 3)

    def test_example2_shape(self):
        sp = cs.make_space([(0, 1), (0, 1)], [3, 3])
        assert (sp.p, sp.q, sp.num_combos) == (2, 2, 9)

    def test_no_factors_empty_product(self):
        sp = cs.make_space([(0, 1)])
        assert (sp.p, sp.q, sp.num_combos) == (1, 0, 1)
        assert sp.level_combos() == [()]

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValidationError):
            cs.make_space([(1.0, 1.0)])
        with pytest.raises(ValidationError):
            cs.make_space([(2.0, 1.0)])

    def test_level_count_below_two_rejected(self):
        with pytest.raises(ValidationError):
            cs.make_space([(0, 1)], [1])

    def test_combos_lexicographic(self):
        sp = cs.make_space([(0, 1)], [2, 3])
        assert sp.level_combos() == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


class TestLatinHypercube:
    def test_four_point_strata(self):
        sp = cs.make_space([(0, 1)])
        pts = cs.candidate_set(sp, 4, seed=0).x
        strata = sorted(int(v * 4) for v in pts[:, 0])
        assert strata == [0, 1, 2, 3]

    def test_single_point(self):
        sp = cs.make_space([(0, 1)] * 3)
        pts = cs.candidate_set(sp, 1, seed=1).x
        assert pts.shape == (1, 3)
        assert np.all((pts >= 0) & (pts < 1))

    def test_zero_points_rejected(self):
        sp = cs.make_space([(0, 1)])
        with pytest.raises(ValidationError):
            cs.candidate_set(sp, 0, seed=0)

    def test_deterministic(self):
        sp = cs.make_space([(0, 1), (0, 1)])
        a = cs.candidate_set(sp, 7, seed=9).x
        b = cs.candidate_set(sp, 7, seed=9).x
        np.testing.assert_array_equal(a, b)

    @given(n=st.integers(1, 40), p=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_stratification_property(self, n, p, seed):
        sp = cs.make_space([(0, 1)] * p)
        pts = cs.candidate_set(sp, n, seed).x
        for j in range(p):
            assert sorted(np.floor(pts[:, j] * n).astype(int)) == list(range(n))


class TestCandidateSet:
    @pytest.mark.parametrize("per_combo,levels,total", [
        (100, [3], 300),
        (200, [3, 3], 1800),
        (1, [], 1),
    ])
    def test_sizes(self, per_combo, levels, total):
        sp = cs.make_space([(0, 1)], levels)
        cand = cs.candidate_set(sp, per_combo, seed=0)
        assert len(cand.points) == total
        counts = Counter(pt.z for pt in cand.points)
        assert all(v == per_combo for v in counts.values())
        assert len(counts) == sp.num_combos

    def test_per_combo_lhd_stratified(self):
        sp = cs.make_space([(0, 1)], [3])
        cand = cs.candidate_set(sp, 10, seed=3)
        for combo in sp.level_combos():
            xs = [pt.x[0] for pt in cand.points if pt.z == combo]
            assert sorted(np.floor(np.array(xs) * 10).astype(int)) == list(range(10))

    def test_deterministic(self):
        sp = cs.make_space([(0, 1)], [2])
        a, b = cs.candidate_set(sp, 5, seed=4), cs.candidate_set(sp, 5, seed=4)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)

    @pytest.mark.parametrize("levels", [[], [3], [2, 3, 2]])
    def test_arrays_match_points(self, levels):
        # reference: one LHD block per combination, built point by point
        sp = cs.make_space([(0, 1), (0, 1)], levels)
        rng = np.random.default_rng(7)
        ref = tuple(cs.MixedPoint(tuple(row), combo)
                    for combo in sp.level_combos() for row in _unit_lhd(4, sp.p, rng))
        cand = cs.candidate_set(sp, 4, seed=7)
        x, z = point_arrays(ref)
        assert cand.x.shape == (4 * sp.num_combos, 2) and cand.z.shape == (4 * sp.num_combos, sp.q)
        np.testing.assert_array_equal(cand.x, x)
        np.testing.assert_array_equal(cand.z, z)
        assert cand.points == ref

    def test_point_has_python_entries(self):
        sp = cs.make_space([(0, 1)], [3, 2])
        pt = cs.candidate_set(sp, 3, seed=1).point(4)
        assert all(type(v) is float for v in pt.x)
        assert all(type(v) is int for v in pt.z)
        assert json.loads(json.dumps({"x": pt.x, "z": pt.z})) == {"x": list(pt.x), "z": [1, 2]}


class TestInitialDesign:
    def test_balanced_exact(self):
        sp = cs.make_space([(0, 1)], [3])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 9, seed=1))
        assert sorted(counts.values()) == [3, 3, 3]

    def test_near_balance(self):
        sp = cs.make_space([(0, 1)], [3])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 10, seed=2))
        assert sorted(counts.values()) == [3, 3, 4]

    def test_hpc_scale_balance(self):
        sp = cs.make_space([(0, 1)] * 4, [6])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 30, seed=3))
        assert sorted(counts.values()) == [5] * 6

    def test_fewer_runs_than_combos_samples_without_replacement(self):
        sp = cs.make_space([(0, 1)], [5])
        design = cs.initial_design(sp, 3, seed=4)
        combos = [pt.z for pt in design]
        assert len(set(combos)) == 3

    def test_minimum_size(self):
        sp = cs.make_space([(0, 1)])
        with pytest.raises(ValidationError):
            cs.initial_design(sp, 1, seed=0)

    @given(n0=st.integers(2, 40), seed=st.integers(0, 2**31))
    def test_balance_property(self, n0, seed):
        sp = cs.make_space([(0, 1)], [2, 3])
        counts = Counter(pt.z for pt in cs.initial_design(sp, n0, seed))
        filled = [counts.get(c, 0) for c in sp.level_combos()]
        assert max(filled) - min(filled) <= 1

    def test_quantitative_part_is_lhd(self):
        sp = cs.make_space([(0, 1), (0, 1)], [3])
        design = cs.initial_design(sp, 12, seed=8)
        xs = np.array([pt.x for pt in design])
        for j in range(2):
            assert sorted(np.floor(xs[:, j] * 12).astype(int)) == list(range(12))


class TestOneShotDesign:
    def test_balanced(self):
        sp = cs.make_space([(0, 1)], [3])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 21, seed=5))
        assert sorted(counts.values()) == [7, 7, 7]

    def test_near_balance_many_combos(self):
        sp = cs.make_space([(0, 1), (0, 1)], [3, 3])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 12, seed=6))
        values = [counts.get(c, 0) for c in sp.level_combos()]
        assert sum(values) == 12
        assert set(values) <= {1, 2}

    def test_each_combo_once(self):
        sp = cs.make_space([(0, 1)], [2, 2])
        counts = Counter(pt.z for pt in cs.initial_design(sp, 4, seed=7))
        assert sorted(counts.values()) == [1, 1, 1, 1]

    def test_deterministic(self):
        sp = cs.make_space([(0, 1)], [3])
        assert cs.initial_design(sp, 9, seed=11) == cs.initial_design(sp, 9, seed=11)


class TestNormalization:
    @given(st.floats(-50, 50), st.floats(0.1, 100), st.lists(st.floats(0, 1), min_size=1, max_size=4))
    def test_round_trip(self, lo, width, xs):
        sp = cs.make_space([(lo, lo + width)] * len(xs))
        back = normalize(sp, sp.denormalize(tuple(xs)))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back, xs))

    def test_denormalize_maps_bounds(self):
        sp = cs.make_space([(2.0, 6.0)])
        assert sp.denormalize((0.0,)) == (2.0,)
        assert sp.denormalize((1.0,)) == (6.0,)
        assert sp.denormalize((0.5,)) == (4.0,)
