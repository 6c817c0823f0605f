import math

import numpy as np
import pytest

import contour_seeker as cs
from contour_seeker.errors import EvaluationError, IngestionError, ValidationError
from contour_seeker.simulators import read_table

from conftest import normalize


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            cs.builtin_simulator("example9")

    def test_example1_values(self):
        sim = cs.builtin_simulator("example1")
        assert sim.space.p == 1 and sim.space.qual_levels == (3,)
        assert sim.evaluate(cs.MixedPoint((0.0,), (3,))) == pytest.approx(1.0)
        assert sim.evaluate(cs.MixedPoint((0.5,), (1,))) == pytest.approx(3.0)  # global maximum
        assert sim.evaluate(cs.MixedPoint((0.5,), (3,))) == pytest.approx(-1.0)  # global minimum
        assert sim.evaluate(cs.MixedPoint((0.25,), (2,))) == pytest.approx(2.0)

    def test_example2_values(self):
        sim = cs.builtin_simulator("example2")
        assert sim.space.p == 2 and sim.space.qual_levels == (3, 3)
        assert sim.evaluate(cs.MixedPoint((0.0, 0.0), (1, 1))) == pytest.approx(2.0)
        x = (0.3, 0.7)
        expected = (0.3 ** 2 + 0.7) + (math.cos(0.6) + math.cos(0.7))
        assert sim.evaluate(cs.MixedPoint(x, (2, 2))) == pytest.approx(expected, rel=1e-12)

    def test_example3_values(self):
        sim = cs.builtin_simulator("example3")
        assert sim.space.p == 3 and sim.space.qual_levels == (3, 3, 3)
        assert sim.evaluate(cs.MixedPoint((0.0, 0.0, 0.0), (1, 1, 1))) == pytest.approx(3.0)
        x = (0.2, 0.5, 0.9)
        expected = ((0.2 + 0.5 ** 2 + 0.9)
                    + (math.cos(0.4) + math.cos(0.5) + math.cos(0.9))
                    + (math.sin(0.4) + math.sin(0.5) + math.sin(0.9)))
        assert sim.evaluate(cs.MixedPoint(x, (3, 3, 3))) == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self):
        sim = cs.builtin_simulator("example1")
        pt = cs.MixedPoint((0.123,), (2,))
        assert sim.evaluate(pt) == sim.evaluate(pt)


class TestTransforms:
    def test_identity(self):
        tr = cs.get_transform("identity")
        assert tr.apply(4.2) == 4.2

    def test_log_round_trip(self):
        tr = cs.get_transform("log")
        assert tr.apply(100.0) == pytest.approx(math.log(100.0))
        assert math.exp(tr.apply(7.3)) == pytest.approx(7.3, rel=1e-12)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            cs.get_transform("log").apply(0.0)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            cs.get_transform("sqrt")


def write_table(path, rows, header="x_1,x_2,z_1,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def grid_space():
    return cs.make_space([(0.0, 10.0), (0.0, 1.0)], [2])


class TestTabular:
    def test_exact_rows_round_trip(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["0.0,0.5,1,1.5", "10.0,0.5,2,-2.0", "5.0,0.0,1,0.25"])
        sim = cs.tabular_simulator(path, grid_space)
        assert sim.evaluate(cs.MixedPoint(normalize(grid_space, (0.0, 0.5)), (1,))) == 1.5
        assert sim.evaluate(cs.MixedPoint(normalize(grid_space, (10.0, 0.5)), (2,))) == -2.0
        assert sim.evaluate(cs.MixedPoint(normalize(grid_space, (5.0, 0.0)), (1,))) == 0.25

    def test_nearest_row_normalized_metric(self, tmp_path, grid_space):
        # after normalization row B is closer to the query than row A
        path = tmp_path / "grid.csv"
        write_table(path, ["0.0,0.0,1,10.0", "4.0,0.9,1,20.0"])
        sim = cs.tabular_simulator(path, grid_space)
        query = cs.MixedPoint(normalize(grid_space, (3.0, 0.8)), (1,))
        assert sim.evaluate(query) == 20.0

    def test_tie_smaller_row_index(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,1,111.0", "4.0,0.5,1,222.0"])
        sim = cs.tabular_simulator(path, grid_space)
        query = cs.MixedPoint(normalize(grid_space, (3.0, 0.5)), (1,))
        assert sim.evaluate(query) == 111.0

    def test_missing_level_combination(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,1,1.0"])
        sim = cs.tabular_simulator(path, grid_space)
        with pytest.raises(EvaluationError):
            sim.evaluate(cs.MixedPoint((0.5, 0.5), (2,)))

    def test_log_transform_at_load(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,1,100.0"])
        sim = cs.TabularSimulator(grid_space, *read_table(path, grid_space, "y", "log"))
        val = sim.evaluate(cs.MixedPoint(normalize(grid_space, (2.0, 0.5)), (1,)))
        assert val == pytest.approx(4.605170185988092, rel=1e-12)

    def test_malformed_row_reports_line(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,1,1.0", "oops,0.5,1,2.0"])
        with pytest.raises(IngestionError) as err:
            cs.tabular_simulator(path, grid_space)
        assert err.value.row == 3  # header is line 1

    def test_level_out_of_range_reports_line(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,7,1.0"])
        with pytest.raises(IngestionError) as err:
            cs.tabular_simulator(path, grid_space)
        assert err.value.row == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_response_reports_line(self, tmp_path, grid_space, bad):
        path = tmp_path / "grid.csv"
        path.write_text(f"# schema=1\nx_1,x_2,z_1,y\n2.0,0.5,1,1.0\n4.0,0.5,2,{bad}\n")
        with pytest.raises(IngestionError) as err:
            cs.tabular_simulator(path, grid_space)
        assert err.value.row == 4  # comment is line 1, header line 2

    def test_log_rejection_reports_line(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        write_table(path, ["2.0,0.5,1,1.0", "4.0,0.5,1,0.0"])
        with pytest.raises(IngestionError) as err:
            read_table(path, grid_space, "y", "log")
        assert err.value.row == 3

    def test_missing_column(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        path.write_text("x_1,z_1,y\n1.0,1,2.0\n")
        with pytest.raises(IngestionError):
            cs.tabular_simulator(path, grid_space)

    def test_comment_lines_skipped(self, tmp_path, grid_space):
        path = tmp_path / "grid.csv"
        path.write_text("# schema=1\nx_1,x_2,z_1,y\n2.0,0.5,1,9.0\n1.0,0.1,2,3.0\n")
        sim = cs.tabular_simulator(path, grid_space)
        assert len(sim.y) == 2
