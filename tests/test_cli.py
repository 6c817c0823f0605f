import hashlib
import json
import math
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import contour_seeker as cs
from contour_seeker import cli
from contour_seeker.cli import main
from contour_seeker.engine import STRATEGY_KINDS
from contour_seeker.traceio import fit_config_from_dict, integral, load_document, read_csv, real, strategy_from_dict


def run_config(tmp_path, name="run.json", drop=(), **overrides):
    doc = {
        "simulator": {"builtin": "example1"},
        "strategy": {"kind": "rcc", "delta": 0.05},
        "level": -0.9,
        "n0": 9,
        "N": 11,
        "candidates_per_combo": 30,
        "seed": 5,
        "fit": {"n_starts": 2, "max_fev": 250},
        "out": str(tmp_path / "out"),
    }
    for key in drop:
        del doc[key]
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def assert_invalid(argv, path, capsys, match=""):
    """``main(argv)`` exits 2 with one line of JSON: a ValidationError naming
    ``path`` (unless it is None)."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"
    assert (path is None or str(path) in doc["message"]) and match in doc["message"]


def no_work(*args, **kwargs):
    pytest.fail("work started before the config was fully checked")


BAD_STRATEGY_CONSTANTS = [("alpha", 0), ("alpha", 2.0), ("rho", -1), ("delta", 0), ("ei_alpha", 0)]


class TestRun:
    def test_minimal_campaign(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 2
        header, rows = read_csv(tmp_path / "out" / "trace.csv")
        assert len(rows) == 2
        resolved = json.loads((tmp_path / "out" / "config.json").read_text())
        # defaults are materialized
        assert resolved["strategy"]["rho"] == 2.0
        assert resolved["transform"] == "identity"

    def test_n0_not_below_budget(self, tmp_path, capsys):
        cfg = run_config(tmp_path, n0=11, N=11)
        assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "n0" in err["message"] and "N" in err["message"]

    def test_missing_field_named(self, tmp_path, capsys):
        doc = {"simulator": {"builtin": "example1"}, "n0": 9, "N": 11, "out": str(tmp_path / "o")}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "level" in err["message"]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg_a = run_config(tmp_path, name="run_a.json", out=str(tmp_path / "a"))
        cfg_b = run_config(tmp_path, name="run_b.json", out=str(tmp_path / "b"))
        assert main(["run", str(cfg_a)]) == 0
        assert main(["run", str(cfg_b)]) == 0
        capsys.readouterr()
        for name in ("trace.csv", "design.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = run_config(tmp_path, out=str(tmp_path / "o1"))
        assert main(["run", str(cfg), "--strategy", "ecl", "--seed", "9",
                     "--out", str(tmp_path / "o2")]) == 0
        capsys.readouterr()
        resolved = json.loads((tmp_path / "o2" / "config.json").read_text())
        assert resolved["strategy"]["kind"] == "ecl"
        assert resolved["seed"] == 9

    def test_one_shot_strategy(self, tmp_path, capsys):
        cfg = run_config(tmp_path, strategy="one_shot", N=10, drop=("n0", "candidates_per_combo"))
        assert main(["run", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "design.csv")
        assert len(rows) == 10
        _, trows = read_csv(tmp_path / "out" / "trace.csv")
        assert trows == []

    def test_one_shot_config_reports_what_ran(self, tmp_path, capsys):
        cfg = run_config(tmp_path, strategy="one_shot", N=10, drop=("n0", "candidates_per_combo"))
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        resolved = json.loads((tmp_path / "out" / "config.json").read_text())
        assert (resolved["n0"], resolved["N"], resolved["candidates_per_combo"]) == (10, 10, 1)
        assert resolved["checkpoint_sizes"] == [] and resolved["strategy"]["kind"] == "one_shot"

    @pytest.mark.parametrize("field, value", [("n0", 9), ("candidates_per_combo", 30),
                                              ("checkpoint_sizes", [10])])
    def test_one_shot_rejects_adaptive_fields(self, tmp_path, capsys, field, value):
        cfg = run_config(tmp_path, strategy="one_shot", N=10, drop=("n0", "candidates_per_combo"),
                         **{field: value})
        assert_invalid(["run", str(cfg)], cfg, capsys, f"field '{field}' does not apply")
        assert not (tmp_path / "out").exists()

    def test_one_shot_rejects_candidates_flag(self, tmp_path, capsys):
        cfg = run_config(tmp_path, strategy="one_shot", N=10, drop=("n0", "candidates_per_combo"))
        assert_invalid(["run", str(cfg), "--candidates-per-combo", "30"], cfg, capsys,
                       "field 'candidates_per_combo' does not apply")

    def test_nonfinite_table_response_rejected_at_load(self, tmp_path, capsys):
        table = tmp_path / "grid.csv"
        rows = [f"{x / 10},{z},{'nan' if z == 2 else x / 10}" for x in range(11) for z in (1, 2)]
        table.write_text("x_1,z_1,y\n" + "\n".join(rows) + "\n")
        cfg = run_config(tmp_path, simulator={"table": str(table)},
                         space={"quant_bounds": [[0.0, 1.0]], "qual_levels": [2]},
                         level=0.5, n0=4, N=6)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "IngestionError" and "line 3" in doc["message"] and "nan" in doc["message"]

    def test_transform_rejection_exits_3(self, tmp_path, capsys):
        # a log campaign over a table holding non-positive responses: the
        # starting design hits one, which is a runtime failure, not bad input
        table = tmp_path / "grid.csv"
        rows = [f"{x / 10},{z},{x / 10 + 1 if z == 1 else -1.0}" for x in range(11) for z in (1, 2)]
        table.write_text("x_1,z_1,y\n" + "\n".join(rows) + "\n")
        cfg = run_config(tmp_path, simulator={"table": str(table)},
                         space={"quant_bounds": [[0.0, 1.0]], "qual_levels": [2]},
                         level=1.5, n0=4, N=6, transform="log")
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "CampaignError" and "positive response" in doc["message"]

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("overrides, match", [
        ({"space": {"qual_levels": [3]}}, "missing field 'quant_bounds'"),
        ({"strategy": {"kind": "rcc", "rho": "x"}}, "malformed"),
        ({"fit": {"n_starts": "x"}}, "malformed"),
        ({"fit": {"theta_bounds": 5}}, "malformed"),
        ({"n0": "x"}, "malformed"),
        ({"level": "x"}, "malformed"),
    ], ids=["space-no-bounds", "rho", "n_starts", "theta_bounds", "n0", "level"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, overrides, match):
        cfg = run_config(tmp_path, **overrides)
        assert_invalid(["run", str(cfg)], cfg, capsys, match)
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(["simulator", "level"]))
        assert_invalid(["run", str(path)], path, capsys, "JSON object")

    @pytest.mark.parametrize("overrides, flags, match", [
        *[({"strategy": {"kind": "rcc", name: value}}, [], name) for name, value in BAD_STRATEGY_CONSTANTS],
        ({}, ["--alpha", "2"], "alpha"),
        ({"fit": {"n_starts": 0}}, [], "n_starts"),
        ({"fit": {"theta_bounds": [10, 1]}}, [], "theta_bounds"),
        ({"fit": {"theta_bounds": [0, 1]}}, [], "theta_bounds"),
        ({"fit": {"sigma2_rel_bounds": [-1, 10]}}, [], "sigma2_rel_bounds"),
        ({"fit": {"max_fev": 0}}, [], "max_fev"),
        ({"level": float("nan")}, [], "level"),
        ({"strategy": {"kind": "rcc", "alfa": 0.5}}, [], "alfa"),
        ({"fit": {"nstarts": 1}}, [], "nstarts"),
        ({"fit": {"maxfun": 40}}, [], "maxfun"),
    ])
    def test_bad_setting_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, overrides, flags, match):
        monkeypatch.setattr(cli, "run_adaptive", no_work)
        cfg = run_config(tmp_path, **overrides)
        assert_invalid(["run", str(cfg), *flags], None, capsys, match)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, match", [
        ({"nn0": 3}, "unknown run config setting(s) ['nn0']"),
        ({"n0": 9.7}, "got 9.7"),
        ({"N": 11.5}, "got 11.5"),
        ({"candidates_per_combo": 30.5}, "got 30.5"),
        ({"checkpoint_sizes": [9.5]}, "got 9.5"),
        ({"seed": 5.5}, "got 5.5"),
        ({"fit": {"n_starts": 2.5}}, "got 2.5"),
        ({"fit": {"max_fev": 250.5}}, "got 250.5"),
        ({"space": {"quant_bounds": [[0.0, 1.0]], "qual_levels": [3.5]}}, "got 3.5"),
    ], ids=["unknown-key", "n0", "N", "candidates_per_combo", "checkpoint_sizes", "seed", "n_starts", "max_fev",
            "qual_levels"])
    def test_unknown_key_or_fractional_count_exits_2(self, tmp_path, capsys, monkeypatch, overrides, match):
        monkeypatch.setattr(cli, "run_adaptive", no_work)
        cfg = run_config(tmp_path, **overrides)
        assert_invalid(["run", str(cfg)], None, capsys, match)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", [k for k in STRATEGY_KINDS if k != "one_shot"])
    def test_resolved_config_decodes_to_the_same_config(self, tmp_path, capsys, kind):
        def decode(argv):
            args = cli.build_parser().parse_args(argv)
            return load_document(args.config, partial(cli._decode_run, args), "run config")[1]

        cfg = run_config(tmp_path, N=10, candidates_per_combo=10, checkpoint_sizes=[9],
                         strategy={"kind": "rcc", "rho": 1.5, "delta": 0.1, "alpha": 0.1, "ei_alpha": 1.5},
                         fit={"n_starts": 1, "max_fev": 40, "theta_bounds": [0.05, 50.0], "jitter_scale": 2.0})
        argv = ["run", str(cfg), "--strategy", kind]
        assert main(argv) == 0
        capsys.readouterr()
        assert decode(["run", str(tmp_path / "out" / "config.json")]) == decode(argv)


# sha256 of the byte-stable files of an example1 RCC campaign, N 9 -> 15, with
# two starts per fit, as written before fits carried end points; with at
# most two starts a full fit still runs the warm start and the centre alone.
# Pinned with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 on x86_64.
TWO_START_DIGESTS = {
    "trace.csv": "a80956a508ba81b0e55533588c7a8cea6c66a633e0cdf5429398cff7089383db",
    "design.csv": "1a33170494efe6f159671767a07bb3379d233d8663534274f8587ed05ddce21e",
    "model.json": "62206bbb532d21d7457416cbaaa2d7c0646c5df7822446229e5f3f6bf23a1318",
}


def test_two_start_campaign_files_keep_their_digests(tmp_path, capsys):
    cfg = run_config(tmp_path, N=15, fit={"n_starts": 2})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in TWO_START_DIGESTS} == TWO_START_DIGESTS


@pytest.fixture
def model_path(tmp_path, small_model):
    path = tmp_path / "model.json"
    cs.save_model(small_model, path)
    return path


class TestSuggest:
    def test_generated_candidates(self, model_path, capsys):
        assert main(["suggest", "--model", str(model_path), "--strategy", "rcc",
                     "--level", "-0.9", "--per-combo", "50", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["point"]["x"][0] <= 1.0
        assert doc["point"]["z"][0] in (1, 2, 3)
        assert doc["report"]["region"] in ("A1", "A2", "fallback")

    def test_strategies_deterministic(self, model_path, capsys):
        argv = ["suggest", "--model", str(model_path), "--strategy", "ecl",
                "--level", "-0.9", "--per-combo", "50", "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_candidates_file(self, model_path, tmp_path, capsys):
        path = tmp_path / "cands.csv"
        path.write_text("x_1,z_1\n0.1,1\n0.5,2\n0.9,3\n")
        assert main(["suggest", "--model", str(model_path), "--candidates", str(path),
                     "--strategy", "lcb", "--level", "-0.9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["chosen_index"] in (0, 1, 2)

    @staticmethod
    def write_candidates(path, model, extra=()):
        """A candidates CSV of the model's design points, then ``extra`` rows."""
        rows = [(*model.space.denormalize(pt.x), *pt.z) for pt in model.data.points] + list(extra)
        path.write_text("x_1,z_1\n" + "".join(f"{x!r},{z}\n" for x, z in rows))

    def test_candidates_on_design_skipped(self, small_model, model_path, tmp_path, capsys):
        path = tmp_path / "cands.csv"
        self.write_candidates(path, small_model, [(0.05, 1), (0.45, 2), (0.95, 3)])
        level = float(small_model.data.responses[0])
        assert main(["suggest", "--model", str(model_path), "--candidates", str(path),
                     "--strategy", "ecl", "--level", repr(level)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["chosen_index"] >= len(small_model.data)
        design = [(list(small_model.space.denormalize(pt.x)), list(pt.z)) for pt in small_model.data.points]
        assert (doc["point"]["x"], doc["point"]["z"]) not in design

    def test_candidates_all_on_design_exit_3(self, small_model, model_path, tmp_path, capsys):
        path = tmp_path / "cands.csv"
        self.write_candidates(path, small_model)
        assert main(["suggest", "--model", str(model_path), "--candidates", str(path), "--level", "-0.9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        doc = json.loads(captured.err)
        assert doc["error"] == "CampaignError" and "all candidates duplicate" in doc["message"]

    def test_empty_candidates_file(self, model_path, tmp_path, capsys):
        path = tmp_path / "cands.csv"
        path.write_text("x_1,z_1\n")
        assert main(["suggest", "--model", str(model_path), "--candidates", str(path),
                     "--level", "-0.9"]) == 2

    def test_level_required(self, model_path, capsys):
        assert main(["suggest", "--model", str(model_path)]) == 2

    def test_level_checked_before_the_model_is_read(self, tmp_path, capsys):
        # the model and the candidates used to be read and built before --level was found missing
        assert_invalid(["suggest", "--model", str(tmp_path / "missing.json")], None, capsys, "--level")

    def test_strategy_checked_before_the_model_is_read(self, tmp_path, capsys):
        assert_invalid(["suggest", "--model", str(tmp_path / "missing.json"), "--level", "0", "--rho", "-1"],
                       None, capsys, "rho")

    def test_per_combo_checked_before_the_model_is_read(self, tmp_path, capsys):
        # a candidate grid of no points used to be found only after the model was read
        assert_invalid(["suggest", "--model", str(tmp_path / "missing.json"), "--level", "0", "--per-combo", "0"],
                       None, capsys, "per_combo")

    @pytest.mark.parametrize("content, match", [
        (None, "cannot read"), ("{nope", "invalid JSON"), ('{"schema": 1}', "missing field 'space'"),
        ("[1, 2]", "malformed model")])
    def test_bad_model_file_exits_2(self, tmp_path, capsys, content, match):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_text(content)
        assert main(["suggest", "--model", str(path), "--level", "-0.9"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "ValidationError" and match in doc["message"]

    @pytest.mark.parametrize("field, value, match", [("z", [7], "z[0]=7 outside 1..3"),
                                                     ("x_norm", [3.5], "x[0]=3.5 outside"),
                                                     # these levels used to load as level 1
                                                     ("z", [1.5], "got 1.5"), ("z", [True], "got True")])
    def test_design_outside_space_exits_2(self, model_path, capsys, field, value, match):
        doc = json.loads(model_path.read_text())
        doc["data"][field][0] = value
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], None, capsys, match)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_bad_model_jitter_exits_2(self, model_path, capsys, jitter):
        # such a jitter used to exit 0 with a point chosen from NaN predictions
        doc = json.loads(model_path.read_text())
        doc["jitter"] = jitter
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], None, capsys, "jitter must be")

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_model_params_exit_2(self, model_path, capsys, bad):
        doc = json.loads(model_path.read_text())
        doc["params"]["sigma2"][0] = bad
        model_path.write_text(json.dumps(doc))
        assert main(["suggest", "--model", str(model_path), "--level", "-0.9"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and "finite" in err["message"]


class TestFit:
    def test_flags_checked_before_the_files_are_read(self, tmp_path, capsys):
        assert_invalid(["fit", "--data", str(tmp_path / "nope.csv"), "--space", str(tmp_path / "nope.json"),
                        "--starts", "0"], None, capsys, "n_starts")

    def make_space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"quant_bounds": [[0.0, 1.0]], "qual_levels": [2]}))
        return path

    def test_minimal_fit(self, tmp_path, capsys):
        space = self.make_space_file(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.2,1,1.0\n0.8,2,2.0\n")
        out = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--space", str(space),
                     "--out", str(out), "--starts", "2", "--max-fev", "150"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "nll" in doc and out.exists()

    def test_duplicate_rows_rejected_with_indices(self, tmp_path, capsys):
        space = self.make_space_file(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.2,1,1.0\n0.8,2,2.0\n0.2,1,3.0\n")
        assert main(["fit", "--data", str(data), "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "(0, 2)" in err["message"]

    @pytest.mark.parametrize("cell", ["oops", "", "nan", "inf"])
    def test_bad_response_cell_exits_2(self, tmp_path, capsys, cell):
        space = self.make_space_file(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text(f"x_1,z_1,y\n0.2,1,1.0\n0.8,2,{cell}\n0.5,1,2.0\n")
        assert main(["fit", "--data", str(data), "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "IngestionError" and "line 3" in doc["message"]

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        space = self.make_space_file(tmp_path)
        assert main(["fit", "--data", str(tmp_path / "absent.csv"), "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IngestionError"

    def test_malformed_space_exits_2(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"qual_levels": [2]}))
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.2,1,1.0\n0.8,2,2.0\n")
        assert_invalid(["fit", "--data", str(data), "--space", str(space),
                        "--out", str(tmp_path / "m.json")], space, capsys,
                       "missing field 'quant_bounds'")
        assert not (tmp_path / "m.json").exists()

    def test_missing_response_cell_exits_2(self, tmp_path, capsys):
        space = self.make_space_file(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.2,1,1.0\n0.8,2\n0.5,1,2.0\n")
        assert main(["fit", "--data", str(data), "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "IngestionError" and "line 3" in doc["message"]

    def test_refit_reproduces_nll(self, tmp_path, capsys):
        space = self.make_space_file(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.1,1,1.0\n0.5,2,2.0\n0.9,1,0.5\n")
        argv = ["fit", "--data", str(data), "--space", str(space),
                "--out", str(tmp_path / "m.json"), "--seed", "3", "--starts", "2",
                "--max-fev", "150"]
        assert main(argv) == 0
        nll_1 = json.loads(capsys.readouterr().out)["nll"]
        assert main(argv) == 0
        nll_2 = json.loads(capsys.readouterr().out)["nll"]
        assert nll_1 == nll_2


class TestBench:
    def bench_config(self, tmp_path, **overrides):
        doc = {
            "simulator": {"builtin": "example1"},
            "strategies": [{"kind": "rcc", "delta": 0.05}, "one_shot"],
            "levels": [-0.9],
            "budgets": [10],
            "n0": 9,
            "replicates": 2,
            "candidates_per_combo": 10,
            "ref_per_combo": 60,
            "eps": 0.05,
            "seed": 2,
            "fit": {"n_starts": 2, "max_fev": 200},
            "out": str(tmp_path / "bench"),
            **overrides,
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        return path

    def test_smoke_grid(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        assert main(["bench", "--config", str(cfg)]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "bench" / "results.csv")
        assert header[:4] == ["strategy", "a", "N", "replicate"]
        assert len(rows) == 4
        sheader, srows = read_csv(tmp_path / "bench" / "summary.csv")
        assert len(srows) == 2  # one row per (strategy, N, a)
        one_shot = [r for r in srows if r[0] == "one_shot"][0]
        assert float(one_shot[sheader.index("rel_efficiency")]) == pytest.approx(1.0)

    def test_replicates_flag(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        assert main(["bench", "--config", str(cfg), "--replicates", "1",
                     "--out", str(tmp_path / "bench1")]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "bench1" / "results.csv")
        assert len(rows) == 2

    def test_parallel_results_equal_serial(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"bench-{workers}"
            assert main(["bench", "--config", str(cfg), "--parallel", workers, "--out", str(out)]) == 0
            header, rows = read_csv(out / "results.csv")
            wall = header.index("wall_time_s")
            tables.append([row[:wall] + row[wall + 1:] for row in rows])
        capsys.readouterr()
        assert len(tables[0]) == 4
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("overrides, flags, match", [
        ({"strategies": [{"kind": "rcc", "alpha": 0}, "one_shot"]}, [], "alpha"),
        ({}, ["--replicates", "0"], "replicates"),
        ({"levels": [-0.9, float("nan")]}, [], "level"),
        ({"levels": [float("inf")]}, [], "level"),
        ({"fit": {"maxfun": 40}}, [], "maxfun"),
        # a NaN eps used to evaluate the whole reference grid and exit 3; an infinite one
        # counted every grid point as near the contour
        ({"eps": float("nan")}, [], "eps must be finite"),
        ({"eps": float("inf")}, [], "eps must be finite"),
        # each used to fail only inside reference_contour, naming neither the setting nor the file
        ({"ref_per_combo": 0}, [], "ref_per_combo must be >= 1, got 0"),
        ({"candidates_per_combo": 0}, [], ": per_combo must be >= 1, got 0"),
    ])
    def test_bad_setting_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, overrides, flags,
                                                 match):
        from contour_seeker import bench

        monkeypatch.setattr(bench, "reference_contour", no_work)
        cfg = self.bench_config(tmp_path, **overrides)
        assert_invalid(["bench", "--config", str(cfg), *flags], None, capsys, match)
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("overrides, match", [
        ({"replicatez": 2}, "unknown bench config setting(s) ['replicatez']"),
        ({"replicates": 1.5}, "got 1.5"),
        ({"budgets": [10.5]}, "got 10.5"),
        ({"n0": 9.5}, "got 9.5"),
        ({"ref_per_combo": 60.5}, "got 60.5"),
    ], ids=["unknown-key", "replicates", "budgets", "n0", "ref_per_combo"])
    def test_unknown_key_or_fractional_count_exits_2(self, tmp_path, capsys, monkeypatch, overrides, match):
        from contour_seeker import bench

        monkeypatch.setattr(bench, "reference_contour", no_work)
        cfg = self.bench_config(tmp_path, **overrides)
        assert_invalid(["bench", "--config", str(cfg)], None, capsys, match)
        assert not (tmp_path / "bench").exists()

    def test_parallel_checked_before_the_config_is_read(self, tmp_path, capsys):
        # a count below 1 used to run serially, as --parallel 1 does
        assert_invalid(["bench", "--config", str(tmp_path / "nope.json"), "--parallel", "-4", "--replicates", "1"],
                       None, capsys, "parallel workers must be >= 1")

    def test_bad_thread_cap_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        from contour_seeker import bench

        def no_work(*args, **kwargs):
            pytest.fail("reference contours were computed before the thread cap was checked")

        monkeypatch.setattr(bench, "reference_contour", no_work)
        monkeypatch.setenv("CONTOUR_SEEKER_THREADS", "lots")
        assert main(["bench", "--config", str(self.bench_config(tmp_path))]) == 2
        assert "CONTOUR_SEEKER_THREADS" in json.loads(capsys.readouterr().err)["message"]


class TestVerify:
    def config(self, tmp_path, drop=(), **params):
        doc = {
            "space": {"quant_bounds": [[0.0, 1.0]], "qual_levels": [3]},
            "params": {"mu": 0.0, "sigma2": [1.0, 0.5], "theta0": [5.0],
                       "theta": [[[5.0, 5.0, 5.0]]]},
            "level": 0.0,
            "alpha": 0.1,
            "draws": 10,
            "per_combo": 10,
            "n_train": 6,
            "seed": 0,
            "out": str(tmp_path / "verify"),
        }
        doc["params"].update(params)
        for key in drop:
            doc.pop(key, None)
            doc["space"].pop(key, None)
            doc["params"].pop(key, None)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(doc))
        return path

    def test_smoke(self, tmp_path, capsys):
        path = self.config(tmp_path)
        assert main(["verify", "--config", str(path)]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "verify" / "coverage.csv")
        assert "theorem1_violations" in header
        coverage = float(rows[0][header.index("coverage")])
        assert 0.0 <= coverage <= 1.0

    @pytest.mark.parametrize("params", [{"sigma2": [float("inf"), 0.5]},
                                        {"theta": [[[5.0, float("nan"), 5.0]]]},
                                        {"mu": float("nan")}])
    def test_nonfinite_params_exit_2(self, tmp_path, capsys, monkeypatch, params):
        # an infinite variance used to grow the jitter ladder without end, and a NaN mu
        # to exit 0 with coverage 0.0
        monkeypatch.setattr(cli, "coverage_check", no_work)
        path = self.config(tmp_path, **params)
        assert_invalid(["verify", "--config", str(path)], path, capsys, "finite")

    @pytest.mark.parametrize("key, value, match", [("level", float("nan"), "contour_level must be finite"),
                                                   ("alpha", 1.5, "alpha must be in (0, 1), got 1.5"),
                                                   ("alpha", 0, "alpha must be in (0, 1), got 0")])
    def test_bad_level_or_alpha_exits_2(self, tmp_path, capsys, monkeypatch, key, value, match):
        # each used to fail only after the grid Gram was built and factored, without the file's name
        monkeypatch.setattr(cli, "coverage_check", no_work)
        path = self.config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        assert_invalid(["verify", "--config", str(path)], path, capsys, match)

    @pytest.mark.parametrize("key, value", [("draws", 0), ("per_combo", 0), ("n_train", 1), ("n_train", 100000)])
    def test_bad_draws_grid_or_training_size_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        # each used to reach coverage_check, whose message named neither the file nor, for
        # per_combo, the setting
        monkeypatch.setattr(cli, "coverage_check", no_work)
        path = self.config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        assert_invalid(["verify", "--config", str(path)], path, capsys, f"{key} must be")

    @pytest.mark.parametrize("drop", ["quant_bounds", "theta0"])
    def test_missing_field_exits_2(self, tmp_path, capsys, drop):
        path = self.config(tmp_path, drop=(drop,))
        assert_invalid(["verify", "--config", str(path)], path, capsys, f"missing field {drop!r}")

    @pytest.mark.parametrize("key, value, match", [
        ("drwas", 3, "unknown verify config setting(s) ['drwas']"),
        ("draws", 2.7, "got 2.7"),
        ("per_combo", 10.5, "got 10.5"),
        ("n_train", 6.5, "got 6.5"),
        ("seed", 0.5, "got 0.5"),
    ])
    def test_unknown_key_or_fractional_count_exits_2(self, tmp_path, capsys, monkeypatch, key, value, match):
        monkeypatch.setattr(cli, "coverage_check", no_work)
        path = self.config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        assert_invalid(["verify", "--config", str(path)], None, capsys, match)

    def test_missing_out_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def no_draws(cfg):
            pytest.fail("coverage_check ran before the config was fully decoded")

        monkeypatch.setattr(cli, "coverage_check", no_draws)
        path = self.config(tmp_path, drop=("out",))
        assert_invalid(["verify", "--config", str(path)], path, capsys, "missing field 'out'")


class TestParser:
    def test_built_once_and_each_call_gets_its_own_arguments(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        first = cli.build_parser().parse_args(["verify", "--config", "a.json", "--seed", "3"])
        second = cli.build_parser().parse_args(["fit", "--data", "d.csv", "--space", "s.json", "--starts", "1"])
        assert (first.command, first.config, first.seed, first.func) == ("verify", "a.json", 3, cli.cmd_verify)
        assert (second.command, second.seed, second.starts, second.out) == ("fit", None, 1, "model.json")
        assert not hasattr(second, "config") and not hasattr(first, "starts")
        # two runs in one process: the second keeps no flag of the first
        cfg = run_config(tmp_path, candidates_per_combo=10, fit={"n_starts": 1, "max_fev": 40})
        assert main(["run", str(cfg), "--seed", "9", "--out", str(tmp_path / "flagged")]) == 0
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        seeds = [json.loads((tmp_path / out / "config.json").read_text())["seed"] for out in ("flagged", "out")]
        assert seeds == [9, 5]

    @pytest.mark.parametrize("argv", [["verify", "--bogus"], ["run"], ["suggest", "--model", "m", "--seed", "x"]])
    def test_bad_flag_exits_2(self, argv, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative seed is exit 2 with one line of JSON before any work, from
    every flag and every config key that sets one."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        for name in ("run_adaptive", "coverage_check", "fit", "suggest_next", "replicate_benchmark"):
            monkeypatch.setattr(cli, name, no_work)

    def test_flags(self, tmp_path, capsys, model_path):
        verify = TestVerify().config(tmp_path)
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"quant_bounds": [[0.0, 1.0]], "qual_levels": [3]}))
        for argv in (["verify", "--config", str(verify), "--seed", "-3"],
                     ["suggest", "--model", str(model_path), "--level", "0.5", "--seed", "-2"],
                     ["run", str(run_config(tmp_path)), "--seed", "-1"],
                     ["fit", "--data", "absent.csv", "--space", str(space), "--seed", "-1"],
                     ["bench", "--config", str(TestBench().bench_config(tmp_path)), "--seed", "-1"]):
            assert_invalid(argv, None, capsys, "seed must be >= 0")

    @pytest.mark.parametrize("overrides", [{"seed": -1}, {"fit": {"seed": -4}}])
    def test_run_config(self, tmp_path, capsys, overrides):
        assert_invalid(["run", str(run_config(tmp_path, **overrides))], None, capsys, "seed must be >= 0")

    def test_verify_and_bench_configs(self, tmp_path, capsys):
        verify = TestVerify().config(tmp_path)
        verify.write_text(json.dumps({**json.loads(verify.read_text()), "seed": -1}))
        assert_invalid(["verify", "--config", str(verify)], None, capsys, "seed must be >= 0")
        bench_cfg = TestBench().bench_config(tmp_path, seed=-1, fit={"seed": 2})
        assert_invalid(["bench", "--config", str(bench_cfg)], None, capsys, "seed must be >= 0")
        bench_cfg = TestBench().bench_config(tmp_path, fit={"seed": -2})
        assert_invalid(["bench", "--config", str(bench_cfg)], None, capsys, "seed must be >= 0")

    def test_fit_config_checks_its_seed(self):
        with pytest.raises(cs.ValidationError, match="seed must be >= 0"):
            cs.FitConfig(seed=-1)


_finite = {"allow_nan": False, "allow_infinity": False}
_positive = st.floats(min_value=0, exclude_min=True, **_finite)
_bounds = st.tuples(_positive, _positive).filter(lambda b: b[0] < b[1])


@given(st.builds(cs.Strategy, kind=st.sampled_from(STRATEGY_KINDS), rho=st.floats(min_value=0, **_finite),
                 delta=st.none() | _positive, alpha=st.floats(0, 1, exclude_min=True, exclude_max=True),
                 ei_alpha=_positive)
       | st.builds(cs.FitConfig, n_starts=st.integers(1, 64), seed=st.integers(0, 2 ** 63),
                   theta_bounds=_bounds, sigma2_rel_bounds=_bounds,
                   max_fev=st.none() | st.integers(1, 10 ** 6), jitter_scale=_positive))
def test_encoded_setting_decodes_to_an_equal_value(value):
    decode = strategy_from_dict if isinstance(value, cs.Strategy) else fit_config_from_dict
    assert decode(json.loads(json.dumps(asdict(value)))) == value


@pytest.mark.parametrize("value", [3, 3.0, -2, 2 ** 70])
def test_integral_keeps_whole_numbers(value):
    assert integral(value) == value and type(integral(value)) is int


@pytest.mark.parametrize("value", [2.7, float("nan"), float("inf"), True, "3", None])
def test_integral_rejects_what_int_would_truncate_or_parse(value):
    with pytest.raises(ValueError, match="whole number"):
        integral(value)


@pytest.mark.parametrize("value", [3, -2.5, 0, float("nan"), float("inf")])
def test_real_keeps_numbers(value):
    assert real(value) == float(value) or math.isnan(value)
    assert type(real(value)) is float


@pytest.mark.parametrize("value", [True, False, "1.5", None, [1.0]])
def test_real_rejects_what_float_would_convert(value):
    with pytest.raises(ValueError, match="expected a number"):
        real(value)


def set_field(doc: dict, where: tuple, value) -> None:
    """Set the entry of ``doc`` at the key and index path ``where``."""
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = value


class TestRealNumbers:
    """A real number of a model file or config is a JSON number: true, false
    or a string there is exit 2 naming the file (each used to load as a number)."""

    @pytest.mark.parametrize("where, value", [
        (("data", "x_norm", 0), [True]), (("data", "y", 1), True), (("jitter",), True),
        (("params", "mu"), True), (("params", "sigma2", 0), "1.0"), (("params", "theta0"), [True]),
        (("params", "theta", 0, 0, 1), False), (("space", "quant_bounds"), [[0.0, True]])],
        ids=["x_norm", "y", "jitter", "mu", "sigma2", "theta0", "theta", "quant_bounds"])
    def test_model_file(self, model_path, capsys, where, value):
        doc = json.loads(model_path.read_text())
        set_field(doc, where, value)
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], model_path, capsys,
                       "expected a number")

    @pytest.mark.parametrize("overrides", [
        {"level": True}, {"strategy": {"kind": "rcc", "alpha": True}}, {"strategy": {"kind": "rcc", "rho": "1"}},
        {"strategy": {"kind": "rcc", "delta": True}}, {"strategy": {"kind": "rcc", "ei_alpha": False}},
        {"fit": {"theta_bounds": [0.01, True]}}, {"fit": {"sigma2_rel_bounds": ["1e-6", 10.0]}},
        {"fit": {"jitter_scale": True}}, {"space": {"quant_bounds": [[0.0, True]], "qual_levels": [3]}}],
        ids=["level", "alpha", "rho", "delta", "ei_alpha", "theta_bounds", "sigma2_rel_bounds", "jitter_scale",
             "space"])
    def test_run_config(self, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.setattr(cli, "run_adaptive", no_work)
        cfg = run_config(tmp_path, **overrides)
        assert_invalid(["run", str(cfg)], cfg, capsys, "expected a number")

    @pytest.mark.parametrize("overrides", [{"levels": [True]}, {"eps": True},
                                           {"strategies": [{"kind": "rcc", "alpha": "0.1"}, "one_shot"]}],
                             ids=["levels", "eps", "strategy"])
    def test_bench_config(self, tmp_path, capsys, monkeypatch, overrides):
        from contour_seeker import bench

        monkeypatch.setattr(bench, "reference_contour", no_work)
        cfg = TestBench().bench_config(tmp_path, **overrides)
        assert_invalid(["bench", "--config", str(cfg)], cfg, capsys, "expected a number")

    @pytest.mark.parametrize("where, value", [(("level",), True), (("alpha",), "0.1"), (("params", "theta0"), [True]),
                                              (("space", "quant_bounds", 0, 1), True)],
                             ids=["level", "alpha", "theta0", "quant_bounds"])
    def test_verify_config(self, tmp_path, capsys, monkeypatch, where, value):
        monkeypatch.setattr(cli, "coverage_check", no_work)
        path = TestVerify().config(tmp_path)
        doc = json.loads(path.read_text())
        set_field(doc, where, value)
        path.write_text(json.dumps(doc))
        assert_invalid(["verify", "--config", str(path)], path, capsys, "expected a number")

    def test_space_file(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"quant_bounds": [[0.0, True]], "qual_levels": [3]}))
        data = tmp_path / "data.csv"
        data.write_text("x_1,z_1,y\n0.1,1,1.0\n0.6,2,2.0\n")
        assert_invalid(["fit", "--data", str(data), "--space", str(space), "--out", str(tmp_path / "m.json")],
                       space, capsys, "expected a number")


class TestOutOfRangeNamesTheFile:
    """A value of the right type but out of range is a ValidationError that
    names the file, as a malformed one is."""

    def test_nan_model_jitter(self, model_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["jitter"] = float("nan")
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], model_path, capsys,
                       "jitter must be")

    def test_infinite_model_variance(self, model_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["params"]["sigma2"][0] = float("inf")
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], model_path, capsys,
                       "variances and rates must be finite")

    @pytest.mark.parametrize("where, value, match", [
        (("params", "mu"), float("nan"), "mu, variances and rates must be finite"),
        # used to fail only in suggest's selection, without the file's name
        (("data", "transform"), "Log", "unknown response transform 'Log'")], ids=["mu", "transform"])
    def test_bad_model_value(self, model_path, capsys, where, value, match):
        doc = json.loads(model_path.read_text())
        set_field(doc, where, value)
        model_path.write_text(json.dumps(doc))
        assert_invalid(["suggest", "--model", str(model_path), "--level", "-0.9"], model_path, capsys, match)

    def test_run_config_n0_below_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_adaptive", no_work)
        cfg = run_config(tmp_path, n0=1)
        assert_invalid(["run", str(cfg)], cfg, capsys, "n0 must be >= 2")


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_decodes(path):
    # decode only: the command is named by the file's prefix, and nothing runs
    command = path.name.split("_")[0] if path.name.startswith(("bench_", "verify_")) else "run"
    argv, decode = {"run": ([str(path)], cli._decode_run),
                    "bench": (["--config", str(path)], cli._decode_bench),
                    "verify": (["--config", str(path)], cli._decode_verify)}[command]
    args = cli.build_parser().parse_args([command, *argv])
    decoded = load_document(path, partial(decode, args), f"{command} config")
    if command == "verify":
        assert isinstance(decoded[0], cs.VerifyConfig)
    else:
        assert isinstance(decoded[1], cs.CampaignConfig if command == "run" else cs.BenchConfig)


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        cfg = run_config(tmp_path, out=str(tmp_path / "pm"))
        # the child imports the same package as this process, installed or not
        src = str(Path(cs.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "contour_seeker", "run", str(cfg)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
