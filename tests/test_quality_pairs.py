"""``scripts/quality_pairs.py`` and the bench configs whose results it reads."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

from contour_seeker import cli
from contour_seeker.traceio import write_csv

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("quality_pairs", ROOT / "scripts" / "quality_pairs.py")
quality_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(quality_pairs)

HEADER = ["strategy", "a", "N", "replicate", "m_c0", "wall_time_s", "failed", "error"]
# Student's t quantile at 0.975 with 3 degrees of freedom
T3 = 3.182446305284263
LOGS = [0.0, 0.1, 0.2, 0.3]


def write_results(path, rows):
    write_csv(path, HEADER, [[s, a, n, r, m, 0.5, int(failed), "boom" if failed else ""]
                             for s, a, n, r, m, failed in rows])
    return path


@pytest.fixture
def synthetic(tmp_path):
    """One cell (a = 1.0, N = 12): RCC 2.0 in replicates 0-4, ECL 2.0 e^LOGS[r]
    in replicates 0-3 and failed in 4, one-shot 4.0 in replicates 0-3."""
    rows = [("rcc", 1.0, 12, r, 2.0, False) for r in range(5)]
    rows += [("ecl", 1.0, 12, r, 2.0 * math.exp(d), False) for r, d in enumerate(LOGS)]
    rows += [("ecl", 1.0, 12, 4, float("nan"), True)]
    rows += [("one_shot", 1.0, 12, r, 4.0, False) for r in range(4)]
    return write_results(tmp_path / "results.csv", rows)


def cells(doc, index=0):
    return {c["strategy"]: c for c in doc["tables"][index]["cells"]}


class TestStatistics:
    def test_known_interval_and_counts(self, synthetic):
        ecl = cells(quality_pairs.record([synthetic], [None]))["ecl"]
        assert ecl["n_ok"] == 4
        vs = ecl["vs_rcc"]
        assert (vs["pairs"], vs["differ"]) == (4, 3)
        half = T3 * 0.12909944487358058 / 2.0  # the sample sd of LOGS over sqrt(4)
        assert vs["mean"] == pytest.approx(0.15, abs=1e-12)
        assert vs["low"] == pytest.approx(0.15 - half, abs=1e-12)
        assert vs["high"] == pytest.approx(0.15 + half, abs=1e-12)
        shot = ecl["vs_one_shot"]
        assert (shot["pairs"], shot["differ"]) == (4, 4)
        assert shot["mean"] == pytest.approx(0.15 - math.log(2.0), abs=1e-12)

    def test_reference_without_spread_gives_a_point_interval(self, synthetic):
        rcc = cells(quality_pairs.record([synthetic], [None]))["rcc"]
        assert rcc["n_ok"] == 5
        assert rcc["vs_rcc"] == {"pairs": 5, "differ": 0, "mean": 0.0, "low": 0.0, "high": 0.0}
        assert rcc["vs_one_shot"]["pairs"] == 4
        assert rcc["vs_one_shot"]["low"] == rcc["vs_one_shot"]["high"] == -math.log(2.0)

    def test_one_pair_has_no_interval(self, tmp_path):
        path = write_results(tmp_path / "r.csv", [("rcc", 0.0, 10, 0, 1.0, False), ("ecl", 0.0, 10, 0, 2.0, False)])
        vs = cells(quality_pairs.record([path], [None]))["ecl"]["vs_rcc"]
        assert vs == {"pairs": 1, "differ": 1, "mean": math.log(2.0), "low": None, "high": None}

    def test_missing_reference_is_null(self, tmp_path):
        path = write_results(tmp_path / "r.csv", [("ecl", 0.0, 10, r, 1.0, False) for r in range(3)])
        ecl = cells(quality_pairs.record([path], [None]))["ecl"]
        assert ecl["vs_rcc"] is None and ecl["vs_one_shot"] is None and "change_vs_parent" not in ecl

    def test_same_file_as_parent_and_change_is_exactly_zero(self, synthetic):
        doc = quality_pairs.record([synthetic], [synthetic])
        for cell in doc["tables"][0]["cells"]:
            assert cell["parent_n_ok"] == cell["n_ok"]
            assert cell["change_vs_parent"] == {"pairs": cell["n_ok"], "differ": 0, "mean": 0.0, "low": 0.0,
                                                "high": 0.0}
        assert doc["above_zero"] == []

    def test_worse_change_is_listed_above_zero(self, synthetic, tmp_path):
        rows = [("rcc", 1.0, 12, r, 2.0 * math.exp(1.0 + d), False) for r, d in enumerate(LOGS)]
        change = write_results(tmp_path / "change.csv", rows)
        doc = quality_pairs.record([change], [synthetic])
        vs = cells(doc)["rcc"]["change_vs_parent"]
        assert (vs["pairs"], vs["differ"]) == (4, 4)
        assert vs["low"] > 0
        assert doc["above_zero"] == [{"results": str(change), "strategy": "rcc", "a": 1.0, "N": 12}]

    def test_main_writes_the_record(self, synthetic, tmp_path, capsys):
        out = tmp_path / "q.json"
        assert quality_pairs.main([str(synthetic), "--parent", str(synthetic), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc == json.loads(json.dumps(quality_pairs.record([synthetic], [synthetic])))
        assert {"python", "numpy", "scipy"} <= set(doc["stamp"])
        assert "wholly above 0: 0" in capsys.readouterr().out

    def test_parent_count_must_match(self, synthetic, capsys):
        with pytest.raises(SystemExit) as err:
            quality_pairs.main([str(synthetic), "--parent", str(synthetic), str(synthetic)])
        assert err.value.code == 2
        assert "one file per results file" in capsys.readouterr().err


# the quality configs' rule: levels near the 10% and 50% quantiles of a
# 200-per-combination reference grid, n0, budgets up to 2 n0, one of ARSD and LCB
QUALITY_CONFIGS = {"bench_example2.json": ("example2", [1.56, 1.97], 18),
                   "bench_example3.json": ("example3", [4.28, 5.11], 27)}


@pytest.mark.parametrize("name", sorted(QUALITY_CONFIGS))
def test_quality_config_smoke(name, tmp_path):
    builtin, levels, n0 = QUALITY_CONFIGS[name]
    doc = json.loads((ROOT / "configs" / name).read_text())
    assert doc["simulator"] == {"builtin": builtin}
    assert (doc["levels"], doc["n0"], doc["ref_per_combo"]) == (levels, n0, 200)
    assert max(doc["budgets"]) == 2 * n0 and min(doc["budgets"]) > n0
    kinds = [s if isinstance(s, str) else s["kind"] for s in doc["strategies"]]
    assert "one_shot" in kinds and "rcc" in kinds and ("arsd" in kinds) != ("lcb" in kinds)
    # one replicate of a cut grid: two strategies, one level, a budget two past n0
    cut = {**doc, "strategies": [doc["strategies"][0], "one_shot"], "levels": levels[:1], "budgets": [n0 + 2],
           "replicates": 1, "candidates_per_combo": 5, "fit": {"n_starts": 2, "max_fev": 30},
           "out": str(tmp_path / "bench")}
    config = tmp_path / "cut.json"
    config.write_text(json.dumps(cut))
    assert cli.main(["bench", "--config", str(config)]) == 0
    results = tmp_path / "bench" / "results.csv"
    record = quality_pairs.record([results], [results])
    rcc = cells(record)["rcc"]
    assert rcc["n_ok"] == 1 and rcc["vs_one_shot"]["pairs"] == 1
    assert rcc["change_vs_parent"]["differ"] == 0 and record["above_zero"] == []
