"""Which scipy modules the program loads, checked in a fresh interpreter.

The criteria's normal cdf comes from ``scipy.special`` and the fit's
L-BFGS-B kernel from ``scipy.optimize``, imported at the first fit; so
importing the package loads neither ``scipy.stats`` nor ``scipy.optimize``,
``verify`` and ``suggest`` never load ``scipy.optimize``, and ``fit`` does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import contour_seeker

SRC = Path(contour_seeker.__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

def loaded():
    return {name: name in sys.modules for name in ("scipy.stats", "scipy.optimize")}

steps = {}
import contour_seeker as cs
from contour_seeker import cli
from contour_seeker.ezgp import params_from_dict
steps["import"] = loaded()

tmp = Path(sys.argv[1])
space = {"quant_bounds": [[0.0, 1.0]], "qual_levels": [3]}
params = {"mu": 0.0, "sigma2": [1.0, 0.5], "theta0": [5.0], "theta": [[[5.0, 5.0, 5.0]]]}
(tmp / "verify.json").write_text(json.dumps({
    "space": space, "params": params,
    "level": 0.0, "alpha": 0.1, "draws": 5, "per_combo": 5, "n_train": 6, "seed": 0,
    "out": str(tmp / "verify")}))
sim = cs.builtin_simulator("example1")
points = cs.initial_design(sim.space, 6, seed=1)
data = cs.Dataset(tuple(points), [sim.evaluate(pt) for pt in points])
cs.save_model(cs.condition(params_from_dict(params), data, sim.space), tmp / "model.json")
(tmp / "space.json").write_text(json.dumps(space))
(tmp / "data.csv").write_text("x_1,z_1,y\n0.1,1,1.191\n0.6,1,2.809\n0.3,2,1.809\n"
                              "0.85,2,1.309\n0.2,3,0.309\n0.7,3,-0.309\n")

calls = {
    "verify": ["verify", "--config", str(tmp / "verify.json")],
    "suggest": ["suggest", "--model", str(tmp / "model.json"), "--level", "0.5", "--per-combo", "5",
                "--seed", "1"],
    "fit": ["fit", "--data", str(tmp / "data.csv"), "--space", str(tmp / "space.json"),
            "--out", str(tmp / "fitted.json"), "--starts", "1", "--max-fev", "40"],
}
codes = {}
for name, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(argv)
    steps[name] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_scipy_modules_load_when_called(tmp_path):
    pythonpath = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["codes"] == {"verify": 0, "suggest": 0, "fit": 0}
    steps = doc["steps"]
    assert steps["import"] == {"scipy.stats": False, "scipy.optimize": False}
    # verify and suggest condition and predict, but never fit
    assert steps["verify"] == {"scipy.stats": False, "scipy.optimize": False}
    assert steps["suggest"] == {"scipy.stats": False, "scipy.optimize": False}
    assert steps["fit"] == {"scipy.stats": False, "scipy.optimize": True}
