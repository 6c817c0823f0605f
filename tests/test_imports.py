"""Which scipy modules the program loads, checked in a fresh interpreter.

The library calls four compiled scipy functions besides the fit's
L-BFGS-B kernel: LAPACK's ``dpotrf``, ``dpotrs`` and ``dpotri`` and the
normal cdf ``ndtr``.  ``ezgp._scipy_extension`` loads each one's compiled
module by itself, so importing the package, ``verify``, ``suggest``,
``fit``, ``run`` and ``bench`` load none of the ``scipy.linalg``,
``scipy.special``, ``scipy.stats`` and ``scipy.optimize`` packages, and
the outputs are the same whether or not those packages were imported first.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contour_seeker
from contour_seeker import ezgp

SRC = Path(contour_seeker.__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

PACKAGES = ("scipy.linalg", "scipy.special", "scipy.stats", "scipy.optimize")

def loaded():
    return {name: name in sys.modules for name in PACKAGES}

steps = {}
import contour_seeker as cs
from contour_seeker import cli
from contour_seeker.traceio import params_from_doc
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
cs.save_model(cs.condition(params_from_doc(params), data, sim.space), tmp / "model.json")
(tmp / "space.json").write_text(json.dumps(space))
(tmp / "data.csv").write_text("x_1,z_1,y\n0.1,1,1.191\n0.6,1,2.809\n0.3,2,1.809\n"
                              "0.85,2,1.309\n0.2,3,0.309\n0.7,3,-0.309\n")

calls = {
    "verify": ["verify", "--config", str(tmp / "verify.json")],
    "suggest": ["suggest", "--model", str(tmp / "model.json"), "--level", "0.5", "--per-combo", "5",
                "--seed", "1"],
    "fit": ["fit", "--data", str(tmp / "data.csv"), "--space", str(tmp / "space.json"),
            "--out", str(tmp / "fitted.json"), "--starts", "1", "--max-fev", "40"],
    "run": ["run", str(tmp / "run.json")],
    "bench": ["bench", "--config", str(tmp / "bench.json")],
}
fit_block = {"n_starts": 1, "max_fev": 40}
(tmp / "run.json").write_text(json.dumps({
    "simulator": {"builtin": "example1"}, "level": -0.9, "n0": 9, "N": 11, "candidates_per_combo": 20,
    "fit": fit_block, "seed": 1, "out": str(tmp / "run")}))
(tmp / "bench.json").write_text(json.dumps({
    "simulator": {"builtin": "example1"}, "strategies": [{"kind": "rcc", "delta": 0.05}], "levels": [-0.9],
    "budgets": [10], "n0": 9, "replicates": 1, "candidates_per_combo": 20, "ref_per_combo": 20,
    "fit": fit_block, "seed": 1, "out": str(tmp / "bench")}))
codes = {}
for name, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(argv)
    steps[name] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter that imports this package; the
    JSON object on its last output line."""
    pythonpath = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    res = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_scipy_modules_load_when_called(tmp_path):
    doc = run_fresh(SCRIPT, str(tmp_path))
    assert doc["codes"] == {"verify": 0, "suggest": 0, "fit": 0, "run": 0, "bench": 0}
    # verify and suggest condition and predict, but never fit; fit, run and
    # bench fit through the L-BFGS-B kernel's own module
    packages = ("scipy.linalg", "scipy.special", "scipy.stats", "scipy.optimize")
    assert doc["steps"] == {step: dict.fromkeys(packages, False)
                            for step in ("import", "verify", "suggest", "fit", "run", "bench")}


FIT_SCRIPT = r"""
import json, sys
from pathlib import Path

import numpy as np

if sys.argv[2] == "first":
    import scipy.optimize
import contour_seeker as cs
from contour_seeker import ezgp

sim = cs.builtin_simulator("example1")
points = cs.initial_design(sim.space, 12, seed=3)
data = cs.Dataset(tuple(points), [sim.evaluate(pt) for pt in points])
model = cs.fit(data, sim.space, cs.FitConfig(n_starts=2))
cs.save_model(model, Path(sys.argv[1]))
before = "scipy.optimize" in sys.modules

# scipy's own L-BFGS-B still runs once the fit has loaded its kernel
import scipy.optimize

def fun(v):
    return float((v - 0.3) @ (v - 0.3)), 2 * (v - 0.3)

call = {"jac": True, "method": "L-BFGS-B", "bounds": [(-1.0, 1.0)] * 3}
ref = scipy.optimize.minimize(fun, np.ones(3), **call)
ours = ezgp.minimize(fun, np.ones(3), **call)
print(json.dumps({"before": before, "ref_ok": bool(ref.success), "max_abs": float(np.abs(ref.x - 0.3).max()),
                  "same": bool(np.array_equal(ours.x, ref.x) and ours.fun == ref.fun and ours.nfev == ref.nfev)}))
"""


def test_fit_same_with_or_without_scipy_optimize(tmp_path):
    docs = {order: run_fresh(FIT_SCRIPT, str(tmp_path / f"{order}.json"), order) for order in ("first", "never")}
    assert docs["first"]["before"] and not docs["never"]["before"]
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "never.json").read_bytes()
    for doc in docs.values():
        assert doc["ref_ok"] and doc["max_abs"] < 1e-6 and doc["same"], doc


PACKAGES_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

if sys.argv[2] == "first":
    import scipy.linalg, scipy.special
from contour_seeker import acquisition, cli, ezgp

tmp = Path(sys.argv[1])
(tmp / "space.json").write_text(json.dumps({"quant_bounds": [[0.0, 1.0]], "qual_levels": [3]}))
(tmp / "data.csv").write_text("x_1,z_1,y\n0.1,1,1.191\n0.6,1,2.809\n0.3,2,1.809\n"
                              "0.85,2,1.309\n0.2,3,0.309\n0.7,3,-0.309\n")
with contextlib.redirect_stdout(io.StringIO()):
    fit_code = cli.main(["fit", "--data", str(tmp / "data.csv"), "--space", str(tmp / "space.json"),
                         "--out", str(tmp / "model.json"), "--starts", "2"])
with contextlib.redirect_stdout(io.StringIO()) as out:
    suggest_code = cli.main(["suggest", "--model", str(tmp / "model.json"), "--level", "1.5",
                             "--per-combo", "50", "--seed", "1"])
before = {name: name in sys.modules for name in ("scipy.linalg", "scipy.special")}

import scipy.linalg.lapack, scipy.special
same = {name: getattr(ezgp, name) is getattr(scipy.linalg.lapack, name) for name in ("dpotrf", "dpotrs", "dpotri")}
same["ndtr"] = acquisition.ndtr is scipy.special.ndtr
print(json.dumps({"codes": [fit_code, suggest_code], "before": before, "suggest": out.getvalue(), "same": same}))
"""


def test_outputs_same_with_or_without_scipy_packages(tmp_path):
    docs = {}
    for order in ("first", "never"):
        (tmp_path / order).mkdir()
        docs[order] = run_fresh(PACKAGES_SCRIPT, str(tmp_path / order), order)
    assert docs["first"]["before"] == {"scipy.linalg": True, "scipy.special": True}
    assert docs["never"]["before"] == {"scipy.linalg": False, "scipy.special": False}
    assert (tmp_path / "first" / "model.json").read_bytes() == (tmp_path / "never" / "model.json").read_bytes()
    assert docs["first"]["suggest"] == docs["never"]["suggest"]
    assert json.loads(docs["never"]["suggest"])["point"]
    for doc in docs.values():
        assert doc["codes"] == [0, 0]
        # one copy of each extension: the packages, imported later, export the very objects the library calls
        assert doc["same"] == {"dpotrf": True, "dpotrs": True, "dpotri": True, "ndtr": True}, doc


NDTR_SCRIPT = r"""
import json, math, sys, warnings

import numpy as np

warnings.simplefilter("error")
if sys.argv[1] == "package":
    from scipy.special import ndtr
else:
    from contour_seeker.acquisition import ndtr
x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 40.0, -40.0, -38.5, 5e-324, 1 / math.sqrt(2)])
values = ndtr(x)
scalars = [float(ndtr(v)) for v in x]
print(json.dumps({"hex": values.tobytes().hex(), "scalars_hex": np.array(scalars).tobytes().hex(),
                  "special": "scipy.special" in sys.modules}))
"""


def test_ndtr_edge_bits_equal_scipy_special():
    # NaN is a domain error to the cephes code, which scipy ignores by default; no input warns
    ours, ref = run_fresh(NDTR_SCRIPT, "library"), run_fresh(NDTR_SCRIPT, "package")
    assert not ours["special"] and ref["special"]
    assert ours["hex"] == ref["hex"] and ours["scalars_hex"] == ref["scalars_hex"]
    assert ours["hex"] == ours["scalars_hex"]


ATTRIBUTES_SCRIPT = r"""
import json

import numpy as np

import contour_seeker as cs
from contour_seeker import acquisition, ezgp

sim = cs.builtin_simulator("example1")
points = cs.initial_design(sim.space, 9, seed=5)
cs.fit(cs.Dataset(tuple(points), [sim.evaluate(pt) for pt in points]), sim.space, cs.FitConfig(n_starts=2))
import scipy.linalg, scipy.optimize, scipy.special

print(json.dumps({
    "attributes": [hasattr(scipy.linalg, "_flapack"), hasattr(scipy.special, "_special_ufuncs"),
                   hasattr(scipy.optimize, "_lbfgsb")],
    "same": [scipy.linalg._flapack.dpotrf is ezgp.dpotrf, scipy.special._special_ufuncs.ndtr is acquisition.ndtr,
             scipy.optimize._lbfgsb.setulb is ezgp._setulb()],
}))
"""


def test_packages_imported_later_keep_their_compiled_modules():
    # the library loads the compiled modules it calls without registering them, so a
    # later package import sets each as its attribute, with the very functions the library calls
    doc = run_fresh(ATTRIBUTES_SCRIPT)
    assert doc == {"attributes": [True, True, True], "same": [True, True, True]}


def test_loader_names_what_is_missing():
    supported = "contour-seeker needs scipy>=1.17,<1.18"
    with pytest.raises(ImportError, match=r"no compiled module scipy\.linalg\._no_such_module with dpotrf; "
                                          + re.escape(supported)):
        ezgp._scipy_extension("linalg", "_no_such_module", "dpotrf")
    assert "scipy.linalg._no_such_module" not in sys.modules
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack with dpotrf, no_such_routine; "):
        ezgp._scipy_extension("linalg", "_flapack", "dpotrf", "no_such_routine")
    # the range the message names is the dependency pin
    assert '"scipy>=1.17,<1.18"' in (SRC.parent / "pyproject.toml").read_text()


def test_cli_import_leaves_out_the_process_pool():
    # only a parallel bench starts worker processes, so only it imports the executor
    script = "import json, sys\nfrom contour_seeker import cli\nprint(json.dumps('concurrent.futures' in sys.modules))"
    assert run_fresh(script) is False
