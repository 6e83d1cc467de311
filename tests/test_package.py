"""The package surface: the export list, the README quick start, and what
importing and running the CLI loads, and which modules know the profile
classes."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brenier_bounds

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "brenier_bounds"
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    for name in brenier_bounds.__all__:
        assert getattr(brenier_bounds, name) is not None, name


def test_readme_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    glob, caff, lip = out.getvalue().splitlines()
    assert glob.startswith("11401.4168")
    assert caff == "caffarelli 2.0"
    assert float(lip) == pytest.approx(2.0, abs=1e-9)


# Runs in a fresh interpreter: pytest's own filterwarnings setting imports
# scipy.integrate. Prints [command, exit code, scipy loaded] per CLI call,
# a tabulated verify among them, then the quantile oracle's error, a
# tabulated profile's value, and whether scipy is loaded after both.
_COLD_RUN = """
import contextlib, io, json, sys
from pathlib import Path
import numpy as np
from brenier_bounds import INF, PotentialSpec, quantile_map_1d
from brenier_bounds.cli import main

tmp = Path(sys.argv[1])
def config(name, doc):
    path = tmp / (name + ".json")
    path.write_text(json.dumps(doc))
    return str(path)

quadratic = config("quadratic", {"scenario": {"name": "q", "n": 2, "d": 3, "D": 5, "R": 2}})
onedim = config("onedim", {
    "scenario": {"name": "o", "n": 1, "d": 2, "D": "inf", "R": 3},
    "potentials": {"V": {"family": "onedim", "coefficient": 1.5, "shift": 0.25}}})
r = np.linspace(0.0, 20.0, 201)
(tmp / "u.csv").write_text("r,u\\n" + "".join(f"{x},{x * x}\\n" for x in r))
tabulated = config("tabulated", {
    "scenario": {"name": "t", "n": 1, "d": 2, "D": 2, "R": 5},
    "potentials": {"V": {"family": "tabulated", "csv": "u.csv",
                         "hess_upper": 2.0, "hess_lower": 2.0}}})
runs = [("verify", quadratic), ("verify", onedim), ("verify", tabulated),
        ("bounds", quadratic), ("transport", quadratic)]
for kind, extra in (("d_limit", {"n": 2, "d": 2, "D_list": [4, 40, 400, 4000]}),
                    ("caffarelli_limit", {}), ("uniformity", {"d_max": 6})):
    runs.append(("sweep", config(kind, {"sweep": {"kind": kind, **extra}})))
out = []
for command, path in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", path, "--out", str(tmp / command)])
    out.append([command, code, "scipy" in sys.modules])
quad = PotentialSpec.quadratic(1.0, 1)
m = quantile_map_1d(quad, quad, INF, INF, np.logspace(-2, 1, 20))
tab = PotentialSpec.tabulated(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 9) ** 2)
print(json.dumps({"runs": out, "oracle": float(np.max(np.abs(m.t / m.r_grid - 1))),
                  "tabulated": float(tab.value(1.5)), "scipy": "scipy" in sys.modules}))
"""


def test_radial_and_onedim_cli_paths_never_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [run[0] for run in result["runs"]] == (
        ["verify"] * 3 + ["bounds", "transport"] + ["sweep"] * 3)
    for command, code, scipy_loaded in result["runs"]:
        assert code == 0, command
        assert not scipy_loaded, command
    # the quantile oracle and tabulated profiles are numpy only
    assert result["oracle"] < 1e-12
    assert result["tabulated"] == pytest.approx(2.25, rel=1e-12)
    assert not result["scipy"]


_PROFILE_CLASSES = {"_Profile", "Quadratic", "RadialTabulated", "OneDim"}


def test_only_the_profiles_know_their_classes():
    # a profile answers for itself (radial, breaks, ball_constants): the
    # computing modules import no profile class, and no module tests which
    # class a profile is
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    for name in ("constants", "transport", "bounds", "verify"):
        imported = {alias.name for node in ast.walk(trees[name])
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not imported & _PROFILE_CLASSES, name
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                tested, kinds = map(ast.unparse, node.args)
                assert not re.search(r"\bprofile\b", tested), (name, ast.unparse(node))
                assert not set(re.findall(r"\w+", kinds)) & _PROFILE_CLASSES, (name, kinds)
