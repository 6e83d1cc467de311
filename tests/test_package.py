"""The package surface: the export list and the README quick start."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import brenier_bounds

README = Path(__file__).resolve().parents[1] / "README.md"


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
