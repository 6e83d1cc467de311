import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOLS / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, exit_code: int, report: dict, residual: str) -> Path:
    """A two-call tree laid out as tools/cli_outputs.py writes it."""
    (root / "results" / "seed" / "op" / "verify").mkdir(parents=True)
    (root / "results" / "seed" / "op" / "verify" / "op_report.json").write_text(
        json.dumps(report))
    (root / "results" / "seed" / "op" / "transport").mkdir()
    (root / "results" / "seed" / "op" / "transport" / "op_map.csv").write_text(
        f"r,t,residual\n1.0,2.0,{residual}\n")
    (root / "calls.log").write_text(
        f"$ verify --config a.json\nexit {exit_code}\n--- stdout\n--- stderr\n\n"
        "$ transport --config a.json\nexit 0\n--- stdout\n--- stderr\n")
    return root


class TestCompareOutputs:
    def test_moved_numbers_are_counted_per_kind(self, tmp_path, capsys):
        report = {"pass": True, "reason": "ok", "residual_max": 1e-16}
        old = _tree(tmp_path / "old", 0, report, "1e-16")
        new = _tree(tmp_path / "new", 0, dict(report, residual_max=3e-16), "-1e-16")
        assert compare_outputs.main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "2 of 3 files moved" in out
        assert "transport/map.csv: 1 numbers changed, largest relative change 2" in out
        assert "verify/report.json: 1 numbers changed, largest relative change 0.667" in out

    def test_a_changed_exit_code_or_verdict_fails(self, tmp_path, capsys):
        report = {"pass": True, "reason": "ok"}
        old = _tree(tmp_path / "old", 0, report, "0.0")
        new = _tree(tmp_path / "new", 3, dict(report, **{"pass": False, "reason": "margin"}),
                    "0.0")
        assert compare_outputs.main([str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "exit 0 -> 3: verify --config a.json" in out
        assert "verdict (True, 'ok') -> (False, 'margin')" in out
