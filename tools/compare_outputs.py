"""Compare two trees written by ``tools/cli_outputs.py``.

Usage::

    python tools/compare_outputs.py OLD NEW

Prints every call whose exit code differs (read from ``calls.log``), every
JSON object whose ``pass`` or ``reason`` differs (reports, sweep reports),
and every file that is only in one tree; these are behaviour changes, and
the exit status is 1 when there is any. Then it prints the number of files
that moved, and per file kind (the command's output directory and the file
name without its scenario prefix, such as ``verify/report.json``) the
count of numbers that changed and the largest relative change
|new - old| / max(|old|, |new|), and the files whose text differs outside
their numbers (a padded column, a component name). Numbers are paired in
order of appearance.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")
_CALL = re.compile(r"^\$ (.*)\nexit (\S+)$", re.M)


def _exits(tree: Path) -> dict:
    return dict(_CALL.findall((tree / "calls.log").read_text()))


def _verdicts(obj, where=""):
    """(where, pass, reason) of every object holding a pass flag or a reason."""
    if isinstance(obj, dict):
        if "pass" in obj or "reason" in obj:
            yield where, obj.get("pass"), obj.get("reason")
        for k, v in obj.items():
            yield from _verdicts(v, f"{where}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _verdicts(v, f"{where}[{i}]")


def _kind(rel: Path) -> str:
    """The command's directory and the file name without the scenario prefix."""
    if len(rel.parts) < 3:
        return rel.name
    scenario = rel.parent.parent.name
    name = rel.name[len(scenario) + 1:] if rel.name.startswith(scenario + "_") else rel.name
    return f"{rel.parent.name}/{name}"


def _rel_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (x != x and y != y):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(y - x) / scale if 0.0 < scale < float("inf") else float("inf")


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (Path(a) for a in argv)
    failed = False

    exits_old, exits_new = _exits(old), _exits(new)
    for call in sorted(exits_old.keys() | exits_new.keys()):
        if exits_old.get(call) != exits_new.get(call):
            failed = True
            print(f"exit {exits_old.get(call)} -> {exits_new.get(call)}: {call}")

    files_old = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files_new = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for rel in sorted(files_old ^ files_new):
        failed = True
        print(f"only in {'OLD' if rel in files_old else 'NEW'}: {rel}")

    moved, numbers, largest, texts = 0, {}, {}, {}
    for rel in sorted(files_old & files_new):
        a, b = (old / rel).read_text(), (new / rel).read_text()
        if a == b:
            continue
        moved += 1
        if rel.suffix == ".json":
            for va, vb in zip(_verdicts(json.loads(a)), _verdicts(json.loads(b))):
                if va != vb:
                    failed = True
                    print(f"verdict {va[1:]} -> {vb[1:]}: {rel}{va[0]}")
        kind = _kind(rel)
        na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
        changes = [_rel_change(x, y) for x, y in zip(na, nb) if x != y]
        numbers[kind] = numbers.get(kind, 0) + len(changes)
        largest[kind] = max([largest.get(kind, 0.0)] + changes)
        texts[kind] = texts.get(kind, 0) + (_NUMBER.split(a) != _NUMBER.split(b))

    print(f"{moved} of {len(files_old & files_new)} files moved")
    for kind in sorted(numbers):
        text = f"; other text in {texts[kind]} files" if texts[kind] else ""
        print(f"  {kind}: {numbers[kind]} numbers changed, largest relative change "
              f"{largest[kind]:.3g}{text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
