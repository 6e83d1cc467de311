"""Run the CLI on a fixed set of configs and keep every output, for byte comparison.

Usage::

    python tools/cli_outputs.py SRC OUT

SRC is a source tree holding the ``brenier_bounds`` package (a checkout's
``src``). The configs are the benchmark's ``verify_cli`` and ``sweep_cli``
configs at seeds 202, 7 and 0, built by ``bench/workloads.build``, and
twenty-three more: an inverted order d > D, d = D at n = 2, d < n, the
far-shifted ``onedim`` pair 10 (x - 36)^2, an integer d with D spelled
"INF", the rejected tail parameters d = "nan" and D = "-inf", five rejected
solver windows (grid_min 0 and -1, grid_min above the grid's upper end,
grid_max "inf", grid_max below the default lower end), the rejected window
radii R = 0 and R = "nan", a ``onedim`` V without a declared Hessian lower
bound at R = inf (void global constants), a ``uniformity`` sweep with the
rejected qV = "inf", one with qV = 0.999 whose rows partly fail (exit 3),
three ``tabulated`` V read from ``r2.csv`` (r^2 at 201 nodes on [0, 20],
written beside the configs): declared [2, 2] at n = 1 and n = 3, and the
rejected declaration [0.5, 0.5], one read from ``r2_half.csv`` (r^2 at
r = 0.5, 0.6, ..., 20, a table whose first node is above 0) declared [2, 2]
at n = 3, and two read from ``r2p5.csv`` (r^2 + 5r with its slopes, at the
nodes of ``r2.csv``): declared [2, 2] at n = 3, rejected because
U'(r)/r = 2 + 5/r is unbounded, and undeclared at n = 1. Each verify config runs
through ``verify``, ``bounds --format both`` and ``transport``, each sweep
config through ``sweep``, in-process. OUT receives the configs, every
output file, and ``calls.log`` with each call's exit code, stdout and
stderr. ``wall_time_s`` and the OUT path itself are masked, so two runs that
compute the same outputs leave trees that ``diff -r`` finds equal. bench/ is
read, not written.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import traceback
import warnings
from pathlib import Path

SEEDS = (202, 7, 0)
EXTRA = {
    "order_inverted": {"scenario": {"name": "order_inverted", "n": 1, "d": 4, "D": 2, "R": 3}},
    "equal_n2": {"scenario": {"name": "equal_n2", "n": 2, "d": 2, "D": 2, "R": 3}},
    "d_below_n": {"scenario": {"name": "d_below_n", "n": 3, "d": 2, "D": 4, "R": 3}},
    "onedim_far": {
        "scenario": {"name": "onedim_far", "n": 1, "d": 3, "D": 3, "R": 5},
        "potentials": {"V": {"family": "onedim", "coefficient": 10.0, "shift": 36.0},
                       "W": {"family": "onedim", "coefficient": 10.0, "shift": 36.0}}},
    "int_d_upper_inf": {"scenario": {"name": "int_d_upper_inf", "n": 2, "d": 3, "D": "INF", "R": 2}},
    "d_nan": {"scenario": {"name": "d_nan", "n": 1, "d": "nan", "D": 3, "R": 2}},
    "D_minus_inf": {"scenario": {"name": "D_minus_inf", "n": 1, "d": 2, "D": "-inf", "R": 2}},
    "grid_min_zero": {"scenario": {"name": "grid_min_zero", "n": 1, "d": 2, "D": 3, "R": 2},
                      "solver": {"grid_min": 0}},
    "grid_min_negative": {"scenario": {"name": "grid_min_negative", "n": 1, "d": 2, "D": 3,
                                       "R": 2}, "solver": {"grid_min": -1}},
    "grid_min_above_end": {"scenario": {"name": "grid_min_above_end", "n": 1, "d": 2, "D": 3,
                                        "R": 2}, "solver": {"grid_min": 100, "grid_max": 1}},
    "grid_max_inf": {"scenario": {"name": "grid_max_inf", "n": 1, "d": 2, "D": 3, "R": 2},
                     "solver": {"grid_max": "inf"}},
    "grid_max_below_start": {"scenario": {"name": "grid_max_below_start", "n": 1, "d": 2, "D": 3},
                             "solver": {"grid_max": 1e-5}},
    "R_zero": {"scenario": {"name": "R_zero", "n": 1, "d": 2, "D": 3, "R": 0}},
    "R_nan": {"scenario": {"name": "R_nan", "n": 1, "d": 2, "D": 3, "R": "nan"}},
    "onedim_undeclared_lower": {
        "scenario": {"name": "onedim_undeclared_lower", "n": 1, "d": 3, "D": 3},
        "potentials": {"V": {"family": "onedim", "shift": 0.5, "hess_lower": None}}},
    "uniformity_qV_inf": {"sweep": {"kind": "uniformity", "n_list": [1], "d_max": 4,
                                    "qV": "inf"}},
    "uniformity_qV_0999": {"sweep": {"kind": "uniformity", "n_list": [1, 2], "d_max": 8,
                                     "qV": 0.999}},
    "tabulated_n1": {
        "scenario": {"name": "tabulated_n1", "n": 1, "d": 2, "D": 2, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2.csv",
                             "hess_upper": 2.0, "hess_lower": 2.0}}},
    "tabulated_n3": {
        "scenario": {"name": "tabulated_n3", "n": 3, "d": 6, "D": 6, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2.csv",
                             "hess_upper": 2.0, "hess_lower": 2.0}}},
    "tabulated_false_upper": {
        "scenario": {"name": "tabulated_false_upper", "n": 1, "d": 2, "D": 2, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2.csv",
                             "hess_upper": 0.5, "hess_lower": 0.5}}},
    "tabulated_from_half_n3": {
        "scenario": {"name": "tabulated_from_half_n3", "n": 3, "d": 6, "D": 6, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2_half.csv",
                             "hess_upper": 2.0, "hess_lower": 2.0}}},
    "tabulated_r2p5_n3": {
        "scenario": {"name": "tabulated_r2p5_n3", "n": 3, "d": 6, "D": 6, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2p5.csv",
                             "hess_upper": 2.0, "hess_lower": 2.0}}},
    "tabulated_r2p5_n1": {
        "scenario": {"name": "tabulated_r2p5_n1", "n": 1, "d": 2, "D": 2, "R": 5},
        "potentials": {"V": {"family": "tabulated", "csv": "r2p5.csv"}}},
}
# the table the tabulated configs read: r^2 at r = 0, 0.1, ..., 20
R2_CSV = "r,u\n" + "".join(f"{i / 10!r},{(i / 10) ** 2!r}\n" for i in range(201))
# r^2 from r = 0.5: r = 0.5, 0.6, ..., 20
R2_HALF_CSV = "r,u\n" + "".join(f"{i / 10!r},{(i / 10) ** 2!r}\n" for i in range(5, 201))
# r^2 + 5r with its slopes 2r + 5 at the same nodes
R2P5_CSV = "r,u,du\n" + "".join(f"{i / 10!r},{(i / 10) ** 2 + i / 2!r},{i / 5 + 5.0!r}\n"
                                 for i in range(201))
_WALL = re.compile(r'("wall_time_s": )[^,\n}]*')


def _configs(bb, out: Path):
    """(kind, path) of every config, written under out/configs."""
    import workloads
    found = []
    for seed in SEEDS:
        for workload, kind in (("verify_cli", "verify"), ("sweep_cli", "sweep")):
            tmp = out / "configs" / f"{workload}_{seed}"
            workloads.build(workload, seed, bb, tmp)
            found += [(kind, p) for p in sorted((tmp / "configs").glob("*.json"))]
    extra = out / "configs" / "extra" / "configs"
    extra.mkdir(parents=True)
    (extra / "r2.csv").write_text(R2_CSV)
    (extra / "r2_half.csv").write_text(R2_HALF_CSV)
    (extra / "r2p5.csv").write_text(R2P5_CSV)
    for name, doc in EXTRA.items():
        path = extra / f"{name}.json"
        path.write_text(json.dumps(doc))
        found.append(("sweep" if "sweep" in doc else "verify", path))
    return found


def _call(main, argv):
    """(exit code, stdout, stderr) of main(argv); a traceback counts as stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except Exception:  # a traceback is an output to compare, not a stop
            rc = "raised"
            traceback.print_exc(limit=0)
    return rc, stdout.getvalue(), stderr.getvalue()


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out.exists():
        sys.exit(f"{out} exists; give a new directory")
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent / "bench")]
    import brenier_bounds as bb
    import brenier_bounds.cli as cli
    warnings.simplefilter("always")  # every call logs its own warnings

    runs = []
    for kind, cfg in _configs(bb, out):
        res = out / "results" / cfg.parent.parent.name / cfg.stem
        if kind == "sweep":
            runs.append(["sweep", "--config", str(cfg), "--out", str(res / "sweep")])
            continue
        runs += [["verify", "--config", str(cfg), "--out", str(res / "verify")],
                 ["bounds", "--config", str(cfg), "--out", str(res / "bounds"),
                  "--format", "both"],
                 ["transport", "--config", str(cfg), "--out", str(res / "transport")]]
    log = []
    for argv_ in runs:
        rc, stdout, stderr = _call(cli.main, argv_)
        log.append(f"$ {' '.join(argv_)}\nexit {rc}\n--- stdout\n{stdout}--- stderr\n{stderr}")
    (out / "calls.log").write_text("\n".join(log))

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = _WALL.sub(r'\1"masked"', path.read_text()).replace(str(out), "OUT")
        path.write_text(text)
    print(f"{len(runs)} calls, {sum(1 for p in out.rglob('*') if p.is_file())} files in {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
