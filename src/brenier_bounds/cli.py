"""Command-line entry point: scenario configs, subcommands, serialization, sweeps.

Subcommands: bounds, transport, verify, sweep. Exit codes are a stable
contract: 0 pass, 1 input error, 2 void-bound/solver error, 3 verification
failure. Config files are strict JSON: unknown keys are rejected at every
level, and a sweep takes only the keys its kind reads, so sweep definitions
cannot silently misconfigure tolerances.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import sys
from pathlib import Path
from typing import List, Optional

from .bounds import _check_map_order, mglob_uniformity_check
from .errors import BrenierBoundsError, InvalidOrder
from .extparam import finite_param, param
from .potentials import PotentialSpec, Quadratic
from .transport import MIN_MAP_POINTS, lipschitz_empirical, radial_map
from .verify import (Scenario, applicable_bounds, limit_sweep_caffarelli,
                     limit_sweep_D, run_scenario)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VOID = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Malformed or non-strict configuration."""


def _block(block, allowed: set, ctx: str) -> dict:
    """block, checked to be an object with no keys outside ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx} must be an object, got {block!r}")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}")
    return block


def _convert(value, kind, ctx: str):
    """kind(value); a value ``kind`` rejects is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _scalar(block: dict, key: str, default, kind, ctx: str):
    """block[key] converted by ``kind`` (int or float; float accepts "inf")."""
    return _convert(block[key], kind, f"{ctx}.{key}") if key in block else default


def _optional_float(value) -> Optional[float]:
    """float(value), keeping null as None (undeclared bound, default grid end)."""
    return None if value is None else float(value)


def _positive_list(block: dict, key: str, default: list, kind, ctx: str) -> list:
    """block[key]: a non-empty list of positive numbers, each converted by ``kind``."""
    values = block.get(key, default)
    out = [_convert(v, kind, f"{ctx}.{key}") for v in values] if isinstance(values, list) else []
    if not (out and all(v > 0 for v in out)):
        raise ConfigError(f"{ctx}.{key}: expected a non-empty list of positive numbers")
    return out


_FAMILY_KEYS = {"quadratic": {"coefficient"}, "tabulated": {"csv"},
                "onedim": {"coefficient", "shift"}}


def _parse_potential(block: dict, n: int, ctx: str, base_dir: Path) -> PotentialSpec:
    """The potential a config block describes; a ``csv`` path is relative to base_dir."""
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: potential must be an object")
    family = block.get("family")
    if not (isinstance(family, str) and family in _FAMILY_KEYS):
        raise ConfigError(f"{ctx}: unknown potential family {family!r}")
    _block(block, {"family", "hess_upper", "hess_lower"} | _FAMILY_KEYS[family], ctx)
    if family == "tabulated" and "csv" not in block:
        raise ConfigError(f"{ctx}: tabulated potential needs a 'csv' path")
    if family == "onedim" and n != 1:
        raise ConfigError(f"{ctx}: onedim potentials require n = 1")
    a = _scalar(block, "coefficient", 1.0, float, ctx)
    s = _scalar(block, "shift", 0.0, float, ctx)
    # a quadratic's exact Hessian is 2a; a tabulated profile declares its own or none
    default = None if family == "tabulated" else 2.0 * a
    upper = _scalar(block, "hess_upper", default, _optional_float, ctx)
    lower = _scalar(block, "hess_lower", default, _optional_float, ctx)
    try:
        if family == "quadratic":
            return PotentialSpec(n, Quadratic(a), upper, lower)
        if family == "tabulated":
            return PotentialSpec.from_csv(base_dir / str(block["csv"]), n, upper, lower)
        return PotentialSpec.one_dim(lambda x: a * (x - s) ** 2,
                                     lambda x: 2.0 * a * (x - s), upper, lower)
    except (ValueError, OSError) as exc:
        # constructor checks (a nonpositive coefficient, a bad table) and unreadable files
        raise ConfigError(f"{ctx}: {exc}") from exc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the fields of the expected checks, and each check's required and optional fields
_EXPECTED_FIELDS = {
    "value": _is_number, "tol": _is_number,
    "window": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
    "regime": lambda v: v is None or isinstance(v, str)}
_EXPECTED_KEYS = {"lipschitz": ({"value", "tol"}, set()),
                  "slope": ({"value"}, {"tol", "window"}),
                  "bound": ({"value", "tol"}, {"regime"})}


def _check_expected(block) -> Optional[dict]:
    """The scenario's ``expected`` block, checked so verify can read it as given."""
    if block is None:
        return None
    for key, entry in _block(block, set(_EXPECTED_KEYS), "expected").items():
        required, optional = _EXPECTED_KEYS[key]
        _block(entry, required | optional, f"expected.{key}")
        for field in sorted(required | set(entry)):
            if field not in entry or not _EXPECTED_FIELDS[field](entry[field]):
                raise ConfigError(f"expected.{key}.{field}: missing or bad: {entry.get(field)!r}")
    return block


def parse_config(doc: dict, base_dir: Path = Path(".")) -> List[Scenario]:
    """Parse a strict-JSON config document into scenarios."""
    if isinstance(doc, dict) and "scenarios" in doc:
        _block(doc, {"scenarios"}, "config")
        if not isinstance(doc["scenarios"], list):
            raise ConfigError("config: 'scenarios' must be a list")
        return [s for item in doc["scenarios"] for s in parse_config(item, base_dir)]
    _block(doc, {"scenario", "potentials", "solver"}, "config")
    scen = _block(doc.get("scenario"), {"name", "n", "d", "D", "R", "expected"}, "scenario")
    solver = _block(doc.get("solver", {}), {"grid_points", "grid_min", "grid_max"}, "solver")
    n = _scalar(scen, "n", 1, int, "scenario")
    d = _convert(scen.get("d", n), param, "scenario.d")
    D = _convert(scen.get("D", "inf"), param, "scenario.D")
    R = _scalar(scen, "R", math.inf, float, "scenario")
    name = str(scen.get("name", "scenario"))
    try:
        _check_map_order(n, d, D)
    except InvalidOrder as exc:
        # worded as cmd_bounds reports an InvalidOrder, so every command prints one line
        raise ConfigError(f"{name}: {exc}") from exc
    V, W = _potentials(doc, n, "potentials.", base_dir)
    grid_points = _scalar(solver, "grid_points", 400, int, "solver")
    if grid_points < MIN_MAP_POINTS:
        raise ConfigError(f"solver.grid_points: a map needs at least {MIN_MAP_POINTS} "
                          f"points, got {grid_points}")
    return [Scenario(
        name=name,
        V=V, W=W, n=n, d=d, D=D, R=R,
        expected=_check_expected(scen.get("expected")),
        grid_points=grid_points,
        grid_min=_scalar(solver, "grid_min", None, _optional_float, "solver"),
        grid_max=_scalar(solver, "grid_max", None, _optional_float, "solver"))]


def _potentials(doc: dict, n: int, ctx: str, base_dir: Path):
    """The (V, W) pair of a config; each defaults to the quadratic |x|^2."""
    pots = _block(doc.get("potentials", {}), {"V", "W"}, "potentials")
    return (_parse_potential(pots.get(role, {"family": "quadratic"}), n, ctx + role, base_dir)
            for role in ("V", "W"))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad encoding
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> List[Scenario]:
    p = Path(path)
    return parse_config(_read_json(p), p.parent)


def _strict(obj):
    """obj with non-finite floats spelled as strings ("inf", as repr spells math.inf)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _json_text(payload: dict) -> str:
    """Strict JSON: no bare Infinity or NaN tokens."""
    return json.dumps(_strict(payload), indent=2, allow_nan=False)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n")


def _rows_csv(path: Path, rows: List[dict], keys: Optional[List[str]] = None):
    """An RFC 4180 table of the columns ``keys`` (default: the first row's keys).

    csv.writer writes a float, numpy's float64 included, by its shortest
    round-trip repr and None as an empty cell.
    """
    keys = list(rows[0]) if keys is None else keys
    get = operator.itemgetter(*keys) if len(keys) > 1 else lambda row: (row[keys[0]],)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(map(get, rows))


def cmd_bounds(args) -> int:
    out_dir = Path(args.out) if args.out else None
    for s in load_config(args.config):
        try:
            reports = [compute().to_dict() for compute in applicable_bounds(s).values()]
        except InvalidOrder as exc:
            print(f"error: {s.name}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except BrenierBoundsError as exc:
            print(f"error: {s.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VOID
        doc = {"scenario": s.name, "bounds": reports}
        print(_json_text(doc))
        if out_dir:
            if args.format in ("json", "both"):
                _write_json(out_dir / f"{s.name}_bounds.json", doc)
            if args.format in ("csv", "both"):
                keys = sorted({k for r in reports for k in r["constants"]})
                keys = ["regime", "A", "B", "bound"] + keys
                # each regime has its own constants; the others' cells stay blank
                _rows_csv(out_dir / f"{s.name}_bounds.csv",
                          [dict.fromkeys(keys) | r | r["constants"] for r in reports], keys)
    return EXIT_OK


def cmd_transport(args) -> int:
    out_dir = Path(args.out) if args.out else Path(".")
    for s in load_config(args.config):
        try:
            m = radial_map(s.V, s.W, s.d, s.D, s.n, s.grid())
            lip = lipschitz_empirical(m, s.window())
        except BrenierBoundsError as exc:
            print(f"error: {s.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VOID
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{s.name}_map.csv"
        m.write_csv(csv_path)
        payload = {"scenario": s.name, "lipschitz": lip.value,
                   "argmax_r": lip.argmax_r, "component": lip.component,
                   "window_R": s.R,
                   "max_residual": float(max(abs(x) for x in m.residuals)),
                   "map_csv": str(csv_path)}
        _write_json(out_dir / f"{s.name}_lipschitz.json", payload)
        print(_json_text(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    path = Path(args.config)
    scenarios = [s for p in (sorted(path.glob("*.json")) if path.is_dir() else [path])
                 for s in load_config(p)]
    if not scenarios:
        print("error: no scenarios found", file=sys.stderr)
        return EXIT_INPUT
    reports = [run_scenario(s) for s in scenarios]
    out_dir = Path(args.out) if args.out else None
    all_pass = True
    print(f"{'scenario':<32} {'pass':<6} {'empirical':<14} {'margins':<24} reason")
    for rep in reports:
        all_pass &= rep.passed
        emp = "-" if rep.empirical is None else f"{rep.empirical.value:.6g}"
        margins = ",".join(f"{k}:{v:.3g}" for k, v in sorted(rep.margins.items())) or "-"
        print(f"{rep.scenario:<32} {str(rep.passed):<6} {emp:<14} {margins:<24} {rep.reason}")
        if out_dir:
            _write_json(out_dir / f"{rep.scenario}_report.json", rep.to_dict())
    if out_dir:
        _rows_csv(out_dir / "summary.csv", [
            {"scenario": rep.scenario, "pass": rep.passed,
             "empirical": None if rep.empirical is None else rep.empirical.value,
             "residual_max": rep.residual_max, "reason": rep.reason} for rep in reports])
    return EXIT_OK if all_pass else EXIT_VERIFY


# the keys each sweep kind reads
_SWEEP_KEYS = {"uniformity": {"n_list", "d_max", "D_max", "qV", "qW"},
               "d_limit": {"n", "d", "R", "D_list"},
               "caffarelli_limit": {"n", "d_list", "R_list"}}


def cmd_sweep(args) -> int:
    p = Path(args.config)
    doc = _read_json(p)
    block = doc.get("sweep") if isinstance(doc, dict) else None
    kind = block.get("kind") if isinstance(block, dict) else None
    # only the limit sweeps read potentials
    _block(doc, {"sweep"} if kind == "uniformity" else {"sweep", "potentials"}, "config")
    if not (isinstance(kind, str) and kind in _SWEEP_KEYS):
        raise ConfigError(f"unknown sweep kind {kind!r}")
    _block(block, {"kind"} | _SWEEP_KEYS[kind], "sweep")
    out_dir = Path(args.out) if args.out else Path(".")
    if kind == "uniformity":
        n_list = _positive_list(block, "n_list", [1, 2, 3], int, "sweep")
        d_max = _scalar(block, "d_max", 50, int, "sweep")
        D_max = _scalar(block, "D_max", d_max, int, "sweep")
        if min(n_list) > min(d_max, D_max):
            raise ConfigError(f"sweep: no triple with n <= d <= D for n_list {n_list}, "
                              f"d_max {d_max}, D_max {D_max}")
        rep = mglob_uniformity_check(n_list, range(1, d_max + 1), range(1, D_max + 1),
                                     qV=_scalar(block, "qV", 1.0, float, "sweep"),
                                     qW=_scalar(block, "qW", 1.0, float, "sweep"))
        _rows_csv(out_dir / "uniformity.csv", rep.rows, ["n", "d", "D", "one_plus_M", "pass"])
        payload = {"kind": kind, "pass": rep.all_pass,
                   "e2_product": rep.e2_product,
                   "tau_endpoint_value": rep.tau_endpoint_value,
                   "tau_endpoint_target": rep.tau_endpoint_target,
                   "max_one_plus_M": rep.max_one_plus_m,
                   "triples": len(rep.rows)}
    else:
        n = _scalar(block, "n", 1, int, "sweep")
        V, W = _potentials(doc, n, "", p.parent)
        if kind == "d_limit":
            rep = limit_sweep_D(V, W, n, _scalar(block, "d", 1.0, finite_param, "sweep"),
                                _scalar(block, "R", 1.0, finite_param, "sweep"),
                                _positive_list(block, "D_list", [2, 10, 100, 1000],
                                               finite_param, "sweep"))
        else:
            rep = limit_sweep_caffarelli(
                V, W, n,
                _positive_list(block, "d_list", [1, 10, 100, 1e4, 1e6], finite_param,
                               "sweep"),
                _positive_list(block, "R_list", [1, 2, 5, 10], float, "sweep"))
        _rows_csv(out_dir / f"{kind}.csv", rep.rows)
        payload = rep.to_dict() | {"kind": kind}
    _write_json(out_dir / "sweep_report.json", payload)
    print(_json_text({k: v for k, v in payload.items() if k != "rows"}))
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (in-process callers run many commands)."""
    parser = argparse.ArgumentParser(
        prog="brenier-bounds",
        description="Lipschitz/Hessian bounds and monotone transport maps for "
                    "densities interpolating between polynomial and log-concave tails")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("bounds", cmd_bounds), ("transport", cmd_transport),
                     ("verify", cmd_verify), ("sweep", cmd_sweep)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="config file (or directory of configs, verify only)")
        sp.add_argument("--out", default=None, help="output directory")
        if name == "bounds":
            sp.add_argument("--format", choices=("json", "csv", "both"), default="json")
        sp.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidOrder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrenierBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VOID


if __name__ == "__main__":
    sys.exit(main())
