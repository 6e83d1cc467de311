"""Command-line entry point: scenario configs, subcommands, serialization, sweeps.

Subcommands: bounds, transport, verify, sweep. Exit codes are a stable
contract: 0 pass, 1 input error, 2 void-bound/solver error, 3 verification
failure. Config files are strict JSON: unknown keys are rejected at every
level so sweep definitions cannot silently misconfigure tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .bounds import mglob_uniformity_check
from .errors import BrenierBoundsError, InvalidOrder
from .extparam import ExtParam
from .potentials import PotentialSpec, Quadratic
from .transport import default_grid, lipschitz_empirical, radial_map
from .verify import (Scenario, applicable_bounds, limit_sweep_caffarelli,
                     limit_sweep_D, run_scenario)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VOID = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Malformed or non-strict configuration."""


def _reject_unknown(block: dict, allowed: set, ctx: str):
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}")


def _parse_extended(token, ctx: str) -> ExtParam:
    try:
        return ExtParam.parse(token)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _scalar(block: dict, key: str, default, kind, ctx: str):
    """block[key] converted by ``kind`` (int or float; float accepts "inf")."""
    if key not in block:
        return default
    try:
        return kind(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}.{key}: {exc}") from exc


def _optional_float(value) -> Optional[float]:
    """float(value), keeping null as None (undeclared bound, default grid end)."""
    return None if value is None else float(value)


_FAMILY_KEYS = {"quadratic": {"coefficient"}, "tabulated": {"csv"},
                "onedim": {"coefficient", "shift"}}


def _parse_potential(block: dict, n: int, ctx: str, base_dir: Path) -> PotentialSpec:
    """The potential a config block describes; a ``csv`` path is relative to base_dir."""
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: potential must be an object")
    family = block.get("family")
    if not (isinstance(family, str) and family in _FAMILY_KEYS):
        raise ConfigError(f"{ctx}: unknown potential family {family!r}")
    _reject_unknown(block, {"family", "hess_upper", "hess_lower"} | _FAMILY_KEYS[family], ctx)
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


_SCENARIO_KEYS = {"name", "n", "d", "D", "R", "expected"}
_SOLVER_KEYS = {"grid_points", "grid_min", "grid_max"}
_OUTPUT_KEYS = {"dir", "format"}
_TOP_KEYS = {"scenario", "potentials", "solver", "output"}


@dataclass
class ParsedConfig:
    scenarios: List[Scenario] = field(default_factory=list)
    canonical: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def parse_config(doc: dict, base_dir: Path = Path(".")) -> ParsedConfig:
    """Parse a strict-JSON config document into scenarios."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "scenarios" in doc:
        _reject_unknown(doc, {"scenarios"}, "config")
        parts = [parse_config(item, base_dir) for item in doc["scenarios"]]
        return ParsedConfig(
            scenarios=[s for p in parts for s in p.scenarios],
            canonical={"scenarios": [p.canonical for p in parts]},
            output=parts[0].output if parts else {})
    _reject_unknown(doc, _TOP_KEYS, "config")
    scen = doc.get("scenario")
    if not isinstance(scen, dict):
        raise ConfigError("config needs a 'scenario' block")
    _reject_unknown(scen, _SCENARIO_KEYS, "scenario")
    pots = doc.get("potentials", {})
    _reject_unknown(pots, {"V", "W"}, "potentials")
    solver = doc.get("solver", {})
    _reject_unknown(solver, _SOLVER_KEYS, "solver")
    output = doc.get("output", {})
    _reject_unknown(output, _OUTPUT_KEYS, "output")

    n = _scalar(scen, "n", 1, int, "scenario")
    d = _parse_extended(scen.get("d", n), "scenario.d")
    D = _parse_extended(scen.get("D", "inf"), "scenario.D")
    R = _scalar(scen, "R", math.inf, float, "scenario")
    V = _parse_potential(pots.get("V", {"family": "quadratic"}), n, "potentials.V", base_dir)
    W = _parse_potential(pots.get("W", {"family": "quadratic"}), n, "potentials.W", base_dir)
    scenario = Scenario(
        name=str(scen.get("name", "scenario")),
        V=V, W=W, n=n, d=d, D=D, R=R,
        expected=scen.get("expected"),
        grid_points=_scalar(solver, "grid_points", 400, int, "solver"),
        grid_min=_scalar(solver, "grid_min", None, _optional_float, "solver"),
        grid_max=_scalar(solver, "grid_max", None, _optional_float, "solver"))
    canonical = {
        "scenario": {"name": scenario.name, "n": n, "d": d.label(),
                     "D": D.label(),
                     "R": "inf" if math.isinf(R) else repr(R),
                     **({"expected": scen["expected"]} if scen.get("expected") else {})},
        "potentials": {"V": dict(pots.get("V", {"family": "quadratic"})),
                       "W": dict(pots.get("W", {"family": "quadratic"}))},
        "solver": dict(solver),
        "output": dict(output),
    }
    return ParsedConfig([scenario], canonical, dict(output))


def load_config(path) -> ParsedConfig:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc
    return parse_config(doc, p.parent)


def _strict(obj):
    """obj with non-finite floats spelled as strings ("inf", as ExtParam.label)."""
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


def _bounds_csv(path: Path, reports: List[dict]):
    keys = sorted({k for r in reports for k in r["constants"]})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["regime", "A", "B", "bound"] + keys) + "\n")
        for r in reports:
            row = [r["regime"], repr(r["A"]), repr(r["B"]), repr(r["bound"])]
            row += [repr(r["constants"][k]) if k in r["constants"] else "" for k in keys]
            fh.write(",".join(row) + "\n")


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else None
    for s in cfg.scenarios:
        try:
            reports = [compute().to_dict() for compute in applicable_bounds(s).values()]
        except InvalidOrder as exc:
            print(f"error: {s.name}: {exc} (requires d <= D)", file=sys.stderr)
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
                _bounds_csv(out_dir / f"{s.name}_bounds.csv", reports)
    return EXIT_OK


def cmd_transport(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(".")
    for s in cfg.scenarios:
        try:
            grid = default_grid(s.d, s.grid_points, s.grid_min, s.grid_max)
            m = radial_map(s.V, s.W, s.d, s.D, s.n, grid)
            window = s.R if math.isfinite(s.R) else s.proxy_radius()
            lip = lipschitz_empirical(m, window)
        except BrenierBoundsError as exc:
            print(f"error: {s.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VOID
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{s.name}_map.csv"
        m.write_csv(csv_path)
        payload = {"scenario": s.name, "lipschitz": lip.value,
                   "argmax_r": lip.argmax_r, "component": lip.component,
                   "window_R": "inf" if math.isinf(s.R) else s.R,
                   "max_residual": float(max(abs(x) for x in m.residuals)),
                   "map_csv": str(csv_path)}
        _write_json(out_dir / f"{s.name}_lipschitz.json", payload)
        print(_json_text(payload))
    return EXIT_OK


def _collect_configs(path: Path) -> List[Path]:
    if path.is_dir():
        return sorted(path.glob("*.json"))
    return [path]


def cmd_verify(args) -> int:
    paths = _collect_configs(Path(args.config))
    scenarios: List[Scenario] = []
    for p in paths:
        scenarios.extend(load_config(p).scenarios)
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
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            fh.write("scenario,pass,empirical,residual_max,reason\n")
            for rep in reports:
                emp = "" if rep.empirical is None else repr(rep.empirical.value)
                res = "" if rep.residual_max is None else repr(rep.residual_max)
                fh.write(f"{rep.scenario},{rep.passed},{emp},{res},{rep.reason}\n")
    return EXIT_OK if all_pass else EXIT_VERIFY


_SWEEP_KEYS = {"kind", "n", "n_list", "d", "d_max", "d_list", "D_list", "D_max",
               "R", "R_list", "qV", "qW"}


def cmd_sweep(args) -> int:
    p = Path(args.config)
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        block = doc.get("sweep")
        if not isinstance(block, dict):
            raise ConfigError("sweep config needs a 'sweep' block")
        _reject_unknown(doc, {"sweep", "potentials"}, "config")
        _reject_unknown(block, _SWEEP_KEYS, "sweep")
        kind = block.get("kind")
        out_dir = Path(args.out) if args.out else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        pots = doc.get("potentials", {})
        _reject_unknown(pots, {"V", "W"}, "potentials")

        if kind == "uniformity":
            n_list = block.get("n_list", [1, 2, 3])
            d_max = _scalar(block, "d_max", 50, int, "sweep")
            D_max = _scalar(block, "D_max", d_max, int, "sweep")
            rep = mglob_uniformity_check(n_list, range(1, d_max + 1),
                                         range(1, D_max + 1),
                                         qV=_scalar(block, "qV", 1.0, float, "sweep"),
                                         qW=_scalar(block, "qW", 1.0, float, "sweep"))
            with open(out_dir / "uniformity.csv", "w", newline="") as fh:
                fh.write("n,d,D,one_plus_M,pass\n")
                for row in rep.rows:
                    fh.write(f"{row['n']},{row['d']},{row['D']},"
                             f"{repr(row['one_plus_M'])},{row['pass']}\n")
            payload = {"kind": kind, "pass": rep.all_pass,
                       "e2_product": rep.e2_product,
                       "tau_endpoint_value": rep.tau_endpoint_value,
                       "tau_endpoint_target": rep.tau_endpoint_target,
                       "max_one_plus_M": rep.max_one_plus_m,
                       "triples": len(rep.rows)}
        elif kind == "d_limit":
            n = _scalar(block, "n", 1, int, "sweep")
            V = _parse_potential(pots.get("V", {"family": "quadratic"}), n, "V", p.parent)
            W = _parse_potential(pots.get("W", {"family": "quadratic"}), n, "W", p.parent)
            rep = limit_sweep_D(V, W, n, _scalar(block, "d", 1.0, float, "sweep"),
                                _scalar(block, "R", 1.0, float, "sweep"),
                                block.get("D_list", [2, 10, 100, 1000]))
            _rows_csv(out_dir / "d_limit.csv", rep.rows)
            payload = rep.to_dict() | {"kind": kind}
        elif kind == "caffarelli_limit":
            n = _scalar(block, "n", 1, int, "sweep")
            V = _parse_potential(pots.get("V", {"family": "quadratic"}), n, "V", p.parent)
            W = _parse_potential(pots.get("W", {"family": "quadratic"}), n, "W", p.parent)
            rep = limit_sweep_caffarelli(V, W, n,
                                         block.get("d_list", [1, 10, 100, 1e4, 1e6]),
                                         block.get("R_list", [1, 2, 5, 10]))
            _rows_csv(out_dir / "caffarelli_limit.csv", rep.rows)
            payload = rep.to_dict() | {"kind": kind}
        else:
            raise ConfigError(f"unknown sweep kind {kind!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrenierBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VOID
    _write_json(out_dir / "sweep_report.json", payload)
    print(_json_text({k: v for k, v in payload.items() if k != "rows"}))
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


def _rows_csv(path: Path, rows: List[dict]):
    if not rows:
        return
    keys = list(rows[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float)
                              else str(row[k]) for k in keys) + "\n")


def build_parser() -> argparse.ArgumentParser:
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidOrder as exc:
        print(f"error: {exc} (requires d <= D)", file=sys.stderr)
        return EXIT_INPUT
    except BrenierBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VOID


if __name__ == "__main__":
    sys.exit(main())
