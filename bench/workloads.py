"""The benchmark's three workloads: seeded inputs, the timed calls and their checks.

Every op drives ``brenier_bounds`` through a public entry point only:
``cli.main(argv)`` for ``verify_cli`` and ``sweep_cli``, ``quantile_map_1d``
for ``quantile_1d``. The seed draws each quadratic coefficient from a band of
+-5 % around its nominal value and fixes the order of the ops in a cycle; the
library receives only the generated config files and potentials.

Why these workloads:

* ``verify_cli`` is the job users run. Each op parses fresh potentials, so
  tail tables and normalizations are built cold, as on every CLI call;
  ``transport.radial_map`` dominates the radial scenarios, and the two
  ``onedim`` ops spend most of their time in expanding-window
  ``constants.structural`` scans, so the op tail exercises that layer.
* ``sweep_cli`` builds no transport map. Its ``d_limit`` ops are dominated by
  adaptive ``bounds.tail_mass`` quadratures (``growth_data`` runs three times
  per D); ``caffarelli_limit`` and ``uniformity`` use the constants layer and
  the M-chain instead. A tail-mass engine or a de-duplication shows here.
* ``quantile_1d`` is the only correct map path for non-even 1D potentials,
  adaptive quadrature throughout, and never touches the tail tables: for a
  tail-table change the prediction on this workload is no change.

Known defects, kept in on purpose; each op counts as failed in every cycle:

* ``onedim_shifted`` sends a non-even 1D potential through the radial solver
  (``run_scenario`` does not route it to ``quantile_map_1d``), so its map is
  wrong and the CLI exits 3 on a second-variation slack near -1.5. Its map
  is left out of ``min_digits``: ``radial_map`` is not defined for
  non-radial potentials.
* ``gauss_n2`` is sharp: the Caffarelli bound equals the map's Lipschitz
  constant. Near the origin ``radial_map`` loses digits to ``1 - tail`` (up
  to ~4e-9 relative at n = 2), more than verify's 1e-9 dominance guard, so
  the CLI reports a dominance violation and exits 3 whenever the error's
  sign is positive. That sign flips with the coefficients: drawn from the
  band, about half of all seeds fail. The op therefore keeps the fixed pair
  |x|^2 -> 0.49|x|^2, which fails on every seed (at exactly |x|^2/2 it
  happens to pass).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import exact

BAND = 0.05
RESIDUAL_TOL = 1e-7      # the library's own mass-balance tolerance
ORACLE_TOL = 1e-7        # quantile-oracle agreement, as in the acceptance suite
VALUE_TOL = 1e-6         # reported Lipschitz values and slopes against exact ones
REPEAT_TOL = 1e-12       # a repeated op must reproduce the checked first result
QUANTILE_GRID = (0.01, 20.0, 200)
SHIFT = 0.5


@dataclass
class Outcome:
    """What one op's check found."""

    ok: bool                      # the op produced a correct result
    expected: bool = True         # ok, or failed exactly as its known defect does
    errors: Dict[str, float] = field(default_factory=dict)   # quantity -> rel. error
    nonstrict_files: int = 0
    note: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known_defect: Optional[str] = None


def _draw(rng: random.Random, nominal: float) -> float:
    return nominal * (1.0 + rng.uniform(-BAND, BAND))


def _p(token) -> float:
    return math.inf if token == "inf" else float(token)


def _quiet_call(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _load_json(path: Path):
    """(document, strict): strict is False when the file needs bare Infinity/NaN."""
    text = path.read_text()
    doc = json.loads(text)

    def reject(token):
        raise ValueError(token)
    try:
        json.loads(text, parse_constant=reject)
        strict = True
    except ValueError:
        strict = False
    return doc, strict


def _same(a, b) -> bool:
    """Recursive equality with a relative tolerance on floats."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            return (a == b) or (math.isnan(a) and math.isnan(b))
        return abs(a - b) <= REPEAT_TOL * max(abs(a), abs(b), 1e-300)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


# --------------------------------------------------------------------------
# verify_cli
# --------------------------------------------------------------------------

def _quad(a):
    return {"family": "quadratic", "coefficient": a}


def _onedim(a, shift=0.0):
    return {"family": "onedim", "coefficient": a, "shift": shift}


def _verify_specs(rng: random.Random) -> List[dict]:
    """The nine scenarios; each carries its exact-map parameters when one exists."""
    specs = []

    def add(name, n, d, D, V, W, R=None, ref=True, extra=None, defect=None):
        scen = {"name": name, "n": n, "d": d, "D": D}
        if R is not None:
            scen["R"] = R
        doc = {"scenario": scen, "potentials": {"V": V, "W": W}}
        doc.update(extra or {})
        specs.append({"name": name, "doc": doc, "n": n, "pV": _p(d), "pW": _p(D),
                      "aV": V["coefficient"], "aW": W["coefficient"], "ref": ref,
                      "defect": defect})

    a = _draw(rng, 1.0)
    add("identity", 1, 2, 2, _quad(a), _quad(a), R=10)
    add("caffarelli", 1, "inf", "inf", _quad(_draw(rng, 1.0)), _quad(_draw(rng, 0.25)))
    add("poly_to_logconcave", 1, 2, "inf", _quad(_draw(rng, 1.0)), _quad(_draw(rng, 1.0)), R=5)
    add("heavier_to_lighter", 1, 3, 4, _quad(_draw(rng, 1.0)), _quad(_draw(rng, 0.5)), R=3)
    add("counterexample", 1, 3, 1, _quad(_draw(rng, 1.0)), _quad(_draw(rng, 1.0)), extra={
        "solver": {"grid_points": 300, "grid_min": 10 ** 1.5, "grid_max": 10 ** 4.2}})
    specs[-1]["doc"]["scenario"]["expected"] = {
        "slope": {"value": 5.0, "tol": 0.05, "window": [1e2, 1e4]}}
    a = _draw(rng, 1.0)
    add("identity_n3", 3, 6, 6, _quad(a), _quad(a), R=5)
    add("gauss_n2", 2, "inf", "inf", _quad(1.0), _quad(0.49), defect=(
        "sharp-regime dominance guard (1e-9) tighter than radial_map's accuracy "
        "near the origin; CLI exits 3 on a margin of about -3e-9",
        "dominance violated in regime caffarelli"))
    a = _draw(rng, 1.0)
    add("onedim", 1, 2, 2, _onedim(a), _onedim(a), R=5)
    add("onedim_shifted", 1, 2, 3, _onedim(_draw(rng, 1.0)), _onedim(_draw(rng, 0.5), SHIFT),
        ref=False, defect=(
            "non-even 1D potential sent through the radial solver; CLI exits 3 "
            "on a second-variation slack", "second-variation slack"))
    return specs


def _exact_eigen(spec: dict, r: float, component: str) -> float:
    t, tp = exact.radial_map(spec["n"], spec["aV"], spec["pV"], spec["aW"], spec["pW"],
                             np.array([r]))
    return float(tp[0]) if component == "radial" else float(t[0] / r)


def _exact_slope(spec: dict) -> float:
    """Slope of log t against log r on the scenario's grid over [1e2, 1e4], exactly."""
    r = np.logspace(1.5, 4.2, 300)
    r = r[(r >= 1e2) & (r <= 1e4)]
    t, _ = exact.radial_map(spec["n"], spec["aV"], spec["pV"], spec["aW"], spec["pW"], r)
    return float(np.polyfit(np.log(r), np.log(t), 1)[0])


def _verify_op(bb, spec: dict, tmp: Path) -> Op:
    cfg = tmp / "configs" / f"{spec['name']}.json"
    cfg.write_text(json.dumps(spec["doc"]))
    out = tmp / "out" / spec["name"]
    argv = ["verify", "--config", str(cfg), "--out", str(out)]
    first: Dict[str, object] = {}
    defect, signature = spec["defect"] or (None, None)

    def run():
        return _quiet_call(bb.cli.main, argv)

    def check(rc) -> Outcome:
        path = out / f"{spec['name']}_report.json"
        try:
            rep, strict = _load_json(path)
        except (OSError, ValueError) as exc:
            return Outcome(False, False, note=f"no report: {exc}")
        path.unlink()
        summary = {"rc": rc, "pass": rep["pass"], "reason": rep["reason"],
                   "empirical": rep["empirical"], "residual_max": rep["residual_max"],
                   "bounds": [b["bound"] for b in rep["bounds"]], "slope": rep["slope"]}
        bad = []
        if rc != 0 or rep["pass"] is not True:
            bad.append(f"exit {rc}: {rep['reason']}")
        if rep["residual_max"] is None or rep["residual_max"] > RESIDUAL_TOL:
            bad.append(f"residual {rep['residual_max']}")
        errors = {}
        emp = rep["empirical"]
        if spec["ref"] and emp is not None:
            want = _exact_eigen(spec, emp["argmax_r"], emp["component"])
            errors["verify.empirical_lipschitz"] = abs(emp["value"] / want - 1.0)
        elif spec["ref"]:
            bad.append("no empirical Lipschitz value")
        if "expected" in spec["doc"]["scenario"]:
            got = (rep["slope"] or {}).get("slope")
            if got is None:
                bad.append("no slope")
            else:
                errors["verify.slope"] = abs(got / _exact_slope(spec) - 1.0)
        for key, err in errors.items():
            if not err <= VALUE_TOL:
                bad.append(f"{key} off by {err:g}")
        if first and not _same(summary, first):
            bad.append("differs from the checked first run")
        elif not first:
            first.update(summary)
        ok = not bad
        expected = ok
        if not ok and defect and rc == 3 and rep["reason"].startswith(signature) \
                and _same(summary, first):
            expected = True
        return Outcome(ok, expected, errors, 0 if strict else 1, "; ".join(bad))

    return Op(f"verify.{spec['name']}", run, check, defect)


# --------------------------------------------------------------------------
# sweep_cli
# --------------------------------------------------------------------------

def _sweep_specs(rng: random.Random) -> List[dict]:
    specs = []
    for name, n, d, R, aV, aW, Ds in (
            ("d_limit_cauchy", 1, 1, 1, 1.0, 1.0, [2, 10, 100, 1000]),
            ("d_limit_quadratic", 1, 2, 2, 1.0, 0.5, [4, 40, 400, 4000]),
            ("d_limit_n2", 2, 2, 1, 1.0, 1.0, [4, 40, 400, 4000])):
        aV, aW = _draw(rng, aV), _draw(rng, aW)
        specs.append({"name": name, "kind": "d_limit", "n": n, "d": d, "R": R,
                      "aV": aV, "aW": aW, "D_list": Ds,
                      "doc": {"sweep": {"kind": "d_limit", "n": n, "d": d, "R": R,
                                        "D_list": Ds},
                              "potentials": {"V": _quad(aV), "W": _quad(aW)}}})
    aV, aW = _draw(rng, 1.0), _draw(rng, 1.0)
    specs.append({"name": "caffarelli_limit", "kind": "caffarelli_limit", "aV": aV, "aW": aW,
                  "doc": {"sweep": {"kind": "caffarelli_limit"},
                          "potentials": {"V": _quad(aV), "W": _quad(aW)}}})
    specs.append({"name": "uniformity", "kind": "uniformity",
                  "doc": {"sweep": {"kind": "uniformity", "n_list": [1, 2, 3], "d_max": 50}}})
    return specs


def _check_sweep_payload(spec: dict, rep: dict):
    """(errors, problems) of a sweep report against exact values."""
    errors, bad = {}, []
    if spec["kind"] == "d_limit":
        rows = rep["rows"]
        if [r["D"] for r in rows] != [float(D) for D in spec["D_list"]]:
            bad.append("wrong D rows")
        worst = 0.0
        for row in rows:
            want = exact.growth_radius(spec["n"], spec["aV"], spec["aW"], float(spec["d"]),
                                       row["D"], float(spec["R"]))
            worst = max(worst, abs(row["fathi_radius"] / want - 1.0))
        errors["sweep.fathi_radius"] = worst
    elif spec["kind"] == "caffarelli_limit":
        sharp = math.sqrt(spec["aV"] / spec["aW"])
        errors["sweep.sharp_value"] = abs(rep["sharp_value"] / sharp - 1.0)
        errors["sweep.endpoint_bound"] = max(
            abs(row["bound"] / exact.endpoint_bound(spec["aV"], spec["aW"], row["d"], row["R"])
                - 1.0) for row in rep["rows"])
        if len(rep["rows"]) != 20:
            bad.append("expected 5 x 4 rows")
    else:
        triples = sum(1 for n in (1, 2, 3) for d in range(n, 51) for _ in range(d, 51))
        if rep["triples"] != triples:
            bad.append(f"{rep['triples']} triples, want {triples}")
        checks = ((rep["e2_product"], 125000.0 * math.exp(2.0)),
                  (rep["tau_endpoint_value"], math.log(15625.0)),
                  (rep["max_one_plus_M"], 15626.0))  # K = 125, M = K^2 at n = d = D = 1
        for got, want in checks:
            if abs(got / want - 1.0) > 1e-9:
                bad.append(f"{got!r} != {want!r}")
    for key, err in errors.items():
        if not err <= VALUE_TOL:
            bad.append(f"{key} off by {err:g}")
    return errors, bad


def _sweep_op(bb, spec: dict, tmp: Path) -> Op:
    cfg = tmp / "configs" / f"{spec['name']}.json"
    cfg.write_text(json.dumps(spec["doc"]))
    out = tmp / "out" / spec["name"]
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    first: Dict[str, object] = {}

    def run():
        return _quiet_call(bb.cli.main, argv)

    def check(rc) -> Outcome:
        path = out / "sweep_report.json"
        try:
            rep, strict = _load_json(path)
        except (OSError, ValueError) as exc:
            return Outcome(False, False, note=f"no report: {exc}")
        path.unlink()
        summary = {"rc": rc, **{k: v for k, v in rep.items() if k != "wrong_order_rows"}}
        errors, bad = _check_sweep_payload(spec, rep)
        if rc != 0 or rep.get("pass") is not True:
            bad.append(f"exit {rc}: {rep.get('reason')}")
        if first and not _same(summary, first):
            bad.append("differs from the checked first run")
        elif not first:
            first.update(summary)
        ok = not bad
        return Outcome(ok, ok, errors, 0 if strict else 1, "; ".join(bad))

    return Op(f"sweep.{spec['name']}", run, check)


# --------------------------------------------------------------------------
# quantile_1d
# --------------------------------------------------------------------------

def _quantile_specs(rng: random.Random) -> List[dict]:
    specs = []
    a = _draw(rng, 1.0)
    for name, aV, aW, d, D, sW in (
            ("cauchy_identity", a, a, "1", "1", 0.0),
            ("gaussian_scaling", _draw(rng, 1.0), _draw(rng, 0.25), "inf", "inf", 0.0),
            ("heavier_to_lighter", _draw(rng, 1.0), _draw(rng, 0.5), "2", "4", 0.0),
            ("same_parameter", _draw(rng, 2.0), _draw(rng, 1.0), "3", "3", 0.0),
            ("toward_log_concave", _draw(rng, 1.0), _draw(rng, 1.0), "1", "inf", 0.0),
            ("gaussian_to_shifted", _draw(rng, 1.0), _draw(rng, 0.25), "inf", "inf", SHIFT)):
        specs.append({"name": name, "aV": aV, "aW": aW, "d": d, "D": D, "sW": sW})
    a = _draw(rng, 1.0)
    specs.append({"name": "shifted_d3", "aV": a, "aW": a, "d": "3", "D": "3", "sW": SHIFT})
    return specs


def _shifted_quadratic(bb, a: float, s: float):
    return bb.PotentialSpec.one_dim(lambda x: a * (x - s) ** 2,
                                    lambda x: 2.0 * a * (x - s),
                                    hess_upper=2.0 * a, hess_lower=2.0 * a)


def _quantile_op(bb, spec: dict) -> Op:
    V = bb.PotentialSpec.quadratic(spec["aV"], 1)
    W = (_shifted_quadratic(bb, spec["aW"], spec["sW"]) if spec["sW"]
         else bb.PotentialSpec.quadratic(spec["aW"], 1))
    d, D = bb.ExtParam.parse(spec["d"]), bb.ExtParam.parse(spec["D"])
    lo, hi, points = QUANTILE_GRID
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    first: Dict[str, object] = {}

    def run():
        return bb.quantile_map_1d(V, W, d, D, grid)

    def check(m) -> Outcome:
        bad = []
        want = exact.line_map(spec["aV"], _p(spec["d"]), 0.0, spec["aW"], _p(spec["D"]),
                              spec["sW"], grid)
        err = exact.rel_err(m.t, want)
        if not err <= ORACLE_TOL:
            bad.append(f"map off by {err:g}")
        res = float(np.max(np.abs(m.residuals)))
        if not res <= RESIDUAL_TOL:
            bad.append(f"residual {res:g}")
        summary = {"t": [float(x) for x in m.t]}
        if first and not _same(summary, first):
            bad.append("differs from the checked first run")
        elif not first:
            first.update(summary)
        ok = not bad
        return Outcome(ok, ok, {"quantile.t": err}, 0, "; ".join(bad))

    return Op(f"quantile.{spec['name']}", run, check)


# --------------------------------------------------------------------------

def build(workload: str, seed: int, bb, tmp: Path) -> List[Op]:
    """Generate the workload's inputs for ``seed``; return its ops in cycle order."""
    rng = random.Random(f"{workload}:{seed}")
    (tmp / "configs").mkdir(parents=True, exist_ok=True)
    if workload == "verify_cli":
        ops = [_verify_op(bb, s, tmp) for s in _verify_specs(rng)]
    elif workload == "sweep_cli":
        ops = [_sweep_op(bb, s, tmp) for s in _sweep_specs(rng)]
    elif workload == "quantile_1d":
        ops = [_quantile_op(bb, s) for s in _quantile_specs(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
