"""Scenario-level verification: bound dominance, limit regimes, counterexample slopes.

Component failures degrade to per-field error records so a sweep of many
scenarios completes and reports partial results; parameter sweeps hit
void-bound corners by design.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bounds import (BoundReport, _as_dict, _check_order, finite_global_sharp_bound,
                     global_bound, local_bound)
from .errors import BrenierBoundsError, EmptyWindow, InvalidOrder
from .extparam import finite_param, param
from .potentials import PotentialSpec
from .transport import (MIN_MAP_POINTS, RadialMap, LipschitzEstimate, default_grid,
                        lipschitz_empirical, radial_map, second_variation_check)

# default tolerances: dominance margin is a pure rounding guard; sharpness
# gaps are analytic; 5% covers limit-regime convergence at the largest
# swept parameter
DOMINANCE_TOL = -1e-9
RESIDUAL_TOL = 1e-7
SLACK_TOL = -1e-6
LIMIT_GAP_TOL = 0.05


@dataclass
class Scenario:
    """One verification work item: potentials, parameters, window, expectations."""

    name: str
    V: PotentialSpec
    W: PotentialSpec
    n: int
    d: float
    D: float
    R: float = math.inf
    expected: Optional[dict] = None
    grid_points: int = 400
    grid_min: Optional[float] = None
    grid_max: Optional[float] = None

    def __post_init__(self):
        """Checks R and the map grid, worded by the config keys that set them."""
        self.d, self.D = param(self.d), param(self.D)
        if not self.R > 0.0:  # NaN too; R = inf is the global window
            raise ValueError(f"scenario.R: expected a positive number, got {float(self.R)!r}")
        if self.grid_points < MIN_MAP_POINTS:
            raise ValueError(f"solver.grid_points: a map needs at least {MIN_MAP_POINTS} "
                             f"points, got {self.grid_points}")
        for key in ("grid_min", "grid_max"):
            x = getattr(self, key)
            if x is not None and not (x > 0.0 and math.isfinite(x)):
                raise ValueError(f"solver.{key}: expected a positive finite number, "
                                 f"got {float(x)!r}")
        lo, hi = default_grid(self.d, 2, self.grid_min, self.grid_end())  # grid()'s ends
        if not lo < hi:
            raise ValueError(f"solver: the map grid's lower end {lo:.6g} is not below "
                             f"its upper end {hi:.6g}")

    def order_valid(self) -> bool:
        try:
            _check_order(self.n, self.d, self.D)
        except InvalidOrder:
            return False
        return True

    def proxy_radius(self) -> float:
        """Desk-scale stand-in window for 'global' empirical suprema."""
        scale = 1.0 if math.isinf(self.d) else math.sqrt(self.d)
        return 50.0 * max(1.0, scale)

    def window(self) -> float:
        """The empirical Lipschitz window: R, or the proxy radius when R = inf."""
        return self.R if math.isfinite(self.R) else self.proxy_radius()

    def slope_window(self) -> Optional[Tuple[float, float]]:
        """The fit window of the expected growth exponent, if one is expected."""
        slope = (self.expected or {}).get("slope")
        return None if slope is None else tuple(slope.get("window", (1e2, 1e4)))

    def grid_end(self) -> float:
        """The map grid's upper end: grid_max (or the proxy radius), widened to
        cover R and the slope window."""
        return max(self.grid_max or self.proxy_radius(), self.R if math.isfinite(self.R) else 0.0,
                   (self.slope_window() or (0.0, 0.0))[1])

    def grid(self) -> np.ndarray:
        """The map grid from grid_min to ``grid_end()``, with the window edges
        ``window()`` and ``proxy_radius()`` as exact nodes: a node within 1e-12
        relative of an edge becomes it, another edge is inserted."""
        grid = default_grid(self.d, self.grid_points, self.grid_min, self.grid_end())
        for edge in (self.window(), self.proxy_radius()):
            i = int(np.searchsorted(grid, edge))
            near = [j for j in (i, i - 1)
                    if 0 <= j < grid.size and abs(grid[j] - edge) <= 1e-12 * edge]
            if near:
                grid[near[0]] = edge
            elif 0 < i < grid.size:
                grid = np.insert(grid, i, edge)
        return grid


@dataclass
class VerifyReport:
    """One scenario's results; the fields carry the names its JSON report uses."""

    scenario: str
    bounds: List[BoundReport] = field(default_factory=list)
    empirical: Optional[LipschitzEstimate] = None
    empirical_global_proxy: Optional[LipschitzEstimate] = None
    margins: Dict[str, float] = field(default_factory=dict)
    slacks: List[dict] = field(default_factory=list)
    residual_max: Optional[float] = None
    map_range: Optional[dict] = None
    slope: Optional[Dict[str, float]] = None  # {"slope", "r2"} of the fit
    errors: Dict[str, str] = field(default_factory=dict)
    inapplicable: Dict[str, str] = field(default_factory=dict)
    passed: bool = False
    reason: str = ""
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return _as_dict(self)


def slope_fit(m: RadialMap, r_min: float, r_max: float) -> Tuple[float, float]:
    """Least-squares slope of log t against log r over [r_min, r_max], with r^2."""
    mask = (m.r_grid >= r_min) & (m.r_grid <= r_max) & (m.t > 0) & (m.r_grid > 0)
    if int(np.count_nonzero(mask)) < 20:
        raise EmptyWindow(f"need >= 20 grid points in [{r_min}, {r_max}]")
    x = np.log(m.r_grid[mask])
    y = np.log(m.t[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def applicable_bounds(s: Scenario) -> Dict[str, Callable[[], BoundReport]]:
    """The bounds that apply to ``s``, by label, not yet evaluated.

    ``global`` always; ``local`` on a finite ball, or on the whole space when
    D = inf (the endpoint bound then takes the global structural constant,
    R = inf); ``finite_global_sharp`` when d and D are both finite.
    """
    out = {"global": lambda: global_bound(s.V, s.W, s.n, s.d, s.D)}
    if math.isfinite(s.R) or math.isinf(s.D):
        out["local"] = lambda: local_bound(s.V, s.W, s.n, s.d, s.D, s.R)
    if math.isfinite(s.d) and math.isfinite(s.D):
        out["finite_global_sharp"] = lambda: finite_global_sharp_bound(
            s.V, s.W, s.n, s.d, s.D)
    return out


def run_scenario(s: Scenario) -> VerifyReport:
    """Compute all applicable bounds, the transport map, and every check."""
    t0 = time.perf_counter()
    rep = VerifyReport(scenario=s.name)
    order_ok = s.order_valid()
    if not order_ok:
        rep.inapplicable["bounds"] = "InvalidOrder: d > D (or d < n)"
    else:
        reports = [_try(rep, label, compute) for label, compute in applicable_bounds(s).items()]
        rep.bounds = [b for b in reports if b is not None]

    # transport map and empirical quantities
    grid = s.grid()
    m = _try(rep, "map", lambda: radial_map(s.V, s.W, s.d, s.D, s.n, grid))
    if m is not None:
        rep.residual_max = float(np.max(np.abs(m.residuals)))
        # the map stops where the source tail underflows; say how far it got
        rep.map_range = {"requested_max": float(grid[-1]),
                         "effective_max": float(m.r_grid[-1]),
                         "points": int(m.r_grid.size),
                         "requested_points": int(grid.size)}
        window = s.window()
        rep.empirical = _try(rep, "lipschitz", lambda: lipschitz_empirical(m, window))
        rep.empirical_global_proxy = _try(rep, "lipschitz_proxy",
                                          lambda: lipschitz_empirical(m, s.proxy_radius()))
        if order_ok:
            sv = _try(rep, "second_variation",
                      lambda: second_variation_check(m, s.V, s.W, s.d, s.D, window))
            rep.slacks = [{"inequality": e.inequality, "epsilon": e.epsilon, "slack": e.slack}
                          for e in (sv.entries if sv else ())]
        slope_window = s.slope_window()
        if slope_window is not None:
            fit = _try(rep, "slope", lambda: slope_fit(m, *slope_window))
            rep.slope = None if fit is None else {"slope": fit[0], "r2": fit[1]}

    # dominance margins
    for b in rep.bounds:
        emp = rep.empirical if b.regime in ("local", "endpoint_poly_log", "caffarelli") \
            else rep.empirical_global_proxy
        if emp is not None:
            rep.margins[b.regime] = b.bound - emp.value

    rep.passed, rep.reason = _judge(s, rep)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def _try(rep: VerifyReport, label: str, thunk):
    """thunk(), or None after recording its error under ``label``."""
    try:
        return thunk()
    except BrenierBoundsError as exc:
        rep.errors[label] = f"{type(exc).__name__}: {exc}"
        return None


def _judge(s: Scenario, rep: VerifyReport) -> Tuple[bool, str]:
    if rep.errors:
        return False, f"component errors: {sorted(rep.errors)}"
    for regime, margin in rep.margins.items():
        if margin < DOMINANCE_TOL:
            return False, f"dominance violated in regime {regime}: margin {margin:g}"
    if rep.residual_max is not None and rep.residual_max > RESIDUAL_TOL:
        return False, f"mass-balance residual {rep.residual_max:g} above {RESIDUAL_TOL:g}"
    for entry in rep.slacks:
        if entry["slack"] < SLACK_TOL:
            return False, f"second-variation slack {entry['slack']:g} below {SLACK_TOL:g}"
    exp = s.expected or {}
    if "lipschitz" in exp and rep.empirical is not None:
        want, tol = exp["lipschitz"]["value"], exp["lipschitz"]["tol"]
        if abs(rep.empirical.value - want) > tol:
            return False, (f"empirical Lipschitz {rep.empirical.value!r} not within "
                           f"{tol:g} of {want!r}")
    if "slope" in exp:  # its window is always fitted: a failed fit is a component error
        want, tol = exp["slope"]["value"], exp["slope"].get("tol", 0.05)
        if abs(rep.slope["slope"] - want) > tol:
            return False, f"slope {rep.slope['slope']:g} not within {tol:g} of {want:g}"
    if "bound" in exp:
        regime = exp["bound"].get("regime")
        match = [b for b in rep.bounds if regime is None or b.regime == regime]
        if not match:
            return False, f"expected a bound in regime {regime!r}"
        want, tol = exp["bound"]["value"], exp["bound"]["tol"]
        got = match[0].bound
        if abs(got - want) > tol:
            return False, f"bound {got!r} not within {tol:g} of {want!r}"
    return True, "ok"


# --------------------------------------------------------------------------
# limit sweeps
# --------------------------------------------------------------------------

@dataclass
class DSweepReport:
    """Convergence of the localized constants as the target parameter grows."""

    rows: List[dict]
    endpoint_bound: float
    passed: bool
    reason: str

    def to_dict(self) -> dict:
        return _as_dict(self)


def limit_sweep_D(V: PotentialSpec, W: PotentialSpec, n: int, d: float,
                  R: float, D_list) -> DSweepReport:
    """Tabulate the local-bound ingredients over a list of finite D values.

    Asserts the convergence the localized estimate is arranged for: the
    inverted tail radius stays bounded, the growth factor and lambda tend
    to 1, xi vanishes once D >= 2d, and the local bound approaches the
    D = infinity endpoint bound.
    """
    d = param(d)
    D_list = sorted(finite_param(x) for x in D_list)
    rows = []
    for Dv in D_list:
        rep = local_bound(V, W, n, d, Dv, R)
        c = rep.constants
        rows.append({"D": Dv, "fathi_radius": c["fathi_radius"],
                     "growth_factor": c["growth_factor"], "lambda": c["lambda"],
                     "xi": c["xi"], "bound": rep.bound})
    endpoint = local_bound(V, W, n, d, math.inf, R).bound

    radii = [r["fathi_radius"] for r in rows]
    last = rows[-1]
    checks = [
        (max(radii) <= max(3.0 * last["fathi_radius"], 10.0 * max(R, math.sqrt(d))),
         "fathi radius unbounded along the sweep"),
        (all(r["xi"] == 0.0 for r in rows if r["D"] >= 2.0 * d),
         "xi nonzero at some D >= 2d"),
        (abs(last["growth_factor"] - 1.0) <= 0.5,
         "growth factor did not head to 1"),
        (abs(last["lambda"] - 1.0) <= LIMIT_GAP_TOL,
         "lambda not within 5% of 1 at the largest D"),
        (abs(last["bound"] - endpoint) <= LIMIT_GAP_TOL * endpoint,
         "local bound not within 5% of the endpoint bound at the largest D"),
    ]
    failed = [msg for ok, msg in checks if not ok]
    return DSweepReport(rows, endpoint, not failed, "; ".join(failed) or "ok")


@dataclass
class CaffarelliSweepReport:
    """Endpoint-bound convergence to the sharp ratio in the stated limit order."""

    rows: List[dict]           # the asserted order: d grows for each fixed R
    wrong_order_rows: List[dict]  # informational: R grows for each fixed d
    sharp_value: float
    final_gap: float
    passed: bool
    reason: str

    def to_dict(self) -> dict:
        return _as_dict(self)


def limit_sweep_caffarelli(V: PotentialSpec, W: PotentialSpec, n: int,
                           d_list, R_list) -> CaffarelliSweepReport:
    """Sweep the D = infinity endpoint bound over (d, R) in the sharp limit order."""
    d_list = sorted(finite_param(x) for x in d_list)
    R_list = sorted(float(x) for x in R_list)
    bound = {(R, d): local_bound(V, W, n, d, math.inf, R).bound
             for R in R_list for d in d_list}
    # formed after the bounds, which raise VoidBound on an undeclared Hessian bound
    sharp = math.sqrt(V.hess_upper / W.hess_lower)
    rows = [{"R": R, "d": d, "bound": bound[R, d], "gap": bound[R, d] - sharp}
            for R in R_list for d in d_list]
    wrong = [{"d": d, "R": R, "bound": bound[R, d], "gap": bound[R, d] - sharp}
             for d in d_list for R in R_list]
    gap = (bound[R_list[-1], d_list[-1]] - sharp) / sharp
    monotone = not any(bound[R, d2] > bound[R, d1] + 1e-9 * max(1.0, bound[R, d1])
                       for R in R_list for d1, d2 in zip(d_list, d_list[1:]))
    checks = [
        (all(r["gap"] >= -1e-9 for r in rows), "endpoint bound below the sharp value"),
        (monotone, "bound not monotone toward the sharp value in d"),
        (gap < 0.01, f"final relative gap {gap:g} not below 1%"),
    ]
    failed = [msg for ok, msg in checks if not ok]
    return CaffarelliSweepReport(rows, wrong, sharp, gap, not failed,
                                 "; ".join(failed) or "ok")
