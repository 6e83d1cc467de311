"""Monotone transport maps between radial (and general 1D) densities.

The radial pushforward condition is a tail-mass balance: t(r) is the
radius where the target's normalized radial tail equals the source's.
Tail and head integrals come from the potentials' cached tail tables
(:func:`~brenier_bounds.potentials.tail_table`), which evaluate and invert
a whole grid of radii at once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .constants import zoom_max
from .errors import BracketFailure, DivergentIntegral, EmptyWindow
from .extparam import ExtParam, theta_value_array
from .potentials import _EXTEND_CAP, PotentialSpec, tail_table
from .potentials import TailTable  # noqa: F401  (re-exported)

_TAIL_FLOOR = 1e-280


@dataclass
class RadialMap:
    """Sampled monotone radial map with derivative and mass-balance residuals."""

    r_grid: np.ndarray
    t: np.ndarray
    t_prime: np.ndarray
    n: int
    residuals: np.ndarray

    def __post_init__(self):
        sign = np.sign(np.diff(self.r_grid))
        if np.any(np.diff(self.t) * sign <= 0):
            raise ValueError("transport map is not strictly increasing on the grid")
        if np.any(self.t_prime <= 0):
            raise ValueError("transport map derivative must be positive")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "t", "t_prime", "residual"])
            for row in zip(self.r_grid, self.t, self.t_prime, self.residuals):
                writer.writerow([repr(float(v)) for v in row])


def default_grid(d: ExtParam, points: int = 400,
                 r_min: Optional[float] = None,
                 r_max: Optional[float] = None) -> np.ndarray:
    """Log-spaced grid over [1e-3 * max{1, sqrt(d)}, 50 * max{1, sqrt(d)}] by default."""
    scale = max(1.0, math.sqrt(d.value)) if d.is_finite else 1.0
    lo = 1e-3 * scale if r_min is None else r_min
    hi = 50.0 * scale if r_max is None else r_max
    return np.logspace(math.log10(lo), math.log10(hi), points)


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of ``mask``, or its length when there is none."""
    return int(np.argmax(mask)) if np.any(mask) else mask.size


def radial_map(V: PotentialSpec, W: PotentialSpec, d: ExtParam, D: ExtParam,
               n: int, r_grid: Optional[np.ndarray] = None) -> RadialMap:
    """Monotone radial map from the (V, d) density to the (W, D) density.

    t(r) balances the masses on the side of the median that keeps its
    digits: head_W(t)/Z_W = head_V(r)/Z_V where the source tail fraction
    exceeds 1/2, tail_W(t)/Z_W = tail_V(r)/Z_V elsewhere, so no mass is
    formed as 1 - tail near the origin. The whole grid is inverted at once
    to ~1e-14 relative; the derivative comes from the differentiated
    balance in log space.
    """
    if r_grid is None:
        r_grid = default_grid(d)
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(np.diff(r_grid) <= 0):
        raise ValueError("r_grid must be positive and strictly increasing")
    tv = tail_table(V, d, n)
    tw = tail_table(W, D, n)
    tail_v = tv.tail(r_grid)
    zv, zw = tv.total, tw.total
    frac = tail_v / zv
    # the map is still well defined past the floor, but the tail mass is at
    # (or below) denormal range and the inversion loses all relative
    # precision, so stop the grid at the first such radius
    usable = _first(frac <= _TAIL_FLOOR)
    split = _first(frac[:usable] <= 0.5)
    targets = frac[split:usable] * zw
    try:
        t_tail = tw.invert(targets)
    except BracketFailure:
        # the target table now reaches its radius cap: stop at the first
        # target below the mass it resolves
        usable = split + _first(targets < tw.tail_inf)
        targets = targets[:usable - split]
        t_tail = tw.invert(targets)
    if usable < 10:
        raise DivergentIntegral(
            "tail masses underflow on nearly the whole grid; shrink r_grid")
    head_frac = tv.head(r_grid[:split]) / zv
    t_head = tw.invert(head_frac * zw, head=True)
    r = r_grid[:usable]
    t = np.concatenate((t_head, t_tail))
    resid = np.concatenate((head_frac - tw.head(t_head) / zw,
                            tw.tail(t_tail) / zw - frac[split:usable]))
    # density ratio in log space: denormal densities near the underflow
    # cut would otherwise wreck the derivative
    log_ratio = ((n - 1) * (np.log(r) - np.log(t))
                 - theta_value_array(d, V.value(r)) + theta_value_array(D, W.value(t)))
    return RadialMap(r, t, (zw / zv) * np.exp(log_ratio), n, resid)


def quantile_map_1d(V: PotentialSpec, W: PotentialSpec, d: ExtParam, D: ExtParam,
                    x_grid: Optional[np.ndarray] = None) -> RadialMap:
    """Independent 1D oracle: T = G^(-1) o F by adaptive-quadrature CDF tails.

    Never touches the tail tables; every evaluation is a fresh adaptive
    quadrature plus Brent inversion, so it cross-checks the radial solver
    on even potentials and handles general (non-even) 1D potentials.
    """
    if x_grid is None:
        x_grid = default_grid(d)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be strictly increasing")

    dens_v = _line_density(V, d)
    dens_w = _line_density(W, D)
    zv = _line_mass(dens_v, -math.inf, math.inf)
    zw = _line_mass(dens_w, -math.inf, math.inf)
    upper_v = lambda x: _line_mass(dens_v, x, math.inf) / zv
    upper_w = lambda y: _line_mass(dens_w, y, math.inf) / zw

    t = np.empty_like(x_grid)
    t_prime = np.empty_like(x_grid)
    resid = np.empty_like(x_grid)
    lo_guess = None
    for i, x in enumerate(x_grid):
        target = upper_v(x)
        t[i] = _invert_upper_tail(dens_w, zw, upper_w, target, lo_guess)
        lo_guess = t[i]
        resid[i] = upper_w(t[i]) - target
        t_prime[i] = (zw / zv) * dens_v(x) / dens_w(t[i])
    return RadialMap(x_grid, t, t_prime, 1, resid)


def _line_density(U: PotentialSpec, p: ExtParam):
    if U.is_radial:
        return lambda x: float(np.exp(-theta_value_array(
            p, np.atleast_1d(U.value(abs(x)))))[0])
    return lambda x: float(np.exp(-theta_value_array(
        p, np.atleast_1d(U.value(x))))[0])


def _line_mass(dens, a: float, b: float) -> float:
    val, _ = quad(dens, a, b, epsabs=1e-300, epsrel=1e-9, limit=400)
    return val


def _invert_upper_tail(dens, z: float, upper, target: float,
                       lo_guess: Optional[float]) -> float:
    """Solve upper(T) = target for the decreasing upper-tail function.

    One tail quadrature anchors the search point; iterates then integrate
    the density over short increments from the anchor, which is far
    cheaper than a half-line quadrature per Brent iteration.
    """
    lo = lo_guess if lo_guess is not None else -1.0
    while upper(lo) < target:
        lo = lo * 2.0 if lo < -1.0 else lo - 1.0
        if abs(lo) > _EXTEND_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
    base = upper(lo)
    if target > 1e-100 and target > 1e-6 * base:
        # g(y) = upper(y) - target with upper(y) = base - mass(lo, y)/z
        g = lambda y: base - _line_mass(dens, lo, y) / z - target
    else:
        # extreme tails: base - mass cancels below float resolution (or the
        # anchored quadrature errors no longer offset those of the target),
        # so pay for full half-line tails
        g = lambda y: upper(y) - target
    step = max(1e-2, 1e-2 * abs(lo))
    hi = lo + step
    while g(hi) > 0.0:
        step *= 4.0
        hi = lo + step
        if hi > _EXTEND_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
    # tolerances well below the oracle's 1e-7 comparison tolerance; every
    # iteration costs an adaptive quadrature, so machine precision buys
    # nothing here
    return float(brentq(g, lo, hi, xtol=1e-12, rtol=1e-9, maxiter=200))


@dataclass(frozen=True)
class LipschitzEstimate:
    """Empirical Lipschitz constant: sup over the grid of max{t'(r), t(r)/r}."""

    value: float
    argmax_r: float
    component: str  # 'radial' or 'tangential'


_SMALL_R = 1e-4


def _eigen_arrays(m: RadialMap, R: float) -> Tuple[np.ndarray, np.ndarray]:
    """Radial and tangential eigenvalues on the grid, -inf at grid points past R."""
    mask = m.r_grid <= R
    if not np.any(mask):
        raise EmptyWindow(f"no grid point at or below R={R}")
    radial = np.where(mask, m.t_prime, -np.inf)
    if m.n == 1:
        return radial, np.full_like(radial, -np.inf)
    # at the origin the radial and tangential eigenvalues coincide
    tangential = np.where(np.abs(m.r_grid) < _SMALL_R, m.t_prime, m.t / m.r_grid)
    return radial, np.where(mask, tangential, -np.inf)


def lipschitz_empirical(m: RadialMap, R: float) -> LipschitzEstimate:
    """Sup of the map's Hessian eigenvalue families over grid points with r <= R."""
    radial, tangential = _eigen_arrays(m, R)
    ir, it = int(np.argmax(radial)), int(np.argmax(tangential))
    if m.n > 1 and tangential[it] > radial[ir]:
        return LipschitzEstimate(float(tangential[it]), float(m.r_grid[it]), "tangential")
    return LipschitzEstimate(float(radial[ir]), float(m.r_grid[ir]), "radial")


@dataclass(frozen=True)
class SlackEntry:
    inequality: str
    epsilon: Optional[float]
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class SecondVariationReport:
    """Pointwise maximum-principle inequalities at the empirical Hessian maximizer."""

    maximizer_r: float
    maximizer_t: float
    eigenvalue: float
    component: str
    entries: List[SlackEntry] = field(default_factory=list)

    @property
    def min_slack(self) -> float:
        return min(e.slack for e in self.entries)


def _refine_maximizer(m: RadialMap, R: float) -> Tuple[float, float, float, str]:
    """Grid argmax of the eigenvalue within B_R plus a zoom on its two grid cells."""
    radial, tangential = _eigen_arrays(m, R)
    eig = np.maximum(radial, tangential)
    i = int(np.argmax(eig))
    comp = "tangential" if (m.n > 1 and tangential[i] > radial[i]) else "radial"
    t_interp = PchipInterpolator(m.r_grid, m.t)
    tp_interp = PchipInterpolator(m.r_grid, m.t_prime)

    def eig_at(r):
        return np.where((comp == "radial") | (r < _SMALL_R), tp_interp(r), t_interp(r) / r)

    (x,), (lam,) = zoom_max(eig_at, np.minimum(m.r_grid, R), np.array([i]), eig[i:i + 1])
    return float(x), float(t_interp(x)), float(lam), comp


def second_variation_check(m: RadialMap, V: PotentialSpec, W: PotentialSpec,
                           d: ExtParam, D: ExtParam, R: float,
                           epsilons=(0.1, 0.5, 0.9)) -> SecondVariationReport:
    """Evaluate the maximum-principle inequalities at the empirical maximizer.

    Finite d <= D < inf: the Young-parameter family of inequalities for
    each epsilon. D = inf: the endpoint inequality (1 + V/d) W'' lam^2 <= V''
    (with V/d = 0 when d = inf as well). Report-only; the caller judges
    the slacks against its tolerance.
    """
    x_bar, y_bar, lam, comp = _refine_maximizer(m, R)
    v_val = float(V.value(x_bar))
    w_val = float(W.value(y_bar))
    if comp == "radial":
        v1, v11 = float(V.deriv(x_bar)), float(V.second(x_bar))
        w1, w11 = float(W.deriv(y_bar)), float(W.second(y_bar))
    else:
        # tangential direction: first derivatives vanish for radial potentials,
        # second directional derivatives are u'(r)/r
        v1, w1 = 0.0, 0.0
        v11 = float(V.deriv(x_bar)) / x_bar
        w11 = float(W.deriv(y_bar)) / y_bar

    entries = []
    if D.is_finite:
        dd, DD = d.value, D.value
        lhs = w11 * lam * lam
        for eps in epsilons:
            rhs = ((1.0 / (1.0 - eps)) * (dd / DD) * (DD + w_val) / (dd + v_val) * v11
                   + (1.0 / (eps * (1.0 - eps)))
                   * (v1 * v1 * w1 * w1) / (w11 * (dd + v_val) ** 2))
            entries.append(SlackEntry("young_family", eps, lhs, rhs))
    else:
        ratio = v_val / d.value if d.is_finite else 0.0
        entries.append(SlackEntry("endpoint", None,
                                  (1.0 + ratio) * w11 * lam * lam, v11))
    return SecondVariationReport(x_bar, y_bar, lam, comp, entries)
