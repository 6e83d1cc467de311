"""Monotone transport maps between radial (and general 1D) densities.

The radial pushforward condition is a tail-mass balance: t(r) is the
radius where the target's normalized radial tail equals the source's.
Tail and head integrals come from the potentials' cached tail tables
(:func:`~brenier_bounds.potentials.tail_table`), which evaluate and invert
a whole grid of radii at once.
"""

from __future__ import annotations

import bisect
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
from .extparam import ExtParam, theta_value, theta_value_array
from .potentials import _EXTEND_CAP, PotentialSpec, RadialTabulated, tail_table
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

    Never touches the tail tables. The densities are evaluated in scalar
    math, the masses by QUADPACK to 1e-12 relative, and each T(x) by Brent
    on an upper tail anchored at its bracket's far end, so the map agrees
    with closed forms to ~1e-13 relative. It cross-checks the radial solver
    on even potentials and handles general (non-even) 1D potentials.
    """
    if x_grid is None:
        x_grid = default_grid(d)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be strictly increasing")

    src, dst = _Line(V, d), _Line(W, D)
    t = np.empty_like(x_grid)
    t_prime = np.empty_like(x_grid)
    resid = np.empty_like(x_grid)
    lo = hi = None
    for i, x in enumerate(x_grid.tolist()):
        target = src.upper(x)
        y, hi = _invert_upper_tail(dst, target, lo, hi)
        # the residual's tail is the next point's bracket base
        lo = (y, dst.upper(y))
        t[i], resid[i] = y, lo[1] - target
        t_prime[i] = (dst.total / src.total) * src.density(x) / dst.density(y)
    return RadialMap(x_grid, t, t_prime, 1, resid)


class _Line:
    """The line density exp(-theta_p(U(x))) in scalar math, and its masses.

    The density is smooth between its breaks: the origin, since a radial
    profile is read at |x|, and the nodes of a tabulated profile at +-r.
    QUADPACK cannot reach 1e-12 across kinks, so each mass is split at the
    breaks, and whole pieces are integrated once. The split at the origin
    also keeps a half-line quadrature that starts far left of the bulk from
    stepping over it.
    """

    def __init__(self, U: PotentialSpec, p: ExtParam):
        if U.is_radial:
            self.density = lambda x: math.exp(-theta_value(p, float(U.value(abs(x)))))
        else:
            self.density = lambda x: math.exp(-theta_value(p, float(U.value(x))))
        nodes = U.profile.r_nodes.tolist() if isinstance(U.profile, RadialTabulated) else []
        self.breaks = sorted({0.0, *nodes, *(-r for r in nodes)})
        self._pieces = {}
        self.total = self.mass(-math.inf, math.inf)

    def mass(self, a: float, b: float) -> float:
        i, j = bisect.bisect_right(self.breaks, a), bisect.bisect_left(self.breaks, b)
        if i >= j:
            return self._quad(a, b)
        inner = sum(self._piece(k) for k in range(i, j - 1))
        return self._quad(a, self.breaks[i]) + inner + self._quad(self.breaks[j - 1], b)

    def upper(self, y: float) -> float:
        """The normalized mass of [y, inf)."""
        return self.mass(y, math.inf) / self.total

    def _piece(self, k: int) -> float:
        if k not in self._pieces:
            self._pieces[k] = self._quad(self.breaks[k], self.breaks[k + 1])
        return self._pieces[k]

    def _quad(self, a: float, b: float) -> float:
        if b - a < 1e-12 * abs(b):
            # too few floats in [a, b] for QUADPACK to subdivide (it warns of
            # bad integrand behaviour); at this width Simpson's rule errs far
            # below rounding
            return (b - a) * (self.density(a) + 4.0 * self.density(0.5 * (a + b))
                              + self.density(b)) / 6.0
        return quad(self.density, a, b, epsabs=1e-300, epsrel=1e-12, limit=400)[0]


def _invert_upper_tail(line: _Line, target: float, lo, hi):
    """Solve line.upper(T) = target for the decreasing upper tail.

    ``lo`` and ``hi`` are (y, upper(y)) pairs left by the previous grid
    point, or None. Half-line tails move them until upper(lo) >= target >
    upper(hi); Brent then solves g(y) = upper(hi) + mass(y, hi)/total - target,
    so each iterate costs a short quadrature and adds two positive terms:
    nothing cancels, however small the target. Returns T and hi.
    """
    if hi is not None and hi[1] >= target:
        lo, hi = hi, None
    if lo is None:
        lo = (-1.0, line.upper(-1.0))
    while lo[1] < target:
        y = lo[0] * 2.0 if lo[0] < -1.0 else lo[0] - 1.0
        if abs(y) > _EXTEND_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
        lo = (y, line.upper(y))
    step = max(1e-2, 1e-2 * abs(lo[0]))
    while hi is None:
        y = lo[0] + step
        if y > _EXTEND_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
        u = line.upper(y)
        if u < target:
            hi = (y, u)
        else:
            lo, step = (y, u), 4.0 * step
    (y_lo, u_lo), (y_hi, u_hi) = lo, hi
    # at the ends g is the expansion's own tail values, so brentq's sign
    # test agrees with the bracket; inside it is the anchored increment
    g = lambda y: (u_lo if y == y_lo
                   else u_hi + line.mass(y, y_hi) / line.total) - target
    # every mass is good to ~1e-13 relative, so solve to machine precision
    return float(brentq(g, y_lo, y_hi, xtol=1e-15, rtol=1e-15, maxiter=200)), hi


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
