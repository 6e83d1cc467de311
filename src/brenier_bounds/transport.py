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

from .bounds import _check_map_order
from .errors import BracketFailure, DivergentIntegral, EmptyWindow
from .extparam import ExtParam, _as_extparam, theta_value, theta_value_array
from .potentials import (_EXTEND_CAP, PotentialSpec, RadialTabulated,
                         _compensated_cumsum, tail_table)
from .potentials import TailTable  # noqa: F401  (re-exported)

_TAIL_FLOOR = 1e-280
# fewest grid points a map must keep above the tail floor
MIN_MAP_POINTS = 10


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
            writer.writerows(zip(self.r_grid, self.t, self.t_prime, self.residuals))


def default_grid(d: ExtParam, points: int = 400,
                 r_min: Optional[float] = None,
                 r_max: Optional[float] = None) -> np.ndarray:
    """Log-spaced grid over [1e-3 * max{1, sqrt(d)}, 50 * max{1, sqrt(d)}] by default."""
    d = _as_extparam(d)
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
    d, D = _check_map_order(n, d, D)
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
    if usable < MIN_MAP_POINTS:
        raise DivergentIntegral(
            f"fewer than {MIN_MAP_POINTS} grid points left: past them the source tail "
            f"mass underflows or the map passes the radius cap {_EXTEND_CAP:g}; shrink r_grid")
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
    """Independent 1D oracle: T = G^(-1) o F by adaptive-quadrature masses.

    Never touches the tail tables. The densities are evaluated in scalar
    math and every mass by QUADPACK to 1e-12 relative. The source's tails
    come from one quadrature per grid interval and one half-line at each
    end, summed with compensation (``potentials._compensated_cumsum``). As in
    radial_map, the grid is split at the source median: above it T
    balances upper tails, below it lower tails, solved as the upper tails
    of the mirrored densities, so no fraction is formed as 1 - tail. Each
    T(x) is a safeguarded Newton root (:func:`_invert_upper_tail`), and the map
    agrees with closed forms to ~1e-13 relative. The grid stops where a
    tail fraction reaches 1e-280, as in radial_map. The oracle cross-checks
    the radial solver on even potentials and handles general (non-even)
    1D potentials.
    """
    d, D = _as_extparam(d), _as_extparam(D)
    if x_grid is None:
        x_grid = default_grid(d)
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0 or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be non-empty and strictly increasing")

    src, dst = _Line(V, d), _Line(W, D)
    x = x_grid.tolist()
    gaps = [src.mass(a, b) for a, b in zip(x, x[1:])]
    right = gaps + [src.mass(x[-1], math.inf)]
    upper = _compensated_cumsum(np.array(right[::-1]))[::-1] / src.total
    split = _first(upper <= 0.5)
    left = [src.mass(-math.inf, x[0])] + gaps[:split - 1] if split else []
    lower = _compensated_cumsum(np.array(left, dtype=float)) / src.total
    # at the floor the fractions near denormal range, where the roots lose
    # all relative precision, so the grid stops there, on either side
    lo, hi = _first(lower > _TAIL_FLOOR), _first(upper <= _TAIL_FLOOR)
    if hi - lo < min(MIN_MAP_POINTS, len(x)):
        raise DivergentIntegral(
            "tail masses underflow on nearly the whole grid; shrink x_grid")
    rho = [src.density(v) / src.total for v in x]
    t, t_prime, resid = _invert_upper_tail(dst, x[split:hi], upper[split:hi].tolist(),
                                           rho[split:hi])
    if lo < split:
        mirror = dst if W.is_radial else _Line(W, D, mirrored=True)
        side = _invert_upper_tail(mirror, [-v for v in x[lo:split][::-1]],
                                  lower[lo:][::-1].tolist(), rho[lo:split][::-1])
        t = [-v for v in side[0][::-1]] + t
        t_prime, resid = side[1][::-1] + t_prime, side[2][::-1] + resid
    return RadialMap(x_grid[lo:hi], np.array(t), np.array(t_prime), 1, np.array(resid))


class _Line:
    """The line density exp(-theta_p(U(x))) in scalar math, and its masses.

    ``mirrored`` reads U at -x, so upper tails of the mirrored line are
    lower tails of U's. The density is smooth between its breaks: the
    origin, since a radial profile is read at |x|, and the nodes of a
    tabulated profile at +-r. QUADPACK cannot reach 1e-12 across kinks, so
    each mass is split at the breaks, and whole pieces are integrated once.
    The split at the origin also keeps a half-line quadrature that starts
    far left of the bulk from stepping over it.
    """

    def __init__(self, U: PotentialSpec, p: ExtParam, mirrored: bool = False):
        # the oracle's QUADPACK loads scipy on first use, not with the package
        from scipy.integrate import quad
        self._quadpack = quad
        value = U.value
        if U.is_radial:
            self.density = lambda x: math.exp(-theta_value(p, float(value(abs(x)))))
        elif mirrored:
            self.density = lambda x: math.exp(-theta_value(p, float(value(-x))))
        else:
            self.density = lambda x: math.exp(-theta_value(p, float(value(x))))
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
        return self._quadpack(self.density, a, b, epsabs=1e-300, epsrel=1e-12,
                              limit=400)[0]


_HI_STEPS = 8.0   # a new hi lies this many predicted steps past the last root


def _invert_upper_tail(line: _Line, x: List[float], targets: List[float],
                       rho: List[float]) -> Tuple[List[float], List[float], List[float]]:
    """Solve line.upper(t_i) = targets[i] along an increasing grid x.

    The targets decrease along x, and rho[i] is the normalized source
    density at x[i], so t' = rho / (density(t)/Z). Each tail is anchored at
    a point hi beyond the root, upper(y) = upper(hi) + mass(y, hi)/Z: two
    positive terms, so nothing cancels however small the target. hi comes
    from a half-line quadrature and serves the following points for as long
    as it lies beyond their roots. Newton on g(y) = upper(y) - target, with
    g' = -density(y)/Z, starts at t[i-1] + t'[i-1] (x[i] - x[i-1]) and
    bisects whenever a step leaves the bracket; iterates below the target
    become hi, so the quadratures shrink with the steps. The root's anchored
    tail gives its residual and is the next point's lower bracket end.
    Returns the lists t, t' and residuals.
    """
    t, t_prime, resid = [], [], []
    lo = hi = None                        # (y, upper(y)) pairs
    for i, target in enumerate(targets):
        start, step = None, 1.0
        if t:
            start = t[-1] + t_prime[-1] * (x[i] - x[i - 1])
            step = _HI_STEPS * (start - t[-1])
        if hi is not None and hi[1] >= target:
            lo, hi = hi, None
        elif lo is not None and lo[1] < target:
            # the targets tie to rounding: the previous root is past this one
            lo, hi = None, lo
        lo, hi = _widen(line, target, lo, hi, step)
        y, u, f = _newton(line, target, lo, hi, start)
        lo = (y, u)
        t.append(y)
        t_prime.append(rho[i] / f)
        resid.append(u - target)
    return t, t_prime, resid


def _widen(line: _Line, target: float, lo, hi, step: float):
    """Half-line tails move (lo, hi) out until upper(lo) >= target > upper(hi).

    With neither end known the first trial is the origin. Each trial lies
    ``step`` past the known end, and the step grows fourfold per trial.
    """
    if lo is None and hi is None:
        lo = (0.0, line.upper(0.0))
        if lo[1] < target:
            lo, hi = None, lo
    while lo is None or hi is None:
        y = hi[0] - step if lo is None else lo[0] + step
        if abs(y) > _EXTEND_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
        u = line.upper(y)
        if u >= target:
            lo = (y, u)
        else:
            hi = (y, u)
        step *= 4.0
    return lo, hi


def _newton(line: _Line, target: float, lo, hi, y: Optional[float]):
    """Safeguarded Newton root of upper(y) = target in the bracket (lo, hi).

    Stops once the step or the bracket is below 1e-15 relative, the
    bracket holds less than 1e-16 of the target's mass by its ends'
    anchored tails (a root on a bracket end, as at the origin), or the
    residual is below 1e-12 of the target and the step no longer halves
    (the quadratures' rounding floor). The bracket's mass is read from its
    ends because the density at the iterate underflows where a wide first
    bracket puts its midpoint far out in a tail. Returns the
    last iterate with its anchored tail and normalized density.
    """
    z = line.total
    (a, ua), (b, ub) = lo, hi
    last = math.inf
    for _ in range(200):
        if y is None or y >= b:
            y, last = 0.5 * (a + b), math.inf
        elif y < a:
            y = a               # restart from the lower end
        u = ub + line.mass(y, b) / z
        f = line.density(y) / z
        if u >= target:
            a, ua = y, u
        else:
            b, ub = y, u
        step = (u - target) / f if f > 0.0 else math.inf
        if (abs(step) <= 1e-15 * abs(y) or b - a <= 1e-15 * max(abs(a), abs(b))
                or ua - ub <= 1e-16 * target
                or (abs(u - target) <= 1e-12 * target and abs(step) >= 0.5 * last)):
            return y, u, f
        last = abs(step)
        y += step
    raise RuntimeError(f"quantile Newton did not converge for target {target!r}")


@dataclass(frozen=True)
class LipschitzEstimate:
    """Empirical Lipschitz constant: sup over the grid of max{t'(r), t(r)/r}."""

    value: float
    argmax_r: float
    component: str  # 'radial' or 'tangential'


_SMALL_R = 1e-4
# the Young parameters of the finite-D inequality family
_EPSILONS = (0.1, 0.5, 0.9)


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


def second_variation_check(m: RadialMap, V: PotentialSpec, W: PotentialSpec,
                           d: ExtParam, D: ExtParam, R: float) -> SecondVariationReport:
    """Evaluate the maximum-principle inequalities at the empirical maximizer.

    The maximizer is the grid point where :func:`lipschitz_empirical` finds
    its sup over r <= R, with the eigenvalue and component found there; t
    is the map's value at that node, so nothing is interpolated.

    Finite d <= D < inf: the Young-parameter family of inequalities for
    each epsilon. D = inf: the endpoint inequality (1 + V/d) W'' lam^2 <= V''
    (with V/d = 0 when d = inf as well). Report-only; the caller judges
    the slacks against its tolerance.
    """
    d, D = _as_extparam(d), _as_extparam(D)
    est = lipschitz_empirical(m, R)
    x_bar, lam, comp = est.argmax_r, est.value, est.component
    y_bar = float(m.t[np.searchsorted(m.r_grid, x_bar)])
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
        for eps in _EPSILONS:
            rhs = ((1.0 / (1.0 - eps)) * (dd / DD) * (DD + w_val) / (dd + v_val) * v11
                   + (1.0 / (eps * (1.0 - eps)))
                   * (v1 * v1 * w1 * w1) / (w11 * (dd + v_val) ** 2))
            entries.append(SlackEntry("young_family", eps, lhs, rhs))
    else:
        ratio = v_val / d.value if d.is_finite else 0.0
        entries.append(SlackEntry("endpoint", None,
                                  (1.0 + ratio) * w11 * lam * lam, v11))
    return SecondVariationReport(x_bar, y_bar, lam, comp, entries)
