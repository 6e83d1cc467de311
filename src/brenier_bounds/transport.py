"""Monotone transport maps between radial (and general 1D) densities.

The radial pushforward condition is a tail-mass balance: t(r) is the
radius where the target's normalized radial tail equals the source's.
Tail and head integrals come from the potentials' cached tail tables
(:func:`~brenier_bounds.potentials.tail_table`), which evaluate and invert
a whole grid of radii at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .bounds import _check_map_order, _check_order
from .errors import BracketFailure, DivergentIntegral, EmptyWindow
from .extparam import param, theta_value_array
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


def default_grid(d: float, points: int = 400,
                 r_min: Optional[float] = None,
                 r_max: Optional[float] = None) -> np.ndarray:
    """Log-spaced grid over [1e-3 * max{1, sqrt(d)}, 50 * max{1, sqrt(d)}] by default."""
    d = param(d)
    scale = 1.0 if math.isinf(d) else max(1.0, math.sqrt(d))
    lo = 1e-3 * scale if r_min is None else r_min
    hi = 50.0 * scale if r_max is None else r_max
    return np.logspace(math.log10(lo), math.log10(hi), points)


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of ``mask``, or its length when there is none."""
    return int(np.argmax(mask)) if np.any(mask) else mask.size


def radial_map(V: PotentialSpec, W: PotentialSpec, d: float, D: float,
               n: int, r_grid: Optional[np.ndarray] = None) -> RadialMap:
    """Monotone radial map from the (V, d) density to the (W, D) density.

    t(r) balances the masses on the side of the median that keeps its
    digits: head_W(t)/Z_W = head_V(r)/Z_V where the source tail fraction
    exceeds 1/2, tail_W(t)/Z_W = tail_V(r)/Z_V elsewhere, so no mass is
    formed as 1 - tail near the origin. Both sides of the whole grid are
    inverted in one ``TailTable.invert`` call, to ~1e-14 relative, and the
    residuals come from the masses that call evaluated at the roots; the
    derivative comes from the differentiated balance in log space. The
    grid keeps the points whose head and tail fractions both exceed 1e-280.
    """
    d, D = _check_map_order(n, d, D)
    if r_grid is None:
        r_grid = default_grid(d)
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(np.diff(r_grid) <= 0):
        raise ValueError("r_grid must be positive and strictly increasing")
    tv = tail_table(V, d, n)
    tw = tail_table(W, D, n)
    zv, zw = tv.total, tw.total
    frac = tv.tail(r_grid) / zv
    # the map is still well defined past the floor, but the tail mass is at
    # (or below) denormal range and the inversion loses all relative
    # precision, so stop the grid at the first such radius; likewise start it
    # at the first head fraction above the floor
    usable = _first(frac <= _TAIL_FLOOR)
    split = _first(frac[:usable] <= 0.5)
    head_frac = tv.head(r_grid[:split]) / zv
    start = _first(head_frac > _TAIL_FLOOR)
    fracs = np.append(head_frac[start:], frac[split:usable])
    head = np.arange(start, usable) < split
    try:
        t, mass = tw.invert(fracs * zw, head)
    except BracketFailure:
        # the target table now reaches its radius cap: stop at the first
        # tail target below the mass it resolves
        usable = split + _first(frac[split:usable] * zw < tw.tail_inf)
        fracs, head = fracs[:usable - start], head[:usable - start]
        t, mass = tw.invert(fracs * zw, head)
    if usable - start < MIN_MAP_POINTS:
        raise DivergentIntegral(
            f"fewer than {MIN_MAP_POINTS} grid points left: below them the source head "
            f"mass underflows, past them its tail mass does or the map passes the radius "
            f"cap {_EXTEND_CAP:g}; shrink r_grid")
    r = r_grid[start:usable]
    resid = np.where(head, fracs - mass / zw, mass / zw - fracs)
    # density ratio in log space: denormal densities near the underflow
    # cut would otherwise wreck the derivative
    log_ratio = ((n - 1) * (np.log(r) - np.log(t))
                 - theta_value_array(d, V.value(r)) + theta_value_array(D, W.value(t)))
    return RadialMap(r, t, (zw / zv) * np.exp(log_ratio), n, resid)


def quantile_map_1d(V: PotentialSpec, W: PotentialSpec, d: float, D: float,
                    x_grid: Optional[np.ndarray] = None) -> RadialMap:
    """Independent 1D oracle: T = G^(-1) o F by adaptive-quadrature masses.

    Never touches the tail tables. Every mass is an adaptive Gauss-Kronrod
    quadrature to 1e-12 relative (:meth:`_Line.masses`) of a density
    evaluated in array calls. The source's masses at all grid points come
    from one call over every grid interval and the half-line at each end,
    summed with compensation (``potentials._compensated_cumsum``). T
    balances masses on the side of the median that keeps its digits, so no
    fraction is formed as 1 - tail: upper tails above the source median,
    lower tails below it, solved as upper tails of the mirrored target. When
    both potentials are even, both medians sit at the origin, and between
    the source's quartiles T balances the heads mass(0, |x|) instead. All
    roots on a line are solved together (:func:`_invert`), and the map
    agrees with closed forms to ~1e-14 relative. The grid stops where a tail
    fraction reaches 1e-280, as in radial_map. The oracle cross-checks the
    radial solver on even potentials and handles general (non-even) 1D
    potentials.
    """
    d, D = param(d), param(D)
    if x_grid is None:
        x_grid = default_grid(d)
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0 or np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be non-empty and strictly increasing")

    src, dst = _Line(V, d), _Line(W, D)
    # the grid intervals, then the half-lines beyond the last and the first point
    m = src.masses(np.append(x[:-1], [x[-1], -math.inf]), np.append(x[1:], [math.inf, x[0]]))
    upper = _compensated_cumsum(m[-2::-1])[::-1]
    lower = _compensated_cumsum(np.append(m[-1], m[:-2]))
    frac = upper / src.total
    # at the floor the fractions near denormal range, where the roots lose
    # all relative precision, so the grid stops there, on either side
    lo, hi = _first(lower / src.total > _TAIL_FLOOR), _first(frac <= _TAIL_FLOOR)
    if hi - lo < min(MIN_MAP_POINTS, x.size):
        raise DivergentIntegral(
            "tail masses underflow on nearly the whole grid; shrink x_grid")
    if V.is_radial and W.is_radial:
        # both medians sit at the origin, and between the quartiles the
        # heads mass(0, |x|) keep the digits that tails near Z/2 lose
        s1, s2 = _first(frac <= 0.75), _first(frac <= 0.25)
    else:
        s1 = s2 = _first(frac <= 0.5)
    heads = src.masses(0.0, np.abs(x[s1:s2])) if s2 > s1 else np.empty(0)
    # the targets in the target's own mass units: where V = W they are the
    # source's masses bit for bit, and no division rounds them
    scale = dst.total / src.total
    problems = [(lower[lo:s1] * scale, math.inf), (heads * scale, 0.0),
                (upper[s2:hi] * scale, math.inf)]
    # lower tails are the mirrored line's upper tails
    below, above = _invert(dst.mirrored(), problems[:1]), _invert(dst, problems[1:])
    y, u, f = (np.append(p, q) for p, q in zip(below, above))
    targets = np.concatenate([t for t, _ in problems])
    # lower tails and heads are solved at -t, or at -|t|
    sign = np.concatenate((np.full(s1 - lo, -1.0), -np.sign(x[s1:s2]), np.ones(hi - s2)))
    rho = src.density(x[lo:hi]) / src.total
    return RadialMap(x[lo:hi], sign * y, rho * dst.total / f, 1, (u - targets) / dst.total)


# QUADPACK's 15-point Kronrod rule on [-1, 1] (qk15); its 7-point Gauss rule
# takes the odd nodes
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_XK = np.concatenate((np.negative(_XGK), [0.0], _XGK[::-1]))
_WK = np.concatenate((_WGK, [0.209482141084727828012999174891714], _WGK[::-1]))
_WG = np.polynomial.legendre.leggauss(7)[1]
_EPS = np.finfo(float).eps
_MASS_RTOL = 1e-12
# the absolute error floor, times the line's total: far below the tail floor,
# or pieces in the denormal range would bisect without end
_MASS_ATOL = 1e-300
_MAX_BISECTIONS = 60
# the mode of a non-radial line is read off its log-density at these radii, both signs
_MODE_PROBE = np.geomspace(1e-3, 1e6, 361)
# while the argmax's neighbours lie more than _MODE_DROP below it in log-density,
# the probe zooms in between them: up to _MODE_ZOOMS rounds of _ZOOM_POINTS points
_MODE_DROP, _MODE_ZOOMS, _ZOOM_POINTS = 1.0, 20, 33


class _Line:
    """The line density exp(-theta_p(U(x))) in array calls, and its masses.

    The density is smooth between its breaks: the origin, since a radial
    profile is read at |x|, and the nodes of a tabulated profile at +-r. A
    non-radial line also breaks at its mode, read off a probe of the
    log-density (which does not underflow) over +-geometric radii: the
    probe's argmax and its neighbours, so that no piece steps over a narrow
    peak far from the origin. Where the neighbours lie far below the argmax,
    the peak may sit between probe points: the probe zooms in between them,
    breaking at each round's argmax and neighbours, until they lie within
    the peak. The quadrature cannot reach 1e-12 across kinks, so every mass
    is split at the breaks. :meth:`mirrored` reads U at -x, so upper tails of
    the mirrored line are lower tails of U's.
    """

    def __init__(self, U: PotentialSpec, p: float):
        self._value, self._p, self._radial, self._sign = U.value, p, U.is_radial, 1.0
        nodes = U.profile.r_nodes if isinstance(U.profile, RadialTabulated) else []
        breaks = [np.negative(nodes), [0.0], nodes]
        self.mode = 0.0
        if not U.is_radial:
            probe = np.concatenate((-_MODE_PROBE[::-1], [0.0], _MODE_PROBE))
            for _ in range(_MODE_ZOOMS):
                f = self.log_density(probe)
                k = int(np.argmax(f))
                near = slice(max(k - 1, 0), k + 2)
                breaks.append(probe[near])
                if f[near].min() >= f[k] - _MODE_DROP:
                    break
                probe = np.linspace(probe[near][0], probe[near][-1], _ZOOM_POINTS)
            self.mode = float(probe[k])
        self.breaks = np.unique(np.concatenate(breaks))
        self._atol = _MASS_ATOL
        self.total = float(self.masses(-math.inf, math.inf))
        self._atol = _MASS_ATOL * self.total

    def mirrored(self) -> "_Line":
        """The same line read at -x."""
        line = copy.copy(self)
        line._sign, line.mode, line.breaks = -self._sign, -self.mode, -self.breaks[::-1]
        return line

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -theta_value_array(self._p, self._value(np.abs(x) if self._radial
                                                       else self._sign * x))

    def density(self, x) -> np.ndarray:
        return np.exp(self.log_density(x))

    def masses(self, a, b) -> np.ndarray:
        """Masses of the intervals [a, b], a <= b elementwise; either end may be infinite.

        Each interval is split at the breaks inside it, and its pieces are
        bisected until each piece's error estimate is within 1e-12 of its
        interval's mass (or the absolute floor); a piece too narrow to bisect
        is kept. Every round evaluates the density once, on all pieces still
        open. A half-line [c, inf) is integrated in t over (0, 1] with
        x = c + s(1 - t)/t and s = max(1, |c|), so its nodes scale with c and
        a heavy tail that starts far out still converges; (-inf, c] likewise.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        shape, a, b = a.shape, a.ravel(), b.ravel()
        # interval i's pieces end at a[i], the breaks inside it, and b[i];
        # piece k of its count starts at breaks[first + k - 1] when k > 0
        first = np.searchsorted(self.breaks, a, side="right")
        count = np.maximum(np.searchsorted(self.breaks, b, side="left") - first, 0) + 1
        owner = np.repeat(np.arange(a.size), count)
        k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        ends = np.append(self.breaks, 0.0)      # (the pad is read only to be discarded)
        lo = np.where(k == 0, a[owner], ends[first[owner] + k - 1])
        hi = np.where(k == count[owner] - 1, b[owner], ends[first[owner] + k])
        side = np.isposinf(hi) * 1.0 - np.isneginf(lo)
        c = np.where(side > 0, lo, hi)
        # rows: the t range, then a half-line's finite end and signed scale
        pieces = np.stack((np.where(side != 0, 0.0, lo), np.where(side != 0, 1.0, hi),
                           c, side * np.maximum(1.0, np.abs(c))))
        out = np.zeros(a.size)
        for _ in range(_MAX_BISECTIONS):
            val, err = self._kronrod(*pieces)
            est = out + np.bincount(owner, val, a.size)
            tl, th = pieces[0], pieces[1]
            bad = ((err > np.maximum(self._atol, _MASS_RTOL * np.abs(est))[owner])
                   & (th - tl > 16.0 * _EPS * np.maximum(np.abs(tl), np.abs(th))))
            out += np.bincount(owner, np.where(bad, 0.0, val), a.size)
            if not bad.any():
                return out.reshape(shape)
            pieces, owner, n = np.tile(pieces[:, bad], 2), np.tile(owner[bad], 2), bad.sum()
            pieces[1, :n] = pieces[0, n:] = 0.5 * (pieces[0, :n] + pieces[1, :n])
        raise DivergentIntegral("line quadrature did not converge: is the density integrable?")

    def _kronrod(self, tl, th, c, step):
        """Kronrod integrals over the pieces [tl, th] and QUADPACK's error estimates.

        A piece with a non-zero ``step`` lies on a half-line, x = c + step (1 - t)/t.
        """
        half = 0.5 * (th - tl)
        t = (0.5 * (tl + th))[:, None] + half[:, None] * _XK
        x, jac = t, 1.0
        tail = step != 0.0
        if tail.any():
            x, jac, tt = t.copy(), np.ones_like(t), t[tail]
            x[tail] = c[tail, None] + step[tail, None] * ((1.0 - tt) / tt)
            jac[tail] = np.abs(step[tail, None]) / (tt * tt)
        g = self.density(x.ravel()).reshape(x.shape) * jac
        resk = g @ _WK
        err = np.abs(resk - g[:, 1::2] @ _WG) * half
        resasc = (np.abs(g - 0.5 * resk[:, None]) @ _WK) * half
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0.0)
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
        return resk * half, np.maximum(err, 50.0 * _EPS * (np.abs(g) @ _WK) * half)


def _invert(line: _Line, problems) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots y of mass(y, end) = target on the line, for every (targets, end) problem at once.

    ``end`` is inf (upper tails) or a finite point past every root (heads).
    Returns the roots, their anchored masses and their densities, in the
    problems' order.
    """
    target = np.concatenate([t for t, _ in problems])
    if target.size == 0:
        return target, target, target
    brackets = [_ladder(line, t, end) for t, end in problems if t.size]
    return _newton(line, target, *(np.concatenate(v) for v in zip(*brackets)))


# the ladder's radii from the mode: 2^(k/2) from 2^-20 out to 2^16, squared
# while the ladder is short of a target, up to 2^99 (below _EXTEND_CAP)
_LADDER_FROM, _LADDER_TO, _LADDER_CAP = -20, 16, 99
# a bracket whose tail falls by more than e^16 is cut in 8
_STEEP = math.exp(16.0)
_CUTS = np.arange(1, 8) / 8.0


def _ladder(line: _Line, targets: np.ndarray, end: float):
    """Brackets a < b with mass(a, end) >= target > mass(b, end), and those masses.

    The ladder steps out from the line's mode on both sides by geometric
    radii (ratio sqrt 2), up to ``end``. Its masses are summed from the end,
    with compensation, over the masses of its gaps and of its last point's
    interval to the end. A target's bracket is a ladder gap. Where the mass
    falls by more than e^16 across a bracket, or underflows at its upper end,
    log-mass interpolation cannot start Newton, so the bracket is cut in 8,
    each new point's mass anchored at the bracket's upper end, until no
    bracket is that steep. A target of zero (a head at the origin) gets the
    bracket (end, end).
    """
    top = _LADDER_TO
    while True:
        r = 2.0 ** (np.arange(2 * _LADDER_FROM, 2 * top + 1) / 2.0)
        y = line.mode + np.concatenate((-r[::-1], [0.0], r))
        y = y[y < end]
        u = _compensated_cumsum(line.masses(y, np.append(y[1:], end))[::-1])[::-1]
        if u[0] >= targets.max() and (end < math.inf or u[-1] < targets.min()):
            break
        if top == _LADDER_CAP:
            raise BracketFailure("quantile bracket ran past the radius cap")
        top = min(2 * top, _LADDER_CAP)
    if end < math.inf:
        y, u = np.append(y, end), np.append(u, 0.0)
    while True:
        k = np.minimum(np.searchsorted(-u, -targets, side="right"), u.size - 1)
        zero = targets == 0.0
        a, ua = np.where(zero, end, y[k - 1]), np.where(zero, 0.0, u[k - 1])
        b, ub = y[k], u[k]
        steep = (ua > _STEEP * ub) & (b - a > 1e-15 * np.maximum(np.abs(a), np.abs(b)))
        if not steep.any():
            return a, ua, b, ub
        g = np.unique(k[steep])
        cut = y[g - 1, None] + (y[g] - y[g - 1])[:, None] * _CUTS
        u_cut = u[g, None] + line.masses(cut, y[g, None])
        order = np.argsort(np.append(y, cut), kind="stable")
        y, u = np.append(y, cut)[order], np.append(u, u_cut)[order]


def _log_interpolate(a, ua, b, ub, target):
    """Where log u, linear between (a, ua) and (b, ub), meets the target; the midpoint if ub = 0."""
    w = np.full(a.shape, 0.5)
    pos = ub > 0.0
    w[pos] = np.log(ua[pos] / target[pos]) / np.log(ua[pos] / ub[pos])
    return a + w * (b - a)


def _newton(line: _Line, target: np.ndarray, a, ua, b, ub):
    """Safeguarded Newton roots of u(y) = target in the brackets (a, b), all at once.

    u(y) is the mass from y to the problem's end, ub that from b. Each round
    anchors every open root's mass at its bracket's upper end,
    u = ub + mass(y, b): two positive terms, so nothing cancels however
    small the target. One masses call serves all open roots, and one
    density call gives f = -u'(y). Iterates below the target become b, so
    the masses shrink with the steps. The step is Newton's on log u,
    y + log(u/target) u/f, which converges on Gaussian tails as on power
    laws. The first iterate, and a step that leaves the bracket,
    interpolate log u between the bracket's ends; a second such step in a
    row bisects.

    A root stops once the step or the bracket is below 1e-15 relative, the
    bracket holds less than 1e-16 of the target's mass by its ends'
    anchored masses (a root on a bracket end, as at the origin), or the
    residual is below 1e-12 of the target and the step no longer halves
    (the quadratures' rounding floor). Returns the last iterates with their
    anchored masses and densities.
    """
    n = target.size
    y_out, u_out, f_out = np.empty(n), np.empty(n), np.empty(n)
    open_ = np.arange(n)
    y = _log_interpolate(a, ua, b, ub, target)
    last, fell_back = np.full(n, np.inf), np.zeros(n, dtype=bool)
    for _ in range(200):
        u = ub + line.masses(y, b)
        f = line.density(y)
        below = u < target
        a, ua = np.where(below, a, y), np.where(below, ua, u)
        b, ub = np.where(below, y, b), np.where(below, u, ub)
        # a density far below the tail leaves no usable Newton step
        newton = (u > 0.0) & (f > 1e-300 * u)
        step = np.full(y.shape, np.inf)
        step[newton] = np.log(u[newton] / target[newton]) * (u[newton] / f[newton])
        size = np.abs(step)
        done = ((size <= 1e-15 * np.abs(y)) | (b - a <= 1e-15 * np.maximum(np.abs(a), np.abs(b)))
                | (ua - ub <= 1e-16 * target)
                | (newton & (np.abs(u - target) <= 1e-12 * target) & (size >= 0.5 * last)))
        y_out[open_[done]], u_out[open_[done]], f_out[open_[done]] = y[done], u[done], f[done]
        keep = ~done
        if not keep.any():
            return y_out, u_out, f_out
        open_, target, a, ua, b, ub, y, step, size, fell_back = (
            v[keep] for v in (open_, target, a, ua, b, ub, y, step, size, fell_back))
        y = y + step
        out = ~((y > a) & (y < b))
        y = np.where(out & ~fell_back, _log_interpolate(a, ua, b, ub, target), y)
        y = np.where(out & fell_back, 0.5 * (a + b), y)
        last, fell_back = np.where(out, np.inf, size), out
    raise RuntimeError("quantile Newton did not converge")


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
                           d: float, D: float, R: float) -> SecondVariationReport:
    """Evaluate the maximum-principle inequalities at the empirical maximizer.

    The maximizer is the grid point where :func:`lipschitz_empirical` finds
    its sup over r <= R, with the eigenvalue and component found there; t
    is the map's value at that node, so nothing is interpolated.

    Finite d <= D < inf: the Young-parameter family of inequalities for
    each epsilon. D = inf: the endpoint inequality (1 + V/d) W'' lam^2 <= V''
    (with V/d = 0 when d = inf as well). Report-only; the caller judges
    the slacks against its tolerance. Raises :class:`InvalidOrder` unless
    n <= d <= D, as the bounds do.
    """
    d, D = _check_order(m.n, d, D)
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
    if not math.isinf(D):
        lhs = w11 * lam * lam
        for eps in _EPSILONS:
            rhs = ((1.0 / (1.0 - eps)) * (d / D) * (D + w_val) / (d + v_val) * v11
                   + (1.0 / (eps * (1.0 - eps)))
                   * (v1 * v1 * w1 * w1) / (w11 * (d + v_val) ** 2))
            entries.append(SlackEntry("young_family", eps, lhs, rhs))
    else:
        ratio = 0.0 if math.isinf(d) else v_val / d
        entries.append(SlackEntry("endpoint", None,
                                  (1.0 + ratio) * w11 * lam * lam, v11))
    return SecondVariationReport(x_bar, y_bar, lam, comp, entries)
