"""Potential functions (radial profiles and general 1D potentials).

A :class:`PotentialSpec` bundles a profile with its dimension and the
*declared* almost-everywhere Hessian eigenvalue bounds. The bounds are
inputs, not computed quantities: quadratic profiles get them exactly, a
tabulated profile's are checked against the exact range of its U'' on the
whole half-line (a violation raises ValueError), and a general 1D
potential relies on the caller.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketFailure, DivergentIntegral, DomainError
from .extparam import param, theta_value_array

# A table's reach: its first probe, out to _RADIUS_CAP, ends it at the first
# point past the peak where the weight is at most _DECAY_FLOOR times that
# peak; no such point is divergence.
_DECAY_FLOOR = 1e-16
_RADIUS_CAP = 1e10

# Tail-table layout (TailTable._panel_ends): Gauss-Legendre panels from
# _TABLE_R_LO_FACTOR times the parameter scale, ended on a geometric probe of
# the weight with _TABLE_POINTS_PER_DECADE points wherever log f has moved by
# another _PANEL_LOG_DROP, and at least _PANELS_PER_DECADE times per decade,
# which a power law needs; extension toward heavy tails stops at _EXTEND_CAP.
_TABLE_POINTS_PER_DECADE = 160
_PANEL_LOG_DROP = 16.0
_PANELS_PER_DECADE = 20
_TABLE_R_LO_FACTOR = 1e-9
_EXTEND_CAP = 1e30
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)

# Newton inversion stops once the residual is at the rounding level of the
# panel sums, or the step at the rounding level of the radius
_NEWTON_TOL = 4.0 * np.finfo(float).eps
_NEWTON_MAXITER = 60


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Quadratic:
    """U(x) = a |x|^2 with a > 0."""

    a: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("quadratic coefficient must be a positive real")

    def value(self, r):
        return self.a * np.square(r)

    def deriv(self, r):
        return 2.0 * self.a * np.asarray(r, dtype=float)

    def second(self, r):
        return np.full_like(np.asarray(r, dtype=float), 2.0 * self.a)


@dataclass(frozen=True, eq=False)
class RadialTabulated:
    """Radial profile sampled on a strictly increasing grid: cubic Hermite
    pieces through the node values and slopes, and past each end node a
    quadratic with that node's value u and slope s: past the last node the
    one with the one-sided U'', below a first node r0 > 0 the even one
    u + s (r^2 - r0^2) / (2 r0), whose U'' = U'/r = s/r0 and U'(0) = 0.

    Quadratic samples give back the quadratic. U' is the derivative of U,
    and U'' is linear on each piece (constant past the ends), so its range
    over the half-line is that of its one-sided values at the nodes and its
    value below the first node. The pieces are only C^1 at the nodes.
    """

    r_nodes: np.ndarray
    # column j holds the Taylor coefficients (u, u', u''/2, u'''/6) of piece
    # j at its base node: the quadratic below the first node (j = 0), the
    # cubic from node j - 1 to node j, the quadratic past the last node
    coef: np.ndarray = field(repr=False)

    @classmethod
    def from_samples(cls, r, u, du=None) -> "RadialTabulated":
        """Hermite pieces through (r, u), with slopes ``du`` or, without them,
        the slope at each node of the parabola through it and its neighbours
        (through the three end nodes at either end), and 0 at a node r = 0."""
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        if r.ndim != 1 or r.size < 4:
            raise ValueError("tabulated profile needs at least 4 radial nodes")
        if np.any(np.diff(r) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        if u.shape != r.shape or (du is not None and np.shape(du) != r.shape):
            raise ValueError("tabulated profile needs one value (and slope) per node")
        if not (np.isfinite(u).all() and (du is None or np.isfinite(du).all())):
            raise ValueError("tabulated values and slopes must be finite")
        h = np.diff(r)
        delta = np.diff(u) / h
        if du is None:
            bend = np.diff(delta) / (h[:-1] + h[1:])  # the parabola's u''/2 on each node triple
            # at a first node r = 0, slope 0: U(|x|) has no kink at the origin
            du = np.concatenate(([0.0 if r[0] == 0.0 else delta[0] - h[0] * bend[0]],
                                 delta[:-1] + h[:-1] * bend, [delta[-1] + h[-1] * bend[-1]]))
        s = np.asarray(du, dtype=float)
        c2 = (3.0 * delta - 2.0 * s[:-1] - s[1:]) / h
        c3 = (s[:-1] + s[1:] - 2.0 * delta) / (h * h)
        # below a first node r0 > 0, the even quadratic: u''/2 = s0 / (2 r0)
        first = [[u[0]], [s[0]], [c2[0] if r[0] <= 0.0 else 0.5 * s[0] / r[0]], [0.0]]
        last = [[u[-1]], [s[-1]], [c2[-1] + 3.0 * c3[-1] * h[-1]], [0.0]]
        return cls(r, np.hstack((first, [u[:-1], s[:-1], c2, c3], last)))

    def _pieces(self, r):
        """(offset from the base node, coefficient rows) of each radius's piece."""
        r = np.asarray(r, dtype=float)
        j = np.searchsorted(self.r_nodes, r, side="right")
        return r - self.r_nodes[np.maximum(j - 1, 0)], self.coef[:, j]

    def value(self, r):
        t, (c0, c1, c2, c3) = self._pieces(r)
        out = c0 + t * (c1 + t * (c2 + t * c3))
        return out if out.ndim else float(out)

    def deriv(self, r):
        t, (_, c1, c2, c3) = self._pieces(r)
        out = c1 + t * (2.0 * c2 + t * 3.0 * c3)
        return out if out.ndim else float(out)

    def second(self, r):
        t, (_, _, c2, c3) = self._pieces(r)
        out = 2.0 * c2 + 6.0 * t * c3
        return out if out.ndim else float(out)

    def second_range(self) -> tuple:
        """(min, max) of U'' over the whole line: its one-sided node values
        and its value below the first node."""
        h = np.diff(self.r_nodes)
        _, _, c2, c3 = self.coef[:, 1:-1]
        ends = np.concatenate((2.0 * c2, 2.0 * c2 + 6.0 * c3 * h, [2.0 * self.coef[2, 0]]))
        return float(ends.min()), float(ends.max())

    def tangential_range(self) -> tuple:
        """(inf, sup) of U'(r)/r over r > 0, the tangential Hessian eigenvalue
        of U(|x|) for n >= 2: its values at the nodes and at each cubic's
        interior stationary points, where r U'' = U', and its limits at 0 and
        at infinity (U'/r is monotone on the two end quadratics)."""
        b, h = self.r_nodes[:-1], np.diff(self.r_nodes)
        _, c1, c2, c3 = self.coef[:, 1:-1]
        # r U'' = U' is quadratic in t = r - b: (b + t)^2 = b^2 - (2 c2 b - c1) / (3 c3)
        with np.errstate(divide="ignore", invalid="ignore"):
            stationary = np.sqrt(b * b - (2.0 * c2 * b - c1) / (3.0 * c3))
        r = np.concatenate((self.r_nodes[self.r_nodes > 0.0],
                            stationary[(stationary > b) & (stationary < b + h)]))
        # U'(0) = 0 below a first node r0 > 0 by construction; deriv(0.0) rounds
        slope0 = 0.0 if self.r_nodes[0] > 0.0 else self.deriv(0.0)
        at0 = self.second(0.0) if slope0 == 0.0 else math.copysign(math.inf, slope0)
        values = np.concatenate((self.deriv(r) / r, [at0, 2.0 * self.coef[2, -1]]))
        return float(values.min()), float(values.max())


def _numpy_input(x):
    """x as a float array, or as a numpy float when it is a scalar: the
    callables then do scalar arithmetic, about 3x cheaper than on 0-d arrays."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x[()]


@dataclass(frozen=True, eq=False)
class OneDim:
    """General 1D potential given by callables U and U' (dimension 1 only)."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]

    def value(self, x):
        return np.asarray(self.f(_numpy_input(x)), dtype=float)

    def deriv(self, x):
        return np.asarray(self.fprime(_numpy_input(x)), dtype=float)

    def second(self, x):
        """U'' as a central difference of U', relative step 1e-5."""
        x = np.asarray(x, dtype=float)
        step = 1e-5 * np.maximum(1.0, np.abs(x))
        return (self.deriv(x + step) - self.deriv(x - step)) / (2.0 * step)


# --------------------------------------------------------------------------
# the spec bundle
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A potential with its dimension and declared Hessian eigenvalue bounds.

    ``hess_upper`` / ``hess_lower`` are None when unbounded/undeclared.
    Immutable after construction; all evaluation is reentrant. ``_memo``
    holds what is computed once per spec, so it lives exactly as long as the
    spec: the tail tables (see :func:`tail_table`), keyed by (weight kind,
    p, n), and the structural constants, keyed by ("structural", p, R).
    """

    dimension: int
    profile: object
    hess_upper: Optional[float] = None
    hess_lower: Optional[float] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if isinstance(self.profile, OneDim) and self.dimension != 1:
            raise ValueError("general 1D potentials require dimension 1")

    # -- evaluation -------------------------------------------------------
    @property
    def is_radial(self) -> bool:
        return not isinstance(self.profile, OneDim)

    def value(self, x):
        """Profile value; radial profiles take a radius, 1D profiles a signed x."""
        return self.profile.value(x)

    def deriv(self, x):
        return self.profile.deriv(x)

    def grad_norm(self, x):
        return np.abs(self.profile.deriv(x))

    def second(self, x):
        return self.profile.second(x)

    # -- constructors -----------------------------------------------------
    @classmethod
    def quadratic(cls, a: float, dimension: int) -> "PotentialSpec":
        # D^2(a|x|^2) = 2a Id exactly, both bounds
        return cls(dimension, Quadratic(a), hess_upper=2.0 * a, hess_lower=2.0 * a)

    @classmethod
    def one_dim(cls, f, fprime, hess_upper=None, hess_lower=None) -> "PotentialSpec":
        return cls(1, OneDim(f, fprime), hess_upper, hess_lower)

    @classmethod
    def tabulated(cls, r, u, du=None, dimension: int = 1,
                  hess_upper=None, hess_lower=None) -> "PotentialSpec":
        """A :class:`RadialTabulated` profile. Raises ValueError when a Hessian
        eigenvalue leaves a declared bound anywhere (up to 1e-6 relative, for
        rounding): U'', and for n >= 2 also the tangential U'(r)/r."""
        prof = RadialTabulated.from_samples(r, u, du)
        ranges = {"U''": prof.second_range()}
        if dimension >= 2:
            ranges["U'(r)/r"] = prof.tangential_range()
        for name, (lo, hi) in ranges.items():
            tol = 1e-6 * max(1.0, *(abs(x) for x in (lo, hi) if math.isfinite(x)))
            if hi > (math.inf if hess_upper is None else hess_upper + tol) or (
                    lo < (-math.inf if hess_lower is None else hess_lower - tol)):
                raise ValueError(f"declared Hessian bounds [{hess_lower}, {hess_upper}] do not "
                                 f"hold for the tabulated {name} range [{lo!r}, {hi!r}]")
        return cls(dimension, prof, hess_upper, hess_lower)

    @classmethod
    def from_csv(cls, path, dimension: int = 1,
                 hess_upper=None, hess_lower=None) -> "PotentialSpec":
        """Load a tabulated radial profile from CSV: header row, columns r,u[,du]."""
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or any(_is_number(tok) for tok in header):
                raise ValueError(f"{path}: header row required")
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                rows.append([float(c) for c in row[: 3]])
        if not rows:
            raise ValueError(f"{path}: no data rows")
        ncols = len(rows[0])
        if ncols not in (2, 3) or any(len(r) != ncols for r in rows):
            raise ValueError(f"{path}: expected 2 or 3 columns throughout")
        data = np.asarray(rows, dtype=float)
        du = data[:, 2] if ncols == 3 else None
        return cls.tabulated(data[:, 0], data[:, 1], du,
                             dimension=dimension,
                             hess_upper=hess_upper, hess_lower=hess_lower)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormConstant:
    """Normalization constant: the total mass of exp(-theta_p(U)) over R^n."""

    z: float

    def __post_init__(self):
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise DivergentIntegral(f"normalization constant not finite/positive: {self.z}")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1).

    By the recurrence V_n = (2 pi / n) V_(n-2) from V_0 = 1, V_1 = 2: exact at
    n = 1, 2 and within 16 eps relative up to n = 170. The log-gamma form
    exp(log pi^(n/2) - lgamma(n/2 + 1)) is 1 ulp off already at n = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    v = 2.0 if n % 2 else 1.0
    for k in range(2 + n % 2, n + 1, 2):
        v *= 2.0 * math.pi / k
    return v


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2], to z^-7 (z > 85)."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def log_reference_integral(n: int, p) -> float:
    """log of I_p = integral over R^n of (1 + |z|^2/p)^(-p) dz, closed form.

    log Gamma(p - n/2) - log Gamma(p) is the log of a gamma ratio up to
    p = 171, where Gamma(p) still fits a float (n <= 3: within 2.3e-15).
    Past it, Stirling's series differenced term by term keeps that log
    within a few ulps, where two log-gammas of a few hundred would cancel.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if math.isinf(p):
        return 0.5 * n * math.log(math.pi)
    if p < n:
        raise DomainError(f"reference integral requires p >= n, got p={p}, n={n}")
    h = 0.5 * n
    if p <= 171.0:
        log_ratio = math.log(math.gamma(p - h) / math.gamma(p))
    else:
        log_ratio = ((p - 0.5) * math.log1p(-h / p) + h - h * math.log(p - h)
                     + _stirling_tail(p - h) - _stirling_tail(p))
    return h * (math.log(p) + math.log(math.pi)) + log_ratio


def _radial_weight(U: PotentialSpec, p: float, n: int):
    """Vectorized integrand r^(n-1) exp(-theta_p(U(r))) on [0, inf).

    Formed as exp((n-1) log r - theta): r^(n-1) alone overflows far out in
    high dimension, and a denormal exp(-theta) would lose digits to it.
    """
    value = U.profile.value  # not U.value: tables cached on U must not hold U
    def f(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        expo = theta_value_array(p, value(r))
        if n == 1:
            return np.exp(-expo)
        with np.errstate(divide="ignore"):  # log 0 = -inf: the weight is 0 there
            return np.exp((n - 1) * np.log(r) - expo)
    return f


def _folded_weight(U: PotentialSpec, p: float):
    """Vectorized exp(-theta_p(U(x))) + exp(-theta_p(U(-x))) on [0, inf)."""
    value = U.profile.value
    def f(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (np.exp(-theta_value_array(p, value(x)))
                + np.exp(-theta_value_array(p, value(-x))))
    return f


# a far-tail sum stops once its outermost panel is below this share of it
_ROUNDING = 0.5 * np.finfo(float).eps


def _tail_rule():
    """Far-tail rule in three pieces (x, c), one row per panel:
    integral_r^inf f(s) ds ~ r * sum(c * f(r/x)) over all pieces.

    x = r/s turns ds into r dx / x^2, so c is a Gauss-Legendre weight over
    x^2. Panels are geometric in x: ratio 2^(1/64) down to x = 1/2 and
    2^(1/16) on to x = 1/4, where a near-Gaussian weight drops by many
    decades (deep in its tail, by hundreds over the first factor of 2), then
    ratio 2 down to 2^-63. The pieces end at x = 2^-8, 2^-32 and 2^-63.
    """
    ends = np.concatenate((2.0 ** (-np.arange(64) / 64.0), 2.0 ** (-np.arange(16, 33) / 16.0),
                           2.0 ** -np.arange(3.0, 64.0)))
    mid, half = 0.5 * (ends[:-1] + ends[1:]), 0.5 * (ends[:-1] - ends[1:])
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    c = half[:, None] * _GL_WEIGHTS[None, :] / (x * x)
    cuts = [78 + k for k in (8, 32)]  # the first 78 + k panels end at x = 2^-k
    return list(zip(np.split(x, cuts), np.split(c, cuts)))


_TAIL_PIECES = _tail_rule()


def tail_quadrature(f, r: float) -> float:
    """integral_r^inf f(s) ds of a decaying vectorized weight f, r > 0, in u = 1/s.

    The pieces of ``_tail_rule`` are summed outward, one call of f each,
    until the outermost panel holds less than the rounding of the sum: past
    a ratio-2 panel, a weight decaying at least like s^-2 has at most that
    panel's mass left. So f is not evaluated far beyond where it vanished,
    where a power of s can overflow.
    """
    total = 0.0
    for x, c in _TAIL_PIECES:
        panels = (f((r / x).ravel()).reshape(x.shape) * c).sum(axis=1)
        total += float(panels.sum())
        if panels[-1] <= _ROUNDING * total:
            break
    return r * total


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of x, each corrected by the rounding errors made so far.

    Every partial sum of the plain running sum is off by the two-sum errors
    of the additions before it; adding them back leaves about one rounding.
    """
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    back = s - prev
    err = (prev - (s - back)) + (x - back)
    return s + np.cumsum(err)


class TailTable:
    """Cumulative tail and head tables of one decaying weight f on [0, inf).

    ``tail(r)`` is the panel quadrature of integral_r^inf f(s) ds, read from
    the backward cumulative panel sum ``cum``; ``head(r)`` is that of
    integral_0^r f(s) ds, read from the forward sum ``head_cum``, so neither
    loses digits to ``total - other``. ``total`` is the integral over the
    whole half-line. Both take a scalar (float out) or an array, and so does
    ``invert``, which solves head and tail targets together and returns the
    masses at its roots. ``p`` sets the scale where the panels start.

    The panels are laid out by the weight itself (``_panel_ends``): dense
    where log f falls fast, as in a near-Gaussian tail, sparse along a power
    law, and with an end at each of ``breaks``, where f is only piecewise
    smooth (the nodes of a tabulated profile). One probe of f out to
    ``_RADIUS_CAP`` lays out the first stretch and ends it where f has
    decayed (``_DECAY_FLOOR``). Radii or targets past the last node
    extend the table toward heavy tails, up to ``_EXTEND_CAP``: an extension
    probes, lays out and integrates only the new stretch and appends its
    panels.
    """

    def __init__(self, f, p: float, breaks=()):
        self.f = f
        self.breaks = np.asarray(breaks, dtype=float)
        self.r_lo = _TABLE_R_LO_FACTOR * (1.0 if math.isinf(p) else max(1.0, math.sqrt(p)))
        # f at each node, from the layout probes: unknown at the origin
        self.nodes, self._f_nodes, self._panels = np.zeros(1), np.full(1, np.nan), np.zeros(0)
        probe, values = self._probe(self.r_lo, _RADIUS_CAP)
        top = int(np.argmax(values))
        if not 0.0 < values[top] < math.inf:
            raise DivergentIntegral("integrand peak is zero or non-finite")
        decayed = np.flatnonzero(values[top:] <= _DECAY_FLOOR * values[top])
        if not decayed.size:
            raise DivergentIntegral(
                f"no decay below {_DECAY_FLOOR} x peak by radius {_RADIUS_CAP:g}")
        end = top + int(decayed[0]) + 1
        ends, f_ends = self._panel_ends(probe[:end], values[:end])
        self._append(np.append(self.r_lo, ends), np.append(values[0], f_ends))

    def _probe(self, lo: float, hi: float):
        """The geometric probe lo 10^(k/``_TABLE_POINTS_PER_DECADE``) below
        hi, then hi itself, and f on it: one call."""
        step = math.log(10.0) / _TABLE_POINTS_PER_DECADE
        probe = lo * np.exp(step * np.arange(math.ceil(math.log(hi / lo) / step)))
        probe = np.append(probe[probe < hi], hi)  # an extension ends at hi exactly
        return probe, self.f(probe)

    def _panel_ends(self, probe: np.ndarray, values: np.ndarray):
        """Panel ends in (probe[0], probe[-1]], from f's values on the probe,
        and f at each end: its probe value, NaN at a break between probe points.

        A probe point ends a panel where the running sum of |delta log f|
        along the probe crosses a multiple of ``_PANEL_LOG_DROP``, or where
        the panel would otherwise span more than 1/``_PANELS_PER_DECADE`` of
        a decade; the breaks inside the probe are ends too. So are each
        interior local maximum of log f and the 4 probe points on each side
        of it: a peak about as narrow as the probe spacing moves log f too
        little between probe points for the drop rule to fire.
        """
        count = probe.size - 1
        # an underflowed weight counts as the least subnormal, not log 0
        log_f = np.log(np.maximum(values, np.finfo(float).smallest_subnormal))
        level = np.floor(np.cumsum(np.abs(np.diff(log_f))) / _PANEL_LOG_DROP)
        keep = np.diff(level, prepend=0.0) > 0.0
        stride = _TABLE_POINTS_PER_DECADE // _PANELS_PER_DECADE
        keep[stride - 1::stride] = True
        keep[-1] = True
        peaks = np.flatnonzero((log_f[1:-1] > log_f[:-2]) & (log_f[1:-1] >= log_f[2:])) + 1
        keep[np.clip(peaks[:, None] + np.arange(-4, 5), 1, count).ravel() - 1] = True
        inside = self.breaks[(self.breaks > probe[0]) & (self.breaks < probe[-1])]
        ends = np.union1d(probe[1:][keep], inside)
        f_ends = np.full(ends.size, np.nan)
        f_ends[np.searchsorted(ends, probe[1:][keep])] = values[1:][keep]
        return ends, f_ends

    def _append(self, ends: np.ndarray, f_ends: np.ndarray):
        """Integrate the panels from the last node through ``ends`` (increasing),
        with f at the ends that lack it from the same call, and refresh the far
        tail past the new end and both cumulative sums."""
        starts = np.append(self.nodes[-1], ends[:-1])
        gap = np.isnan(f_ends)
        panels, f_ends[gap] = self._quadrature(starts, ends, ends[gap])
        self._panels = np.append(self._panels, panels)
        self.nodes, self._f_nodes = np.append(self.nodes, ends), np.append(self._f_nodes, f_ends)
        self.r_max = float(ends[-1])
        self.tail_inf = tail_quadrature(self.f, self.r_max)
        self.cum = _compensated_cumsum(np.append(self._panels, self.tail_inf)[::-1])[::-1]
        self.head_cum = _compensated_cumsum(np.append(0.0, self._panels))

    def _extend(self) -> bool:
        """Grow r_max one step toward ``_EXTEND_CAP``, appending panels; False at the cap."""
        if self.r_max >= _EXTEND_CAP:
            return False
        r_max = min(self.r_max ** 1.5 if self.r_max > 10.0 else self.r_max * 100.0,
                    _EXTEND_CAP)
        self._append(*self._panel_ends(*self._probe(self.r_max, r_max)))
        return True

    def _quadrature(self, a, b, at=()):
        """Gauss-Legendre integral of f over each [a, b] (equal-length arrays),
        and f at the points ``at``, from one call of f."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        values = self.f(np.append(pts.ravel(), at))
        return half * (values[:pts.size].reshape(pts.shape) @ _GL_WEIGHTS), values[pts.size:]

    def _within(self, r, i, head, at=()):
        """head(r) where ``head``, else tail(r), for radii r inside their panels
        i, in one quadrature call, and f at ``at`` from it."""
        part, f_at = self._quadrature(np.where(head, self.nodes[i], r),
                                      np.where(head, r, self.nodes[i + 1]), at)
        return part + np.where(head, self.head_cum[i], self.cum[i + 1]), f_at

    def _evaluate(self, r, head: bool):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        while flat.size and float(np.max(flat)) > self.nodes[-1] and self._extend():
            pass
        inner = np.clip(flat, 0.0, self.nodes[-1])
        i = np.searchsorted(self.nodes, inner, side="right") - 1
        out, _ = self._within(inner, np.clip(i, 0, self.nodes.size - 2), head)
        out[flat <= 0.0] = 0.0 if head else self.total
        for k in np.flatnonzero(flat > self.nodes[-1]):  # only past _EXTEND_CAP
            rest = tail_quadrature(self.f, float(flat[k]))
            out[k] = self.head_cum[-1] + (self.tail_inf - rest) if head else rest
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    @property
    def total(self) -> float:
        return float(self.cum[0])

    def tail(self, r):
        """integral_r^inf f(s) ds for a radius or an array of radii."""
        return self._evaluate(r, head=False)

    def head(self, r):
        """integral_0^r f(s) ds for a radius or an array of radii."""
        return self._evaluate(r, head=True)

    def invert(self, target, head=False):
        """Radii where tail(r) = target, or head(r) = target where ``head`` (a
        bool, or one per target), and the table's mass evaluated at each.

        Each target is bracketed by its panel and started from a cubic Hermite
        interpolant of r in the log of the panel sums, with slopes from f at
        the panel ends. Newton steps on the log of the mass follow, one call
        of f a round for both sides; a step that leaves the bracket bisects.
        Targets past the table's resolvable masses extend it.
        """
        target = np.asarray(target, dtype=float)
        flat, side = target.ravel(), np.broadcast_to(head, target.shape).ravel()
        while np.any(beyond := np.where(side, flat > self.head_cum[-1], flat < self.tail_inf)):
            if not self._extend():
                raise BracketFailure(
                    f"{'head' if side[beyond][0] else 'tail'} inversion target beyond "
                    f"the resolvable mass at the radius cap {_EXTEND_CAP:g}")
        roots, masses = np.zeros(flat.size), np.where(side, 0.0, self.total)
        live = np.where(side, flat > 0.0, flat < self.total)
        if np.any(live):
            roots[live], masses[live] = self._newton(flat[live], side[live])
        if target.ndim == 0:
            return float(roots[0]), float(masses[0])
        return roots.reshape(target.shape), masses.reshape(target.shape)

    def _newton(self, target, head):
        # tail(r) falls and head(r) rises: g = sign (mass - target) > 0 below the root
        sign = np.where(head, -1.0, 1.0)
        i = np.clip(np.where(head, np.searchsorted(self.head_cum, target, side="right"),
                             np.searchsorted(-self.cum, -target, side="right")) - 1,
                    0, self.nodes.size - 2)
        lo, hi = self.nodes[i], self.nodes[i + 1]
        sums = np.where(head, self.head_cum[[i, i + 1]], self.cum[[i, i + 1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            # r cubic in L = log(sum), dr/dL = -sign sum / f at the panel ends;
            # else r linear in L, else the midpoint, whichever is inside first
            span = np.diff(np.log(sums), axis=0)[0]
            s = np.log(target / sums[0]) / span
            slope = -sign * sums / self._f_nodes[[i, i + 1]] * span
            tries = (lo + s * s * (3.0 - 2.0 * s) * (hi - lo)
                     + s * (1.0 - s) * ((1.0 - s) * slope[0] - s * slope[1]), lo + s * (hi - lo))
        r = 0.5 * (lo + hi)
        for x in tries[::-1]:
            r = np.where((x > lo) & (x < hi), x, r)
        # each root is its last evaluated iterate, with the mass evaluated there
        roots, masses = np.empty(target.size), np.empty(target.size)
        active = np.arange(target.size)
        for _ in range(_NEWTON_MAXITER):
            v, f = self._within(r, i, head, at=r)
            roots[active], masses[active] = r, v
            g = sign * (v - target)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = sign * np.log(v / target) * (v / f)
            lo, hi = np.where(g > 0.0, r, lo), np.where(g < 0.0, r, hi)
            # converged once the residual is at the rounding level of the panel
            # sums, the step at that of the radius, or the bracket has collapsed
            done = ((np.abs(v - target) <= _NEWTON_TOL * target)
                    | (np.abs(step) <= _NEWTON_TOL * r) | (hi - lo <= _NEWTON_TOL * r))
            new = r + step
            r = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
            if done.all():
                break
            active, target, head, sign, i, lo, hi, r = (
                x[~done] for x in (active, target, head, sign, i, lo, hi, r))
        return roots, masses


def _cached_table(U: PotentialSpec, key: tuple, f, p: float) -> TailTable:
    table = U._memo.get(key)
    if table is None:
        # a tabulated profile is only C^1 at its nodes: panels end there
        breaks = U.profile.r_nodes if isinstance(U.profile, RadialTabulated) else ()
        table = U._memo[key] = TailTable(f, p, breaks)
    return table


def tail_table(U: PotentialSpec, p: float, n: int) -> TailTable:
    """The table of r^(n-1) exp(-theta_p(U(r))), built once per (U, p, n)."""
    return _cached_table(U, ("radial", p, n), _radial_weight(U, p, n), p)


def mass_table(U: PotentialSpec, p: float) -> TailTable:
    """The table whose tail(r) is the mass of exp(-theta_p(U)) outside B_r, up to area.

    Radial potentials use the radial weight in their own dimension; a
    general 1D potential folds both half-lines onto [0, inf).
    """
    if U.is_radial:
        return tail_table(U, p, U.dimension)
    return _cached_table(U, ("folded", p, 1), _folded_weight(U, p), p)


def normalization(U: PotentialSpec, p: float) -> NormConstant:
    """Total mass of exp(-theta_p(U)) over R^n: sphere area times the table total."""
    n = U.dimension
    area = n * unit_ball_volume(n) if U.is_radial else 1.0
    return NormConstant(area * mass_table(U, param(p)).total)
