"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

computed by a log-spaced grid scan (U, U' once per point) plus a zoom around
each argmax; R = inf adds one annulus [R/2, R] per doubling, with convergence
detection (closed form for quadratic profiles). At p = infinity the values
are conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionUndefined, DomainError, NoConvergence
from .extparam import ExtParam
from .potentials import PotentialSpec, Quadratic

_SCAN_POINTS = 2048
_ANNULUS = np.geomspace(0.5, 1.0, 64)  # the annulus [R/2, R] in units of R
_ZOOM_ROUNDS = 4
_ZOOM_STEPS = np.linspace(0.0, 1.0, 33)  # sample positions within a zoom bracket
_WINDOW_REL_TOL = 1e-8
_MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class StructuralConstants:
    """The (c0, C0, C1) bundle of a potential at a given (p, R)."""

    c0: float
    C0: float
    C1: float
    p: ExtParam
    radius: float  # math.inf for the global constants

    def __post_init__(self):
        if not (self.c0 > 0.0):
            raise ValueError("c0 must be positive")
        if self.c0 > self.C0 * (1.0 + 1e-12):
            raise ValueError("c0 <= C0 violated")


@dataclass(frozen=True)
class GlobalAggregates:
    """Parameter-uniform aggregates built from the constants at p = n."""

    qU: float   # max{1, C0_n} / min{1, c0_n}
    cU: float   # min{1, c0_n}   (source side)
    CU: float   # max{1, C0_n}   (target side)
    LU: float   # global C1 at p = n

    def __post_init__(self):
        if self.qU < 1.0 - 1e-12 or self.cU > 1.0 + 1e-12 or self.CU < 1.0 - 1e-12:
            raise ValueError("aggregate invariants violated")


def _scan_grid(q: float, R: float) -> np.ndarray:
    lo = 1e-6 * max(1.0, math.sqrt(q))
    if R <= lo:
        return np.array([0.0, R])
    grid = np.logspace(math.log10(lo), math.log10(R), _SCAN_POINTS)
    grid[-1] = R
    return np.concatenate(([0.0], grid))


def _zoom_max(f, grid, i, y):
    """Refine the maxima of k objectives sampled on ``grid``; returns the best (x, y).

    ``i``, ``y`` (shape (k,)) are the grid argmaxes and maxima; ``f`` maps (k, m)
    abscissae to the values of objective j on row j. Each round resamples the two
    cells around every argmax; it stops early when all maxima stay on grid[-1].
    """
    rows = np.arange(len(i))
    X, x = np.broadcast_to(grid, (len(i), grid.size)), grid[i]
    for _ in range(_ZOOM_ROUNDS):
        lo = X[rows, np.maximum(i - 1, 0)]
        hi = X[rows, np.minimum(i + 1, X.shape[1] - 1)]
        X = lo[:, None] + (hi - lo)[:, None] * _ZOOM_STEPS
        X[:, -1] = hi
        Y = f(X)
        i = Y.argmax(axis=-1)
        top = Y[rows, i]
        x = np.where(top > y, X[rows, i], x)
        y = np.maximum(top, y)
        if (x == grid[-1]).all():
            break
    return x, y


def _objectives(U: PotentialSpec, q: float, r: np.ndarray) -> np.ndarray:
    """Rows (up, dn = 1/up, grad2) at the radii r from one U and one U' call.

    A 1D potential is evaluated at +-r; each radius keeps the larger values.
    """
    x = r if U.is_radial else np.concatenate((r, -r))
    u = np.asarray(U.value(x), dtype=float)
    if (u <= -q).any():
        raise DomainError(f"potential violates U > -p on the scan grid (p={q})")
    up = (q + u) / (q + x * x)
    g2 = np.square(np.asarray(U.grad_norm(x), dtype=float) / (math.sqrt(q) + np.abs(x)))
    vals = np.stack((up, 1.0 / up, g2))
    return vals if U.is_radial else np.maximum(vals[:, :r.size], vals[:, r.size:])


def _scan(U: PotentialSpec, q: float, r: np.ndarray, best=-np.inf) -> np.ndarray:
    """Sups (up, dn, grad2) over the increasing radii r and the running sups ``best``;
    only rows whose grid maximum reaches ``best`` are zoomed."""
    vals = _objectives(U, q, r)
    i = np.argmax(vals, axis=1)
    top = vals[np.arange(3), i]
    rows = np.flatnonzero(top >= best)
    if rows.size:
        def f(X):
            return _objectives(U, q, X.ravel()).reshape(3, *X.shape)[rows, np.arange(rows.size)]
        _, top[rows] = _zoom_max(f, r, i[rows], top[rows])
    return np.maximum(best, top)


def structural(U: PotentialSpec, p: ExtParam, R: float) -> StructuralConstants:
    """Structural constants of U at parameter p on the ball B_R (R = math.inf for global).

    Computed once per (U, p, R) and kept on U, failures too. Raises
    :class:`ConventionUndefined` for p = infinity with R = infinity (the
    zeroth-order endpoint conventions exist only for finite R) and
    :class:`NoConvergence` when an expanding-window supremum does not
    stabilize (the constant is infinite and any bound using it is void).
    """
    key = ("structural", p.raw, R)
    if key not in U._memo:
        try:
            U._memo[key] = _structural(U, p, R)
        except NoConvergence as exc:
            U._memo[key] = exc.with_traceback(None)  # no frame keeps U alive
    hit = U._memo[key]
    if isinstance(hit, NoConvergence):
        raise NoConvergence(*hit.args)
    return hit


def _structural(U: PotentialSpec, p: ExtParam, R: float) -> StructuralConstants:
    if R < 0:
        raise ValueError("R must be nonnegative")
    if not p.is_finite:
        if math.isinf(R):
            raise ConventionUndefined(
                "zeroth-order constants at p = infinity are defined for finite R only")
        return StructuralConstants(1.0, 1.0, 0.0, p, R)
    q = p.value

    if math.isinf(R):
        if isinstance(U.profile, Quadratic):
            a = U.profile.a
            return StructuralConstants(min(1.0, a), max(1.0, a), 4.0 * a * a, p, R)
        return _structural_window(U, q, p)

    sup_up, sup_dn, sup_g2 = _scan(U, q, _scan_grid(q, R)).tolist()
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2, p, R)


def _structural_window(U: PotentialSpec, q: float, p: ExtParam) -> StructuralConstants:
    """Expanding-window scan for R = infinity with three-doubling convergence."""
    base = max(1.0, math.sqrt(q))
    prev = _scan(U, q, _scan_grid(q, base))
    stable = 0
    for k in range(1, _MAX_DOUBLINGS):
        R = base * 2.0 ** k
        cur = _scan(U, q, R * _ANNULUS, prev)
        rel = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
        stable = stable + 1 if float(np.max(rel)) < _WINDOW_REL_TOL else 0
        if stable >= 3:
            sup_up, sup_dn, sup_g2 = cur.tolist()
            return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2, p, math.inf)
        prev = cur
    raise NoConvergence(
        "expanding-window supremum did not stabilize; a global structural "
        "constant is infinite")


def aggregates(U: PotentialSpec, n: int) -> GlobalAggregates:
    """Parameter-uniform aggregates of U from its global constants at p = n.

    All four aggregates are computed; only the relevant ones enter each bound.
    """
    sc = structural(U, ExtParam.finite(float(n)), math.inf)
    cU = min(1.0, sc.c0)
    CU = max(1.0, sc.C0)
    return GlobalAggregates(qU=CU / cU, cU=cU, CU=CU, LU=sc.C1)
