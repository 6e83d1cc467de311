"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

computed by a log-spaced grid scan (U, U' once per point) plus a zoom around
each argmax. R = inf adds one annulus [R/2, R] per doubling to running sups
until they converge (closed form for quadratic profiles). The annuli of a
block of doublings are evaluated in one U call, and their zooms share one U
call per round, each annulus stopping on its own; a replay then takes the
annuli in order under the one-annulus-at-a-time rules, so the constants are
bit-identical to scanning the doublings one by one. At p = infinity the
values are conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionUndefined, DomainError, NoConvergence
from .extparam import ExtParam, _as_extparam
from .potentials import PotentialSpec, Quadratic

_SCAN_POINTS = 2048
_ANNULUS = np.geomspace(0.5, 1.0, 64)  # the annulus [R/2, R] in units of R
_BLOCK = 32  # doublings of an expanding window evaluated together
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


def _zoom_max(U: PotentialSpec, q: float, X: np.ndarray, j, i, y, group=None):
    """Refine maxima of the ``_objectives`` rows j sampled on the rows of X; returns them.

    Row r samples objective j[r] at the increasing abscissae X[r], with grid
    argmax i[r] and maximum y[r]. Each round resamples the two cells around
    every argmax, one ``_objectives`` call for all rows. The rows of a group
    (one annulus of a block scan; all rows when ``group`` is None) stop early
    together, once all their maxima stay on their grid end X[r, -1]. So each
    row's result depends only on the rows of its own group: a block's zooms
    give each annulus what zooming that annulus alone gives, which is what the
    replay in ``_annulus_sups`` relies on.
    """
    rows = np.arange(len(i))
    x, end, out, live = X[rows, i], X[:, -1], y.copy(), rows
    for _ in range(_ZOOM_ROUNDS):
        lo = X[rows, np.maximum(i - 1, 0)]
        hi = X[rows, np.minimum(i + 1, X.shape[1] - 1)]
        X = lo[:, None] + (hi - lo)[:, None] * _ZOOM_STEPS
        X[:, -1] = hi
        Y = _objectives(U, q, X.ravel()).reshape(3, *X.shape)[j, rows]
        i = Y.argmax(axis=-1)
        top = Y[rows, i]
        x = np.where(top > y, X[rows, i], x)
        y = np.maximum(top, y)
        pending = x != end
        keep = pending.any() if group is None else np.bincount(group, weights=pending)[group] > 0
        if not keep.all():
            out[live] = y
            if not keep.any():
                return out
            live, rows = live[keep], rows[:np.count_nonzero(keep)]
            X, i, j, x, y, end, group = (a[keep] for a in (X, i, j, x, y, end, group))
    out[live] = y
    return out


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
        X = np.broadcast_to(r, (rows.size, r.size))
        top[rows] = _zoom_max(U, q, X, rows, i[rows], top[rows])
    return np.maximum(best, top)


def _annulus_sups(U: PotentialSpec, q: float, radii: np.ndarray, best: np.ndarray):
    """Yield the running sups after each annulus (row of ``radii``), starting from ``best``.

    The values are those of chaining ``_scan`` over the annuli, from one
    ``_objectives`` call for all grids and one per zoom round. The rows zoomed
    are those whose grid maximum reaches the running sup of the grid maxima;
    that running sup is at most the zoomed one, so they include every row the
    chained scans zoom. An annulus whose chained zoom set differs is rescanned
    alone with ``_scan``.
    """
    try:
        # the block reaches past the doubling where the window may stop: a
        # floating-point exception or a failure there sends the block to the
        # chained scans, which raise (or warn) only where they evaluate
        with np.errstate(all="raise"):
            vals = _objectives(U, q, radii.ravel()).reshape(3, *radii.shape)
            i = vals.argmax(axis=-1)
            top = np.take_along_axis(vals, i[..., None], axis=-1)[..., 0]
            zoom = top >= np.maximum.accumulate(np.column_stack((best, top[:, :-1])), axis=1)
            j, k = np.nonzero(zoom)
            sups = top.copy()
            if j.size:
                sups[j, k] = _zoom_max(U, q, radii[k], j, i[j, k], top[j, k], group=k)
    except Exception:
        sups = None
    for k, r in enumerate(radii):
        if sups is not None and np.array_equal(top[:, k] >= best, zoom[:, k]):
            best = np.maximum(best, sups[:, k])
        else:
            best = _scan(U, q, r, best)
        yield best


def structural(U: PotentialSpec, p: ExtParam, R: float) -> StructuralConstants:
    """Structural constants of U at parameter p on the ball B_R (R = math.inf for global).

    Computed once per (U, p, R) and kept on U, failures too. Raises
    :class:`ConventionUndefined` for p = infinity with R = infinity (the
    zeroth-order endpoint conventions exist only for finite R) and
    :class:`NoConvergence` when an expanding-window supremum does not
    stabilize (the constant is infinite and any bound using it is void).
    """
    p = _as_extparam(p)
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
        return StructuralConstants(1.0, 1.0, 0.0)
    q = p.value

    if math.isinf(R):
        if isinstance(U.profile, Quadratic):
            a = U.profile.a
            return StructuralConstants(min(1.0, a), max(1.0, a), 4.0 * a * a)
        return _structural_window(U, q)

    sup_up, sup_dn, sup_g2 = _scan(U, q, _scan_grid(q, R)).tolist()
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2)


def _structural_window(U: PotentialSpec, q: float) -> StructuralConstants:
    """Expanding-window scan for R = infinity with three-doubling convergence."""
    base = max(1.0, math.sqrt(q))
    prev = _scan(U, q, _scan_grid(q, base))
    stable = 0
    for k in range(1, _MAX_DOUBLINGS, _BLOCK):
        R = base * 2.0 ** np.arange(k, min(k + _BLOCK, _MAX_DOUBLINGS))
        for cur in _annulus_sups(U, q, R[:, None] * _ANNULUS, prev):
            rel = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
            stable = stable + 1 if float(np.max(rel)) < _WINDOW_REL_TOL else 0
            if stable >= 3:
                sup_up, sup_dn, sup_g2 = cur.tolist()
                return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2)
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
