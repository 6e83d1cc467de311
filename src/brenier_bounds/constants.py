"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

computed by a log-spaced grid scan (U, U' once per point) plus a zoom around
each argmax. R = inf adds one annulus [R/2, R] per doubling to running sups
until they converge (closed form for quadratic profiles). One routine scans
the ball and each block of doublings, whose annuli share one U call and one
per zoom round; U is evaluated on every annulus of a block the window starts,
so a violation of U > -p, an error of U or an overflow there surfaces even
past the doubling where the sups settle. At p = infinity the values are
conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionUndefined, DomainError, NoConvergence
from .extparam import param
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


def _sups(U: PotentialSpec, q: float, grids: np.ndarray, best=-np.inf) -> np.ndarray:
    """Zoomed sups (up, dn, grad2) of each grid (row of ``grids``), shape (3, rows).

    One ``_objectives`` call covers every grid. An (objective, grid) pair is
    zoomed only where its grid maximum reaches the running maximum before it:
    ``best``, then the grid maxima of the earlier rows. Each zoom round
    resamples the two cells around every zoomed argmax in one more call, and
    the rounds stop early once every zoomed maximum stays on its grid end.
    """
    vals = _objectives(U, q, grids.ravel()).reshape(3, *grids.shape)
    i, sups = vals.argmax(axis=-1), vals.max(axis=-1)
    # a grid maximum reaches the running maximum before it when it is >= best
    # and equals the running maximum through its own row
    j, k = np.nonzero((sups >= np.asarray(best)[..., None])
                      & (sups == np.maximum.accumulate(sups, axis=1)))
    if j.size:
        rows, X, i, y = np.arange(j.size), grids[k], i[j, k], sups[j, k]
        x, end = X[rows, i], X[:, -1]
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
            if (x == end).all():
                break
        sups[j, k] = y
    return sups


def structural(U: PotentialSpec, p: float, R: float) -> StructuralConstants:
    """Structural constants of U at parameter p on the ball B_R (R = math.inf for global).

    Computed once per (U, p, R) and kept on U, failures too. Raises
    :class:`ConventionUndefined` for p = infinity with R = infinity (the
    zeroth-order endpoint conventions exist only for finite R) and
    :class:`NoConvergence` when an expanding-window supremum does not
    stabilize (the constant is infinite and any bound using it is void).
    """
    p = param(p)
    key = ("structural", p, R)
    if key not in U._memo:
        try:
            U._memo[key] = _structural(U, p, R)
        except NoConvergence as exc:
            U._memo[key] = exc.with_traceback(None)  # no frame keeps U alive
    hit = U._memo[key]
    if isinstance(hit, NoConvergence):
        raise NoConvergence(*hit.args)
    return hit


def _structural(U: PotentialSpec, q: float, R: float) -> StructuralConstants:
    if R < 0:
        raise ValueError("R must be nonnegative")
    if math.isinf(q):
        if math.isinf(R):
            raise ConventionUndefined(
                "zeroth-order constants at p = infinity are defined for finite R only")
        return StructuralConstants(1.0, 1.0, 0.0)

    if math.isinf(R):
        if isinstance(U.profile, Quadratic):
            a = U.profile.a
            return StructuralConstants(min(1.0, a), max(1.0, a), 4.0 * a * a)
        return _structural_window(U, q)

    sup_up, sup_dn, sup_g2 = _sups(U, q, _scan_grid(q, R)[None])[:, 0].tolist()
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2)


def _structural_window(U: PotentialSpec, q: float) -> StructuralConstants:
    """Expanding-window scan for R = infinity: ``_sups`` of the annuli of
    ``_BLOCK`` doublings at a time, whose running sups stop at the third
    consecutive doubling that moves none by ``_WINDOW_REL_TOL`` relative."""
    base = max(1.0, math.sqrt(q))
    prev = _sups(U, q, _scan_grid(q, base)[None])[:, 0]
    stable = 0
    for k in range(1, _MAX_DOUBLINGS, _BLOCK):
        R = base * 2.0 ** np.arange(k, min(k + _BLOCK, _MAX_DOUBLINGS))
        for sup in _sups(U, q, R[:, None] * _ANNULUS, prev).T:
            cur = np.maximum(prev, sup)
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
    sc = structural(U, float(n), math.inf)
    cU = min(1.0, sc.c0)
    CU = max(1.0, sc.C0)
    return GlobalAggregates(qU=CU / cU, cU=cU, CU=CU, LU=sc.C1)
