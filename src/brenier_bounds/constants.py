"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

A profile with closed forms supplies them itself (``ball_constants``), at
every R and without declared Hessian bounds: a quadratic a|x|^2's sups sit
at r = |x| = 0 or r = R. Any other potential is scanned on a finite ball:
a log-spaced grid (U, U' once per point) plus a zoom around each argmax.
R = inf reads U and U' once each, at the origin, and bounds U on each ray
x = +-h, h >= 0 (one for a radial profile) by Taylor's theorem: with g the
slope along the ray at 0 and the declared Hessian bounds lam <= U'' <= Lam,
P_lam <= U <= P_Lam for P_k(h) = U(0) + g h + k h^2 / 2, and
|U'| <= |g| + Lam h. So c0 and C0 are the extremes of (p + P_k(h)) / (p + h^2)
at k = lam and k = Lam, and C1 = max(|U'(0)| / sqrt(p), Lam)^2. They are
never low; exact when lam = Lam (a quadratic a (x - s)^2); for an even U,
min((p + U(0)) / p, lam / 2), max((p + U(0)) / p, Lam / 2) and Lam^2; and
looser for an uneven U of varying curvature: (x + 5)^2 + log cosh 3x on
[2, 11] has c0 = 0.037 at p = 1, against the true 0.506. The declared
bounds are read as holding on the whole line (a tabulated profile's are
checked against the exact range of its U'' when it is built); without
0 < lam <= Lam < inf the R = inf constants are void. At p = infinity the
values are conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionUndefined, DomainError, VoidBound
from .extparam import param
from .potentials import PotentialSpec

_SCAN_POINTS = 2048
_ZOOM_ROUNDS = 4
_ZOOM_STEPS = np.linspace(0.0, 1.0, 33)  # sample positions within a zoom bracket


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
    g2 = np.square(np.abs(U.deriv(x)) / (math.sqrt(q) + np.abs(x)))
    vals = np.stack((up, 1.0 / up, g2))
    return vals if U.is_radial else np.maximum(vals[:, :r.size], vals[:, r.size:])


def _sups(U: PotentialSpec, q: float, grid: np.ndarray) -> np.ndarray:
    """Zoomed sups (up, dn, grad2) over the radii ``grid``, shape (3,).

    One ``_objectives`` call on the grid, then each zoom round resamples the
    two cells around every argmax in one more call; the rounds stop early
    once every maximum stays on the grid's end.
    """
    vals = _objectives(U, q, grid)
    rows = np.arange(3)
    i, y = vals.argmax(axis=-1), vals.max(axis=-1)
    X, x = np.broadcast_to(grid, vals.shape), grid[i]
    for _ in range(_ZOOM_ROUNDS):
        lo = X[rows, np.maximum(i - 1, 0)]
        hi = X[rows, np.minimum(i + 1, X.shape[1] - 1)]
        X = lo[:, None] + (hi - lo)[:, None] * _ZOOM_STEPS
        X[:, -1] = hi
        Y = _objectives(U, q, X.ravel()).reshape(3, *X.shape)[rows, rows]
        i = Y.argmax(axis=-1)
        top = Y[rows, i]
        x = np.where(top > y, X[rows, i], x)
        y = np.maximum(top, y)
        if (x == grid[-1]).all():
            break
    return y


def structural(U: PotentialSpec, p: float, R: float) -> StructuralConstants:
    """Structural constants of U at parameter p on the ball B_R (R = math.inf for global).

    Computed once per (U, p, R) and kept on U (see the module docstring).
    Raises :class:`ConventionUndefined` for p = R = infinity (the zeroth-order
    endpoint conventions exist only for finite R), and :class:`VoidBound`,
    before any scan, for R = infinity without far-field Hessian bounds.
    """
    p = param(p)
    key = ("structural", p, R)
    if key not in U._memo:
        U._memo[key] = _structural(U, p, R)
    return U._memo[key]


def _structural(U: PotentialSpec, q: float, R: float) -> StructuralConstants:
    if not R >= 0:
        raise ValueError("R must be nonnegative")
    if math.isinf(q):
        if math.isinf(R):
            raise ConventionUndefined(
                "zeroth-order constants at p = infinity are defined for finite R only")
        return StructuralConstants(1.0, 1.0, 0.0)

    if (closed := U.profile.ball_constants(q, R)) is not None:
        return StructuralConstants(*closed)
    if math.isinf(R):
        return _structural_global(U, q)

    sup_up, sup_dn, sup_g2 = _sups(U, q, _scan_grid(q, R)).tolist()
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2)


def _structural_global(U: PotentialSpec, q: float) -> StructuralConstants:
    """The R = inf constants from the Taylor envelope of U at the origin."""
    lam, Lam = far = (U.hess_lower, U.hess_upper)
    if None in far or not 0.0 < lam <= Lam < math.inf:
        raise VoidBound("global structural constants need far-field Hessian bounds "
                        f"0 < lower <= upper < inf, got (lower, upper) = {far}")
    u0, g0 = float(U.value(0.0)), float(U.deriv(0.0))
    if not u0 > -q:
        raise DomainError(f"potential violates U > -p at the origin (p={q})")
    slopes = [g0] if U.is_radial else [g0, -g0]  # along each ray from the origin
    c0 = min(min(_ratio_values(q, u0, g, lam)) for g in slopes)
    if not c0 > 0.0:
        raise VoidBound(f"global structural constants are void: the far-field envelope "
                        f"of the potential reaches U = -p (p={q})")
    C0 = max(max(_ratio_values(q, u0, g, Lam)) for g in slopes)
    slope = max(abs(g0) / math.sqrt(q), Lam)
    return StructuralConstants(c0, C0, slope * slope)


def _ratio_values(q: float, u0: float, g: float, k: float) -> list:
    """f(h) = (q + u0 + g h + k h^2/2) / (q + h^2) where its extremes over
    h in [0, inf] can lie: h = 0, h = inf (the limit k/2), and the root in
    (0, inf) of -g h^2 + (k q - 2 (q + u0)) h + g q, where f' vanishes (the
    roots' product is -q, so one is positive unless g = 0)."""
    a0, a2 = q + u0, 0.5 * k

    def f(h):
        if h > 1.0:  # in 1/h, so that h * h cannot overflow
            t = 1.0 / h
            return (a2 + t * (g + t * a0)) / (1.0 + t * (t * q))
        return (a0 + h * (g + h * a2)) / (q + h * h)

    c2, c1, c0 = -g, 2.0 * (a2 * q - a0), g * q
    # both roots without cancellation; the discriminant c1^2 + 4 g^2 q is never negative
    w = -0.5 * (c1 + math.copysign(math.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
    roots = (w / c2 if c2 else math.inf, c0 / w if w else 0.0)
    return [a0 / q, a2] + [f(h) for h in roots if 0.0 < h < math.inf]


def aggregates(U: PotentialSpec, n: int) -> GlobalAggregates:
    """Parameter-uniform aggregates of U from its global constants at p = n.

    All four aggregates are computed; only the relevant ones enter each bound.
    """
    sc = structural(U, float(n), math.inf)
    cU = min(1.0, sc.c0)
    CU = max(1.0, sc.C0)
    return GlobalAggregates(qU=CU / cU, cU=cU, CU=CU, LU=sc.C1)
