"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

For a quadratic profile a|x|^2 they are closed forms at every R: with
r = |x|, (p + a r^2)/(p + r^2) is monotone in r^2 and 2ar/(sqrt(p) + r)
increases in r, so every sup sits at r = 0 or r = R. Any other potential is
scanned on a finite ball: a log-spaced grid (U, U' once per point) plus a
zoom around each argmax. R = inf scans the ball of radius rho = max(1,
sqrt(p)), then bounds U on each ray x = +-(rho + h), h >= 0, past it (one
ray for a radial profile) by Taylor's theorem: with g the outward slope at
rho and the declared Hessian bounds lam <= U'' <= Lam,
P_lam <= U <= P_Lam for P_k(h) = U(rho) + g h + k h^2 / 2, and
|U'| <= |g| + Lam h. The extremes of (p + P_k(h)) / (p + (rho + h)^2) and
the sup of the monotone (|g| + Lam h) / (sqrt(p) + rho + h) are closed
forms: exact for a quadratic far field, never low otherwise. Without
0 < lam <= Lam < inf the R = inf constants are void. At p = infinity the
values are conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionUndefined, DomainError, VoidBound
from .extparam import param
from .potentials import PotentialSpec, Quadratic, RadialTabulated

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
    g2 = np.square(np.asarray(U.grad_norm(x), dtype=float) / (math.sqrt(q) + np.abs(x)))
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

    if isinstance(U.profile, Quadratic):
        return _quadratic(U.profile.a, q, R)
    if math.isinf(R):
        return _structural_global(U, q)

    sup_up, sup_dn, sup_g2 = _sups(U, q, _scan_grid(q, R)).tolist()
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2)


def _quadratic(a: float, q: float, R: float) -> StructuralConstants:
    """The constants of a|x|^2 on B_R from its values at r = 0 and r = R."""
    R2 = R * R
    if math.isinf(a * R2):  # R = inf, or a ball so wide that q is lost to rounding
        up, g = a, 2.0 * a
    else:
        up, g = (q + a * R2) / (q + R2), 2.0 * a * R / (math.sqrt(q) + R)
    return StructuralConstants(min(1.0, up), max(1.0, up), g * g)


def _structural_global(U: PotentialSpec, q: float) -> StructuralConstants:
    """The R = inf constants: a scan of B_rho and the far-field envelope past it."""
    # past its last node a tabulated profile is linear: U'' = 0, whatever was declared
    tabulated = isinstance(U.profile, RadialTabulated)
    lam, Lam = far = (0.0, 0.0) if tabulated else (U.hess_lower, U.hess_upper)
    if None in far or not 0.0 < lam <= Lam < math.inf:
        raise VoidBound("global structural constants need far-field Hessian bounds "
                        f"0 < lower <= upper < inf, got (lower, upper) = {far}"
                        + " (a tabulated profile is linear past its last node)" * tabulated)
    rho = max(1.0, math.sqrt(q))
    sup_up, sup_dn, sup_g2 = _sups(U, q, _scan_grid(q, rho)).tolist()
    x = np.array([rho] if U.is_radial else [rho, -rho])
    u = np.asarray(U.value(x), dtype=float).tolist()
    g = (np.sign(x) * np.asarray(U.deriv(x), dtype=float)).tolist()  # outward slopes
    c0 = min([1.0 / sup_dn] + [min(_ratio_values(q, rho, *ug, lam)) for ug in zip(u, g)])
    if not c0 > 0.0:
        raise VoidBound(f"global structural constants are void: the far-field envelope "
                        f"of the potential reaches U = -p (p={q})")
    C0 = max([sup_up] + [max(_ratio_values(q, rho, *ug, Lam)) for ug in zip(u, g)])
    slope = max(max(map(abs, g)) / (math.sqrt(q) + rho), Lam)
    return StructuralConstants(c0, C0, max(sup_g2, slope * slope))


def _ratio_values(q: float, rho: float, u0: float, g: float, k: float) -> list:
    """f(h) = (q + u0 + g h + k h^2/2) / (q + (rho + h)^2) where its extremes
    over h in [0, inf] can lie: h = 0, h = inf (the limit k/2), and the roots in
    (0, inf) of (a2 b1 - a1) h^2 + 2 (a2 b0 - a0) h + (a1 b0 - a0 b1), where f'
    vanishes, for f = (a0 + a1 h + a2 h^2) / (b0 + b1 h + h^2)."""
    a0, a1, a2, b0, b1 = q + u0, g, 0.5 * k, q + rho * rho, 2.0 * rho

    def f(h):
        if h > 1.0:  # in 1/h, so that h = inf gives the limit a2
            t = 1.0 / h
            return (a2 + t * (a1 + t * a0)) / (1.0 + t * (b1 + t * b0))
        return (a0 + h * (a1 + h * a2)) / (b0 + h * (b1 + h))

    c2, c1, c0 = a2 * b1 - a1, 2.0 * (a2 * b0 - a0), a1 * b0 - a0 * b1
    disc = c1 * c1 - 4.0 * c2 * c0
    hs = [0.0, math.inf]
    if disc >= 0.0:
        w = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))  # both roots without cancellation
        hs += [h for h in (w / c2 if c2 else math.inf, c0 / w if w else 0.0) if h > 0.0]
    return [f(h) for h in hs]


def aggregates(U: PotentialSpec, n: int) -> GlobalAggregates:
    """Parameter-uniform aggregates of U from its global constants at p = n.

    All four aggregates are computed; only the relevant ones enter each bound.
    """
    sc = structural(U, float(n), math.inf)
    cU = min(1.0, sc.c0)
    CU = max(1.0, sc.C0)
    return GlobalAggregates(qU=CU / cU, cU=cU, CU=CU, LU=sc.C1)
