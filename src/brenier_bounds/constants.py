"""Structural constants of a potential: sup/inf ratios against the quadratic reference.

For a potential U at parameter p, on the ball of radius R:

    c0 = [ sup (p + |x|^2) / (p + U) ]^(-1)
    C0 =   sup (p + U) / (p + |x|^2)
    C1 =   sup ( |grad U| / (sqrt(p) + |x|) )^2

computed by a log-spaced grid scan plus golden-section refinement around
the argmax. R = inf uses an expanding-window scan with convergence
detection (closed form for quadratic profiles). At p = infinity the values
are conventions, not limits: c0 = C0 = 1 and C1 = 0 for finite R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConventionUndefined, DomainError, NoConvergence
from .extparam import ExtParam
from .potentials import PotentialSpec, Quadratic

_SCAN_POINTS = 2048
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


def _refine_sup(f, grid: np.ndarray, vals: np.ndarray) -> float:
    """Grid sup plus one golden-section refinement on the bracketing interval."""
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    if hi > lo:
        res = minimize_scalar(lambda r: -float(f(np.array([r]))[0]),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-9 * max(1.0, hi - lo)})
        if res.success:
            best = max(best, float(-res.fun))
    return best


def _ratio_functions(U: PotentialSpec, q: float):
    """The three scan objectives as vectorized functions of the signed coordinate."""
    def up(x):
        x = np.asarray(x, dtype=float)
        u = np.asarray(U.value(x), dtype=float)
        if np.any(u <= -q):
            raise DomainError(f"potential violates U > -p on the scan grid (p={q})")
        return (q + u) / (q + np.square(x))

    def dn(x):
        return 1.0 / up(x)

    def grad2(x):
        x = np.asarray(x, dtype=float)
        g = np.asarray(U.grad_norm(x), dtype=float)
        return np.square(g / (math.sqrt(q) + np.abs(x)))

    return up, dn, grad2


def _scan_ball(U: PotentialSpec, q: float, R: float):
    """Sup of the three objectives over the ball of radius R."""
    up, dn, grad2 = _ratio_functions(U, q)
    grid = _scan_grid(q, R)
    if not U.is_radial:
        grid = np.concatenate((-grid[::-1], grid))
    sups = []
    for f in (up, dn, grad2):
        vals = f(grid)
        sups.append(_refine_sup(f, grid, vals))
    return tuple(sups)  # (sup_up, sup_dn, sup_grad2)


def structural(U: PotentialSpec, p: ExtParam, R: float, *,
               force_scan: bool = False) -> StructuralConstants:
    """Structural constants of U at parameter p on the ball B_R (R = math.inf for global).

    Computed once per (U, p, R) and kept on U; ``force_scan`` bypasses
    that memo and the quadratic closed form. Raises
    :class:`ConventionUndefined` for p = infinity with R = infinity (the
    zeroth-order endpoint conventions exist only for finite R) and
    :class:`NoConvergence` when an expanding-window supremum does not
    stabilize (the constant is infinite and any bound using it is void).
    """
    if force_scan:
        return _structural(U, p, R, force_scan=True)
    key = ("structural", p.raw, R)
    if key not in U._memo:
        U._memo[key] = _structural(U, p, R, force_scan=False)
    return U._memo[key]


def _structural(U: PotentialSpec, p: ExtParam, R: float, *,
                force_scan: bool) -> StructuralConstants:
    if R < 0:
        raise ValueError("R must be nonnegative")
    if not p.is_finite:
        if math.isinf(R):
            raise ConventionUndefined(
                "zeroth-order constants at p = infinity are defined for finite R only")
        return StructuralConstants(1.0, 1.0, 0.0, p, R)
    q = p.value

    if math.isinf(R):
        if isinstance(U.profile, Quadratic) and not force_scan:
            a = U.profile.a
            return StructuralConstants(min(1.0, a), max(1.0, a), 4.0 * a * a, p, R)
        return _structural_window(U, q, p)

    sup_up, sup_dn, sup_g2 = _scan_ball(U, q, R)
    return StructuralConstants(1.0 / sup_dn, sup_up, sup_g2, p, R)


def _structural_window(U: PotentialSpec, q: float, p: ExtParam) -> StructuralConstants:
    """Expanding-window scan for R = infinity with three-doubling convergence."""
    base = max(1.0, math.sqrt(q))
    prev = None
    stable = 0
    for k in range(_MAX_DOUBLINGS):
        cur = np.array(_scan_ball(U, q, base * 2.0 ** k))
        if prev is not None:
            rel = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
            stable = stable + 1 if float(np.max(rel)) < _WINDOW_REL_TOL else 0
            if stable >= 3:
                return StructuralConstants(1.0 / cur[1], cur[0], cur[2], p, math.inf)
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
