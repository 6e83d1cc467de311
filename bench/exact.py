"""Exact reference for the quadratic family, from special functions only.

For U(x) = a |x|^2 on R^n and the density proportional to
(1 + U/p)^(-p) (p = inf: exp(-U)), the mass outside the ball of radius r
has a closed form:

    finite p:  tail(r) = I_v(p - n/2, n/2),   v = p / (p + a r^2)
    p = inf:   tail(r) = Q(n/2, a r^2)        (regularized upper gamma)

with I the regularized incomplete beta function. The mass inside the ball
is the complementary form I_u(n/2, p - n/2), u = a r^2 / (p + a r^2)
(P(n/2, a r^2) at p = inf). Both are evaluated from their own argument, so
neither loses digits to ``1 - tail`` near the origin or deep in the tail.
Inverses use ``betaincinv``/``betainccinv`` and ``gammaincinv``/
``gammainccinv`` on whichever side keeps full relative precision.

No quadrature and no library code is used here: these functions are the
reference the benchmark measures ``brenier_bounds`` against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

INF = math.inf


def _is_inf(p: float) -> bool:
    return math.isinf(p)


def _uv(a: float, p: float, r):
    """u = a r^2 / (p + a r^2) and v = p / (p + a r^2), each from its own formula."""
    x = a * np.square(np.asarray(r, dtype=float))
    return x / (p + x), p / (p + x)


def _gauss_tail(n: int, x) -> np.ndarray:
    """Q(n/2, x) from erfc and exp sums: all terms positive, a few ulps of error.

    scipy's ``gammaincc`` is off by up to ~4e-14 here; the half-integer
    recursion Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) is not.
    """
    x = np.asarray(x, dtype=float)
    if n % 2:
        q, s = sp.erfc(np.sqrt(x)), 0.5
    else:
        q, s = np.zeros_like(x), 0.0
    with np.errstate(divide="ignore"):
        logx = np.log(x)
    while s < 0.5 * n:
        q = q + np.exp(s * logx - x - math.lgamma(s + 1.0)) if s else q + np.exp(-x)
        s += 1.0
    return q


def _masses(n: int, a: float, p: float, r):
    """(head, tail) = (P(|X| <= r), P(|X| > r)) for the density (1 + a|x|^2/p)^(-p) on R^n.

    The incomplete function is evaluated at whichever of u, v is below 1/2;
    the smaller of the two masses is then kept and the larger taken as one
    minus it, which is exact to an ulp.
    """
    r = np.asarray(r, dtype=float)
    if _is_inf(p):
        x = a * np.square(r)
        head, tail = sp.gammainc(0.5 * n, x), _gauss_tail(n, x)
    else:
        u, v = _uv(a, p, r)
        lo, hi = 0.5 * n, p - 0.5 * n
        head = np.where(u < 0.5, sp.betainc(lo, hi, u), sp.betaincc(hi, lo, v))
        tail = np.where(u < 0.5, sp.betaincc(lo, hi, u), sp.betainc(hi, lo, v))
    return (np.where(head <= tail, head, 1.0 - tail),
            np.where(tail <= head, tail, 1.0 - head))


def radial_tail(n: int, a: float, p: float, r) -> np.ndarray:
    """P(|X| > r) for the density proportional to (1 + a|x|^2/p)^(-p) on R^n."""
    return _masses(n, a, p, r)[1]


def radial_head(n: int, a: float, p: float, r) -> np.ndarray:
    """P(|X| <= r), the complementary mass, accurate for small r."""
    return _masses(n, a, p, r)[0]


def _radius_from_uv(a: float, p: float, u, v) -> np.ndarray:
    """Radius with a r^2 / (p + a r^2) = u and p / (p + a r^2) = v (u + v = 1)."""
    return np.sqrt(p * u / (a * v))


def radial_tail_inv(n: int, a: float, p: float, q) -> np.ndarray:
    """Radius r with radial_tail(r) = q."""
    q = np.asarray(q, dtype=float)
    if _is_inf(p):
        return np.sqrt(sp.gammainccinv(0.5 * n, q) / a)
    v = sp.betaincinv(p - 0.5 * n, 0.5 * n, q)
    u = 1.0 - v
    # v near 1 (small radius, or very large p): take u from its own inverse
    near = v > 0.5
    if np.any(near):
        u = np.where(near, sp.betainccinv(0.5 * n, p - 0.5 * n, q), u)
        v = np.where(near, 1.0 - u, v)
    return _radius_from_uv(a, p, u, v)


def radial_head_inv(n: int, a: float, p: float, h) -> np.ndarray:
    """Radius r with radial_head(r) = h."""
    h = np.asarray(h, dtype=float)
    if _is_inf(p):
        return np.sqrt(sp.gammaincinv(0.5 * n, h) / a)
    u = sp.betaincinv(0.5 * n, p - 0.5 * n, h)
    v = 1.0 - u
    near = u > 0.5
    if np.any(near):
        v = np.where(near, sp.betainccinv(p - 0.5 * n, 0.5 * n, h), v)
        u = np.where(near, 1.0 - v, u)
    return _radius_from_uv(a, p, u, v)


def log_reference_integral(n: int, p: float) -> float:
    """log of I_p = integral over R^n of (1 + |z|^2/p)^(-p) dz."""
    if _is_inf(p):
        return 0.5 * n * math.log(math.pi)
    return (0.5 * n * (math.log(p) + math.log(math.pi))
            + math.lgamma(p - 0.5 * n) - math.lgamma(p))


def normalization(n: int, a: float, p: float) -> float:
    """Z = integral over R^n of (1 + a|x|^2/p)^(-p) dx = a^(-n/2) I_p (shift-invariant)."""
    return math.exp(log_reference_integral(n, p) - 0.5 * n * math.log(a))


def _log_density(a: float, p: float, r) -> np.ndarray:
    x = a * np.square(np.asarray(r, dtype=float))
    return -x if _is_inf(p) else -p * np.log1p(x / p)


def radial_map(n: int, aV: float, pV: float, aW: float, pW: float, r):
    """Exact monotone radial map t(r) and its derivative t'(r).

    t balances the masses: head_W(t) = head_V(r) where that mass is below
    1/2, tail_W(t) = tail_V(r) elsewhere, so both sides keep full precision.
    """
    r = np.asarray(r, dtype=float)
    head, tail = _masses(n, aV, pV, r)
    use_head = head < 0.5
    t = np.where(use_head,
                 radial_head_inv(n, aW, pW, np.where(use_head, head, 0.25)),
                 radial_tail_inv(n, aW, pW, np.where(use_head, 0.25, tail)))
    # differentiated balance: Z_V^-1 r^(n-1) rho_V(r) = Z_W^-1 t^(n-1) rho_W(t)
    log_ratio = (math.log(normalization(n, aW, pW)) - math.log(normalization(n, aV, pV))
                 + (n - 1) * (np.log(r) - np.log(t))
                 + _log_density(aV, pV, r) - _log_density(aW, pW, t))
    return t, np.exp(log_ratio)


def line_upper_tail(a: float, p: float, s: float, x) -> np.ndarray:
    """P(X > x) for the 1D density proportional to (1 + a(x - s)^2/p)^(-p)."""
    z = np.asarray(x, dtype=float) - s
    half_tail = 0.5 * radial_tail(1, a, p, np.abs(z))
    return np.where(z >= 0.0, half_tail, 0.5 + 0.5 * radial_head(1, a, p, np.abs(z)))


def line_map(aV: float, pV: float, sV: float, aW: float, pW: float, sW: float, x):
    """Exact increasing 1D map between two shifted members of the family.

    Both densities are symmetric about their shifts, so the map carries the
    centre to the centre and is the n = 1 radial map on either side.
    """
    z = np.asarray(x, dtype=float) - sV
    t, _ = radial_map(1, aV, pV, aW, pW, np.maximum(np.abs(z), 1e-300))
    return sW + np.where(z >= 0.0, t, -t)


def growth_radius(n: int, aV: float, aW: float, d: float, D: float, R: float) -> float:
    """Exact inverted tail radius of the localized estimate (``fathi_radius``).

    For quadratic V the ball constant C0 on B_{10s} is max{1, (d + aV (10s)^2)
    / (d + (10s)^2)}, since the ratio it maximizes is monotone in r; the
    ball-mass bound m then inverts through the target's exact tail.
    """
    s = max(R, math.sqrt(d))
    big = 100.0 * s * s
    c0_big = max(1.0, (d + aV * big) / (d + big))
    log_ball = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
    log_m = (log_ball + n * math.log(3.0 * s) - math.log(normalization(n, aV, d))
             - d * math.log(c0_big) - d * math.log1p(big / d))
    m = math.exp(log_m)
    if m >= 1.0:
        return 0.0
    return 3.0 * float(radial_tail_inv(n, aW, D, m))


def endpoint_bound(aV: float, aW: float, d: float, R: float) -> float:
    """D = inf localized bound sqrt(C_V2 / (c_W2 c0)) for quadratic V and W.

    c0 = min{1, (d + aV R^2) / (d + R^2)}: the ratio (d + r^2)/(d + aV r^2)
    whose supremum defines 1/c0 is monotone in r.
    """
    c0 = min(1.0, (d + aV * R * R) / (d + R * R))
    return math.sqrt(aV / (aW * c0))


def rel_err(got, want) -> float:
    """Largest relative error of ``got`` against a nonzero exact ``want``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or got.size == 0:
        raise ValueError("shape mismatch against the exact reference")
    return float(np.max(np.abs(got / want - 1.0)))


def digits(err: float) -> float:
    """Correct decimal digits, -log10(err), capped at double precision."""
    return -math.log10(max(err, 2.0 ** -53))


def self_check() -> float:
    """Check the reference against elementary closed forms; return the worst error.

    Cauchy (n = 1, p = 1): tail(r) = 1 - (2/pi) arctan r.
    Gaussian (n = 1, p = inf): tail(r) = erfc(sqrt(a) r), on dyadic r and
    a in {1/4, 1, 4}, so that a r^2 and sqrt(a) r carry no rounding.
    Raises ValueError when either misses 1e-14 relative, or when an
    inverse does not return its radius to 1e-11.
    """
    r = np.logspace(-6, 6, 121)
    # the arctan form cancels for r > 1; use its complement there
    cauchy = np.where(r > 1.0, (2.0 / math.pi) * np.arctan(1.0 / r),
                      1.0 - (2.0 / math.pi) * np.arctan(r))
    worst = rel_err(radial_tail(1, 1.0, 1.0, r), cauchy)
    for a in (0.25, 1.0, 4.0):
        rg = np.arange(1, 1025) / 64.0
        rg = rg[a * rg * rg <= 700.0]
        worst = max(worst, rel_err(radial_tail(1, a, INF, rg), sp.erfc(math.sqrt(a) * rg)))
    if worst > 1e-14:
        raise ValueError(f"exact reference disagrees with its closed forms: {worst:g}")
    for n, a, p in ((1, 1.0, 1.0), (3, 0.5, 6.0), (2, 1.0, 4000.0), (2, 0.5, INF)):
        rr = np.logspace(-3, 1.5, 91)
        head, tail = _masses(n, a, p, rr)
        # each inverse is well conditioned only where its mass is the smaller one
        far, near = (tail < 0.5) & (tail > 1e-300), head < 0.5
        worst_inv = max(rel_err(radial_tail_inv(n, a, p, tail[far]), rr[far]),
                        rel_err(radial_head_inv(n, a, p, head[near]), rr[near]))
        if worst_inv > 1e-11:
            raise ValueError(f"exact inverse round trip off by {worst_inv:g} at {(n, a, p)}")
    return worst
