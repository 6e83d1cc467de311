"""The tail-weight parameter p in [n, +inf], as a float.

The density family interpolates between polynomial tails (finite p) and
log-concave densities (p = infinity) through the transform

    theta_p(t) = p * log(1 + t/p),        theta_inf(t) = t.

The endpoint is ``math.inf``, which orders, hashes and prints as the
interval needs; every convention at p = infinity is still an explicit
``math.isinf`` branch, because those conventions are case definitions
rather than float limits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Absolute guard below which t + p counts as zero (denominator blow-up).
_NEG_GUARD = 1e-300

INF = math.inf


def param(p) -> float:
    """p as a float in (0, inf]: a number, or a string such as "3" or "inf"
    (any case, surrounding blanks allowed). NaN, -inf and p <= 0 raise."""
    p = float(p)
    if not p > 0.0:
        raise ValueError(f"finite parameter must be a positive real, got {p!r}")
    return p


def finite_param(p) -> float:
    """:func:`param`, which must also be finite (an entry of a limit sweep)."""
    p = param(p)
    if math.isinf(p):
        raise ValueError(f"finite parameter must be a positive real, got {p!r}")
    return p


class ExtParam:  # kept for callers of ExtParam.parse; new code calls param
    parse = staticmethod(param)


def theta_value_array(p: float, t: np.ndarray) -> np.ndarray:
    """Vectorized theta_p(t); raises DomainError if any entry hits t <= -p."""
    t = np.asarray(t, dtype=float)
    if math.isinf(p):
        return t.copy()
    bad = t <= -p + _NEG_GUARD
    if np.any(bad):
        raise DomainError(f"theta_p requires t > -p: t={float(t[bad].flat[0])}, p={p}")
    return p * np.log1p(t / p)
