"""Extended-parameter arithmetic for the tail-weight parameter p in [n, +inf].

The density family interpolates between polynomial tails (finite p) and
log-concave densities (p = infinity) through the transform

    theta_p(t) = p * log(1 + t/p),        theta_inf(t) = t.

The endpoint is a dedicated variant, never an IEEE infinity: every
convention at p = infinity is an explicit branch, because those
conventions are case definitions rather than float limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError

# Absolute guard below which t + p counts as zero (denominator blow-up).
_NEG_GUARD = 1e-300


@dataclass(frozen=True)
class ExtParam:
    """A parameter in [n, +inf]: ``Finite(p)`` with p > 0, or ``Infinite``.

    Comparison is total: finite values order as reals and every finite
    value is below the infinite variant.
    """

    raw: Union[float, None] = None  # None encodes the infinite variant

    @classmethod
    def finite(cls, p: float) -> "ExtParam":
        p = float(p)
        if not math.isfinite(p) or p <= 0.0:
            raise ValueError(f"finite parameter must be a positive real, got {p!r}")
        return cls(p)

    @classmethod
    def infinite(cls) -> "ExtParam":
        return cls(None)

    @classmethod
    def parse(cls, token) -> "ExtParam":
        """Accept a number, or the string 'inf' (case-insensitive)."""
        if isinstance(token, ExtParam):
            return token
        if isinstance(token, str):
            if token.strip().lower() == "inf":
                return cls.infinite()
            return cls.finite(float(token))
        return cls.finite(token)

    @property
    def is_finite(self) -> bool:
        return self.raw is not None

    @property
    def value(self) -> float:
        if self.raw is None:
            raise ValueError("infinite parameter has no finite value")
        return self.raw

    def __lt__(self, other) -> bool:
        other = _as_extparam(other)
        if self.raw is None:
            return False
        if other.raw is None:
            return True
        return self.raw < other.raw

    def __le__(self, other) -> bool:
        return self == _as_extparam(other) or self < other

    def __gt__(self, other) -> bool:
        return _as_extparam(other) < self

    def __ge__(self, other) -> bool:
        return _as_extparam(other) <= self

    def __repr__(self) -> str:
        return "ExtParam(inf)" if self.raw is None else f"ExtParam({self.raw!r})"

    def label(self) -> str:
        """Serialization token: 'inf' or the decimal value."""
        return "inf" if self.raw is None else repr(self.raw)


def _as_extparam(value) -> "ExtParam":
    if isinstance(value, ExtParam):
        return value
    return ExtParam.infinite() if math.isinf(value) else ExtParam.finite(float(value))


INF = ExtParam.infinite()


def _domain_error(q: float, t: float) -> DomainError:
    return DomainError(f"theta_p requires t > -p: t={t}, p={q}")


def theta_value(p: ExtParam, t: float) -> float:
    """theta_p(t) of a float in scalar math; raises DomainError if t <= -p."""
    q = p.raw
    if q is None:
        return t
    if t <= -q + _NEG_GUARD:
        raise _domain_error(q, t)
    return q * math.log1p(t / q)


def theta_value_array(p: ExtParam, t: np.ndarray) -> np.ndarray:
    """Vectorized theta_p(t); raises DomainError if any entry hits t <= -p."""
    t = np.asarray(t, dtype=float)
    if not p.is_finite:
        return t.copy()
    q = p.value
    bad = t <= -q + _NEG_GUARD
    if np.any(bad):
        raise _domain_error(q, float(t[bad].flat[0]))
    return q * np.log1p(t / q)
