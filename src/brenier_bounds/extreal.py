"""Extended nonnegative reals with an explicit +infinity.

Used for theorem constants where +infinity means "the bound is void";
products with positive reals absorb, minima let +infinity lose, and
0 * infinity is asserted never to occur (no formula produces it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ExtReal:
    raw: Union[float, None] = None  # None encodes +infinity

    @classmethod
    def infinity(cls) -> "ExtReal":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.raw is not None

    @property
    def value(self) -> float:
        if self.raw is None:
            raise ValueError("+infinity has no finite value")
        return self.raw

    def as_float(self) -> float:
        """Collapse to a float for serialization only (math.inf for the infinite variant)."""
        return math.inf if self.raw is None else self.raw

    def times(self, c: float) -> "ExtReal":
        """Product with a positive real; +infinity absorbs."""
        if c <= 0.0:
            # 0 * infinity never occurs in the assembled formulas; treat a
            # nonpositive factor as a programming error.
            raise ValueError(f"times() requires a positive factor, got {c!r}")
        if self.raw is None:
            return self
        return ExtReal(self.raw * c)

    def __lt__(self, other: "ExtReal") -> bool:
        if self.raw is None:
            return False
        if other.raw is None:
            return True
        return self.raw < other.raw

    def __le__(self, other: "ExtReal") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return "ExtReal(inf)" if self.raw is None else f"ExtReal({self.raw!r})"


EXT_ZERO = ExtReal(0.0)
EXT_INF = ExtReal.infinity()


def ext_min(a: ExtReal, b: ExtReal) -> ExtReal:
    """Minimum with +infinity always losing."""
    if a.raw is None:
        return b
    if b.raw is None:
        return a
    return a if a.raw <= b.raw else b


def bound_from_terms(a: float, b: ExtReal) -> ExtReal:
    """The optimized maximum-principle bound sqrt(A + B) + sqrt(B)."""
    if a < 0.0:
        raise ValueError("A-term must be nonnegative")
    if b.raw is None:
        return EXT_INF
    return ExtReal(math.sqrt(a + b.raw) + math.sqrt(b.raw))
