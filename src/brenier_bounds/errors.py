"""Semantic exception hierarchy.

Every failure mode a caller can act on gets its own class; generic
``ValueError`` is reserved for plain programming errors (bad argument
types, malformed grids).
"""


class BrenierBoundsError(Exception):
    """Base class for all library errors."""


class DomainError(BrenierBoundsError):
    """A potential value violated U > -p, or an argument left the admissible domain."""


class DivergentIntegral(BrenierBoundsError):
    """A normalization or tail integral shows no decay (none by the tail table's radius cap)."""


class ConventionUndefined(BrenierBoundsError):
    """A constant was requested outside the range where its endpoint convention exists."""


class InvalidOrder(BrenierBoundsError):
    """The scenario's parameters violate n <= d <= D."""


class VoidBound(BrenierBoundsError):
    """A theorem constant is infinite or unavailable; the estimate carries no information."""


class BracketFailure(BrenierBoundsError):
    """A mass inversion ran out of room: a tail table's extension reached its
    radius cap (1e30), or the 1D oracle's bracket ladder reached 2^99."""


class EmptyWindow(BrenierBoundsError):
    """No grid point falls inside the requested window."""


class MFrakOverflow(UserWarning):
    """The source-side ball-mass lower bound came out above 1 (inconsistent inputs)."""
