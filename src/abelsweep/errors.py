"""Exception types shared across the package.

``DomainError`` subclasses signal mathematically invalid inputs (as opposed
to I/O or configuration mistakes); the CLI maps them to exit code 2.
"""

from __future__ import annotations

import mpmath


class DomainError(Exception):
    """A mathematically invalid request (bad base, bad shift, singular system)."""


class RootOfUnityError(DomainError):
    """The base b satisfies b**k == 1 for some k in range, so 1/(1 - b**k) blows up."""

    def __init__(self, b, k):
        self.b = b
        self.k = k
        super().__init__(f"base {b} is a root of unity: b**{k} == 1")


class ZeroShiftError(DomainError):
    """Development point s == 0; the shifted system has a vanishing first row."""

    def __init__(self):
        super().__init__("development point s must be nonzero")


class SingularSystemError(DomainError):
    """A truncated linear system is singular or numerically rank-deficient."""

    def __init__(self, size):
        self.size = size
        super().__init__(f"truncated system of size N={size} is singular")


class BracketError(DomainError):
    """Numerical inversion failed: no sign change over the supplied bracket.

    ``reach`` is the range of t that the bracket ends reach from z,
    abel(lo) - abel(z) and abel(hi) - abel(z) in increasing order, and
    ``width`` its length |abel(hi) - abel(lo)|, which stays readable when
    z lies far outside the bracket and both ends print alike. Neither
    depends on the Abel function's free additive constant.
    """

    def __init__(self, lo, hi, t, z, reach, width):
        self.lo = lo
        self.hi = hi
        self.t = t
        self.z = z
        self.reach = tuple(sorted(reach))
        self.width = abs(width)
        t6, z6, tmin, tmax, w6 = (  # nstr prints a float's full repr, an mpf's 6 digits
            mpmath.nstr(mpmath.mpf(v) if isinstance(v, float) else v, 6)
            for v in (t, z, *self.reach, self.width)
        )
        super().__init__(
            f"no sign change on bracket [{lo}, {hi}] for t={t6} at z={z6}: from z the"
            f" bracket reaches t in [{tmin}, {tmax}], an interval of width {w6}"
        )
