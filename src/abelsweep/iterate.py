"""Fractional iteration f^[t](z) through an Abel-function evaluator.

Given any evaluator of an Abel function, the t-th iterate is the inverse
image of t + abel(z). Inversion is plain bisection on a user-supplied
monotone bracket; robustness matters more than speed at the sizes this
package targets, and bisection needs nothing beyond sign changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath
from mpmath import mp

from .affine import AffineParams, eval_log_poly, log_poly
from .errors import BracketError, DomainError
from .scalars import PrecisionConfig, Scalar, sign, to_mpf

_MAX_BISECTIONS = 4096


@dataclass(frozen=True)
class IterationContext:
    """An Abel evaluator plus the inversion policy.

    ``bracket`` must straddle every preimage the caller will query; the
    evaluator is assumed monotone on it. ``t_domain`` is a documentation
    string describing where iterates are trusted.
    """

    abel: Callable[[Scalar], Scalar]
    bracket: tuple
    tol: float = 1e-9
    t_domain: str = ""
    cfg: PrecisionConfig = field(default_factory=PrecisionConfig)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("inversion tolerance must be positive")
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError("bracket must satisfy lo < hi")


def exact_log_context(
    b, s, cfg: PrecisionConfig | None = None, bracket=None, tol: float = 1e-12
) -> IterationContext:
    """Context for f(x) = b*x using the closed-form Abel function log_b(x) - log_b(s)."""
    cfg = cfg or PrecisionConfig()
    p = AffineParams(b, s)
    p.ensure_order(1)
    if cfg.mode == "machine":
        lb = math.log(float(p.b))

        def abel(z):
            return math.log(float(z)) / lb - math.log(float(p.s)) / lb

    else:
        def abel(z):
            with cfg.workprec():
                return (mpmath.log(to_mpf(z)) - mpmath.log(to_mpf(p.s))) / mpmath.log(to_mpf(p.b))

    return IterationContext(
        abel,
        bracket or (1e-30, 1e30),
        tol,
        t_domain="any real t with z > 0",
        cfg=cfg,
    )


def poly_abel_context(
    p: AffineParams, n: int, cfg: PrecisionConfig, bracket, tol: float = 1e-9
) -> IterationContext:
    """Context for g(x) = b*(x+s) - s using the degree-n Abel polynomial.

    The evaluator is the s-free approximant applied to z/s + 1, evaluated by
    eval_log_poly's fixed-point Horner: its error stays below
    2**(1 - bits - guard_bits) at every degree, and the working precision
    exceeds bits + guard_bits + log2(n+1) only where |z/s + 1| > 1.
    """
    poly = log_poly(p.b, n)
    s = p.s

    def abel(z):
        return eval_log_poly(poly, z / s + 1, cfg)

    return IterationContext(
        abel,
        bracket,
        tol,
        t_domain="real t while the polynomial stays monotone on the bracket",
        cfg=cfg,
    )


def fractional_iterate(ctx: IterationContext, t, z) -> Scalar:
    """f^[t](z) = abel^{-1}(t + abel(z)), bisected to the context tolerance."""
    target = ctx.abel(z) + t
    with ctx.cfg.workprec():
        lo, hi = ctx.bracket
        flo = ctx.abel(lo) - target
        fhi = ctx.abel(hi) - target
        if flo == 0:
            return lo
        if fhi == 0:
            return hi
        if sign(flo) == sign(fhi):
            raise BracketError(lo, hi, target)
        for _ in range(_MAX_BISECTIONS):
            mid = (lo + hi) / 2
            if not lo < mid < hi:  # resolution exhausted
                break
            fmid = ctx.abel(mid) - target
            if abs(fmid) <= ctx.tol:
                return mid
            if sign(fmid) == sign(flo):
                lo, flo = mid, fmid
            else:
                hi, fhi = mid, fmid
    raise DomainError(
        f"bisection exhausted on [{ctx.bracket[0]}, {ctx.bracket[1]}] "
        f"with residual above {ctx.tol}"
    )


def semigroup_check(ctx: IterationContext, s_, t, grid) -> Scalar:
    """max over the grid of |f^[s_+t](z) - f^[s_](f^[t](z))|."""
    worst = None
    for z in grid:
        direct = fractional_iterate(ctx, s_ + t, z)
        chained = fractional_iterate(ctx, s_, fractional_iterate(ctx, t, z))
        dev = abs(direct - chained)
        if worst is None or dev > worst:
            worst = dev
    if worst is None:
        raise ValueError("empty evaluation grid")
    return worst
