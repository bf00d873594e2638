"""Fractional iteration f^[t](z) through an Abel-function evaluator.

Given any evaluator of an Abel function, the t-th iterate is the inverse
image of t + abel(z). Inversion runs Pegasus steps (Dowell & Jarratt, BIT 12
(1972) 503-508) on a user-supplied monotone bracket: secant points of the
current bracket, with the function value at an end kept twice in a row
scaled by f_prev/(f_prev + f_new), the residuals at the replaced end before
and after the step. Like bisection it needs only function values and keeps
the root bracketed, but it converges superlinearly, so each iterate costs
about nine Abel evaluations instead of one per bit. The values at the
bracket ends do not depend on the query, so a context computes them once,
when it is built.

An Abel function is fixed only up to an additive constant, and the inverse
of t + abel(z) does not see it: the polynomial context evaluates
P_n - P_n(0), P_n's coefficients with anchor 0.

The two contexts iterate different maps: ``exact_log_context`` f(x) = b*x,
where s > 0 only fixes the constant log_b(s), and ``poly_abel_context``
g(x) = b*(x+s) - s. At b = 1/2, s = 1, t = 1, z = 0.3 they give 0.15 and -0.35.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import mpmath

from .affine import AffineParams, _anchorless_evaluator
from .errors import BracketError, DomainError
from .scalars import PrecisionConfig, Scalar, as_fraction, check_log_domain, sign

_MAX_STEPS = 4096


@dataclass(frozen=True)
class IterationContext:
    """An Abel evaluator plus the inversion policy.

    ``bracket`` must straddle every preimage the caller will query; the
    evaluator is assumed monotone on it. Building the context runs ``abel``
    at both bracket ends, under ``cfg.workprec()``, and keeps the two values
    in ``_ends`` for every later inversion; an error there is raised here.
    An exact ``cfg`` raises ValueError before that: the root search stops at
    ``tol``, so its result is never exact.
    """

    abel: Callable[[Scalar], Scalar]
    bracket: tuple
    tol: float = 1e-9
    cfg: PrecisionConfig = field(default_factory=PrecisionConfig)
    _ends: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.cfg.exact:
            raise ValueError(
                "fractional iteration finds roots to a tolerance and has no exact mode;"
                " use bigfloat or machine precision"
            )
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"inversion tolerance must be finite and positive, got {self.tol}")
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError("bracket must satisfy lo < hi")
        with self.cfg.workprec():
            object.__setattr__(self, "_ends", (self.abel(lo), self.abel(hi)))


def exact_log_context(
    b, s, cfg: PrecisionConfig | None = None, bracket=None, tol: float = 1e-12
) -> IterationContext:
    """Context for f(x) = b*x using the closed-form Abel function log_b(x) - log_b(s).

    The logarithm is real only for b > 0, b != 1, s > 0 and z > 0, checked
    on the values rounded to the config's scalars: other bases and shifts
    raise DomainError here, other points when abel is called.
    """
    cfg = cfg or PrecisionConfig()
    bv, sv = cfg.scalar(b), cfg.scalar(s)
    check_log_domain(bv, sv, "s")
    log = math.log if cfg.mode == "machine" else mpmath.log
    with cfg.workprec():
        lb, ls = log(bv), log(sv)

    def abel(z):
        zv = cfg.scalar(z)
        check_log_domain(bv, zv, "z")
        with cfg.workprec():
            return (log(zv) - ls) / lb

    return IterationContext(abel, bracket or (1e-30, 1e30), tol, cfg=cfg)


def poly_abel_context(
    p: AffineParams, n: int, cfg: PrecisionConfig, bracket, tol: float = 1e-9
) -> IterationContext:
    """Context for g(x) = b*(x+s) - s using the degree-n Abel polynomial.

    The evaluator is P_n(z/s + 1) - P_n(0), which is
    beta^(n)(z) - beta^(n)(-s) for the solution polynomial
    beta^(n)(y) = P_n(1 + y/s): ``log_poly``'s coefficients with anchor 0,
    which leaves the iterated function unchanged and spares each evaluation
    P_n's constant and its extra bit. Its point z/s + 1 is
    computed exactly, from the exact values of z and s, and evaluated by
    eval_log_poly's fixed-point Horner, with the same result to the bit: its
    error stays below 2**(1 - bits - guard_bits) at every degree, and the
    working precision exceeds bits + guard_bits + log2(n+1) only where
    |z/s + 1| > 1. The context builds no ``log_poly``: it refuses n, b the
    same way, and rounds P_n once, from the integer coefficient recurrence,
    at the precision that the larger |z/s + 1| of the two bracket ends
    needs. Every secant point lies between the ends, so only a query z
    beyond them rounds again, for that one evaluation.
    """
    S, T = as_fraction(p.s).as_integer_ratio()

    def point(z) -> tuple:
        # z/s + 1 = (a*T + c*S)/(c*S) for z = a/c and s = S/T, in lowest terms
        a, c = as_fraction(z).as_integer_ratio()
        num, den = a * T + c * S, c * S
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return num // g, den // g

    lo, hi = bracket
    evaluate = _anchorless_evaluator(p.b, n, cfg, (point(lo), point(hi)))
    return IterationContext(lambda z: evaluate(point(z)), bracket, tol, cfg=cfg)


def fractional_iterate(ctx: IterationContext, t, z) -> Scalar:
    """f^[t](z) = abel^{-1}(t + abel(z)), found by Pegasus steps to the context tolerance.

    The residuals at the bracket ends are the context's stored values of
    abel there minus the target, so abel runs at z and at secant points only.
    Each step evaluates abel at the secant point of the current bracket and
    keeps the end whose residual has the other sign; when the same end is
    kept twice in a row its residual is scaled by f_prev/(f_prev + f_new),
    where f_prev and f_new are the residuals of the end the step replaced
    and of the new point. That stops regula falsi from stalling at one end;
    unlike the Illinois rule's constant 1/2, the factor stays near 1 while
    the steps shrink the residual fast. The secant weight is rounded to a
    float, so a float (or int, or Fraction) bracket gives float points and
    an mpf bracket mpf points. Everything from abel(z) on runs under the
    context's ``cfg.workprec()``: the result does not depend on mpmath's
    precision at the call.

    BracketError when t + abel(z) is not between the values at the bracket
    ends; it names t, z, the range of t that the bracket reaches from z and
    that range's width.
    """
    with ctx.cfg.workprec():
        az = ctx.abel(z)
        target = az + t
        lo, hi = ctx.bracket
        flo, fhi = ctx._ends[0] - target, ctx._ends[1] - target
        if flo == 0:
            return lo
        if fhi == 0:
            return hi
        if sign(flo) == sign(fhi):
            ends = ctx._ends
            raise BracketError(lo, hi, t, z, (ends[0] - az, ends[1] - az), ends[1] - ends[0])
        # flo keeps its sign: a step moves lo only to a point of that sign,
        # and the Pegasus factor fhi/(fhi + fmid) is positive
        same_as_lo = operator.gt if flo > 0 else operator.lt
        # mpf residuals meet the tolerance as an mpf, converted once and exactly
        tol = mpmath.mpmathify(ctx.tol) if isinstance(flo, mpmath.mpf) else ctx.tol
        kept = 0  # -1: lo was kept by the last step, 1: hi was
        for _ in range(_MAX_STEPS):
            mid = lo + (hi - lo) * float(flo / (flo - fhi))
            if not lo < mid < hi:  # resolution exhausted
                break
            fmid = ctx.abel(mid) - target
            if abs(fmid) <= tol:
                return mid
            if same_as_lo(fmid, 0):
                if kept == 1:
                    fhi = fhi * flo / (flo + fmid)
                lo, flo = mid, fmid
                kept = 1
            else:
                if kept == -1:
                    flo = flo * fhi / (fhi + fmid)
                hi, fhi = mid, fmid
                kept = -1
    raise DomainError(
        f"root search exhausted on [{ctx.bracket[0]}, {ctx.bracket[1]}] "
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
