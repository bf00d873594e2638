"""Fractional iteration f^[t](z) through an Abel-function evaluator.

Given any evaluator of an Abel function, the t-th iterate is the inverse
image of t + abel(z). Inversion searches a user-supplied monotone bracket.
Like bisection it needs only function values and keeps the root bracketed,
but it converges superlinearly. Each step first tries inverse quadratic
interpolation through three samples, as Brent's zeroin does (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4), and
otherwise takes a Pegasus secant step (Dowell & Jarratt, BIT 12 (1972)
503-508). On the grid of the ``iterate_poly`` benchmark an iterate costs
about 6.9 Abel evaluations, z included, against 8.86 with Pegasus steps
alone and one per bit with bisection. The values at the bracket ends do
not depend on the query, so a context computes them once, when it is
built.

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

from .affine import AffineParams, _evaluator
from .errors import BracketError, DomainError
from .scalars import PrecisionConfig, Scalar, as_fraction, check_log_domain, sign

_MAX_STEPS = 4096


@dataclass(frozen=True)
class IterationContext:
    """An Abel evaluator plus the inversion policy.

    ``fractional_iterate`` inverts by inverse quadratic steps with Brent's
    safeguard and Pegasus secants where those fail, and stops at the first
    point whose residual is at most ``tol``; on the ``iterate_poly``
    benchmark's grid that takes about 6.9 evaluations of ``abel`` per
    iterate.

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
    the evaluator behind ``log_poly_evaluator``, with anchor 0: the same
    fixed-point Horner as eval_log_poly, with the same result to the bit. Its
    error stays below 2**(1 - bits - guard_bits) at every degree, and the
    working precision exceeds bits + guard_bits + log2(n+1) only where
    |z/s + 1| > 1. The context builds no ``log_poly``: it refuses n, b the
    same way, and rounds P_n once, from the integer coefficient recurrence,
    at the precision that the larger |z/s + 1| of the two bracket ends
    needs. Every step point lies between the ends, so only a query z
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
    evaluate = _evaluator(p.b, n, 0, cfg, (point(lo), point(hi)))
    return IterationContext(lambda z: evaluate(point(z)), bracket, tol, cfg=cfg)


def fractional_iterate(ctx: IterationContext, t, z) -> Scalar:
    """f^[t](z) = abel^{-1}(t + abel(z)), found to the context tolerance.

    The residuals at the bracket ends are the context's stored values of
    abel there minus the target, so abel runs at z and at step points only.
    Each step evaluates abel at one point strictly inside the current
    bracket and keeps the end whose residual has the other sign. The point
    is where the inverse quadratic through the true residuals of three
    samples reaches 0: the two ends and a third point, z at the first step
    (when it lies inside the bracket; its residual is -t up to rounding)
    and after that the end the previous step replaced. Its weight is a
    float computed on the positions (0, u, 1), u = (x3 - lo)/(hi - lo),
    from the nearer end. It is taken when it is finite, strictly inside the
    bracket, and moves less than half as far from the latest sample as the
    step before last moved (Brent's safeguard, which stops a run of
    interpolated steps from creeping along the ends). Otherwise the step
    takes the Pegasus secant point: when the same end is kept twice in a
    row its residual, for the secant only, is scaled by
    f_prev/(f_prev + f_new), where f_prev and f_new are the residuals of
    the end the step replaced and of the new point. That stops regula falsi
    from stalling at one end; unlike the Illinois rule's constant 1/2, the
    factor stays near 1 while the steps shrink the residual fast. Both
    weights are floats, so a float (or int, or Fraction) bracket gives
    float points and an mpf bracket mpf points. Everything from abel(z) on
    runs under the context's ``cfg.workprec()``: the result does not depend
    on mpmath's precision at the call.

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
        # the inverse quadratic reads true residuals: rlo and rhi at the ends
        # and r3 at a third sample x3, first z, then the end the last step
        # replaced; flo and fhi carry the Pegasus scaling for the secant
        rlo, rhi = flo, fhi
        x3, r3 = (z, az - target) if lo < z < hi else (None, None)
        # Brent's safeguard reads the latest sample and how far the step
        # before last and the last step moved from the sample before them
        latest, moves = z, (math.inf, math.inf)
        kept = 0  # -1: lo was kept by the last step, 1: hi was
        for _ in range(_MAX_STEPS):
            mid = None if x3 is None else _iqi_point(lo, rlo, hi, rhi, x3, r3)
            if mid is None or not abs(mid - latest) < moves[0] / 2:
                mid = lo + (hi - lo) * float(flo / (flo - fhi))
            if not lo < mid < hi:  # resolution exhausted
                break
            latest, moves = mid, (moves[1], abs(mid - latest))
            fmid = ctx.abel(mid) - target
            if abs(fmid) <= tol:
                return mid
            if same_as_lo(fmid, 0):
                if kept == 1:
                    fhi = fhi * flo / (flo + fmid)
                x3, r3 = lo, rlo
                lo, flo, rlo = mid, fmid, fmid
                kept = 1
            else:
                if kept == -1:
                    flo = flo * fhi / (fhi + fmid)
                x3, r3 = hi, rhi
                hi, fhi, rhi = mid, fmid, fmid
                kept = -1
    raise DomainError(
        f"root search exhausted on [{ctx.bracket[0]}, {ctx.bracket[1]}] "
        f"with residual above {ctx.tol}"
    )


def _iqi_point(lo, rlo, hi, rhi, x3, r3):
    """The point strictly inside (lo, hi) where the inverse quadratic through
    the samples (lo, rlo), (hi, rhi) and (x3, r3) reaches residual 0, or None.

    Its weight is a float, computed on the positions (0, u, 1) with
    u = (x3 - lo)/(hi - lo) and measured from the nearer end, so that a
    point close to either end is placed to the bracket's precision. None
    when the weight is not finite (two residuals coincide as floats) or the
    point is not strictly inside.
    """

    def weight(lo, rlo, hi, rhi) -> float:
        try:
            u = float((x3 - lo) / (hi - lo))
            a, b, c = float(rlo), float(rhi), float(r3)
        except OverflowError:  # a Fraction beyond the float range
            return math.nan
        den = (b - a) * (b - c) * (c - a)
        return a * (c * (c - a) - u * b * (b - a)) / den if den else math.nan

    w = weight(lo, rlo, hi, rhi)
    if w > 0.5:
        w = weight(hi, rhi, lo, rlo)
        mid = hi + (lo - hi) * w
    else:
        mid = lo + (hi - lo) * w
    return mid if 0 < w < 1 and lo < mid < hi else None


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
