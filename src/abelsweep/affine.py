"""Closed forms and approximation diagnostics for g(x) = b*(x+s) - s.

For this family the truncated Abel systems admit closed-form solutions: a
recurrence obtained by triangularizing the system, and a direct alternating
binomial sum. Summing the solution polynomial against powers of x/s yields an
s-free polynomial sequence P_n that approximates log_b, and the solution is
P_n re-centred: beta^(n)(y) = P_n(1 + y/s). So beta^(n)_m =
s**-m sum_{k=m..n} C(k,m) c_k, where c_k = (-1)**k C(n,k) / (1 - b**k) are
P_n's coefficients, and that is the direct sum. P_n does not converge to
log_b: P_n(x) - log_b(x) has a part log-periodic in n that does not decay,
about 3e-6 at most on [b, 1] for b=1/2 and 5e-4 for b=1/3. Nor does
beta^(N)_1 settle at 1/(s ln b): it oscillates in log_b N with an amplitude
tending to 2|Gamma(1 + 2 pi i/ln b)|/(|s| ln b) (at s=1, 1.43e-5 for b=2 and
1.37e-3 for b=3; peaks over 100 <= N <= 800 reach 2.03e-5 and 1.58e-3), so
an N-sweep of this map rightly reports drifting coefficients.

The closed forms compute in Fractions (the recurrence over integers with one
running denominator) on the exact value of their real inputs
(``scalars.as_fraction``, which refuses any other), and a float-mode caller
rounds each result once: their alternating binomial sums cancel from terms
of about 2**n to O(1), which float arithmetic would not survive. Only the
root-of-unity check sees b as given, so a float b within 1e-12 of a root of
unity is still refused.
P_n is kept as sum_k c_k (x**k - 1), so nothing builds its exact constant
term, and an exact value is one balanced sum of those terms.
Bigfloat and machine evaluation of P_n run Horner's rule in fixed point on
Python integers, where its coefficients of size up to about 2**n cancel
exactly and only the per-step truncations add up: the working precision
grows with log2(n), and with n*log2|x| for |x| > 1, but not with the degree
itself. ``log_poly_evaluator`` takes all its points first and rounds P_n's
coefficients once, from their integer recurrence, with no Fraction.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp

from .errors import ZeroShiftError
from .powerseries import TruncatedSeries
from .scalars import (
    PrecisionConfig,
    Scalar,
    as_fraction,
    check_log_domain,
    check_not_root_of_unity,
    ratio_to_float,
)


@dataclass(frozen=True)
class AffineParams:
    """Base b and development point s of the conjugated map b*(x+s) - s.

    s must be nonzero (the map developed at its fixpoint has an unsolvable
    first equation). b must not be a root of unity; that is checked lazily,
    up to whatever order an operation actually uses. Ints become Fractions.
    """

    b: Scalar
    s: Scalar

    def __post_init__(self):
        object.__setattr__(self, "b", as_fraction(self.b) if isinstance(self.b, int) else self.b)
        object.__setattr__(self, "s", as_fraction(self.s) if isinstance(self.s, int) else self.s)
        if self.s == 0:
            raise ZeroShiftError()

    @property
    def d(self) -> Scalar:
        return self.s * (self.b - 1)

    def ensure_order(self, order: int) -> None:
        check_not_root_of_unity(self.b, order)


def affine_series(p: AffineParams, order: int) -> TruncatedSeries:
    """The map as a truncated series at 0: d + b*x, zero-padded to ``order``."""
    if order < 1:
        raise ValueError("order must be at least 1")
    zero = p.d * 0
    return TruncatedSeries((p.d, p.b) + (zero,) * (order - 1))


# ---------------------------------------------------------------------------
# solution coefficients

def beta_recurrence(p: AffineParams, n: int, m: int) -> Fraction:
    """beta^(n)_m via the triangular recursion, run over integers; a Fraction.

    For b = P/Q, u_k = s**m * beta^(k)_m solves u_k (Q**k - P**k) =
    [k=m] (-1)**m Q**k + sum_{m<=i<k} u_i C(k,i) (Q-P)**(k-i) P**i. Each u_i
    is an integer numerator over the running denominator
    prod_{m<=j<k} (Q**j - P**j), fraction-free as in Bareiss's elimination.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    p.ensure_order(n)
    b = as_fraction(p.b)
    P, Q = b.numerator, b.denominator
    nums, den = [(-1) ** m * Q**m], Q**m - P**m
    for k in range(m + 1, n + 1):
        d = Q**k - P**k
        top = sum(u * (math.comb(k, i) * (Q - P) ** (k - i) * P**i) for i, u in enumerate(nums, m))
        nums = [u * d for u in nums] + [top]
        den *= d
    return Fraction(nums[-1], den) / as_fraction(p.s) ** m


def beta_direct(p: AffineParams, n: int, m: int) -> Fraction:
    """beta^(n)_m read off the coefficients c_k of P_n; a Fraction.

    The solution polynomial is P_n re-centred, beta^(n)(y) = P_n(1 + y/s),
    so beta^(n)_m = s**-m sum_{k=m..n} C(k,m) c_k with ``log_poly(b, n)``'s
    c_k = (-1)**k C(n,k) / (1 - b**k): the paper's direct alternating sum
    sum_k C(n,k) C(k,m) (-1)**k / (1 - b**k) / s**m. ``log_poly`` refuses a
    b with b**k == 1 for some k <= n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return _recentred(log_poly(p.b, n).coeffs, as_fraction(p.s), m)


def beta_polynomial(p: AffineParams, n: int) -> TruncatedSeries:
    """The degree-n solution polynomial beta^(n)(y) = P_n(1 + y/s) at 0, in Fractions.

    Its constant term is P_n(1) = 0; the others are ``beta_direct``'s, read
    off one ``log_poly(b, n)``.
    """
    c, s = log_poly(p.b, n).coeffs, as_fraction(p.s)
    return TruncatedSeries((Fraction(0),) + tuple(_recentred(c, s, m) for m in range(1, n + 1)))


def _recentred(c: tuple, s: Fraction, m: int) -> Fraction:
    """s**-m sum_{k=m..n} C(k,m) c_k, the m-th coefficient of P_n(1 + y/s), for c = (c_1..c_n)."""
    return sum(math.comb(k, m) * c[k - 1] for k in range(m, len(c) + 1)) / s**m


# ---------------------------------------------------------------------------
# the s-free log approximation

@dataclass(frozen=True)
class LogApproxPoly:
    """Degree-n polynomial approximating log_b: sum_k c_k (x**k - anchor).

    ``coeffs`` holds c_1..c_n. P_n has anchor 1, so its value at 1 is
    exactly 0, and at b it is exactly 1. Elsewhere its error does not vanish
    as n grows: it oscillates log-periodically in n, up to about 3e-6 on
    [b, 1] for b=1/2 and 5e-4 for b=1/3. ``iterate.poly_abel_context``
    evaluates P_n - P_n(0), the same c_k with anchor 0. The float commands
    build no LogApproxPoly: ``log_poly_evaluator`` rounds the c_k from
    their integer recurrence.
    """

    n: int
    b: Scalar
    coeffs: tuple  # c_1..c_n
    anchor: int = 1


def log_poly(b, n: int) -> LogApproxPoly:
    """P_n(x) = sum_k C(n,k) (-1)^(k+1) (1 - x**k) / (1 - b**k), with anchor 1.

    The polynomial keeps the exact value of b as its b. The root-of-unity
    check runs on b as given; then b = P/Q is its exact value
    (``as_fraction``, ValueError if b is not real), and each coefficient is
    the one Fraction (-1)**k C(n,k) Q**k / (Q**k - P**k), with C(n,k), P**k
    and Q**k carried from k-1 to k.
    """
    b = _real_base(b, n)
    return LogApproxPoly(n, b, tuple(Fraction(num, den) for num, den in _coefficient_pairs(b, n)))


def _real_base(b, n: int) -> Fraction:
    """The exact value of b, after ``log_poly``'s refusals of n < 1 and of b**k == 1 for k <= n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_not_root_of_unity(b, n)
    return as_fraction(b)


def _coefficient_pairs(b: Fraction, n: int):
    """Yield c_1..c_n of P_n as unreduced integer pairs (num, den) with c_k = num/den.

    For b = P/Q, num = (-1)**k C(n,k) Q**k and den = Q**k - P**k, which is
    negative for b > 1; C(n,k), P**k and Q**k are carried from k-1 to k.
    """
    c, pk, qk = 1, 1, 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        pk *= b.numerator
        qk *= b.denominator
        yield (c * qk if k % 2 == 0 else -c * qk), qk - pk


def _rounded(pairs, frac_bits: int) -> tuple:
    """floor(num * 2**frac_bits / den) for each pair (num, den): the coefficients rounded down.

    The floor of a ratio does not depend on reducing it, and ``//`` floors
    for a negative den too.
    """
    return tuple((num << frac_bits) // den for num, den in pairs)


def _frac_bits(n: int, x: tuple, anchor: int, cfg: PrecisionConfig) -> int:
    """F, the fraction bits of ``eval_log_poly`` for degree n at x = p/q in lowest terms."""
    p, q = x
    # log2|x| from the exact integers: float(x) overflows for huge x
    growth = math.log2(abs(p)) - math.log2(q) if p else 0.0
    return (
        (sys.float_info.mant_dig if cfg.mode == "machine" else cfg.bits) + cfg.guard_bits
        + max(0, math.ceil(n * growth)) + (n + 1).bit_length() + abs(anchor).bit_length()
    )


def _horner(fixed, x: tuple, frac_bits: int, anchor: int, cfg: PrecisionConfig) -> Scalar:
    """sum_k C_k (x**k - anchor) in fixed point, for C_k = floor(c_k * 2**frac_bits) and x = p/q, q > 0."""
    p, q = x
    acc = 0
    if q & (q - 1):
        for c in reversed(fixed):
            acc = (acc + c) * p // q
    else:  # binary point: floor division by 2**k is a right shift
        k = q.bit_length() - 1
        for c in reversed(fixed):
            acc = (acc + c) * p >> k
    if anchor:
        acc -= anchor * sum(fixed)
    if cfg.mode == "machine":
        return ratio_to_float(acc, 1 << frac_bits)
    return mpmath.mpf((acc, -frac_bits), prec=frac_bits)


def eval_log_poly(pL: LogApproxPoly, x, cfg: PrecisionConfig) -> Scalar:
    """sum_k c_k (x**k - anchor); the float modes run Horner in fixed point on integers.

    Exact mode needs a rational x and returns a Fraction, the pairwise sum
    of the terms (x**k carried from k-1 to k): the exact denominators grow
    with every term, and a balanced sum keeps most operands small.
    Bigfloat and machine mode keep x exact as p/q, round each coefficient
    once down to C_k, an integer multiple of 2**-F, run
    ``acc = (acc + C_k)*p // q`` on integers from C_n to C_1, and subtract
    anchor * sum_k C_k, so P_n(1) is exactly 0. When q = 2**k, as for every
    float and mpf x, the floor division is a right shift, with the same
    result. The alternating terms of size up to 2**n cancel exactly; n
    coefficient roundings and n floor divisions (each below 2**-F),
    amplified by at most max(1, |x|)**n, and less than |anchor|*n in the
    constant add up. With F = bits + guard_bits + ceil(n*log2|x|)_+
    + bit_length(n+1) + bit_length(|anchor|), one bit more for P_n than for
    anchor 0, the error is below 2**(1 - bits - guard_bits), whatever n and
    x are. Bigfloat mode returns the sum as an mpf of F bits. Machine mode
    takes bits = 53 and rounds the sum once to the nearest float; a sum
    outside the float range raises ValueError.

    A float call rounds all n coefficients, which costs several Horner
    evaluations: at bits:128 and b=1/2, about 0.4 ms a point at n=400 and
    10 ms at n=2000 on a 2-core x86 host. To evaluate P_n at many points,
    take ``log_poly_evaluator``, which rounds once for all of them.
    """
    xq = as_fraction(x)
    if cfg.exact:
        terms, xk = [], 1
        for c in pL.coeffs:
            xk *= xq
            terms.append(c * (xk - pL.anchor))
        while len(terms) > 1:
            pairs = [u + v for u, v in zip(terms[::2], terms[1::2])]
            terms = pairs + terms[2 * len(pairs):]
        return terms[0]
    x = xq.as_integer_ratio()
    frac_bits = _frac_bits(pL.n, x, pL.anchor, cfg)
    fixed = _rounded((as_fraction(c).as_integer_ratio() for c in pL.coeffs), frac_bits)
    return _horner(fixed, x, frac_bits, pL.anchor, cfg)


def log_poly_evaluator(b, n: int, xs, cfg: PrecisionConfig) -> Callable[[Scalar], Scalar]:
    """x -> P_n(x) for the points xs, equal at every x to ``eval_log_poly(log_poly(b, n), x, cfg)``.

    Refuses what ``log_poly`` refuses, when it is built. Exact mode builds
    ``log_poly(b, n)`` once. The float modes build no Fraction coefficient:
    they round P_n once, from its integer recurrence, at the largest
    fixed-point scale that a point of xs needs.
    """
    if cfg.exact:
        poly = log_poly(b, n)
        return lambda x: eval_log_poly(poly, x, cfg)
    evaluate = _evaluator(b, n, 1, cfg, [as_fraction(x).as_integer_ratio() for x in xs])
    return lambda x: evaluate(as_fraction(x).as_integer_ratio())


def _evaluator(b, n: int, anchor: int, cfg: PrecisionConfig, xs) -> Callable[[tuple], Scalar]:
    """x -> sum_k c_k (x**k - anchor) in cfg's float mode, as ``eval_log_poly`` gives it.

    A point x is a pair (p, q) of integers in lowest terms with q > 0.
    Refuses what ``log_poly`` refuses, in its words, but builds no Fraction:
    the coefficients are rounded once from ``_coefficient_pairs``, at the
    largest F that a point of ``xs`` needs. The F of a point grows with |x|,
    so that scale serves every point between two points of xs; a point
    beyond them is rounded again at its own F, which is not kept. The
    coefficients shifted down to the last F used are kept as one (F, list)
    pair, replaced whole: the points of one root search converge, so most
    of them share the F of the point before.
    """
    b = _real_base(b, n)
    scale = max((_frac_bits(n, x, anchor, cfg) for x in xs), default=0)
    fixed = _rounded(_coefficient_pairs(b, n), scale)
    last = (scale, fixed)

    def evaluate(x: tuple) -> Scalar:
        nonlocal last
        frac_bits = _frac_bits(n, x, anchor, cfg)
        if frac_bits > scale:
            return _horner(_rounded(_coefficient_pairs(b, n), frac_bits), x, frac_bits, anchor, cfg)
        last_bits, coeffs = last
        if last_bits != frac_bits:
            coeffs = [c >> (scale - frac_bits) for c in fixed]
            last = (frac_bits, coeffs)
        return _horner(coeffs, x, frac_bits, anchor, cfg)

    return evaluate


def reference_log(b, x, bits: int = 256):
    """log_b(x) from mpmath's logarithm, for use as an independent reference.

    b and x are rounded to mpfs at ``bits``; DomainError unless b > 0,
    b != 1 and x > 0 after that rounding.
    """
    cfg = PrecisionConfig("bigfloat", bits=bits)
    bv, xv = cfg.scalar(b), cfg.scalar(x)
    check_log_domain(bv, xv)
    with mp.workprec(bits):
        return mpmath.log(xv) / mpmath.log(bv)


# ---------------------------------------------------------------------------
# identities and remainder diagnostics

def onpow_identity(n: int, y) -> tuple:
    """Both sides of sum_k C(n,k)(-1)^(k+1) y**k == 1 - (1-y)**n; Fractions."""
    y = as_fraction(y)
    lhs = 0
    for k in range(1, n + 1):
        c = math.comb(n, k)
        lhs = lhs + (c if k % 2 == 1 else -c) * y**k
    rhs = 1 - (1 - y) ** n
    return lhs, rhs


def remainder(n: int, j: int, b) -> Fraction:
    """R^(n)_j = sum_i C(j,i) (-1)^(j-i) (1 - b**i)**n; a Fraction."""
    b = as_fraction(b)
    acc = 0
    for i in range(j + 1):
        c = math.comb(j, i)
        term = c * (1 - b**i) ** n
        acc = acc + (term if (j - i) % 2 == 0 else -term)
    return acc


def remainder_bound(j: int, n: int, b) -> Fraction:
    """d_{j,n} = sum_i C(j,i) |1 - b**i|**n, the majorant of |R^(n)_j|; a Fraction."""
    b = as_fraction(b)
    acc = 0
    for i in range(j + 1):
        acc = acc + math.comb(j, i) * abs(1 - b**i) ** n
    return acc


def binom_tail(kappa, J: int) -> tuple:
    """Partial sum of sum_{j>=1} |C(kappa, j+1)| up to J, and a bound on the rest.

    The terms follow the ratio recurrence C(k, j+1) = C(k, j)*(k-j)/(j+1).
    The second value is an upper bound on the tail, not an estimate of it:
    it integrates the per-term bound e**(kappa**2 + kappa) / k**(1+kappa)
    past the cutoff, and exceeds the true tail (1 - kappa) - partial (for
    0 < kappa < 1) several times over. The tail itself behaves like
    J**(-kappa) / (kappa*|Gamma(-kappa)|).
    """
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    partial = 0.0
    c = kappa  # C(kappa, 1)
    for j in range(1, J + 1):
        c = c * (kappa - j) / (j + 1)  # C(kappa, j+1)
        partial += abs(c)
    tail = math.exp(kappa * kappa + kappa) * (J + 1) ** (-kappa) / kappa
    return partial, tail


@dataclass(frozen=True)
class GapReport:
    """Deviation-from-constant of the difference of two developments.

    ``gaps[i]`` is the difference of the degree-n approximants developed at
    p2.s and p1.s, evaluated at xs[i]; as n grows the gaps approach the
    constant log_b(p1.s) - log_b(p2.s).
    """

    deviation: Scalar
    median_gap: Scalar
    xs: tuple
    gaps: tuple


def s_invariance_gap(
    p1: AffineParams, p2: AffineParams, n: int, xs, cfg: PrecisionConfig
) -> GapReport:
    """Measure how far the two developments differ from a constant shift.

    Evaluates the same degree-n polynomial at x/p2.s and x/p1.s over the
    grid, takes the pointwise difference, and reports the median together
    with the maximum deviation from that median. The points x/s are exact
    Fractions of the exact x and s; only the evaluations round, in cfg's mode,
    by one ``log_poly_evaluator`` over all of them.
    """
    if p1.b != p2.b:
        raise ValueError("both parameter sets must share the base b")
    s1, s2 = as_fraction(p1.s), as_fraction(p2.s)
    points = [(x / s2, x / s1) for x in map(as_fraction, xs)]
    poly = log_poly_evaluator(p1.b, n, [y for pair in points for y in pair], cfg)
    with cfg.workprec(n + cfg.guard_bits):
        gaps = [poly(u) - poly(v) for u, v in points]
        med = statistics.median(gaps)
        deviation = max(abs(g - med) for g in gaps)
    return GapReport(deviation, med, tuple(xs), tuple(gaps))
