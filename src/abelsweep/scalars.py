"""Scalar abstraction: one code path, three kinds of real numbers.

The series, Bell-matrix and solver code is written against plain arithmetic
(``+ - * /``) so that it runs unchanged over

* ``fractions.Fraction`` -- the exact mode, used as test oracle,
* ``mpmath.mpf`` -- configurable-precision floats, the workhorse,
* ``float`` -- machine precision, for quick looks at small sizes.

The affine closed forms do not: they compute in Fractions only, and their
float-mode callers round each result once.

Their inner products (the Cauchy product's coefficients, the LU's entries,
the substitutions and the refinement residual) go through one kernel,
``dot`` and ``dot_sub``. It adds left to right and rounds after every
multiply and every add, so its value is the operator loop's to the last
bit. When every operand is an mpf it runs mpmath's ``mpf_mul`` and
``mpf_sub``/``mpf_add`` on the raw tuples at the context's precision and
rounding, as ``mpf.__mul__`` and ``mpf.__sub__`` do, and skips their
per-operation dispatch and wrapping; any other operands (floats,
Fractions, ints, or a mix) take the operator loop itself.

Every change of scalar type goes through two functions. ``as_fraction``
gives the exact value of a str ("p/q", decimal or integer literal), int,
float, Fraction or mpf. ``PrecisionConfig.scalar`` is ``as_fraction``
followed by the mode's one rounding: none (exact), to the nearest float
(machine), or to an mpf at ``bits`` (bigfloat). ``ratio_to_float`` is
machine mode's rounding, which ``affine.eval_log_poly`` also applies to its
fixed-point sum. Scalars are real: complex values are refused where they
could enter (``as_fraction``, ``check_not_root_of_unity``).
"""

from __future__ import annotations

import contextlib
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import mpf_add, mpf_mul, mpf_sub

from .errors import DomainError, RootOfUnityError

Scalar = Union[int, float, Fraction, mpmath.mpf]

MODES = ("machine", "bigfloat", "exact")

#: |b**k - 1| below this counts as a root of unity in the float modes.
ROOT_OF_UNITY_TOL = 1e-12


@dataclass(frozen=True)
class PrecisionConfig:
    """Scalar mode plus working-precision policy.

    ``bits`` is the mantissa size used in bigfloat mode (ignored otherwise);
    ``guard_bits`` is added on top of any computed working precision to absorb
    cancellation.
    """

    mode: str = "bigfloat"
    bits: int = 128
    guard_bits: int = 64

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == "bigfloat" and self.bits < 24:
            raise ValueError("bigfloat mode needs at least 24 mantissa bits")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be nonnegative")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def workprec(self, bits: int | None = None):
        """Context manager setting mpmath precision; a no-op outside bigfloat mode."""
        if self.mode != "bigfloat":
            return contextlib.nullcontext()
        return mp.workprec(max(self.bits, bits or 0))

    def scalar(self, value) -> Scalar:
        """``as_fraction(value)`` rounded once to this mode's scalar.

        Exact mode keeps the Fraction, machine mode rounds to the nearest
        float (ValueError outside the float range) and bigfloat mode divides
        in mpf at ``bits``.
        """
        q = as_fraction(value)
        if self.mode == "exact":
            return q
        if self.mode == "machine":
            return ratio_to_float(q.numerator, q.denominator)
        with mp.workprec(self.bits):
            return mpmath.mpf(q.numerator) / q.denominator

    @property
    def dps(self) -> int:
        """Decimal digits that round-trip this mode's floats."""
        if self.mode == "bigfloat":
            return int(self.bits * 0.30103) + 3
        return 17


def as_fraction(x) -> Fraction:
    """The exact value of x as a Fraction.

    Accepts "p/q", decimal or integer strings, ints, floats, Fractions and
    mpfs; floats and mpfs convert to their binary value, losslessly.
    Non-finite values, zero denominators and other types, bools among them,
    raise ValueError.
    """
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, str):
            return Fraction(x.strip())
        # x == x fails for NaN only, which then takes the closing refusal
        if isinstance(x, (int, float)) and not isinstance(x, bool) and x == x:
            return Fraction(x)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot convert {x!r} to a Fraction") from exc
    if isinstance(x, mpmath.mpf) and mpmath.isfinite(x):
        p, q = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(p), int(q))
    raise ValueError(f"cannot convert {x!r} to a Fraction")


def ratio_to_float(p: int, q: int) -> float:
    """p/q for integers p and q > 0, rounded once to the nearest float.

    ValueError when the result is outside the float range.
    """
    try:
        return p / q
    except OverflowError:
        raise ValueError("a value is outside the float range of machine precision") from None


def dot(xs, ys):
    """xs[0]*ys[0] + xs[1]*ys[1] + ... over the pairs zip(xs, ys) gives (at least one).

    The value of ``acc = xs[0]*ys[0]`` followed by ``acc = acc + x*y`` for
    each later pair, to the last bit, in any scalar type: see the module
    docstring. xs and ys are sequences; the longer one is cut as by zip.
    """
    if isinstance(xs[0], mpmath.mpf):
        prec, rounding = mp._prec_rounding
        products = _mpf_products(xs, ys, prec, rounding)
        if products is not None:
            acc = products[0]
            for p in products[1:]:
                acc = mpf_add(acc, p, prec, rounding)
            return mp.make_mpf(acc)
    pairs = zip(xs, ys)
    x, y = next(pairs)
    acc = x * y
    for x, y in pairs:
        acc = acc + x * y
    return acc


def dot_sub(acc, xs, ys):
    """acc - xs[0]*ys[0] - xs[1]*ys[1] - ... over the pairs zip(xs, ys) gives.

    The value of ``acc = acc - x*y`` for each pair in turn, to the last bit,
    in any scalar type: see the module docstring. xs and ys are sequences;
    the longer one is cut as by zip.
    """
    if isinstance(acc, mpmath.mpf):
        prec, rounding = mp._prec_rounding
        products = _mpf_products(xs, ys, prec, rounding)
        if products is not None:
            a = acc._mpf_
            for p in products:
                a = mpf_sub(a, p, prec, rounding)
            return mp.make_mpf(a)
    for x, y in zip(xs, ys):
        acc = acc - x * y
    return acc


def _mpf_products(xs, ys, prec, rounding) -> list | None:
    """Each x*y as mpf.__mul__ rounds it, as raw mpf tuples; None unless every x and y is an mpf."""
    try:
        return [mpf_mul(x._mpf_, y._mpf_, prec, rounding) for x, y in zip(xs, ys)]
    except AttributeError:  # an operand that is not an mpf
        return None


def sign(x) -> int:
    """-1, 0 or 1 by comparison with 0, in any real scalar type."""
    return (x > 0) - (x < 0)


def is_finite(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, float):
        return math.isfinite(x)
    return bool(mpmath.isfinite(x))


def check_not_root_of_unity(b, max_k: int) -> None:
    """Raise RootOfUnityError if b**k == 1 for some 1 <= k <= max_k.

    The only real roots of unity are 1, first at k=1, and -1, first at k=2,
    and no other power comes nearer to 1: for real b, |b**k - 1| is at least
    |b - 1| if b > 0, more than 1 for b < 0 and odd k, and at least |b**2 - 1|
    for b < 0 and even k. Int and Fraction b compare exactly; float and mpf b
    use |b**k - 1| < 1e-12, so the failure is reproducible rather than
    precision-dependent. A complex b raises ValueError, as in ``as_fraction``.
    """
    if isinstance(b, (int, Fraction)):
        k = 1 if b == 1 else 2 if b == -1 else None
    elif isinstance(b, (complex, mpmath.mpc)):
        raise ValueError(f"a root-of-unity check needs a real base, got {b!r}")
    else:
        tol = ROOT_OF_UNITY_TOL
        k = 1 if abs(b - 1) < tol else 2 if abs(b * b - 1) < tol else None
    if k is not None and k <= max_k:
        raise RootOfUnityError(b, k)


def check_log_domain(b, x, name: str = "x") -> None:
    """Raise DomainError unless log_b(x) is real: b > 0, b != 1 and x > 0."""
    if not (b > 0 and b != 1):
        raise DomainError(f"the real logarithm needs a base b > 0 with b != 1, got b={b}")
    if not x > 0:
        raise DomainError(f"the real logarithm needs {name} > 0, got {name}={x}")


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits(); Decimal has no limit
        return str(decimal.Decimal(n))


def format_scalar(x, dps: int | None = None) -> str:
    """Lossless, deterministic text for report files.

    Fractions render as "p/q" (plain integer when q == 1), floats with
    shortest round-trip repr, and mpf (every other scalar a mode produces)
    with ``dps`` significant digits. Integers print in full, also past
    Python's limit on int-to-str conversion.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _int_text(x.numerator)
        return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
    if isinstance(x, int):
        return _int_text(x)
    if isinstance(x, float):
        return repr(x)
    return mpmath.nstr(x, dps or mp.dps, strip_zeros=True)
