"""Truncated formal power series.

A series is stored as its real coefficient list c_0..c_K (coefficient of
x**m is c_m), always developed at 0: a map is developed at another point s by
conjugating it first, as ``exp_shift_series`` and ``affine.AffineParams`` do.
All operations truncate to the stored order; since the coefficient of x**m in
a product depends only on coefficients up to index m, truncation commutes
with the arithmetic up to that order.

Operations are pure; instances are immutable and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .scalars import PrecisionConfig, as_fraction, dot, is_finite


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_K of a series developed at 0.

    The order K is implied by the coefficient count. Coefficients must be
    finite scalars; NaN and infinity are construction errors, not sentinels.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        for c in self.coeffs:
            if not is_finite(c):
                raise ValueError(f"non-finite coefficient {c!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def from_json_dict(data: dict, cfg: PrecisionConfig) -> TruncatedSeries:
    """Read the series file format: {"coeffs": [...]}, optionally with "center": 0.

    "coeffs" is a nonempty array of JSON numbers or strings holding decimal
    or "p/q" literals, converted into ``cfg``'s scalar mode; a boolean is not
    a number. A "center" whose exact value is not 0 raises ValueError: series
    are developed at 0, and so does a top level that is not an object.
    """
    try:
        if not isinstance(data, dict):
            raise ValueError('a series file holds one object, {"coeffs": [...]}')
        raw = data["coeffs"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("coeffs must be a nonempty array of numbers or strings")
        coeffs = tuple(cfg.scalar(c) for c in raw)
        center = data.get("center", 0)
        if as_fraction(center) != 0:
            raise ValueError(f"center must be 0, got {center!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad series object: {exc}") from exc
    return TruncatedSeries(coeffs)


def constant(value, order: int) -> TruncatedSeries:
    zero = value * 0
    return TruncatedSeries((value,) + (zero,) * order)


def pad(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Extend with zero coefficients (exact for polynomials) or truncate."""
    if order == f.order:
        return f
    if order < f.order:
        return TruncatedSeries(f.coeffs[: order + 1])
    zero = f.coeffs[0] * 0
    return TruncatedSeries(f.coeffs + (zero,) * (order - f.order))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product (fg)_n = sum_k f_k g_{n-k}, truncated to the common order.

    Each coefficient is one ``scalars.dot``, summed from f_0 g_n to f_n g_0.
    """
    k = min(a.order, b.order)
    return TruncatedSeries(tuple(dot(a.coeffs, b.coeffs[n::-1]) for n in range(k + 1)))


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """outer(inner(x)) truncated to ``order`` (default: inner.order).

    The stored coefficients of ``outer`` are treated as a polynomial and
    substituted by Horner's rule. This is exact for polynomial ``outer``
    even when inner's constant term is nonzero (the situation of the Abel
    systems, whose unknown is a polynomial).
    """
    k = order if order is not None else inner.order
    inner = pad(inner, k)
    acc = constant(outer.coeffs[-1], k)
    for m in range(outer.order - 1, -1, -1):
        acc = series_mul(acc, inner)
        acc = TruncatedSeries((acc.coeffs[0] + outer.coeffs[m],) + acc.coeffs[1:])
    return acc


def exp_shift_series(s, order: int, cfg: PrecisionConfig) -> TruncatedSeries:
    """Series of g(x) = e**(x+s) - s at 0: c_0 = e**s - s, c_m = e**s / m!.

    Exact mode is only possible for s == 0 (coefficients 1/m!); any other s
    makes e**s irrational and raises. Machine mode raises ValueError when
    e**s or some m! (m >= 171) is outside the float range.
    """
    sv = cfg.scalar(s)
    if cfg.exact:
        if sv != 0:
            raise ValueError("exact mode supports the exponential only at s=0")
        coeffs = tuple(Fraction(1, math.factorial(m)) for m in range(order + 1))
        return TruncatedSeries(coeffs)
    exp = math.exp if cfg.mode == "machine" else mpmath.exp
    try:
        with cfg.workprec():
            es = exp(sv)
            coeffs = [es - sv] + [es / math.factorial(m) for m in range(1, order + 1)]
    except OverflowError:  # only floats overflow: e**s, or m! for m >= 171
        raise ValueError(
            f"the coefficients e**s/m! (s={s}, m <= {order}) are outside the float range of machine precision"
        ) from None
    return TruncatedSeries(tuple(coeffs))
