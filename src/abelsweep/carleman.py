"""Bell matrix construction and assembly of the truncated Abel system.

The Bell matrix of f (transpose of its Carleman matrix) holds the powers of
f column-wise: entry (m, n) is the coefficient of x**m in f**n. Writing the
Abel equation alpha(f(x)) = alpha(x) + 1 coefficient-wise and subtracting the
identity part turns it into a linear system in alpha's coefficients; column 0
drops out because f**0 contributes nothing past the constant line, leaving
the unknowns alpha_1..alpha_N in the N-by-N truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .powerseries import TruncatedSeries, constant, pad, series_mul


@dataclass(frozen=True)
class BellMatrix:
    """N x (N+1) grid: entries[m][n] = (f**n)_m, rows m < N, columns n <= N.

    Column 0 is kept although the Abel system drops it, so the full display
    can be printed and dumped as-is.
    """

    entries: tuple


@dataclass(frozen=True)
class AbelSystem:
    """Truncated system A x = u with A[m][n] = (f**(n+1))_m - I[m, n+1].

    Its size N is len(rhs). Row m runs over the first N coefficient
    equations; column n carries the unknown alpha_{n+1}. The right-hand
    side is (1, 0, ..., 0).
    """

    A: tuple
    rhs: tuple


def check_truncation_sizes(Ns, order: int | None = None) -> None:
    """ValueError unless the truncation sizes Ns are nonempty, positive and strictly increasing.

    Given the order of a series, also unless it reaches max(Ns) - 1, the
    highest degree that the largest truncation reads.
    """
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    if not Ns or Ns[0] < 1:
        raise ValueError("need at least one positive truncation size")
    if order is not None and order < Ns[-1] - 1:
        raise ValueError(
            f"series order {order} too small for truncation N={Ns[-1]} (need >= {Ns[-1] - 1})"
        )


def bell_matrix(f: TruncatedSeries, N: int) -> BellMatrix:
    """Bell matrix of f truncated to N rows and N+1 columns.

    Requires f of order at least N-1. Powers are built by
    repeated truncated multiplication, so each column n is exactly the
    coefficient list of f**n up to degree N-1. Only floats can overflow
    there; a power that does raises ValueError naming machine precision.
    """
    check_truncation_sizes((N,), f.order)
    ft = pad(f, N - 1)
    one = ft.coeffs[0] * 0 + 1
    power = constant(one, N - 1)
    columns = [power.coeffs]
    for n in range(1, N + 1):
        try:
            power = series_mul(power, ft)
        except ValueError:  # a non-finite coefficient
            raise ValueError(
                f"the coefficients of f**{n} in the Bell matrix built at N={N}"
                " are outside the float range of machine precision"
            ) from None
        columns.append(power.coeffs)
    entries = tuple(
        tuple(columns[n][m] for n in range(N + 1)) for m in range(N)
    )
    return BellMatrix(entries)


def abel_system(f: TruncatedSeries, N: int) -> AbelSystem:
    """Assemble the N x N truncation of the Abel system of f."""
    bell = bell_matrix(f, N)
    rows = []
    for m in range(N):
        row = list(bell.entries[m][1:])
        if m >= 1:
            row[m - 1] = row[m - 1] - 1
        rows.append(tuple(row))
    zero = bell.entries[0][0] * 0
    rhs = (zero + 1,) + (zero,) * (N - 1)
    return AbelSystem(tuple(rows), rhs)
