import math
from fractions import Fraction as F

import pytest

from abelsweep import (
    AffineParams,
    TruncatedSeries,
    abel_system,
    affine_series,
    bell_matrix,
    series_mul,
)
from abelsweep.carleman import check_truncation_sizes


def affine(b, s, order):
    return affine_series(AffineParams(F(b), F(s)), order)


class TestTruncationSizes:
    @pytest.mark.parametrize(
        "Ns,order,match",
        [
            ([], None, "positive"),
            ([0], None, "positive"),
            ([-1, 2], None, "positive"),
            ([2, 1], None, "increasing"),
            ([1, 1], None, "increasing"),
            ([1, 4], 2, "order 2 too small for truncation N=4"),
        ],
    )
    def test_refused(self, Ns, order, match):
        with pytest.raises(ValueError, match=match):
            check_truncation_sizes(Ns, order)

    @pytest.mark.parametrize("Ns,order", [([1], None), ([1, 3], 2), ([2, 5, 9], 8)])
    def test_accepted(self, Ns, order):
        check_truncation_sizes(Ns, order)

    def test_bell_matrix_checks_its_size(self):
        with pytest.raises(ValueError, match="positive"):
            bell_matrix(affine(2, 1, 3), 0)


class TestBellMatrix:
    def test_affine_display_n4(self):
        # symbolic display with b, d substituted: columns C(n,m) d^(n-m) b^m
        b, s = F(2), F(3)
        d = s * (b - 1)
        bm = bell_matrix(affine(2, 3, 3), 4)
        for m in range(4):
            for n in range(5):
                assert bm.entries[m][n] == math.comb(n, m) * d ** (n - m) * b**m

    def test_identity_map_gives_identity_pattern(self):
        f = TruncatedSeries((F(0), F(1), F(0), F(0)))
        bm = bell_matrix(f, 4)
        for m in range(4):
            for n in range(5):
                assert bm.entries[m][n] == (1 if m == n else 0)

    def test_two_x_plus_one(self):
        f = TruncatedSeries((F(1), F(2), F(0)))
        bm = bell_matrix(f, 3)
        assert [list(r[:4]) for r in bm.entries] == [
            [1, 1, 1, 1],
            [0, 2, 4, 6],
            [0, 0, 4, 12],
        ]

    def test_column_zero_is_unit(self):
        bm = bell_matrix(affine(3, 1, 4), 5)
        assert [bm.entries[m][0] for m in range(5)] == [1, 0, 0, 0, 0]

    def test_insufficient_order_is_error(self):
        with pytest.raises(ValueError, match="order"):
            bell_matrix(affine(2, 1, 2), 5)

    @pytest.mark.parametrize("coeffs", [(1, 2, 0, 3), (0, 1, 1, 0), (2, 0, -1, 5)])
    def test_columns_match_series_pow(self, coeffs):
        f = TruncatedSeries(tuple(F(c) for c in coeffs))
        N = 4
        bm = bell_matrix(f, N)
        power = TruncatedSeries((F(1),) + (F(0),) * f.order)
        for n in range(N + 1):
            assert [bm.entries[m][n] for m in range(N)] == list(power.coeffs[:N])
            power = series_mul(power, f)

    def test_exponential_entries(self):
        # powers of e^x have coefficients (f^n)_m = n^m / m!
        from abelsweep import PrecisionConfig, exp_shift_series

        f = exp_shift_series(0, 3, PrecisionConfig("exact"))
        bm = bell_matrix(f, 4)
        for m in range(4):
            for n in range(5):
                assert bm.entries[m][n] == F(n**m, math.factorial(m))
        assert bm.entries[1][2] == 2


class TestAbelSystem:
    def test_affine_display_n3(self):
        b, s = F(2), F(3)
        d = s * (b - 1)
        sysN = abel_system(affine(2, 3, 2), 3)
        assert [list(r) for r in sysN.A] == [
            [d, d * d, d * d * d],
            [b - 1, 2 * d * b, 3 * d * d * b],
            [0, b * b - 1, 3 * d * b * b],
        ]
        assert sysN.rhs == (1, 0, 0)

    def test_identity_map_gives_zero_matrix(self):
        f = TruncatedSeries((F(0), F(1), F(0), F(0)))
        sysN = abel_system(f, 3)
        assert all(v == 0 for row in sysN.A for v in row)

    def test_two_x_plus_one_n2(self):
        f = TruncatedSeries((F(1), F(2)))
        sysN = abel_system(f, 2)
        assert [list(r) for r in sysN.A] == [[1, 1], [1, 4]]
        assert sysN.rhs == (1, 0)

    def test_affine_is_upper_hessenberg(self):
        sysN = abel_system(affine(3, 2, 5), 6)
        for m in range(6):
            for n in range(6):
                if m > n + 1:
                    assert sysN.A[m][n] == 0
            if m >= 1:
                # subdiagonal entries are b^m - 1
                assert sysN.A[m][m - 1] == F(3) ** m - 1

    def test_pure_linear_structure(self):
        # f = bx at its fixpoint: zero first row, subdiagonal b^m - 1
        b = F(3)
        f = TruncatedSeries((F(0), b, F(0), F(0)))
        sysN = abel_system(f, 4)
        assert all(v == 0 for v in sysN.A[0])
        for m in range(1, 4):
            for n in range(4):
                want = b ** (n + 1) - 1 if m == n + 1 else 0
                assert sysN.A[m][n] == want
