import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelsweep.affine
from abelsweep import (
    AffineParams,
    DomainError,
    LogApproxPoly,
    PrecisionConfig,
    RootOfUnityError,
    TruncatedSeries,
    ZeroShiftError,
    abel_system,
    affine_series,
    beta_direct,
    beta_polynomial,
    beta_recurrence,
    binom_tail,
    eval_log_poly,
    log_poly,
    onpow_identity,
    reference_log,
    remainder,
    remainder_bound,
    s_invariance_gap,
    series_compose,
    solve_truncated,
)
from abelsweep.cli import main
from abelsweep.scalars import as_fraction

from conftest import small_rationals

EXACT = PrecisionConfig("exact")
BIG = PrecisionConfig("bigfloat", bits=128, guard_bits=64)
MACHINE = PrecisionConfig("machine")

BASES = (F(2), F(1, 2), F(3), F(-2))
SHIFTS = (F(1), F(2))


class TestAffineParams:
    def test_d_is_shift_times_base_minus_one(self):
        p = AffineParams(F(3), F(2))
        assert p.d == 4

    def test_zero_shift_rejected(self):
        with pytest.raises(ZeroShiftError):
            AffineParams(F(2), F(0))

    def test_root_of_unity_detected_lazily(self):
        p = AffineParams(F(1), F(1))
        with pytest.raises(RootOfUnityError):
            p.ensure_order(1)
        pm = AffineParams(F(-1), F(1))
        pm.ensure_order(1)  # (-1)^1 != 1
        with pytest.raises(RootOfUnityError):
            pm.ensure_order(2)

    def test_float_root_of_unity_threshold(self):
        with pytest.raises(RootOfUnityError):
            AffineParams(1.0 + 1e-14, 1.0).ensure_order(1)
        AffineParams(1.001, 1.0).ensure_order(4)


class TestBetaValues:
    @pytest.mark.parametrize("b,s", [(F(2), F(1)), (F(1, 2), F(3)), (F(5), F(-2))])
    def test_base_case(self, b, s):
        p = AffineParams(b, s)
        want = 1 / (s * (b - 1))
        assert beta_recurrence(p, 1, 1) == want
        assert beta_direct(p, 1, 1) == want

    def test_two_by_two_oracle(self):
        p = AffineParams(F(2), F(1))
        assert beta_recurrence(p, 2, 2) == F(-1, 3)
        assert beta_direct(p, 2, 1) == F(4, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_top_coefficient_single_term(self, n):
        p = AffineParams(F(2), F(1))
        assert beta_direct(p, n, n) == F(-1) ** n / (1 - F(2) ** n)

    def test_index_range_validated(self):
        p = AffineParams(F(2), F(1))
        with pytest.raises(ValueError):
            beta_direct(p, 3, 0)
        with pytest.raises(ValueError):
            beta_recurrence(p, 3, 4)

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("s", SHIFTS)
    def test_direct_equals_recurrence(self, b, s):
        p = AffineParams(b, s)
        for n in range(1, 25):
            for m in range(1, n + 1):
                assert beta_direct(p, n, m) == beta_recurrence(p, n, m)

    @pytest.mark.parametrize("b", (F(2), F(1, 3), F(-2), F(3, 2), F(-1, 3)))
    @pytest.mark.parametrize("s", (F(1), F(-1), F(1, 3), F(5, 2)))
    def test_solution_is_p_n_recentred(self, b, s):
        # beta^(n)(y) = P_n(1 + y/s), with P_n's constant c_0 = -sum_k c_k, and
        # its coefficients are the paper's sum_k C(n,k) C(k,m) (-1)**k / (1 - b**k) / s**m
        p = AffineParams(b, s)
        for n in range(1, 13):
            c = log_poly(b, n).coeffs
            P = TruncatedSeries((-sum(c),) + c)
            assert beta_polynomial(p, n) == series_compose(P, TruncatedSeries((F(1), 1 / s)), order=n)
            for m in range(1, n + 1):
                paper = sum(
                    math.comb(n, k) * math.comb(k, m) * F(-1) ** k / (1 - b**k) for k in range(m, n + 1)
                )
                assert beta_direct(p, n, m) == paper / s**m

    def test_one_p_n_per_solution_polynomial(self, monkeypatch, capsys):
        # beta_polynomial and affine --method direct read every m off one log_poly(b, n)
        degrees, build = [], abelsweep.affine.log_poly
        monkeypatch.setattr(abelsweep.affine, "log_poly", lambda b, n: degrees.append(n) or build(b, n))
        beta_polynomial(AffineParams(F(1, 3), 1), 12)
        assert degrees == [12]
        assert main(["affine", "--b", "1/3", "--s", "1", "--n", "12", "--method", "direct"]) == 0
        assert degrees == [12, 12]
        assert len(capsys.readouterr().out.splitlines()) == 13

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("s", SHIFTS)
    def test_direct_solves_the_system(self, b, s):
        p = AffineParams(b, s)
        g = affine_series(p, 16)
        for n in (1, 2, 3, 5, 8, 13, 16):
            want = tuple(beta_direct(p, n, m) for m in range(1, n + 1))
            assert solve_truncated(abel_system(g, n)) == want

    @settings(max_examples=100, deadline=None)
    @given(
        small_rationals().filter(lambda b: abs(b) != 1),
        small_rationals().filter(lambda s: s != 0),
        st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    )
    def test_recurrence_equals_direct_property(self, b, s, nm):
        n, m = nm
        p = AffineParams(b, s)
        assert beta_recurrence(p, n, m) == beta_direct(p, n, m)

    def test_complex_base_refused(self):
        # the closed forms take the exact value of a real base
        with pytest.raises(ValueError):
            beta_direct(AffineParams(2j, 1.0), 3, 2)

    def test_recurrence_gives_one_fraction_for_float_and_exact_base(self):
        # 0.125 == F(1, 8): a float base runs on its exact value, so both
        # calls give the same Fraction, whichever type came first
        beta_recurrence(AffineParams(0.125, 1), 6, 1)
        got = beta_recurrence(AffineParams(F(1, 8), 1), 6, 1)
        assert type(got) is F and got == F(-2576862544, 5317395993)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_recurrence_over_mpf_base(self, bits):
        # the recurrence runs on the exact value of the mpf base, so the
        # result is as close to the exact one as that base is to 1/3
        cfg = PrecisionConfig("bigfloat", bits=bits)
        p = AffineParams(cfg.scalar(F(1, 3)), cfg.scalar(1))
        with cfg.workprec():
            for m in range(1, 9):
                want = beta_direct(AffineParams(F(1, 3), 1), 8, m)
                got = as_fraction(beta_recurrence(p, 8, m))
                assert abs(got - want) <= F(2) ** (8 - bits) * abs(want)


class TestLogPoly:
    def test_value_at_one_is_zero(self):
        # the float modes subtract the anchored constant summed from the same
        # rounded coefficients, so nothing is left over at 1
        for n in (1, 2, 7, 20, 100):
            poly = log_poly(F(1, 2), n)
            for cfg in (EXACT, BIG, MACHINE):
                assert eval_log_poly(poly, F(1), cfg) == 0

    @pytest.mark.parametrize("b", [F(1, 2), F(1, 3), F(3)])
    def test_value_at_base_is_one(self, b):
        for n in (1, 3, 10):
            assert eval_log_poly(log_poly(b, n), b, EXACT) == 1

    def test_half_cubed_identity(self):
        # degree 3 at x = b^2 for b = 1/2: 1 + (1 - (1/2)^3) = 15/8
        assert eval_log_poly(log_poly(F(1, 2), 3), F(1, 4), EXACT) == F(15, 8)

    @pytest.mark.parametrize("b", [F(1, 2), F(1, 3)])
    def test_lattice_identity(self, b):
        # alpha~^(n)(b^m) == sum_{i<m} (1 - (1-b^i)^n), exact
        for n in (1, 2, 5, 11, 20):
            poly = log_poly(b, n)
            for m in range(1, 6):
                want = sum(1 - (1 - b**i) ** n for i in range(m))
                assert eval_log_poly(poly, b**m, EXACT) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
            lambda b: b not in (1, -1)
        ),
        st.integers(1, 200),
    )
    def test_coefficients_match_the_fraction_formula(self, b, n):
        # the integer recurrences build each c_k as one Fraction; the
        # formula as written is the reference, term by term
        want = tuple((-1) ** k * math.comb(n, k) / (1 - b**k) for k in range(1, n + 1))
        got = log_poly(b, n).coeffs
        assert got == want
        assert all(type(c) is F for c in got)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
            lambda b: b not in (1, -1)
        ),
        st.integers(1, 12),
        st.fractions(min_value=-3, max_value=3, max_denominator=16),
    )
    def test_exact_value_matches_the_defining_sum(self, b, n, x):
        # the balanced sum of c_k (x**k - 1) against the definition, summed naively
        want = sum(
            F(math.comb(n, k) * (-1) ** (k + 1)) * (1 - x**k) / (1 - b**k)
            for k in range(1, n + 1)
        )
        assert eval_log_poly(log_poly(b, n), x, EXACT) == want

    @pytest.mark.parametrize("n", [40, 200, 1100])
    def test_float_base_gives_the_exact_polynomial(self, n):
        # a float base runs in Fractions of its binary value: float
        # coefficients lose the cancellation, and overflow at n=1100
        assert log_poly(0.5, n).coeffs == log_poly(F(1, 2), n).coeffs

    def test_root_of_unity_rejected(self):
        with pytest.raises(RootOfUnityError):
            log_poly(F(1), 3)
        with pytest.raises(RootOfUnityError):
            log_poly(F(-1), 2)

    def test_bigfloat_matches_exact(self):
        poly = log_poly(F(1, 2), 40)
        x = F(3, 10)
        exact_val = eval_log_poly(poly, x, EXACT)
        big_val = as_fraction(eval_log_poly(poly, x, BIG))
        assert abs(big_val - exact_val) < F(1, 10**30)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
            lambda b: b not in (0, 1, -1)
        ),
        st.integers(1, 150),
        st.one_of(
            st.fractions(min_value=-2, max_value=3, max_denominator=64),
            st.floats(min_value=-2, max_value=3, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_bigfloat_precision_contract(self, b, n, x):
        # the configured bits hold whatever the degree, the sign of b or |x|;
        # floats give binary points with denominators up to 2**1074, where
        # Horner shifts instead of dividing
        poly = log_poly(b, n)
        exact_val = eval_log_poly(poly, x, EXACT)
        big_val = as_fraction(eval_log_poly(poly, x, BIG))
        assert abs(big_val - exact_val) <= F(1, 2**BIG.bits) * max(1, abs(exact_val))
        # machine mode: the same fixed point at 53 bits, rounded once to a float
        machine_val = eval_log_poly(poly, x, MACHINE)
        assert type(machine_val) is float
        assert abs(as_fraction(machine_val) - exact_val) <= F(1, 2**52) * max(1, abs(exact_val))

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
            lambda b: b not in (0, 1, -1)
        ),
        st.integers(1, 150),
        st.lists(
            st.fractions(min_value=-2, max_value=3, max_denominator=64), min_size=2, max_size=8
        ),
    )
    def test_bigfloat_rounding_memo_is_invisible(self, b, n, xs):
        # |x| > 1 raises the fraction bits and |x| <= 1 lowers them, so the
        # memo is both refilled and read by shifts along the sequence
        poly = log_poly(b, n)
        key = (poly == log_poly(b, n), hash(poly))
        for x in xs:
            fresh = eval_log_poly(log_poly(b, n), x, BIG)
            assert eval_log_poly(poly, x, BIG)._mpf_ == fresh._mpf_
        assert (poly == log_poly(b, n), hash(poly)) == key

    def test_rounding_memo_not_in_repr(self):
        poly = log_poly(F(1, 2), 3)
        eval_log_poly(poly, F(1, 3), BIG)
        assert repr(poly) == repr(log_poly(F(1, 2), 3))

    def test_bigfloat_huge_point(self):
        # the point's size is read from its integers; float(x) would overflow
        poly = log_poly(F(1, 2), 5)
        x = F(10**400, 3)
        exact_val = eval_log_poly(poly, x, EXACT)
        big_val = as_fraction(eval_log_poly(poly, x, BIG))
        assert abs(big_val - exact_val) <= F(1, 2**BIG.bits) * abs(exact_val)

    def test_bigfloat_accepts_mpf_coefficients(self):
        exact_poly = log_poly(F(1, 3), 300)
        with mpmath.mp.workprec(300 + 256):
            rounded = tuple(mpmath.mpf(c.numerator) / c.denominator for c in exact_poly.coeffs)
        poly = LogApproxPoly(exact_poly.n, exact_poly.b, rounded)
        x = F(7, 10)
        want = eval_log_poly(exact_poly, x, EXACT)
        assert abs(as_fraction(eval_log_poly(poly, x, BIG)) - want) <= F(1, 2**BIG.bits)

    def test_convergence_to_log(self):
        # mid-scale spot check of the limit statement
        poly = log_poly(F(1, 2), 200)
        ref = reference_log(F(1, 2), F(3, 10), bits=400)
        assert abs(eval_log_poly(poly, F(3, 10), BIG) - ref) < 1e-3

    @pytest.mark.parametrize("b,x", [(0, F(1, 2)), (F(-2), F(1, 2)), (1, 2), (F(1, 2), 0), (F(1, 2), F(-1, 2))])
    def test_reference_log_domain(self, b, x):
        with pytest.raises(DomainError):
            reference_log(b, x)

    def test_machine_mode_small_degree(self):
        poly = log_poly(F(1, 2), 12)
        v = eval_log_poly(poly, 0.5, MACHINE)
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_machine_mode_out_of_float_range(self):
        # about 10**2000: the fixed-point sum does not round to a float
        poly = log_poly(F(1, 2), 5)
        with pytest.raises(ValueError, match="machine precision"):
            eval_log_poly(poly, F(10**400, 3), MACHINE)


class TestOnpow:
    @pytest.mark.parametrize("n,y,val", [(2, F(1, 2), F(3, 4)), (1, F(1), F(1))])
    def test_known_values(self, n, y, val):
        lhs, rhs = onpow_identity(n, y)
        assert lhs == rhs == val

    def test_zero(self):
        assert onpow_identity(5, F(0)) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 64])
    @pytest.mark.parametrize("y", [F(0), F(1, 2), F(-1, 2), F(1), F(2)])
    def test_identity_grid(self, n, y):
        lhs, rhs = onpow_identity(n, y)
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), small_rationals())
    def test_identity_property(self, n, y):
        lhs, rhs = onpow_identity(n, y)
        assert lhs == rhs


class TestRemainder:
    def test_j_zero_vanishes(self):
        for n in (1, 3, 10):
            assert remainder(n, 0, F(1, 2)) == 0

    def test_two_term_case(self):
        assert remainder(2, 1, F(1, 2)) == F(1, 4)

    def test_symmetry(self):
        b = F(1, 2)
        for n in range(1, 21):
            for j in range(1, 21):
                assert abs(remainder(n, j, b)) == abs(remainder(j, n, b))

    def test_bound_majorizes(self):
        b = F(1, 2)
        for n in (2, 5, 9):
            for j in (1, 4, 7):
                assert abs(remainder(n, j, b)) <= remainder_bound(j, n, b)

    def test_bound_decreasing_in_n(self):
        b = F(1, 2)
        for j in range(1, 11):
            prev = None
            for n in range(1, 41):
                d = remainder_bound(j, n, b)
                if prev is not None:
                    assert d <= prev
                prev = d


class TestBinomTail:
    def test_kappa_one_vanishes(self):
        partial, _ = binom_tail(1, 100)
        assert partial == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            binom_tail(0, 10)
        with pytest.raises(ValueError):
            binom_tail(-0.5, 10)

    def test_per_term_bound_example(self):
        # |C(1/2, 4)| <= e^(0.75)/4^(3/2)
        val = abs(math.prod(F(1, 2) - i for i in range(4)) / math.factorial(4))
        assert val == F(5, 128)  # 0.0390625
        assert float(val) <= math.exp(0.75) / 8

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_partial_sums_increase_toward_limit(self, x):
        p3, _ = binom_tail(x, 10**3)
        p4, _ = binom_tail(x, 10**4)
        assert p3 < p4 < 1 - x

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("J", [1, 10, 100, 10**4])
    def test_tail_bounds_the_rest_from_above(self, x, J):
        # sum_{j>=1} |C(x, j+1)| = 1 - x for 0 < x < 1
        partial, tail = binom_tail(x, J)
        assert tail >= (1 - x) - partial > 0


class TestInvarianceGap:
    XS = [F(2, 10) + F(i, 10) * F(7, 9) for i in range(10)]

    def test_same_params_give_zero(self):
        p = AffineParams(F(1, 2), F(1))
        rep = s_invariance_gap(p, p, 50, self.XS, BIG)
        assert rep.deviation == 0
        assert rep.median_gap == 0

    def test_degree_one_is_not_constant(self):
        # negative control: the difference is affine in x at n=1
        p1 = AffineParams(F(1, 2), F(1))
        p2 = AffineParams(F(1, 2), F(2))
        rep = s_invariance_gap(p1, p2, 1, self.XS, BIG)
        assert rep.deviation > 0.1

    def test_gap_approaches_log_ratio(self):
        p1 = AffineParams(F(1, 2), F(1))
        p2 = AffineParams(F(1, 2), F(2))
        rep = s_invariance_gap(p1, p2, 200, self.XS, BIG)
        # analytic constant log_b(s1) - log_b(s2) = 1
        assert abs(rep.median_gap - 1) < 1e-2
        assert rep.deviation < 1e-2

    def test_generic_shift_pair(self):
        p1 = AffineParams(F(1, 2), F(1))
        p3 = AffineParams(F(1, 2), F(3))
        rep = s_invariance_gap(p1, p3, 200, self.XS, BIG)
        assert abs(rep.median_gap - math.log(3) / math.log(2)) < 1e-4
        assert rep.deviation < 1e-4

    def test_mismatched_bases_rejected(self):
        p1 = AffineParams(F(1, 2), F(1))
        p2 = AffineParams(F(1, 3), F(2))
        with pytest.raises(ValueError):
            s_invariance_gap(p1, p2, 10, self.XS, BIG)
