from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsweep import PrecisionConfig, RootOfUnityError, TruncatedSeries, format_scalar
from abelsweep.powerseries import series_mul
from abelsweep.scalars import ROOT_OF_UNITY_TOL, as_fraction, check_not_root_of_unity, dot, dot_sub
from conftest import small_rationals


class TestParseRational:
    """Literals through ``as_fraction``, the one parser of numeric input."""

    @pytest.mark.parametrize(
        "text,want",
        [
            ("3/4", F(3, 4)),
            ("-7/2", F(-7, 2)),
            ("0.25", F(1, 4)),
            ("2", F(2)),
            (5, F(5)),
            (F(1, 3), F(1, 3)),
        ],
    )
    def test_literals(self, text, want):
        assert as_fraction(text) == want

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_fraction("zebra")
        with pytest.raises(ValueError):
            as_fraction(None)


class TestPrecisionConfig:
    def test_modes_convert(self):
        assert PrecisionConfig("exact").scalar("1/3") == F(1, 3)
        assert PrecisionConfig("machine").scalar("1/4") == 0.25
        v = PrecisionConfig("bigfloat", bits=64).scalar("1/3")
        assert isinstance(v, mpmath.mpf)

    def test_bigfloat_needs_24_bits(self):
        with pytest.raises(ValueError):
            PrecisionConfig("bigfloat", bits=16)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PrecisionConfig("quantum")

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            PrecisionConfig("exact", guard_bits=-1)


class TestFormatting:
    def test_fraction(self):
        assert format_scalar(F(4, 3)) == "4/3"
        assert format_scalar(F(6, 3)) == "2"

    def test_integers_past_the_str_digit_limit(self):
        big = 10**5000 + 7
        digits = "1" + "0" * 4999 + "7"
        assert format_scalar(F(big, 3)) == digits + "/3"
        assert format_scalar(F(-3, big)) == "-3/" + digits
        assert format_scalar(-big) == "-" + digits

    def test_float_round_trips(self):
        x = 0.1 + 0.2
        assert float(format_scalar(x)) == x

    def test_mpf_uses_requested_digits(self):
        with mpmath.mp.workprec(128):
            x = mpmath.mpf(1) / 3
            text = format_scalar(x, dps=40)
        assert text.startswith("0.3333333333333333333333333333333")


class TestRootOfUnity:
    def test_exact_detection(self):
        with pytest.raises(RootOfUnityError):
            check_not_root_of_unity(F(1), 1)
        check_not_root_of_unity(F(2), 50)

    def test_complex_roots(self):
        # scalars are real: a complex base is refused, as as_fraction refuses it
        for b in (1j, 1 + 0j, mpmath.mpc(0, 1)):
            with pytest.raises(ValueError, match="real base"):
                check_not_root_of_unity(b, 4)

    @staticmethod
    def _rule_and_loop(b, max_k):
        """What the rule raises for (b, max_k), and what the power loop raises."""

        def power_loop():
            exact = isinstance(b, (int, F))
            p = b
            for k in range(1, max_k + 1):
                if (p == 1) if exact else abs(p - 1) < ROOT_OF_UNITY_TOL:
                    raise RootOfUnityError(b, k)
                p = p * b

        def raised(check):
            try:
                check()
            except RootOfUnityError as exc:
                return type(exc.b), exc.b, exc.k, str(exc)
            return None

        return raised(lambda: check_not_root_of_unity(b, max_k)), raised(power_loop)

    @staticmethod
    def _mpf(x, bits=128):
        with mpmath.mp.workprec(bits):
            return mpmath.mpf(x)

    @pytest.mark.parametrize("max_k", [0, 1, 2, 3])
    @pytest.mark.parametrize("b", [1, -1, F(1), F(-1), 2, F(1, 3)])
    def test_rational_shortcut_matches_the_power_loop(self, b, max_k):
        rule, loop = self._rule_and_loop(b, max_k)
        assert rule == loop

    @pytest.mark.parametrize("offset", [0, 1e-13, -4e-13, 4e-13, -6e-13, 6e-13, 1e-12, 2e-12])
    @pytest.mark.parametrize("one", [1, -1])
    @pytest.mark.parametrize("kind", ["float", "mpf"])
    def test_float_rule_matches_the_power_loop_near_plus_minus_one(self, kind, one, offset):
        # near -1, b**2 - 1 is about -2*offset, so 4e-13 is refused at k=2 and 6e-13 is not
        b = one + offset if kind == "float" else self._mpf(one) + self._mpf(offset)
        for max_k in (0, 1, 2, 3, 40):
            rule, loop = self._rule_and_loop(b, max_k)
            assert rule == loop, max_k

    @given(
        st.one_of(
            st.floats(-3, 3),
            st.tuples(st.sampled_from([1, -1]), st.floats(-1e-11, 1e-11)).map(sum),
            st.sampled_from([0.0, 1e-300, -1e300, 1e300]),
        ),
        st.sampled_from(["float", "mpf"]),
        st.integers(0, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_rule_matches_the_power_loop(self, x, kind, max_k):
        b = x if kind == "float" else self._mpf(x)
        rule, loop = self._rule_and_loop(b, max_k)
        assert rule == loop


class TestAsFraction:
    def test_mpf_is_lossless(self):
        with mpmath.mp.workprec(80):
            x = mpmath.mpf(1) / 7
        q = as_fraction(x)
        with mpmath.mp.workprec(80):
            assert mpmath.mpf(q.numerator) / q.denominator == x

    @pytest.mark.parametrize(
        "x",
        [float("inf"), float("nan"), mpmath.inf, mpmath.nan, "inf", "1/0", None, 1j, [1]],
        ids=repr,
    )
    def test_rejects_non_finite_and_other_input(self, x):
        with pytest.raises(ValueError):
            as_fraction(x)

    @given(
        st.fractions(max_denominator=10**30).filter(lambda q: abs(q) < 10**40),
        st.sampled_from(["fraction", "float", "mpf", "str"]),
        st.integers(min_value=24, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_one_rounding_of_the_exact_value(self, q, kind, bits):
        if kind == "float":
            x = float(q)
        elif kind == "mpf":
            with mpmath.mp.workprec(bits + 40):
                x = mpmath.mpf(q.numerator) / q.denominator
        elif kind == "str":
            x = str(q)
        else:
            x = q
        exact = F(x) if kind == "float" else as_fraction(x)
        assert as_fraction(str(exact)) == exact
        with mpmath.mp.workprec(bits):
            want = mpmath.mpf(exact.numerator) / exact.denominator
        got = PrecisionConfig("bigfloat", bits=bits).scalar(x)
        assert got._mpf_ == want._mpf_


class TestMachineRange:
    @pytest.mark.parametrize("x", ["1e400", F(-(10**400)), 10**400], ids=["str", "fraction", "int"])
    def test_out_of_range_is_one_line_value_error(self, x):
        with pytest.raises(ValueError) as info:
            PrecisionConfig("machine").scalar(x)
        assert len(str(info.value)) < 200 and "\n" not in str(info.value)


def plain_dot(xs, ys):
    acc = xs[0] * ys[0]
    for i in range(1, min(len(xs), len(ys))):
        acc = acc + xs[i] * ys[i]
    return acc


def plain_dot_sub(acc, xs, ys):
    for i in range(min(len(xs), len(ys))):
        acc = acc - xs[i] * ys[i]
    return acc


def same_bits(a, b):
    """Equal type and equal value to the last bit: the raw tuple for mpf, the hex form for float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, mpmath.mpf):
        return a._mpf_ == b._mpf_
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


class TestDotKernel:
    """``dot`` and ``dot_sub`` against the operator loops they replace."""

    # mantissas up to 300 bits, zeros, and exponents far apart
    mpf_parts = st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(-(2**300), 2**300), st.integers(-400, 400)),
        st.tuples(st.integers(-1000, 1000), st.integers(-8, 8)),
    )

    @staticmethod
    def to_mpf(parts):
        man, exp = parts
        return mpmath.mpf(mpmath.libmp.from_man_exp(man, exp))

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.sampled_from([24, 53, 64, 113, 256, 1000]),
        acc=mpf_parts,
        pairs=st.lists(st.tuples(mpf_parts, mpf_parts), min_size=1, max_size=12),
        cancel=st.booleans(),
    )
    def test_mpf_at_every_precision(self, bits, acc, pairs, cancel):
        xs = [self.to_mpf(x) for x, _ in pairs]
        ys = [self.to_mpf(y) for _, y in pairs]
        if cancel:  # each product followed by its negative, and acc near their sum
            xs, ys = xs + [-x for x in xs], ys + ys
        with mpmath.mp.workprec(bits):
            a = self.to_mpf(acc)
            if cancel:
                a = a + xs[0] * ys[0]
            assert same_bits(dot(xs, ys), plain_dot(xs, ys))
            assert same_bits(dot_sub(a, xs, ys), plain_dot_sub(a, xs, ys))

    @pytest.mark.parametrize("rounding", ["n", "f", "c", "d", "u"])
    def test_mpf_under_every_rounding_mode(self, rounding):
        xs = [mpmath.mpf(1) / k for k in range(1, 9)]
        ys = [mpmath.mpf(-3) ** k / 7 for k in range(8)]
        prec_rounding = mpmath.mp._prec_rounding
        saved = prec_rounding[1]
        prec_rounding[1] = rounding
        try:
            with mpmath.mp.workprec(80):
                assert same_bits(dot(xs, ys), plain_dot(xs, ys))
                assert same_bits(dot_sub(xs[2], xs, ys), plain_dot_sub(xs[2], xs, ys))
        finally:
            prec_rounding[1] = saved

    @given(
        acc=st.floats(-1e300, 1e300),
        pairs=st.lists(st.tuples(st.floats(-1e200, 1e200), st.floats(-1e200, 1e200)), min_size=1, max_size=10),
    )
    def test_floats(self, acc, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert same_bits(dot(xs, ys), plain_dot(xs, ys))
        assert same_bits(dot_sub(acc, xs, ys), plain_dot_sub(acc, xs, ys))

    exact_values = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20))

    @given(
        acc=exact_values,
        pairs=st.lists(st.tuples(exact_values, exact_values), min_size=1, max_size=10),
    )
    def test_fractions_and_ints(self, acc, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert same_bits(dot(xs, ys), plain_dot(xs, ys))
        assert same_bits(dot_sub(acc, xs, ys), plain_dot_sub(acc, xs, ys))

    @pytest.mark.parametrize(
        "x,y,acc",
        [(mpmath.mpf(3), mpmath.mpf("0.1"), mpmath.mpf(1)), (0.1, 3.0, 1.0), (F(1, 3), 4, F(2, 5)), (2, 5, 7)],
        ids=["mpf", "float", "fraction", "int"],
    )
    def test_single_term(self, x, y, acc):
        assert same_bits(dot([x], [y]), x * y)
        assert same_bits(dot_sub(acc, [x], [y]), acc - x * y)
        assert same_bits(dot_sub(acc, [], []), acc)

    def test_longer_sequence_is_cut_as_by_zip(self):
        xs = [mpmath.mpf(k) / 3 for k in range(1, 6)]
        ys = xs[:3]
        assert same_bits(dot(xs, ys), plain_dot(xs, ys))
        assert same_bits(dot_sub(xs[4], ys, xs), plain_dot_sub(xs[4], ys, xs))

    @pytest.mark.parametrize("where", ["acc", "xs", "ys", "last"])
    def test_an_int_among_mpfs_takes_the_operator_loop(self, where):
        with mpmath.mp.workprec(100):
            xs = [mpmath.mpf(1) / k for k in range(1, 6)]
            ys = [mpmath.mpf(2) / k for k in range(2, 7)]
            acc = mpmath.mpf(1) / 7
            if where == "acc":
                acc = 3
            elif where == "xs":
                xs[2] = 5
            elif where == "ys":
                ys[0] = -2
            else:
                xs[-1] = 1
            assert same_bits(dot_sub(acc, xs, ys), plain_dot_sub(acc, xs, ys))
            if where != "acc":
                assert same_bits(dot(xs, ys), plain_dot(xs, ys))
            mixed = [mpmath.mpf(1) / 3, 0.25, F(1, 2)]
            assert same_bits(dot(mixed, xs), plain_dot(mixed, xs))

    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.sampled_from([53, 64, 256]),
        a=st.lists(small_rationals(99, 50), min_size=1, max_size=16),
        b=st.lists(small_rationals(99, 50), min_size=1, max_size=16),
    )
    def test_bigfloat_series_mul_matches_the_plain_product(self, bits, a, b):
        cfg = PrecisionConfig("bigfloat", bits=bits)
        fa = TruncatedSeries(tuple(cfg.scalar(q) for q in a))
        fb = TruncatedSeries(tuple(cfg.scalar(q) for q in b))
        with cfg.workprec():
            product = series_mul(fa, fb)
            plain = [
                plain_dot(fa.coeffs[: n + 1], fb.coeffs[n::-1])
                for n in range(min(fa.order, fb.order) + 1)
            ]
        assert [c._mpf_ for c in product.coeffs] == [c._mpf_ for c in plain]
