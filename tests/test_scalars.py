from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsweep import PrecisionConfig, RootOfUnityError, format_scalar
from abelsweep.scalars import ROOT_OF_UNITY_TOL, as_fraction, check_not_root_of_unity


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
