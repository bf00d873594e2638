import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsweep import (
    PrecisionConfig,
    TruncatedSeries,
    exp_shift_series,
    from_json_dict,
    pad,
    series_compose,
    series_mul,
)
from abelsweep.cli import main

from conftest import rational_coeff_lists


def S(*coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


class TestConstruction:
    def test_order_from_length(self):
        assert S(1, 2, 3).order == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1.0, float("nan")))
        with pytest.raises(ValueError):
            TruncatedSeries((float("inf"),))

    def test_json_reads_coefficients_with_optional_zero_center(self):
        cfg = PrecisionConfig("exact")
        want = S(1, "1/3", -2)
        for extra in ({}, {"center": 0}, {"center": "0/5"}, {"center": 0.0}):
            assert from_json_dict({"coeffs": [1, "1/3", "-2"], **extra}, cfg) == want

    @pytest.mark.parametrize("center", [1, "1/3", -0.5, "1e-400", "zebra", None, True, False])
    def test_json_rejects_a_center_other_than_zero(self, center):
        # series are developed at 0; a nonzero center is refused even where
        # the float modes would round it to 0
        with pytest.raises(ValueError, match="^bad series object: ") as info:
            from_json_dict({"center": center, "coeffs": [1, 2]}, PrecisionConfig("machine"))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("coeffs", [["not-a-number"], "123", [True, 1, False], {"0": 1}])
    def test_json_rejects_garbage(self, coeffs):
        # coeffs is an array of numbers or strings, and a boolean is not a number
        with pytest.raises(ValueError, match="^bad series object: ") as info:
            from_json_dict({"coeffs": coeffs}, PrecisionConfig("exact"))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("text,words", [
        ("[1, 2]", "a series file holds one object"),
        ('"x"', "a series file holds one object"),
        ('{"coeffs": []}', "coeffs must be a nonempty array"),
    ])
    def test_json_rejects_what_is_not_a_series_object(self, tmp_path, capsys, text, words):
        # a list or a string failed with Python's indexing message, and an
        # empty array without the prefix
        with pytest.raises(ValueError, match=f"^bad series object: {words}"):
            from_json_dict(json.loads(text), PrecisionConfig("exact"))
        series = tmp_path / "s.json"
        series.write_text(text)
        assert main(["solve", "--series", str(series), "--N", "2", "--precision", "exact"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad series object: {words}") and err.count("\n") == 1


class TestMul:
    def test_binomial_square(self):
        # (1+x)*(1+x) at order 2
        f = S(1, 1, 0)
        assert series_mul(f, f) == S(1, 2, 1)

    def test_one_is_identity(self):
        f = S(3, -1, F(1, 2))
        one = S(1, 0, 0)
        assert series_mul(f, one) == f

    def test_truncation_drops_high_terms(self):
        # (1+x+x^2)*(1-x) = 1 - x^3, truncated at order 2
        a = S(1, 1, 1)
        b = S(1, -1, 0)
        assert series_mul(a, b) == S(1, 0, 0)

    def test_unequal_orders_truncate_to_smaller(self):
        assert series_mul(S(1, 1, 1, 1), S(1, 1)).order == 1


class TestAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(rational_coeff_lists(3, 3), rational_coeff_lists(3, 3))
    def test_mul_commutative(self, a, b):
        fa, fb = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
        assert series_mul(fa, fb) == series_mul(fb, fa)

    @settings(max_examples=40, deadline=None)
    @given(rational_coeff_lists(3, 3), rational_coeff_lists(3, 3), rational_coeff_lists(3, 3))
    def test_mul_associative(self, a, b, c):
        fa = TruncatedSeries(tuple(a))
        fb = TruncatedSeries(tuple(b))
        fc = TruncatedSeries(tuple(c))
        assert series_mul(series_mul(fa, fb), fc) == series_mul(fa, series_mul(fb, fc))


class TestCompose:
    def test_polynomial_substitution(self):
        # outer(y) = 1 + y^2, inner = 1 + x: 1 + (1+x)^2 = 2 + 2x + x^2
        outer = S(1, 0, 1)
        inner = S(1, 1, 0)
        assert series_compose(outer, inner) == S(2, 2, 1)

    def test_truncates_to_requested_order(self):
        outer = S(0, 1)
        inner = S(0, 1, 1)
        assert series_compose(outer, inner, order=1) == S(0, 1)


class TestExpSeries:
    def test_exact_factorials_at_zero_shift(self):
        f = exp_shift_series(0, 4, PrecisionConfig("exact"))
        assert f.coeffs == (F(1), F(1), F(1, 2), F(1, 6), F(1, 24))

    def test_exact_mode_rejects_nonzero_shift(self):
        with pytest.raises(ValueError):
            exp_shift_series(F(1, 2), 4, PrecisionConfig("exact"))

    def test_bigfloat_shifted(self):
        import mpmath

        cfg = PrecisionConfig("bigfloat", bits=64)
        f = exp_shift_series(1, 3, cfg)
        assert abs(f.coeffs[0] - (mpmath.e - 1)) < 1e-15
        assert abs(f.coeffs[2] - mpmath.e / 2) < 1e-15


class TestPad:
    def test_pad_and_truncate(self):
        f = S(1, 2)
        assert pad(f, 3) == S(1, 2, 0, 0)
        assert pad(S(1, 2, 3), 1) == S(1, 2)
