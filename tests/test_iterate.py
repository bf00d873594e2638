import dataclasses
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelsweep import (
    AffineParams,
    BracketError,
    DomainError,
    IterationContext,
    PrecisionConfig,
    RootOfUnityError,
    eval_log_poly,
    exact_log_context,
    fractional_iterate,
    log_poly,
    log_poly_evaluator,
    poly_abel_context,
    semigroup_check,
)
from abelsweep.scalars import sign

BIG = PrecisionConfig("bigfloat", bits=128, guard_bits=64)
MACHINE = PrecisionConfig("machine")


def recording(ctx):
    """ctx rebuilt with its Abel evaluator recording each argument in a list."""
    seen = []

    def abel(z):
        seen.append(z)
        return ctx.abel(z)

    return dataclasses.replace(ctx, abel=abel), seen


@pytest.fixture
def doubling():
    # f(x) = 2x with Abel function log_2(x); s=1 kills the additive constant
    return exact_log_context(F(2), F(1), BIG, tol=1e-12)


class TestExactLogContext:
    def test_one_step_is_the_map(self, doubling):
        # the evaluation count guards the root search; bisection made 140
        ctx, seen = recording(doubling)
        assert abs(fractional_iterate(ctx, 1, 3) - 6) < 1e-9
        assert len(seen) <= 48

    def test_half_step_is_sqrt_factor(self, doubling):
        got = fractional_iterate(doubling, F(1, 2), 1)
        assert abs(got - math.sqrt(2)) < 1e-9

    def test_zero_step_is_identity(self, doubling):
        for z in (0.25, 1.0, 7.5):
            assert abs(fractional_iterate(doubling, 0, z) - z) < 1e-9

    @pytest.mark.parametrize("m", range(6))
    def test_integer_steps_match_composition(self, doubling, m):
        z = 0.7
        want = z * 2**m
        assert abs(fractional_iterate(doubling, m, z) - want) < 1e-8 * max(1, want)

    def test_semigroup_is_tight(self, doubling):
        dev = semigroup_check(doubling, F(1, 3), F(1, 2), [1, 2, 3])
        assert dev < 1e-9

    def test_zero_zero_semigroup(self, doubling):
        assert semigroup_check(doubling, 0, 0, [2.0]) < 1e-12

    def test_exact_config_rejected(self):
        # the logarithm has no exact value; mpmath would silently use 53 bits
        with pytest.raises(ValueError, match="no exact mode"):
            exact_log_context(F(2), F(1), PrecisionConfig("exact"))

    @pytest.mark.parametrize("cfg", [BIG, MACHINE], ids=["bigfloat", "machine"])
    @pytest.mark.parametrize("b,s", [(F(-2), F(1)), (F(2), F(-1)), (F(1, 2), F(-3))])
    def test_nonpositive_base_or_shift_rejected(self, cfg, b, s):
        with pytest.raises(DomainError):
            exact_log_context(b, s, cfg)

    @pytest.mark.parametrize("cfg", [BIG, MACHINE], ids=["bigfloat", "machine"])
    @pytest.mark.parametrize("z", [0, -1, F(-1, 3)])
    def test_nonpositive_point_rejected(self, cfg, z):
        ctx = exact_log_context(F(2), F(1), cfg)
        with pytest.raises(DomainError):
            fractional_iterate(ctx, 1, cfg.scalar(z))


@pytest.fixture(scope="module")
def halving():
    # g(x) = (x+1)/2 - 1, Abel polynomial of degree 200 developed at s=1
    p = AffineParams(F(1, 2), F(1))
    return poly_abel_context(p, 200, BIG, bracket=(-0.95, 0.95), tol=1e-9)


class TestPolynomialContext:

    def test_one_step_matches_direct_evaluation(self, halving):
        # README's example; the evaluation count guards the root search,
        # where bisection made 34
        ctx, seen = recording(halving)
        got = fractional_iterate(ctx, 1, 0.3)
        want = 0.5 * (0.3 + 1) - 1  # -0.35
        assert abs(got - want) < 1e-3
        assert len(seen) <= 16

    def test_mean_evaluations_per_iterate(self):
        # the iterate_poly benchmark's grid shape: inverse quadratic steps
        # average 6.86 evaluations here, Pegasus steps alone 8.81
        evaluations = iterates = 0
        for b in (F(1, 2), F(1, 3)):
            for n in (150, 300):
                ctx, seen = recording(
                    poly_abel_context(AffineParams(b, F(1)), n, PrecisionConfig(), (-0.95, 0.95))
                )
                seen.clear()  # the bracket ends, evaluated when the context is rebuilt
                for t in (F(1, 4), F(1, 2), 1, F(3, 2)):
                    for z in (F(-1, 2), 0, F(3, 10), F(4, 5)):
                        fractional_iterate(ctx, t, z)
                        iterates += 1
                evaluations += len(seen)
        assert evaluations / iterates <= 7.0

    def test_bracket_ends_evaluated_once_per_context(self, halving):
        ctx, seen = recording(halving)
        assert seen == [-0.95, 0.95]
        seen.clear()
        got = [fractional_iterate(ctx, t, 0.3) for t in (1, F(1, 2))]
        assert seen and -0.95 not in seen and 0.95 not in seen
        assert got == [fractional_iterate(halving, t, 0.3) for t in (1, F(1, 2))]

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("b", [F(1, 2), F(1, 3)])
    def test_constant_term_does_not_move_iterates(self, b, n):
        # the context drops P_n(0); an Abel function of the full P_n inverts
        # to the same iterates, up to where each root search stops
        p = AffineParams(b, F(1))
        poly = log_poly(b, n)
        full = IterationContext(
            lambda z: eval_log_poly(poly, z / p.s + 1, BIG), (-0.95, 0.95), 1e-9, BIG
        )
        ctx = poly_abel_context(p, n, BIG, bracket=(-0.95, 0.95), tol=1e-9)
        for t in (F(1, 4), 1, F(3, 2)):
            for z in (F(-1, 2), 0, F(3, 10), F(4, 5)):
                assert abs(fractional_iterate(ctx, t, z) - fractional_iterate(full, t, z)) < 1e-8

    def test_semigroup_deviation_small(self, halving):
        grid = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        assert semigroup_check(halving, 0.5, 0.5, grid) < 1e-2

    def test_bracket_failure_reports_interval(self, halving):
        with pytest.raises(BracketError) as err:
            # far outside the invertible range of the polynomial
            fractional_iterate(halving, -40, 0.3)
        assert err.value.lo == -0.95 and err.value.hi == 0.95
        assert (err.value.t, err.value.z) == (-40, 0.3)
        # log_{1/2}(1.95/1.3) and log_{1/2}(0.05/1.3), up to P_n's error
        tmin, tmax = err.value.reach
        assert abs(tmin + math.log2(1.5)) < 1e-3 and abs(tmax - math.log2(26)) < 1e-3
        assert abs(err.value.width - math.log2(39)) < 1e-3
        assert "t=-40 at z=0.3" in str(err.value) and "[-0.95, 0.95]" in str(err.value)

    def test_bracket_failure_is_free_of_the_additive_constant(self, halving):
        # an Abel function of the full P_n, at the same exact points z/s + 1,
        # reports the same reachable range
        poly = log_poly(F(1, 2), 200)
        full = IterationContext(
            lambda z: eval_log_poly(poly, F(z) + 1, BIG), (-0.95, 0.95), 1e-9, BIG
        )
        reach = []
        for ctx in (halving, full):
            with pytest.raises(BracketError) as err:
                fractional_iterate(ctx, 5, 0.3)
            reach.append(err.value.reach)
        assert all(abs(u - v) < 1e-20 for u, v in zip(*reach))

    def test_exact_config_refused(self):
        # returned -0.3500000000157085, a float, when the context accepted it
        with pytest.raises(ValueError, match="no exact mode"):
            poly_abel_context(
                AffineParams(F(1, 2), F(1)), 20, PrecisionConfig("exact"), bracket=(-0.9, 0.9)
            )

    def test_query_beyond_the_bracket_scale(self, halving):
        # z = 49/50 is the point x = 1.98, which needs more fixed-point bits
        # than the bracket end's 1.95
        z = F(49, 50)
        w = fractional_iterate(halving, 1, z)
        assert w == -0.02199584342731395
        with BIG.workprec():
            assert abs(halving.abel(w) - (halving.abel(z) + 1)) <= halving.tol

    def test_query_far_beyond_the_bracket_reports_its_reach(self, halving):
        # abel(3/2) is P_n(5/2) - P_n(0), about 1.65e35; coefficients rounded
        # at the bracket's scale gave a reach of [-9.9, -4.7] here
        with pytest.raises(BracketError) as err:
            fractional_iterate(halving, 1, F(3, 2))
        assert str(err.value) == (
            "no sign change on bracket [-0.95, 0.95] for t=1 at z=3/2: from z the bracket"
            " reaches t in [-1.65292e+35, -1.65292e+35], an interval of width 5.28536"
        )

    @pytest.mark.parametrize("cfg", [BIG, PrecisionConfig("bigfloat", bits=64), MACHINE],
                             ids=["bits:128", "bits:64", "machine"])
    @pytest.mark.parametrize("s", [F(1), F(-1), F(1, 3), F(5, 2)])
    @pytest.mark.parametrize("b", [F(1, 2), F(1, 3), F(2), F(3, 2), F(-1, 2), F(-2), F(9, 10)])
    def test_evaluator_is_eval_log_poly_to_the_bit(self, b, s, cfg):
        # the context rounds P_n once at its bracket's scale; every value
        # equals eval_log_poly's on the anchor-0 polynomial, at both ends,
        # inside, and beyond either end (beyond the far one for each sign of s)
        n = 40
        ctx = poly_abel_context(AffineParams(b, s), n, cfg, bracket=(-0.9, 0.9))
        poly = dataclasses.replace(log_poly(b, n), anchor=0)
        for z in (-0.9, 0.9, F(-1, 3), 0.0, 0.45, 1.5, -1.5, F(7, 3)):
            got, want = ctx.abel(z), eval_log_poly(poly, F(z) / s + 1, cfg)
            assert type(got) is type(want)
            assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)

    @pytest.mark.parametrize("b,n,error,message", [
        (F(1, 2), 0, ValueError, "degree must be at least 1"),
        (F(1), 3, RootOfUnityError, "base 1 is a root of unity: b**1 == 1"),
        (F(-1), 2, RootOfUnityError, "base -1 is a root of unity: b**2 == 1"),
        (1 + 1j, 3, ValueError, "a root-of-unity check needs a real base, got (1+1j)"),
        (math.inf, 3, ValueError, "cannot convert inf to a Fraction"),
        (math.nan, 3, ValueError, "cannot convert nan to a Fraction"),
    ])
    def test_refuses_what_log_poly_refuses(self, b, n, error, message):
        # the context and the batch evaluator build no log_poly, but refuse
        # its inputs in its words
        for build in (lambda: log_poly(b, n),
                      lambda: log_poly_evaluator(b, n, [F(1, 2)], BIG),
                      lambda: poly_abel_context(AffineParams(b, F(1)), n, BIG, bracket=(-0.9, 0.9))):
            with pytest.raises(error) as info:
                build()
            assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("s", [F(10) ** 400, F(1, 10**400)])
    def test_point_is_exact_for_any_shift(self, s):
        # z/s + 1 in floats overflowed for s=1e400 and divided by zero for s=1e-400
        ctx = poly_abel_context(AffineParams(F(1, 2), s), 20, BIG, bracket=(-0.9, 0.9))
        with pytest.raises(BracketError):
            fractional_iterate(ctx, 1, 0.3)


class TestPegasusSteps:
    @pytest.mark.parametrize("k", [9, 25])
    def test_power_reaches_closed_form_root(self, k):
        # abel(z) = z**k is flat near 0 and steep near 1, where plain regula
        # falsi stalls at one end; bisection needs 43-45 evaluations here
        ctx, seen = recording(IterationContext(abel=lambda z: z**k, bracket=(0, 1), tol=1e-12))
        t, z = F(1, 4), F(1, 2)
        got = fractional_iterate(ctx, t, z)
        root = float(z**k + t) ** (1 / k)
        assert abs(got - root) <= 1e-12
        assert len(seen) <= 16

    @pytest.mark.parametrize("t,end", [(0, 1.0), (2, 4.0)])
    def test_target_at_a_bracket_end_returns_that_end(self, t, end):
        # log_2 is 0 at 1 and 2 at 4, so the target is a stored end value
        ctx = exact_log_context(2, 1, MACHINE, bracket=(1.0, 4.0))
        assert fractional_iterate(ctx, t, 1.0) == end

    def test_no_sign_change_is_bracket_error(self):
        ctx = IterationContext(abel=lambda z: z**9, bracket=(0, 1), tol=1e-12)
        with pytest.raises(BracketError) as err:
            fractional_iterate(ctx, 5, F(1, 2))
        assert (err.value.lo, err.value.hi) == (0, 1)

    def test_unreachable_tolerance_exhausts_resolution(self):
        # a jump at 0.3: the bracket closes on it but no point gets within tol
        ctx = IterationContext(abel=lambda z: -1 if z < 0.3 else 1, bracket=(0, 1), tol=1e-9)
        with pytest.raises(DomainError, match="root search exhausted"):
            fractional_iterate(ctx, 1, 0.1)


@st.composite
def searches(draw):
    """(abel, bracket, z, t) with abel(x, lib) monotone on an interval that
    holds the bracket and z, in ``lib`` math or mpmath.

    z is drawn below, inside or above the bracket.
    """
    family = draw(st.sampled_from(["log", "power", "exp", "x+sin(x)/2", "step"]))
    left, width = {"power": (-3, 6), "exp": (-20, 40), "x+sin(x)/2": (-50, 100), "step": (-1, 2)}.get(
        family, (0, 60))
    if family == "log":
        a = draw(st.floats(0.1, 3)) * draw(st.sampled_from([-1, 1]))
        c, d = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
        left = c + 1e-6

        def abel(x, lib):
            return a * lib.log(x - c) + d
    elif family == "power":
        k = draw(st.sampled_from(range(1, 26, 2)))

        def abel(x, lib):
            return x**k
    elif family == "exp":
        def abel(x, lib):
            return lib.exp(x)
    elif family == "x+sin(x)/2":
        def abel(x, lib):
            return x + lib.sin(x) / 2
    else:
        # two levels: of any three residuals two coincide, so the inverse
        # quadratic has no finite weight and every step is a secant
        jump = draw(st.floats(left, left + width))

        def abel(x, lib):
            return 1 if x >= jump else -1
    points = [left + draw(st.floats(0, width)) for _ in range(3)]
    z = points.pop(draw(st.sampled_from(range(3))))
    return abel, tuple(sorted(points)), z, draw(st.floats(-5, 5))


class TestInverseQuadraticSteps:
    @settings(max_examples=400, deadline=None)
    @given(search=searches(), mpf=st.booleans())
    def test_points_stay_inside_and_the_result_meets_tol(self, search, mpf):
        abel, (lo, hi), z, t = search
        assume(lo < hi)
        lib, cfg, cast = (mpmath, BIG, mpmath.mpf) if mpf else (math, MACHINE, float)
        values = []

        def recorded(x):
            values.append((x, cast(abel(x, lib))))
            return values[-1][1]

        ctx = IterationContext(recorded, (cast(lo), cast(hi)), 1e-9, cfg)
        w = error = None
        try:
            w = fractional_iterate(ctx, t, cast(z))
        except DomainError as err:  # BracketError included
            error = err
        with cfg.workprec():
            (_, alo), (_, ahi), (_, az) = values[:3]
            target = az + t
            if isinstance(error, BracketError):
                assert sign(alo - target) == sign(ahi - target) != 0
            elif error is not None:
                assert "root search exhausted" in str(error)
            # replay the bracket: every step point lies strictly inside it
            lo_, hi_ = ctx.bracket
            for x, value in values[3:]:
                assert lo_ < x < hi_
                if sign(value - target) == sign(alo - target):
                    lo_ = x
                else:
                    hi_ = x
            if w is not None:
                # |abel(w) - abel(z) - t| <= tol in the context's arithmetic
                assert type(w) is type(ctx.bracket[0])
                assert abs(cast(abel(w, lib)) - target) <= ctx.tol

    def test_interpolation_does_not_creep_along_the_ends(self):
        # the inverse of exp is far from quadratic on this bracket: without
        # Brent's safeguard the interpolated points crept along both ends and
        # the search gave up after 4,099 evaluations; Pegasus steps alone
        # take 41
        ctx, seen = recording(IterationContext(math.exp, (-17.0, 16.0), 1e-9, MACHINE))
        z, t = -1.75, -0.036
        w = fractional_iterate(ctx, t, z)
        assert abs(math.exp(w) - (math.exp(z) + t)) <= ctx.tol
        assert len(seen) <= 34

    def test_rational_residuals_beyond_the_float_range(self):
        # an exact evaluator's residuals near 1e400 have no float value, so
        # the first step is the secant, which lands on the root
        ctx = IterationContext(abel=lambda x: F(x) * 10**400, bracket=(0, 1), tol=1e-9)
        assert fractional_iterate(ctx, F(10**400, 4), F(1, 2)) == 0.75


class TestContextValidation:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            IterationContext(abel=lambda z: z, bracket=(0, 1), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # an infinite tolerance would accept the first secant point as the root
        with pytest.raises(ValueError, match="finite and positive"):
            IterationContext(abel=lambda z: z, bracket=(0, 1), tol=tol)

    def test_bracket_must_be_ordered(self):
        with pytest.raises(ValueError):
            IterationContext(abel=lambda z: z, bracket=(1, 0), tol=1e-9)

    def test_exact_config_refused_before_any_evaluation(self):
        seen = []
        with pytest.raises(ValueError, match="no exact mode"):
            IterationContext(seen.append, (0, 1), 1e-9, PrecisionConfig("exact"))
        assert seen == []

    def test_empty_grid_rejected(self, doubling=None):
        ctx = exact_log_context(F(2), F(1), BIG)
        with pytest.raises(ValueError):
            semigroup_check(ctx, 1, 1, [])

    def test_machine_mode_context(self):
        ctx = exact_log_context(2.0, 1.0, PrecisionConfig("machine"), tol=1e-10)
        assert abs(fractional_iterate(ctx, 1, 3.0) - 6.0) < 1e-8
