"""Every number that README and the affine docstrings state, recomputed to the digits stated.

Each test names the text as it is written (say ``"1.43e-5"``), checks that
each document quoting it still contains it, and recomputes it: rounded to as
many significant digits as the text gives, the value must read the same.
A value README quotes from a CLI example is checked as the CLI prints it.
"""

import contextlib
import io
import math
import pathlib
import re
from fractions import Fraction as F

import mpmath
import pytest

from abelsweep import affine
from abelsweep.affine import (
    AffineParams,
    LogApproxPoly,
    beta_direct,
    binom_tail,
    eval_log_poly,
    log_poly,
    reference_log,
    s_invariance_gap,
)
from abelsweep.cli import main
from abelsweep.scalars import PrecisionConfig
from abelsweep.solver import StabilizationConfig

DOCS = {
    "README": (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
    "affine": affine.__doc__,
    "LogApproxPoly": LogApproxPoly.__doc__,
}


def assert_stated(value, text, docs):
    """value rounds to text (as in "1.43e-5"), and every document in docs states text."""
    digits = len(text.split("e")[0].replace(".", ""))
    mantissa, exponent = f"{value:.{digits - 1}e}".split("e")
    assert f"{mantissa}e{int(exponent)}" == text
    for name in docs:
        assert text in DOCS[name], f"{name} no longer states {text}"


@pytest.mark.parametrize("b, text", [(2, "1.43e-5"), (3, "1.37e-3")])
def test_beta_one_oscillation_amplitude(b, text):
    # 2|Gamma(1 + 2 pi i/ln b)|/ln b, the limiting amplitude at s=1
    with mpmath.workprec(53):
        log_b = mpmath.log(b)
        amplitude = 2 * abs(mpmath.gamma(1 + 2j * mpmath.pi / log_b)) / log_b
    assert_stated(float(amplitude), text, ("README", "affine"))


@pytest.mark.parametrize("b, N, text", [(2, 115, "2.03e-5"), (3, 112, "1.58e-3")])
def test_beta_one_peak_above_the_amplitude(b, N, text):
    # |beta^(N)_1 - 1/ln b| at s=1 has a local maximum at N, in 100 <= N <= 800
    p = AffineParams(F(b), F(1))
    dev = {n: abs(float(beta_direct(p, n, 1)) - 1 / math.log(b)) for n in (N - 1, N, N + 1)}
    assert dev[N] > dev[N - 1] and dev[N] > dev[N + 1]
    assert_stated(dev[N], text, ("README", "affine"))


@pytest.mark.parametrize("b, text", [(F(1, 2), "3e-6"), (F(1, 3), "5e-4")])
def test_log_poly_error_does_not_decay(b, text):
    # max |P_n - log_b| over 41 points of [b, 1] at 128 bits, for n = 400 and 1000
    cfg = PrecisionConfig("bigfloat", bits=128)
    xs = [b + (1 - b) * F(i, 40) for i in range(41)]
    errors = []
    for n in (400, 1000):
        P = log_poly(b, n)
        with mpmath.workprec(128):
            errors.append(max(abs(eval_log_poly(P, x, cfg) - reference_log(b, x, 128)) for x in xs))
    assert_stated(float(max(errors)), text, ("README", "affine", "LogApproxPoly"))


@pytest.mark.parametrize("kappa", [0.25, 0.5, 0.75])
def test_binom_tail_asymptotic(kappa):
    # binom_tail's docstring: the true tail behaves like J**(-kappa)/(kappa*|Gamma(-kappa)|)
    assert "J**(-kappa) / (kappa*|Gamma(-kappa)|)" in " ".join(binom_tail.__doc__.split())
    J = 10**4
    partial, _ = binom_tail(kappa, J)
    asymptotic = J**-kappa / (kappa * abs(math.gamma(-kappa)))
    assert asymptotic / ((1 - kappa) - partial) == pytest.approx(1, abs=1e-3)


@pytest.mark.parametrize(
    "argv, text",
    [
        ("iterate --b 2 --s 1 --t 1/2 --z 1", "1.414213562345499"),
        ("iterate --b 2 --s 3 --t 1/2 --z 1", "1.414213562345499"),
        ("iterate --b 1/2 --s 1 --t 1 --z 0.3", "0.1499999999975407"),
        ("iterate --b 1/2 --s 1 --n 200 --bracket -0.95:0.95 --t 1 --z 0.3", "-0.34999999999999276"),
    ],
)
def test_iterate_examples_print_what_readme_states(argv, text):
    # README's paragraph on the two iterate examples quotes each printed value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    header, row = out.getvalue().splitlines()
    assert header == "t,z,value" and row.split(",")[2] == text
    assert text in DOCS["README"], f"README no longer states {text}"


def test_verdict_defaults_are_the_stabilization_config():
    # README's verdict paragraph states the default of each stabilization flag
    readme = " ".join(DOCS["README"].split())
    stab = StabilizationConfig()
    flags = (("window", stab.window), ("tol-abs", stab.tol_abs), ("tol-rel", stab.tol_rel))
    for flag, value in flags:
        stated = re.findall(rf"`--{flag}` \(default (\S+?)\)", readme)
        assert stated and all(float(text) == value for text in stated), flag


@pytest.mark.parametrize("b", [F(1, 2), F(2), F(1, 3), F(-2), F(3, 2)])
def test_log_poly_is_an_abel_function_up_to_a_power(b):
    # P_n(b*x) - P_n(x) - 1 = -(1-x)**n, exactly
    assert "`P_n(b*x) - P_n(x) - 1 = -(1-x)**n`" in " ".join(DOCS["README"].split())
    exact = PrecisionConfig("exact")
    for n in (1, 2, 5, 12):
        P = log_poly(b, n)
        for x in (F(0), F(1, 3), F(-2, 5), F(7, 4)):
            gap = eval_log_poly(P, b * x, exact) - eval_log_poly(P, x, exact)
            assert gap - 1 == -((1 - x) ** n)


@pytest.mark.parametrize(
    "s2, n, text", [(3, 200, "4.0e-6"), (3, 1000, "4.3e-6"), (2, 200, "4.1e-20")]
)
def test_invariance_holds_only_on_the_lattice(s2, n, text):
    # README: deviation of invariance --b 1/2 --s1 1 at bits:64 over criterion 6's points;
    # s2/s1 = 3 is off the lattice 2**k and keeps a floor between 1e-6 and 1e-5
    xs = [F(x) for x in "0.2,0.27,0.35,0.43,0.51,0.59,0.66,0.74,0.82,0.9".split(",")]
    p1, p2 = AffineParams(F(1, 2), F(1)), AffineParams(F(1, 2), F(s2))
    report = s_invariance_gap(p1, p2, n, xs, PrecisionConfig("bigfloat", bits=64))
    deviation = float(report.deviation)
    if s2 == 3:
        assert 1e-6 < deviation < 1e-5
    assert_stated(deviation, text, ("README",))
