"""Results of the functions that take a PrecisionConfig do not depend on mpmath's ambient precision.

Each case runs under an ambient precision of 53 and of 1024 bits and
requires identical results: the config, not the caller, sets the working
precision.
"""

import contextlib
import io
from fractions import Fraction

import mpmath

from abelsweep import (
    PrecisionConfig,
    StabilizationConfig,
    exact_log_context,
    fractional_iterate,
    intuitive_sweep,
)
from abelsweep.cli import main
from abelsweep.powerseries import exp_shift_series

BITS256 = PrecisionConfig("bigfloat", bits=256)
AMBIENT = (53, 1024)


def under_each_ambient(run):
    results = []
    for bits in AMBIENT:
        with mpmath.workprec(bits):
            results.append(run())
    return results


def test_sweep_verdicts_carry_the_config_precision():
    def sweep():
        f = exp_shift_series(0, 15, BITS256)
        return intuitive_sweep(f, range(1, 17), BITS256, StabilizationConfig(1e-3, 0))

    low, high = under_each_ambient(sweep)
    assert any(v.kind == "stabilized" for v in low.verdicts.values())
    assert low == high


def test_root_search_reaches_a_tolerance_below_53_bits():
    def cube_root_of_two():
        ctx = exact_log_context(
            2, 1, BITS256, bracket=(mpmath.mpf(0.5), mpmath.mpf(4)), tol=1e-40
        )
        return fractional_iterate(ctx, BITS256.scalar(Fraction(1, 3)), 1)

    low, high = under_each_ambient(cube_root_of_two)
    assert low == high
    with mpmath.workprec(256):
        assert abs(low - mpmath.cbrt(2)) <= 1e-39


def test_cli_output_does_not_depend_on_the_ambient_precision():
    def explore():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main("explore-exp --N-max 16 --tol-abs 1e-3 --tol-rel 0".split())
        assert code == 0
        return out.getvalue()

    low, high = under_each_ambient(explore)
    assert '"last_delta"' in low
    assert low == high
