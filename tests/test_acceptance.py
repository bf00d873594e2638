"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
Criteria 3 and 8 are asserted exactly as written even though the measured
mathematics cannot meet the written bound; see the per-test messages.
"""

import json
import math
import time
from fractions import Fraction as F

import pytest

from abelsweep import (
    AffineParams,
    PrecisionConfig,
    RootOfUnityError,
    SingularSystemError,
    TruncatedSeries,
    ZeroShiftError,
    abel_residual,
    abel_system,
    affine_series,
    beta_direct,
    beta_polynomial,
    beta_recurrence,
    binom_tail,
    eval_log_poly,
    intuitive_sweep,
    log_poly,
    reference_log,
    remainder,
    remainder_bound,
    s_invariance_gap,
    solve_truncated,
)
from abelsweep.cli import main

BASES = (F(2), F(3), F(1, 2), F(1, 3), F(-2))
SHIFTS = (F(1), F(2), F(-1))
BIG = PrecisionConfig("bigfloat", bits=128, guard_bits=64)


def _report(k: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {k:>2}: {'PASS' if ok else 'FAIL'} {detail}")


def test_c01_direct_equals_recurrence():
    t0 = time.monotonic()
    checked = 0
    for b in BASES:
        for s in SHIFTS:
            p = AffineParams(b, s)
            for n in range(1, 25):
                for m in range(1, n + 1):
                    assert beta_direct(p, n, m) == beta_recurrence(p, n, m), (b, s, n, m)
                    checked += 1
    elapsed = time.monotonic() - t0
    _report(1, True, f"({checked} coefficient pairs, {elapsed:.1f}s)")
    assert elapsed < 10


def test_c02_solver_equals_direct_vector():
    t0 = time.monotonic()
    for b in BASES:
        for s in SHIFTS:
            p = AffineParams(b, s)
            g = affine_series(p, 16)
            for n in range(1, 17):
                got = solve_truncated(abel_system(g, n))
                want = tuple(beta_direct(p, n, m) for m in range(1, n + 1))
                assert got == want, (b, s, n)
    elapsed = time.monotonic() - t0
    _report(2, True, f"(15 parameter sets, N<=16, {elapsed:.1f}s)")
    assert elapsed < 30


def test_c03_log_convergence_at_desk_scale():
    t0 = time.monotonic()
    xs = (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10))
    bound_failures = []
    mono_failures = []
    for b in (F(1, 2), F(1, 3), F(9, 10)):
        p100 = log_poly(b, 100)
        p400 = log_poly(b, 400)
        for x in xs:
            ref = reference_log(b, x, bits=700)
            e100 = abs(eval_log_poly(p100, x, BIG) - ref)
            e400 = abs(eval_log_poly(p400, x, BIG) - ref)
            if not e400 <= 1e-3:
                bound_failures.append((b, x, float(e400)))
            if not e400 <= e100:
                mono_failures.append((b, x, float(e100), float(e400)))
    elapsed = time.monotonic() - t0
    ok = not bound_failures and not mono_failures
    _report(
        3,
        ok,
        f"(|err(400)|<=1e-3: {15 - len(bound_failures)}/15, "
        f"err(400)<=err(100): {15 - len(mono_failures)}/15, {elapsed:.1f}s)",
    )
    assert elapsed < 120
    assert not bound_failures, f"1e-3 bound failed: {bound_failures}"
    # The error oscillates log-periodically in n for b=1/3, so the
    # n=400 error genuinely exceeds the n=100 error at some x; asserted
    # as stated regardless.
    assert not mono_failures, f"error not monotone between n=100 and n=400: {mono_failures}"


def test_c04_lattice_identity_exact():
    t0 = time.monotonic()
    for b in (F(1, 2), F(1, 3)):
        for n in range(1, 21):
            poly = log_poly(b, n)
            for m in range(1, 6):
                want = sum(1 - (1 - b**i) ** n for i in range(m))
                assert eval_log_poly(poly, b**m, PrecisionConfig("exact")) == want
    elapsed = time.monotonic() - t0
    _report(4, True, f"(m<=5, n<=20, exact, {elapsed:.1f}s)")
    assert elapsed < 5


def test_c05_remainder_symmetry_and_decay():
    t0 = time.monotonic()
    b = F(1, 2)
    for n in range(1, 21):
        for j in range(1, 21):
            assert abs(remainder(n, j, b)) == abs(remainder(j, n, b))
    for j in range(1, 11):
        prev = None
        for n in range(1, 41):
            d = remainder_bound(j, n, b)
            assert prev is None or d <= prev
            prev = d
    elapsed = time.monotonic() - t0
    _report(5, True, f"(symmetry n,j<=20; majorant decay j<=10,n<=40, {elapsed:.1f}s)")
    assert elapsed < 5


def test_c06_s_invariance():
    t0 = time.monotonic()
    p1 = AffineParams(F(1, 2), F(1))
    p2 = AffineParams(F(1, 2), F(2))
    xs = [F(2, 10) + F(i, 10) * F(7, 9) for i in range(10)]  # spans [0.2, 0.9]
    rep = s_invariance_gap(p1, p2, 200, xs, BIG)
    elapsed = time.monotonic() - t0
    analytic = 1  # log_b(s1) - log_b(s2) for b=1/2, s1=1, s2=2
    ok = rep.deviation <= 1e-2 and abs(rep.median_gap - analytic) <= 1e-2
    _report(
        6,
        ok,
        f"(deviation={float(rep.deviation):.2e}, median={float(rep.median_gap):.6f}, {elapsed:.1f}s)",
    )
    assert elapsed < 30
    assert rep.deviation <= 1e-2
    assert abs(rep.median_gap - analytic) <= 1e-2


def test_c07_residual_identity():
    t0 = time.monotonic()
    for b, s in ((F(2), F(1)), (F(1, 2), F(2)), (F(3), F(-1))):
        p = AffineParams(b, s)
        for n in range(1, 9):
            beta = beta_polynomial(p, n)
            r = abel_residual(beta, affine_series(p, n), n)
            want = tuple(F(0) if m < n else F(-1) ** (n + 1) / s**n for m in range(n + 1))
            assert r.coeffs == want, (b, s, n)
    elapsed = time.monotonic() - t0
    _report(7, True, f"(n<=8, exact single surviving term, {elapsed:.1f}s)")
    assert elapsed < 5


def test_c08_binomial_tail_partial_sums():
    t0 = time.monotonic()
    J = 10**6
    results = []
    for x in (0.25, 0.5, 0.75):
        p_quarter, _ = binom_tail(x, J // 4)
        partial, _ = binom_tail(x, J)
        assert p_quarter < partial < 1 - x  # monotone increasing, bounded
        results.append((x, partial, abs(partial - (1 - x))))
    elapsed = time.monotonic() - t0
    ok = all(dev <= 1e-6 for _, _, dev in results)
    detail = ", ".join(f"x={x}: dev={dev:.2e}" for x, _, dev in results)
    _report(8, ok, f"({detail}, {elapsed:.1f}s)")
    assert elapsed < 30
    # The tail of sum |C(x, j+1)| decays like J**(-x), so the deviation at
    # J=1e6 is 1e-2..1e-5 depending on x; asserted as stated regardless.
    for x, partial, dev in results:
        assert dev <= 1e-6, f"partial sum at x={x} off by {dev:.3e}"


def test_c09_negative_controls():
    t0 = time.monotonic()
    with pytest.raises(ZeroShiftError):
        AffineParams(F(2), F(0))
    with pytest.raises(RootOfUnityError):
        AffineParams(F(1), F(1)).ensure_order(3)
    with pytest.raises(RootOfUnityError):
        log_poly(F(1), 3)
    ident = TruncatedSeries((F(0), F(1), F(0), F(0), F(0)))
    for N in range(1, 6):
        with pytest.raises(SingularSystemError):
            solve_truncated(abel_system(ident, N))
    rep = intuitive_sweep(ident, range(1, 6), PrecisionConfig("exact"))
    assert rep.singular_Ns == (1, 2, 3, 4, 5)
    assert all(v.kind == "singular-at" for v in rep.verdicts.values())
    elapsed = time.monotonic() - t0
    _report(9, True, f"(domain errors and singular identity systems, {elapsed:.1f}s)")
    assert elapsed < 1


def test_c10_exploratory_commands(capsys):
    t0 = time.monotonic()
    code = main(["explore-exp", "--N-max", "24", "--precision", "bits:256"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["Ns"] == list(range(1, 25))
    assert all(
        entry["verdict"]["kind"] != "singular-at" for entry in doc["coefficients"].values()
    )

    code = main(["explore-bgt1", "--b", "2", "--n", "200"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x,approx,reference_log,abs_error"
    xs = [float(F(row.split(",")[1])) for row in lines[1:]]
    assert all(abs(x / 2 - 1) < 0.9 for x in xs)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(10, True, f"(exp sweep to N=24 without failure; b>1 table, {elapsed:.1f}s)")
