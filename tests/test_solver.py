import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsweep import (
    AffineParams,
    PrecisionConfig,
    SingularSystemError,
    StabilizationConfig,
    TruncatedSeries,
    abel_residual,
    abel_system,
    affine_series,
    beta_direct,
    classify_trajectory,
    intuitive_sweep,
    solve_truncated,
)
from abelsweep import solver
from abelsweep.carleman import AbelSystem
from abelsweep.powerseries import exp_shift_series
from conftest import small_rationals


IDENTITY = TruncatedSeries((F(0), F(1), F(0), F(0)))


def affine(b, s, order):
    return affine_series(AffineParams(F(b), F(s)), order)


def one_minus_x_plus_x2(cfg, N):
    """f = 1 - x + x**2 in cfg's scalars, of order N - 1 or more: A_2 is singular, A_3 regular."""
    coeffs = (1, -1, 1) + (0,) * max(N - 3, 0)
    return TruncatedSeries(tuple(cfg.scalar(c) for c in coeffs))


class TestSolveTruncated:
    def test_one_by_one(self):
        # b=2, s=1: d=1, so the N=1 system is 1*x = 1
        assert solve_truncated(abel_system(affine(2, 1, 1), 1)) == (1,)

    def test_two_by_two(self):
        assert solve_truncated(abel_system(affine(2, 1, 1), 2)) == (F(4, 3), F(-1, 3))

    def test_identity_map_is_singular(self):
        with pytest.raises(SingularSystemError) as err:
            solve_truncated(abel_system(IDENTITY, 2))
        assert err.value.size == 2

    def test_singular_in_float_mode(self):
        zero = TruncatedSeries((0.0, 1.0, 0.0))
        with pytest.raises(SingularSystemError):
            solve_truncated(abel_system(zero, 2))

    @pytest.mark.parametrize("b,s", [(F(2), F(1)), (F(1, 2), F(2))])
    def test_matches_direct_formula_up_to_32(self, b, s):
        p = AffineParams(b, s)
        g = affine_series(p, 31)
        for N in range(1, 33):
            got = solve_truncated(abel_system(g, N))
            want = tuple(beta_direct(p, N, m) for m in range(1, N + 1))
            assert got == want

    def test_machine_mode_matches_exact(self):
        p = AffineParams(F(2), F(1))
        xq = solve_truncated(abel_system(affine_series(p, 5), 6))
        pm = AffineParams(2.0, 1.0)
        xm = solve_truncated(abel_system(affine_series(pm, 5), 6))
        assert max(abs(a - float(b)) for a, b in zip(xm, xq)) < 1e-12

    def test_bigfloat_path_matches_exact(self):
        from abelsweep.scalars import as_fraction

        cfg = PrecisionConfig("bigfloat", bits=128)
        p = AffineParams(F(1, 2), F(2))
        with cfg.workprec():
            pm = AffineParams(cfg.scalar(F(1, 2)), cfg.scalar(2))
            xm = solve_truncated(abel_system(affine_series(pm, 11), 12))
        xq = solve_truncated(abel_system(affine_series(p, 11), 12))
        assert max(abs(a - as_fraction(b)) for a, b in zip(xq, xm)) < 1e-30

    def test_row_scaling_leaves_solution_unchanged(self):
        # the triangularization multiplies row n by s^n; any nonzero rational works
        sysN = abel_system(affine(2, 3, 4), 5)
        x = solve_truncated(sysN)
        scales = [F(3) ** (m + 1) for m in range(5)]
        scaled = AbelSystem(
            tuple(
                tuple(scales[m] * v for v in row) for m, row in enumerate(sysN.A)
            ),
            tuple(scales[m] * sysN.rhs[m] for m in range(5)),
        )
        assert solve_truncated(scaled) == x

    @pytest.mark.parametrize(
        "cfg",
        [PrecisionConfig("exact"), PrecisionConfig("machine"), PrecisionConfig("bigfloat", bits=128)],
        ids=["exact", "machine", "bits:128"],
    )
    def test_hand_built_system(self, cfg):
        # the size is len(rhs); a zero leading pivot makes every mode swap rows
        from abelsweep.scalars import as_fraction

        A = ((0, 2, 1), (1, 1, 0), (3, 0, 1))
        rhs = (1, 0, 2)
        want = (F(1, 5), F(-1, 5), F(7, 5))
        with cfg.workprec():
            sysN = AbelSystem(
                tuple(tuple(cfg.scalar(v) for v in row) for row in A),
                tuple(cfg.scalar(v) for v in rhs),
            )
            x = solve_truncated(sysN)
        assert len(x) == 3
        if cfg.exact:
            assert x == want
        else:
            assert max(abs(as_fraction(a) - b) for a, b in zip(x, want)) < F(1, 10**15)

    @pytest.mark.parametrize(
        "cfg",
        [PrecisionConfig("exact"), PrecisionConfig("machine"), PrecisionConfig("bigfloat", bits=128)],
        ids=["exact", "machine", "bits:128"],
    )
    @pytest.mark.parametrize("N", [2, 5])
    def test_singular_truncations_of_one_minus_x_plus_x2(self, cfg, N):
        with cfg.workprec(), pytest.raises(SingularSystemError):
            solve_truncated(abel_system(one_minus_x_plus_x2(cfg, N), N))

    @pytest.mark.parametrize("N", [3, 4, 6, 7])
    def test_row_swap_of_one_minus_x_plus_x2(self, N):
        # f = 1 - x + x**2 leaves a zero pivot at step 1 (A_2 is singular),
        # so elimination must swap rows; the float paths pivot on their own
        from abelsweep.scalars import as_fraction

        sysN = abel_system(one_minus_x_plus_x2(PrecisionConfig("exact"), N), N)
        x = solve_truncated(sysN)
        assert [sum(a * v for a, v in zip(row, x)) for row in sysN.A] == [1] + [0] * (N - 1)
        scale = max(abs(v) for v in x)
        for cfg, tol in (
            (PrecisionConfig("machine"), 1e-12),
            (PrecisionConfig("bigfloat", bits=128), F(1, 10**30)),
        ):
            with cfg.workprec():
                y = solve_truncated(abel_system(one_minus_x_plus_x2(cfg, N), N))
            assert max(abs(as_fraction(a) - b) for a, b in zip(y, x)) <= tol * scale


class TestAbelResidual:
    def test_zero_alpha_gives_minus_one(self):
        r = abel_residual(TruncatedSeries((F(0), F(0))), affine(2, 1, 1), 1)
        assert r.coeffs == (-1, 0)

    @pytest.mark.parametrize("N", [1, 2, 4, 7, 10])
    def test_solved_truncation_residual_vanishes(self, N):
        g = affine(2, 1, max(N, 1))
        x = solve_truncated(abel_system(g, N))
        alpha = TruncatedSeries((F(0),) + x)
        r = abel_residual(alpha, g, max(N - 1, 0))
        assert all(c == 0 for c in r.coeffs)

    @pytest.mark.parametrize("b,s", [(F(2), F(1)), (F(1, 2), F(2)), (F(3), F(-1))])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_beta_polynomial_residual_single_term(self, b, s, n):
        # beta^(n)(g(z)) - beta^(n)(z) - 1 == (-1)^(n+1) (z/s)^n
        from abelsweep import beta_polynomial

        p = AffineParams(b, s)
        r = abel_residual(beta_polynomial(p, n), affine_series(p, n), n)
        want = tuple(
            F(0) if m < n else F(-1) ** (n + 1) / s**n for m in range(n + 1)
        )
        assert r.coeffs == want


class TestClassification:
    STAB = StabilizationConfig(tol_abs=1e-6, tol_rel=0.0, window=3)

    def test_stabilized(self):
        v = [1.0, 0.5, 0.5 + 1e-7, 0.5 + 1.5e-7, 0.5 + 1.7e-7]
        verdict = classify_trajectory(v, self.STAB)
        assert verdict.kind == "stabilized"
        assert verdict.limit == v[-1]
        assert verdict.last_delta == pytest.approx(2e-8)

    def test_oscillating(self):
        v = [0.0, 1.0, -1.5, 2.5, -4.0]
        assert classify_trajectory(v, self.STAB).kind == "oscillating"

    def test_drifting(self):
        v = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert classify_trajectory(v, self.STAB).kind == "drifting"

    def test_short_history_is_drifting(self):
        assert classify_trajectory([1.0, 1.0], self.STAB).kind == "drifting"

    def test_exact_values_compare_exactly(self):
        v = [F(1, 2)] * 5
        verdict = classify_trajectory(v, self.STAB)
        assert verdict.kind == "stabilized" and verdict.limit == F(1, 2)


class TestIntuitiveSweep:
    def test_affine_trajectory_prefix(self):
        rep = intuitive_sweep(affine(2, 1, 5), range(1, 7), PrecisionConfig("exact"))
        assert rep.trajectories[1][:3] == (1, F(4, 3), F(10, 7))

    def test_limit_is_reciprocal_log(self):
        # oracle: d/dx [log_b(x) - log_b(s)] at x=s is 1/(s ln b)
        p = AffineParams(F(2), F(1))
        assert abs(float(beta_direct(p, 64, 1)) - 1 / math.log(2)) < 1e-4
        ph = AffineParams(F(1, 2), F(1))
        assert abs(float(beta_direct(ph, 64, 1)) + 1 / math.log(2)) < 1e-4

    def test_sweep_reaches_limit_region(self):
        stab = StabilizationConfig(tol_abs=1e-3, tol_rel=1e-3, window=3)
        rep = intuitive_sweep(
            affine(2, 1, 31), range(1, 33), PrecisionConfig("exact"), stab
        )
        v = rep.verdicts[1]
        assert v.kind == "stabilized"
        assert abs(float(v.limit) - 1 / math.log(2)) < 1e-3

    def test_identity_map_all_singular(self):
        rep = intuitive_sweep(IDENTITY, range(1, 5), PrecisionConfig("exact"))
        assert rep.singular_Ns == (1, 2, 3, 4)
        for n in range(1, 5):
            assert rep.verdicts[n].kind == "singular-at"
        assert rep.verdicts[2].singular_Ns == (2, 3, 4)

    def test_requires_increasing_Ns(self):
        with pytest.raises(ValueError):
            intuitive_sweep(affine(2, 1, 5), [3, 2], PrecisionConfig("exact"))

    def test_requires_enough_order(self):
        with pytest.raises(ValueError):
            intuitive_sweep(affine(2, 1, 2), [1, 8], PrecisionConfig("exact"))

    def test_deterministic(self):
        cfg = PrecisionConfig("bigfloat", bits=96)
        with cfg.workprec():
            g = affine_series(AffineParams(cfg.scalar(2), cfg.scalar(1)), 9)
        a = intuitive_sweep(g, range(1, 11), cfg)
        b = intuitive_sweep(g, range(1, 11), cfg)
        assert a == b


EXACT = PrecisionConfig("exact")
MACHINE = PrecisionConfig("machine")
BITS256 = PrecisionConfig("bigfloat", bits=256)


class TestSweepSolvesLeadingBlocks:
    """The sweep builds one system at max(Ns); each truncation is its leading block."""

    @staticmethod
    def per_N(f, Ns, cfg):
        """Trajectories and singular sizes from a system built afresh for every N."""
        solutions = {}
        with cfg.workprec():
            for N in Ns:
                try:
                    solutions[N] = solve_truncated(abel_system(f, N))
                except SingularSystemError:
                    solutions[N] = None
        trajectories = {
            n: tuple(None if solutions[N] is None else solutions[N][n - 1] for N in Ns if N >= n)
            for n in range(1, max(Ns) + 1)
        }
        return trajectories, tuple(N for N in Ns if solutions[N] is None)

    @staticmethod
    def is_singular(A):
        """Whether the square rational matrix A has determinant 0, by plain Fraction elimination."""
        M = [[F(v) for v in row] for row in A]
        n = len(M)
        for k in range(n):
            piv = next((r for r in range(k, n) if M[r][k] != 0), None)
            if piv is None:
                return True
            M[k], M[piv] = M[piv], M[k]
            for i in range(k + 1, n):
                m = M[i][k] / M[k][k]
                for j in range(k, n):
                    M[i][j] -= m * M[k][j]
        return False

    # sparse rational series of degree <= 9: f_0 is mostly nonzero (f_0 = 0
    # makes every truncation singular), two later coefficients in three are 0
    sparse_series = st.tuples(
        small_rationals(2, 2),
        st.lists(
            st.integers(0, 2).flatmap(lambda roll: small_rationals(2, 2) if roll == 0 else st.just(F(0))),
            max_size=9,
        ),
    )

    @settings(max_examples=200, deadline=None)
    @given(coeffs=sparse_series, N_max=st.integers(1, 12), data=st.data())
    def test_one_pass_on_sparse_rational_series(self, coeffs, N_max, data):
        coeffs = (coeffs[0], *coeffs[1])
        f = TruncatedSeries(coeffs + (F(0),) * max(N_max - len(coeffs), 0))
        subset = data.draw(st.sets(st.integers(1, N_max), min_size=1))
        for Ns in (tuple(range(1, N_max + 1)), tuple(sorted(subset))):
            report = intuitive_sweep(f, Ns, EXACT)
            for N in Ns:
                A = abel_system(f, N).A
                if N in report.singular_Ns:
                    assert self.is_singular(A)
                    continue
                x = [report.trajectories[n][[M for M in Ns if M >= n].index(N)] for n in range(1, N + 1)]
                assert [sum(a * v for a, v in zip(row, x)) for row in A] == [1] + [0] * (N - 1)
            assert (report.trajectories, report.singular_Ns) == self.per_N(f, Ns, EXACT)

    @pytest.mark.parametrize("cfg", [EXACT, BITS256, MACHINE], ids=["exact", "bits:256", "machine"])
    @pytest.mark.parametrize(
        "series,Ns,singular",
        [
            (one_minus_x_plus_x2, range(1, 9), (2, 5)),  # A_2 singular, A_3 regular
            (one_minus_x_plus_x2, (1, 3, 7), ()),
            (lambda cfg, N: exp_shift_series(0, N - 1, cfg), range(1, 13), ()),
            (lambda cfg, N: exp_shift_series(0, N - 1, cfg), (1, 3, 7), ()),
            (lambda cfg, N: affine_series(AffineParams(cfg.scalar(F(1, 2)), cfg.scalar(2)), N - 1),
             range(1, 11), ()),
        ],
        ids=["1-x+x2-dense", "1-x+x2-sparse", "exp-dense", "exp-sparse", "affine-dense"],
    )
    def test_trajectories_equal_a_build_per_N(self, cfg, series, Ns, singular):
        Ns = tuple(Ns)
        with cfg.workprec():
            f = series(cfg, max(Ns))
        report = intuitive_sweep(f, Ns, cfg)
        trajectories, singular_Ns = self.per_N(f, Ns, cfg)
        assert report.trajectories == trajectories
        assert report.singular_Ns == singular_Ns == singular

    def test_machine_exp_sweep_to_40_with_singular_truncations(self):
        Ns = tuple(range(1, 41))
        f = exp_shift_series(0, 39, MACHINE)
        report = intuitive_sweep(f, Ns, MACHINE)
        trajectories, singular_Ns = self.per_N(f, Ns, MACHINE)
        assert report.trajectories == trajectories
        assert report.singular_Ns == singular_Ns
        assert singular_Ns  # the pivot threshold calls the largest sizes singular (ROADMAP item 6)

    @pytest.mark.parametrize("Ns", [range(1, 9), (1, 3, 7)], ids=["dense", "sparse"])
    def test_one_sweep_builds_one_system(self, monkeypatch, Ns):
        sizes = []

        def recording(f, N):
            sizes.append(N)
            return abel_system(f, N)

        monkeypatch.setattr(solver, "abel_system", recording)
        intuitive_sweep(affine(2, 1, 7), Ns, EXACT)
        assert sizes == [max(Ns)]

    @pytest.mark.parametrize("Ns", [range(1, 9), (1, 3, 7)], ids=["dense", "sparse"])
    def test_one_exact_sweep_eliminates_once(self, monkeypatch, Ns):
        calls = []
        solve_exact = solver._solve_exact

        def counting(*args):
            calls.append(args)
            return solve_exact(*args)

        monkeypatch.setattr(solver, "_solve_exact", counting)
        intuitive_sweep(one_minus_x_plus_x2(EXACT, max(Ns)), Ns, EXACT)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the right-looking LU that the Crout-order one must reproduce bit for bit:
# _solve_lu, _lu_solve and _back_substitute as they were before the inner
# products went through scalars.dot_sub, kept verbatim as the reference


def reference_solve_lu(A, rhs) -> tuple | None:
    """LU with partial pivoting and one iterative-refinement step; None if singular."""
    n = len(rhs)
    lu = [list(row) for row in A]
    perm = list(range(n))
    scale = max((abs(x) for row in A for x in row), default=0)
    uses_mpf = any(isinstance(x, mpmath.mpf) for row in A for x in row)
    eps = mpmath.mp.eps if uses_mpf else 2.220446049250313e-16
    tiny = n * eps * scale

    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(lu[r][k]))
        if abs(lu[piv][k]) <= tiny:
            return None
        if piv != k:
            lu[k], lu[piv] = lu[piv], lu[k]
            perm[k], perm[piv] = perm[piv], perm[k]
        for i in range(k + 1, n):
            m = lu[i][k] / lu[k][k]
            lu[i][k] = m
            for j in range(k + 1, n):
                lu[i][j] = lu[i][j] - m * lu[k][j]

    x = reference_lu_solve(lu, perm, rhs)
    # one refinement step: residual in working precision, correction reuses the LU
    r = []
    for i in range(n):
        acc = rhs[i]
        for j in range(n):
            acc = acc - A[i][j] * x[j]
        r.append(acc)
    d = reference_lu_solve(lu, perm, r)
    return tuple(x[i] + d[i] for i in range(n))


def reference_lu_solve(lu, perm, b):
    y = [b[p] for p in perm]
    for i in range(len(y)):
        for j in range(i):
            y[i] = y[i] - lu[i][j] * y[j]
    return reference_back_substitute(lu, y)


def reference_back_substitute(U, y):
    """Overwrite y with the solution of U x = y; U is read on and above its diagonal only."""
    n = len(y)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            y[i] = y[i] - U[i][j] * y[j]
        y[i] = y[i] / U[i][i]
    return y


def bits_of(solution):
    """A solution's exact bits: raw mpf tuples, float hex forms, or None."""
    if solution is None:
        return None
    return tuple(v._mpf_ if isinstance(v, mpmath.mpf) else (type(v), v.hex()) for v in solution)


BITS64 = PrecisionConfig("bigfloat", bits=64)


class TestCroutLUMatchesRightLooking:
    """``_solve_lu`` (Crout order, one ``dot_sub`` per entry) against the right-looking reference."""

    @staticmethod
    def same_solve(A, rhs, cfg):
        with cfg.workprec():
            got, want = solver._solve_lu(A, rhs), reference_solve_lu(A, rhs)
        assert bits_of(got) == bits_of(want)
        return got

    entry = st.one_of(
        st.just(0), st.just(0), small_rationals(9, 7), st.integers(-(10**6), 10**6).map(lambda k: F(k, 1000))
    )

    @settings(max_examples=300, deadline=None)
    @given(
        cfg=st.sampled_from([MACHINE, BITS64, BITS256]),
        n=st.integers(1, 7),
        kind=st.sampled_from(["dense", "zero-heavy", "rank-deficient"]),
        data=st.data(),
    )
    def test_random_systems(self, cfg, n, kind, data):
        entry = st.just(0) | self.entry if kind == "zero-heavy" else self.entry
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if kind == "rank-deficient":  # a repeated row or a zero column
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            if i != j:
                rows[i] = list(rows[j])
            else:
                rows = [row[:j] + [0] + row[j + 1:] for row in rows]
        rhs = data.draw(st.lists(self.entry, min_size=n, max_size=n))
        with cfg.workprec():
            A = [[cfg.scalar(v) for v in row] for row in rows]
            b = [cfg.scalar(v) for v in rhs]
        x = self.same_solve(A, b, cfg)
        if kind == "rank-deficient":
            # exactly singular: the repeated row or the zero column leaves an exact 0 pivot
            assert x is None

    @pytest.mark.parametrize("cfg", [MACHINE, BITS64, BITS256], ids=["machine", "bits:64", "bits:256"])
    @pytest.mark.parametrize("s", [F(0), F(1, 2), F(-3, 8)], ids=["0", "1/2", "-3/8"])
    def test_exp_blocks_to_40(self, cfg, s):
        with cfg.workprec():
            system = abel_system(exp_shift_series(s, 39, cfg), 40)
        sizes = (*range(1, 13), 16, 20, 24, 28, 32, 36, 40)
        solved = [
            N for N in sizes
            if self.same_solve([row[:N] for row in system.A[:N]], system.rhs[:N], cfg) is not None
        ]
        assert solved[:12] == list(range(1, 13))
