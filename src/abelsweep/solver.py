"""Solving the truncated Abel systems and detecting coefficient stabilization.

``solve_truncated`` solves one N-by-N truncation; ``intuitive_sweep`` solves
every truncation of one system built at the largest N and classifies each
coefficient trajectory, because the per-coefficient limits over N (when they
exist) are what defines the method's selected solution. In exact mode one
Bareiss pass serves every N, and size N is singular when one of the first N
steps finds no pivot in the first N rows; the float modes still factor each
leading block, by a pivoted LU in Crout order whose every entry is one call
of the inner-product kernel ``scalars.dot_sub`` (see ``_solve_lu``). The
substitutions and the refinement residual call the kernel too; it rounds as
the operator loops did, so no output moves by a bit. ``abel_residual``
checks any candidate series against the Abel equation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .carleman import AbelSystem, abel_system, check_truncation_sizes
from .errors import SingularSystemError
from .powerseries import TruncatedSeries, pad, series_compose
from .scalars import PrecisionConfig, Scalar, as_fraction, dot_sub, sign


# ---------------------------------------------------------------------------
# direct solves


def solve_truncated(sys: AbelSystem) -> tuple:
    """Solve A x = u; component k of the result is alpha^(N)_{k+1}, N = len(u).

    Rational entries go through Bareiss elimination over integers (exact);
    float and mpf entries go through dense LU with partial pivoting plus one
    step of iterative refinement, at the ambient mpmath precision for mpf.
    Both end in the same back-substitution.

    Raises SingularSystemError (carrying N) for singular or numerically
    rank-deficient matrices.
    """
    N = len(sys.rhs)
    x = _solve_blocks(sys, (N,))[N]
    if x is None:
        raise SingularSystemError(N)
    return x


def _solve_blocks(sys: AbelSystem, Ns) -> dict:
    """Solve each leading N x N block of sys with the first N entries of rhs.

    Maps every N in Ns to its solution, or to None where the block is
    singular. Exact systems take one Bareiss pass over the whole system;
    float and mpf systems factor each block on its own.
    """
    exact = all(
        isinstance(x, (int, Fraction)) for row in sys.A for x in row
    ) and all(isinstance(x, (int, Fraction)) for x in sys.rhs)
    if exact:
        return _solve_exact(sys.A, sys.rhs, Ns)
    return {N: _solve_lu([row[:N] for row in sys.A[:N]], sys.rhs[:N]) for N in Ns}


def _solve_exact(A, rhs, Ns) -> dict:
    """One Bareiss pass over integers after clearing row denominators.

    After step k, entry (i, j) is the minor on the pivot rows and row i and
    on columns 0..k and j (Bareiss 1968), whatever the width, so the first N
    steps eliminate the leading N x N block as a pass on that block alone
    would. A pivot found in row r > k makes the blocks of sizes k+1..r
    singular, and a column without one makes every size past k singular.
    """
    n = len(rhs)
    M = []
    for i in range(n):
        row = [Fraction(x) for x in A[i]] + [Fraction(rhs[i])]
        scale = math.lcm(*(x.denominator for x in row))
        M.append([int(x * scale) for x in row])

    singular = set()
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            singular.update(range(k + 1, n + 1))
            break
        if piv != k:
            singular.update(range(k + 1, piv + 1))
            M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]

    # a Fraction right-hand side keeps every quotient exact
    y = [Fraction(M[i][n]) for i in range(n)]
    return {N: None if N in singular else tuple(_back_substitute(M, y[:N])) for N in Ns}


def _solve_lu(A, rhs) -> tuple | None:
    """LU with partial pivoting and one iterative-refinement step; None if singular.

    The factors are computed in Crout order: at step k, column k of the
    remaining rows, then the pivot search over it (first maximum of |.|),
    then row k of U, and last the multipliers of column k. Each entry is one
    ``dot_sub`` from A's entry over the finished rows of U, which are kept as
    column lists. Every entry so gets the subtractions, in the order, that
    right-looking elimination would apply to it one step at a time (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 9), with
    the same pivots, the same n*eps*max|A| threshold and the same divisions,
    so the factors are the right-looking ones to the last bit.
    """
    n = len(rhs)
    lu = [list(row) for row in A]
    perm = list(range(n))
    scale = max((abs(x) for row in A for x in row), default=0)
    uses_mpf = any(isinstance(x, mpmath.mpf) for row in A for x in row)
    eps = mpmath.mp.eps if uses_mpf else 2.220446049250313e-16
    tiny = n * eps * scale
    u_cols = [[] for _ in range(n)]  # u_cols[j]: U[0][j], U[1][j], ... for the rows of U done

    for k in range(n):
        for i in range(k, n):
            lu[i][k] = dot_sub(lu[i][k], lu[i], u_cols[k])
        piv = max(range(k, n), key=lambda r: abs(lu[r][k]))
        if abs(lu[piv][k]) <= tiny:
            return None
        if piv != k:
            lu[k], lu[piv] = lu[piv], lu[k]
            perm[k], perm[piv] = perm[piv], perm[k]
        row = lu[k]
        for j in range(k + 1, n):
            row[j] = dot_sub(row[j], row, u_cols[j])
            u_cols[j].append(row[j])
        for i in range(k + 1, n):
            lu[i][k] = lu[i][k] / row[k]

    x = _lu_solve(lu, perm, rhs)
    # one refinement step: residual in working precision, correction reuses the LU
    r = [dot_sub(rhs[i], A[i], x) for i in range(n)]
    d = _lu_solve(lu, perm, r)
    return tuple(x[i] + d[i] for i in range(n))


def _lu_solve(lu, perm, b):
    y = []
    for i, p in enumerate(perm):
        y.append(dot_sub(b[p], lu[i], y))
    return _back_substitute(lu, y)


def _back_substitute(U, y):
    """Overwrite y with the solution of U x = y; U is read on and above its diagonal only."""
    n = len(y)
    for i in range(n - 1, -1, -1):
        y[i] = dot_sub(y[i], U[i][i + 1:n], y[i + 1:]) / U[i][i]
    return y


# ---------------------------------------------------------------------------
# stabilization sweep


@dataclass(frozen=True)
class StabilizationConfig:
    """Thresholds turning per-coefficient trajectories into verdicts.

    A coefficient stabilizes when its last ``window`` consecutive steps all
    move by at most tol_abs + tol_rel*|last value|; it oscillates when those
    steps alternate sign with non-decreasing magnitude.
    """

    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    window: int = 3

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"the stabilization window must be at least 1, got {self.window}")
        for name in ("tol_abs", "tol_rel"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


@dataclass(frozen=True)
class Verdict:
    kind: str  # "stabilized" | "drifting" | "oscillating" | "singular-at"
    limit: Scalar | None = None
    last_delta: Scalar | None = None
    singular_Ns: tuple = ()


@dataclass(frozen=True)
class SweepReport:
    """Trajectories alpha^(N)_n over the solved truncations, with verdicts.

    ``trajectories[n]`` is aligned with the sublist of Ns satisfying N >= n;
    entries are None where that truncation was singular. ``verdicts[n]`` is
    coefficient n's Verdict and ``singular_Ns`` lists the singular
    truncations. The report holds scalars of the sweep's precision mode and
    no text: the CLI renders it as JSON or CSV. It is deterministic: it
    depends only on the inputs, not on solve order or on mpmath's ambient
    precision.
    """

    Ns: tuple
    trajectories: dict
    verdicts: dict
    singular_Ns: tuple


def classify_trajectory(values: Sequence, stab: StabilizationConfig) -> Verdict:
    """Apply the stabilization rules to one coefficient's value sequence."""
    w = stab.window
    if len(values) < w + 1:
        return Verdict("drifting")
    tail = list(values[-(w + 1):])
    deltas = [tail[i + 1] - tail[i] for i in range(w)]
    v = tail[-1]
    if isinstance(v, Fraction):  # keep the comparison exact in rational mode
        tol = as_fraction(stab.tol_abs) + as_fraction(stab.tol_rel) * abs(v)
    else:
        tol = stab.tol_abs + stab.tol_rel * abs(v)
    if all(abs(d) <= tol for d in deltas):
        return Verdict("stabilized", limit=v, last_delta=abs(deltas[-1]))
    alternating = all(
        sign(deltas[i]) != 0 and sign(deltas[i + 1]) == -sign(deltas[i])
        for i in range(w - 1)
    )
    growing = all(abs(deltas[i + 1]) >= abs(deltas[i]) for i in range(w - 1))
    if w >= 2 and alternating and growing:
        return Verdict("oscillating")
    return Verdict("drifting")


def intuitive_sweep(
    f: TruncatedSeries,
    Ns: Sequence[int],
    cfg: PrecisionConfig,
    stab: StabilizationConfig | None = None,
) -> SweepReport:
    """Solve the truncations A|_N x = u|_N for each N and classify coefficients.

    The system is built once, at the largest N: column n of the Bell matrix
    holds the coefficients of f**n and truncation commutes with the product,
    so each N-truncation is its leading N x N block, with the first N
    entries of u as right-hand side. Each block holds the scalars a build at
    N would give, so every solution is the same as with a build per N.
    In exact mode one Bareiss pass over the built system eliminates every
    leading block at once, and the pivot rows it picks tell which blocks are
    singular; the float modes factor each block with its own pivoted LU.

    The build, the solves and the classification all run under
    ``cfg.workprec()``, so a verdict's limit and last_delta carry cfg's
    precision whatever mpmath's precision is at the call.

    Singular truncations are recorded and skipped, never aborting the sweep.
    A coefficient index with no successful solve at all gets the singular-at
    verdict listing the failed truncation sizes. The sizes and the order of
    f are checked (``check_truncation_sizes``) before any solve.
    """
    stab = stab or StabilizationConfig()
    Ns = list(Ns)
    check_truncation_sizes(Ns, f.order)

    trajectories: dict[int, tuple] = {}
    verdicts: dict[int, Verdict] = {}
    with cfg.workprec():
        solutions = _solve_blocks(abel_system(f, max(Ns)), Ns)
        singular = tuple(N for N in Ns if solutions[N] is None)
        for n in range(1, max(Ns) + 1):
            relevant = [N for N in Ns if N >= n]
            traj = tuple(
                None if solutions[N] is None else solutions[N][n - 1] for N in relevant
            )
            trajectories[n] = traj
            good = [v for v in traj if v is not None]
            if not good:  # no solve succeeded, so every relevant size is singular
                verdicts[n] = Verdict("singular-at", singular_Ns=tuple(relevant))
            else:
                verdicts[n] = classify_trajectory(good, stab)
    return SweepReport(tuple(Ns), trajectories, verdicts, singular)


# ---------------------------------------------------------------------------
# residual check


def abel_residual(alpha: TruncatedSeries, f: TruncatedSeries, K: int) -> TruncatedSeries:
    """Coefficients of alpha(f(x)) - alpha(x) - 1 up to degree K.

    Both inputs are treated as the polynomials they store (zero-padded to K
    where shorter, which is exact for polynomial data); the composition is
    truncated at K.
    """
    composed = series_compose(alpha, pad(f, K), order=K)
    at = pad(alpha, K)
    coeffs = list(composed.coeffs)
    for m in range(K + 1):
        coeffs[m] = coeffs[m] - at.coeffs[m]
    coeffs[0] = coeffs[0] - 1
    return TruncatedSeries(tuple(coeffs))
