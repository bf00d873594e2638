"""The benchmark's four workloads: job lists, job runners, oracles and probes.

A job list is a pure function of the workload seed. Sizes (and the bases
of the log-approximation workloads) are read off a Kronecker sequence
frac(u0 + k*step) with a seeded start u0: every prefix of it covers the
range nearly evenly, so the mix of sizes in a time-limited run does not
depend on the seed or on where the run stops. The other parameters (shifts,
affine bases, evaluation points, iteration times) are drawn from the seed.

Every job is checked by an oracle after the timed loop. An oracle returns
``None`` when the output is right and a one-line reason when it is not.

Probes are single CLI invocations that expose known defects. Each is run once
per run, untimed, and counts as a failed operation while the defect stands.

The library is always reached through module attributes at call time
(``carleman.abel_system``, not a name bound at import) so that the tracer's
wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath

from abelsweep import affine, carleman, cli, iterate, powerseries, scalars

#: Jobs generated per list; a run that exhausts the list starts it again.
LIST_LENGTH = 400

#: exp_sweep: bound on ||A x - u||_inf / max_i sum_j |A_ij x_j| per truncation.
#: The CLI solves at 256 bits and prints 80 significant digits.
EXP_RESIDUAL_TOL = mpmath.mpf("1e-60")

#: logapprox_table: |approx - evaluation at +64 bits|; the CLI keeps about
#: 64 bits after the alternating sum's cancellation.
LOG_EVAL_TOL = mpmath.mpf("1e-15")

#: logapprox_table: relative agreement of the printed reference column with
#: reference_log at 256 bits (the column is printed with 41 digits).
LOG_REF_TOL = mpmath.mpf("1e-35")

#: iterate_poly: |f^[t](z) - (b^t (z+s) - s)|, the bound tests/test_iterate.py uses.
ITERATE_TOL = 1e-3

ITERATE_BRACKET = (-0.95, 0.95)


# ---------------------------------------------------------------------------
# job lists


GOLDEN = (math.sqrt(5) - 1) / 2
SILVER = math.sqrt(2) - 1


def even_draws(values, rng: random.Random, count: int, step: float = GOLDEN) -> list:
    """``count`` picks from ``values`` at frac(u0 + k*step), u0 drawn from ``rng``.

    Workloads that draw two such sequences use different irrational steps,
    so their pairs cover the grid evenly too.
    """
    values = list(values)
    u0 = rng.random()
    return [values[int(len(values) * ((u0 + k * step) % 1.0))] for k in range(count)]


def _rational(rng: random.Random, exclude=()) -> Fraction:
    """p/q with 1 <= |p| <= 5 and 1 <= q <= 5, not in ``exclude``."""
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        if q not in exclude:
            return q


#: Size ranges; a traced run measures as many jobs as a range has sizes.
SWEEP_SIZES = range(20, 37)
LOG_DEGREES = range(200, 601, 25)
ITERATE_DEGREES = range(150, 301, 10)


def exp_jobs(rng: random.Random) -> list:
    jobs = []
    for N in even_draws(SWEEP_SIZES, rng, LIST_LENGTH):
        q = rng.randint(1, 8)
        jobs.append({"N": N, "s": str(Fraction(rng.randint(-(q // 2), q // 2), q))})
    return jobs


def affine_jobs(rng: random.Random) -> list:
    return [
        {"N": N, "b": str(_rational(rng, exclude=(1, -1))), "s": str(_rational(rng))}
        for N in even_draws(SWEEP_SIZES, rng, LIST_LENGTH)
    ]


LOG_BASES = ("1/2", "1/3", "2/3", "9/10")


def logapprox_jobs(rng: random.Random) -> list:
    degrees = even_draws(LOG_DEGREES, rng, LIST_LENGTH)
    bases = even_draws(LOG_BASES, rng, LIST_LENGTH, SILVER)
    return [
        {"b": b, "n": n,
         "xs": [str(Fraction(k, 100)) for k in sorted(rng.sample(range(1, 101), 20))]}
        for n, b in zip(degrees, bases)
    ]


def iterate_jobs(rng: random.Random) -> list:
    degrees = even_draws(ITERATE_DEGREES, rng, LIST_LENGTH)
    bases = even_draws(("1/2", "1/3"), rng, LIST_LENGTH, SILVER)
    return [
        {"b": b, "n": n,
         "ts": rng.sample(["1/4", "1/2", "1", "3/2"], 2),
         "zs": [str(Fraction(k, 20)) for k in sorted(rng.sample(range(-10, 17), 4))]}
        for n, b in zip(degrees, bases)
    ]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# running


@dataclass
class Outcome:
    """What one job or probe produced: exit code, output bytes, stderr text."""

    rc: int
    output: bytes = b""
    message: str = ""


def run_cli(argv: list, workdir: str) -> Outcome:
    """``abelsweep.cli.main`` in-process, output to a file under ``workdir``."""
    path = os.path.join(workdir, "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv) + [f"--out={path}"])
    output = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            output = fh.read()
        os.remove(path)
    return Outcome(rc, output, err.getvalue().strip())


def exp_argv(job) -> list:
    return ["explore-exp", f"--N-max={job['N']}", f"--s={job['s']}"]


def affine_argv(job) -> list:
    return ["sweep", f"--b={job['b']}", f"--s={job['s']}", f"--Ns=1:{job['N']}",
            "--precision=exact"]


def logapprox_argv(job) -> list:
    return ["logapprox", f"--b={job['b']}", f"--n={job['n']}", f"--xs={','.join(job['xs'])}"]


def run_iterate(job, workdir: str) -> Outcome:
    """poly_abel_context plus fractional_iterate over the job's t and z grid."""
    ctx = iterate.poly_abel_context(
        affine.AffineParams(Fraction(job["b"]), 1), job["n"],
        scalars.PrecisionConfig(), bracket=ITERATE_BRACKET,
    )
    lines = []
    for t in job["ts"]:
        for z in job["zs"]:
            w = iterate.fractional_iterate(ctx, Fraction(t), Fraction(z))
            lines.append(f"{t},{z},{float(w)!r}")
    return Outcome(0, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# oracles


def _mpf(text):
    q = Fraction(text)
    return mpmath.mpf(q.numerator) / q.denominator


def check_exp(job, output: bytes):
    """Each non-singular truncation's solution satisfies its Abel system.

    The N-truncation of the system is the leading N x N block of the
    N_max one (column n of the Bell matrix is f**n cut at degree N-1), so
    one ``abel_system`` call at N_max serves every N of the sweep.
    """
    N = job["N"]
    data = json.loads(output)
    if data.get("Ns") != list(range(1, N + 1)):
        return "Ns differ from 1..N_max"
    coeffs = data["coefficients"]
    if sorted(coeffs, key=int) != [str(n) for n in range(1, N + 1)]:
        return "coefficient indices differ from 1..N_max"
    cfg = scalars.PrecisionConfig("bigfloat", bits=256)
    f = powerseries.exp_shift_series(Fraction(job["s"]), max(N - 1, 1), cfg)
    with cfg.workprec():
        A = carleman.abel_system(f, N).A
    with mpmath.mp.workprec(320):
        for size in range(1, N + 1):
            raw = [coeffs[str(n)]["values"][size - n] for n in range(1, size + 1)]
            if all(v is None for v in raw):
                continue  # recorded as singular
            if any(v is None for v in raw):
                return f"N={size}: solution partly missing"
            x = [mpmath.mpf(v) for v in raw]
            worst = scale = mpmath.mpf(0)
            for i in range(size):
                terms = [A[i][j] * x[j] for j in range(size)]
                r = mpmath.fsum(terms) - (1 if i == 0 else 0)
                worst = max(worst, abs(r))
                scale = max(scale, mpmath.fsum(abs(t) for t in terms))
            if worst > EXP_RESIDUAL_TOL * scale:
                return f"N={size}: relative residual {mpmath.nstr(worst / scale, 3)}"
    return None


def check_affine(job, output: bytes):
    """Every trajectory value equals beta_direct exactly (criterion C02)."""
    N = job["N"]
    data = json.loads(output)
    if data.get("Ns") != list(range(1, N + 1)):
        return "Ns differ from 1..N"
    p = affine.AffineParams(Fraction(job["b"]), Fraction(job["s"]))
    coeffs = data["coefficients"]
    for m in range(1, N + 1):
        values = coeffs[str(m)]["values"]
        if len(values) != N - m + 1:
            return f"coefficient {m}: {len(values)} values"
        for size, v in zip(range(m, N + 1), values):
            if v is None or Fraction(v) != affine.beta_direct(p, size, m):
                return f"beta^({size})_{m} = {v} differs from beta_direct"
    return None


def check_logapprox(job, output: bytes):
    """approx agrees with eval_log_poly at 64 more bits; the reference column is log_b."""
    lines = output.decode().strip().split("\n")
    if lines[0] != "n,x,approx,reference_log,abs_error":
        return "unexpected header"
    rows = [line.split(",") for line in lines[1:]]
    if [(r[0], r[1]) for r in rows] != [(str(job["n"]), x) for x in job["xs"]]:
        return "rows differ from the requested n and xs"
    b = Fraction(job["b"])
    exact = affine.log_poly(b, job["n"])
    cfg = scalars.PrecisionConfig("bigfloat", bits=128 + 64, guard_bits=64 + 64)
    # rounding the coefficients once, 64 bits above the evaluation precision,
    # saves converting every rational again at each of the 20 points
    with mpmath.mp.workprec(job["n"] + cfg.guard_bits + 64):
        poly = affine.LogApproxPoly(exact.n, exact.b, tuple(_mpf(c) for c in exact.coeffs))
    with mpmath.mp.workprec(256):
        for n, x, approx, ref, err in rows:
            want = affine.eval_log_poly(poly, Fraction(x), cfg)
            if abs(mpmath.mpf(approx) - want) > LOG_EVAL_TOL:
                return f"x={x}: approx {approx} differs from {mpmath.nstr(want, 20)}"
            log_b = affine.reference_log(b, Fraction(x), bits=256)
            if abs(mpmath.mpf(ref) - log_b) > LOG_REF_TOL * max(1, abs(log_b)):
                return f"x={x}: reference_log {ref} differs from log_b"
            if abs(mpmath.mpf(err) - abs(mpmath.mpf(approx) - mpmath.mpf(ref))) > LOG_REF_TOL:
                return f"x={x}: abs_error {err} is not |approx - reference_log|"
    return None


def check_iterate(job, output: bytes):
    """f^[t](z) agrees with the closed form b^t (z+1) - 1."""
    rows = [line.split(",") for line in output.decode().strip().split("\n")]
    want = [(t, z) for t in job["ts"] for z in job["zs"]]
    if [(r[0], r[1]) for r in rows] != want:
        return "rows differ from the requested t and z grid"
    b = _mpf(job["b"])
    for t, z, value in rows:
        exact = mpmath.power(b, _mpf(t)) * (_mpf(z) + 1) - 1
        if not abs(float(value) - exact) <= ITERATE_TOL:
            return f"t={t} z={z}: {value} vs closed form {mpmath.nstr(exact, 10)}"
    return None


def iterate_cli_value_ok(t, z, b="1/2"):
    """Probe check for a one-point ``iterate`` CSV: exit 0 and the closed form."""

    def ok(out: Outcome) -> bool:
        if out.rc != 0:
            return False
        rows = out.output.decode().strip().split("\n")[1:]
        job = {"b": b, "ts": [t], "zs": [z]}
        return check_iterate(job, "\n".join(rows).encode()) is None

    return ok


# ---------------------------------------------------------------------------
# probes and workloads


@dataclass(frozen=True)
class Probe:
    """A CLI call exposing a known defect; ``ok`` says whether it behaved correctly.

    ``rc_at_baseline`` is the exit code observed when the benchmark was
    written, recorded in the output so a fix shows as a changed code.
    """

    name: str
    argv: tuple
    rc_at_baseline: int
    ok: Callable[[Outcome], bool]
    defect: str


@dataclass(frozen=True)
class Workload:
    """A job list generator, the runner timed per job, its oracle and probes.

    ``trace_jobs`` is the prefix of the job list a traced run measures: one
    round of the size schedule.
    """

    name: str
    why: str
    make: Callable[[random.Random], list]
    run: Callable[[dict, str], Outcome]
    check: Callable[[dict, bytes], object]
    trace_jobs: int
    probes: tuple = field(default_factory=tuple)

    def jobs(self, seed: int) -> list:
        return self.make(random.Random(f"{self.name}:{seed}"))


def _cli_runner(argv_of):
    return lambda job, workdir: run_cli(argv_of(job), workdir)


README_ITERATE = ("iterate", "--b", "1/2", "--s", "1", "--n", "200", "--bracket",
                  "-0.95:0.95", "--t", "1", "--z", "0.3")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exp_sweep",
            "explore-exp at 256 bits, N 20-36: the mpf LU path, with the Bell matrix rebuilt for every N",
            exp_jobs, _cli_runner(exp_argv), check_exp, trace_jobs=len(SWEEP_SIZES),
            probes=(Probe(
                "negative_s_literal", ("explore-exp", "--N-max", "8", "--s", "-1/2"), 1,
                lambda out: out.rc == 0 and check_exp({"N": 8, "s": "-1/2"}, out.output) is None,
                "argparse reads the negative p/q literal -1/2 as an option"),),
        ),
        Workload(
            "affine_exact_sweep",
            "exact sweep of the affine system, N 20-36: the Fraction path (Bareiss) that serves as oracle",
            affine_jobs, _cli_runner(affine_argv), check_affine, trace_jobs=len(SWEEP_SIZES),
            probes=(Probe(
                "negative_s_literal",
                ("sweep", "--b", "2", "--s", "-1/2", "--Ns", "1:8", "--precision", "exact"), 1,
                lambda out: out.rc == 0 and check_affine({"N": 8, "b": "2", "s": "-1/2"}, out.output) is None,
                "argparse reads the negative p/q literal -1/2 as an option"),),
        ),
        Workload(
            "logapprox_table",
            "log-approximation table, n 200-600, 20 points: log_poly construction and eval_log_poly, no solve",
            logapprox_jobs, _cli_runner(logapprox_argv), check_logapprox, trace_jobs=len(LOG_DEGREES),
            probes=(Probe(
                "zero_base", ("logapprox", "--b", "0", "--n", "20", "--xs", "1/2"), 0,
                lambda out: out.rc in (1, 2),
                "base b=0 is accepted and a table with an infinite reference is printed"),),
        ),
        Workload(
            "iterate_poly",
            "library fractional iterates through the degree-n Abel polynomial: eval_log_poly inside bisection",
            iterate_jobs, run_iterate, check_iterate, trace_jobs=len(ITERATE_DEGREES),
            probes=(
                Probe("readme_bracket", README_ITERATE, 1, iterate_cli_value_ok("1", "3/10"),
                      "argparse reads the bracket -0.95:0.95 as an option"),
                Probe("bracket_equals",
                      tuple(a for a in README_ITERATE if a not in ("--bracket", "-0.95:0.95"))
                      + ("--bracket=-0.95:0.95",),
                      2, iterate_cli_value_ok("1", "3/10"),
                      "AffineParams gets mpf b, so log_poly rounds at 53 bits; bisection exhausted"),
            ),
        ),
    )
}
