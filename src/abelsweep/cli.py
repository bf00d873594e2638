"""Command-line surface.

One command per invocation; deterministic output (byte-identical for a fixed
configuration and precision mode) to stdout or --out. ``main`` runs the
command under its --precision's working precision, so no command sets
mpmath's precision itself. Numeric parameters accept decimal or "p/q"
literals. Exit codes: 0 success, 1 I/O or
configuration errors, 2 domain errors (s=0, root of unity, singular system,
a real logarithm outside b > 0, b != 1, x > 0).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import mpmath

from .affine import (
    AffineParams,
    affine_series,
    beta_polynomial,
    beta_recurrence,
    log_poly_evaluator,
    reference_log,
    s_invariance_gap,
)
from .carleman import abel_system, bell_matrix, check_truncation_sizes
from .errors import DomainError
from .iterate import IterationContext, exact_log_context, fractional_iterate, poly_abel_context
from .powerseries import exp_shift_series, from_json_dict
from .scalars import PrecisionConfig, as_fraction, format_scalar
from .solver import StabilizationConfig, intuitive_sweep, solve_truncated


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with "-<digit>", so such a token is always a value:
        # negative p/q literals (-1/2), brackets (-0.95:0.95) and lists (-1/2,1)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse would exit(2); config errors are exit 1 here
        raise UsageError(message)


# ---------------------------------------------------------------------------
# literal parsing

def _precision(text: str) -> PrecisionConfig:
    if text == "machine":
        return PrecisionConfig("machine")
    if text == "exact":
        return PrecisionConfig("exact")
    if text.startswith("bits:"):
        try:
            return PrecisionConfig("bigfloat", bits=int(text[5:]))
        except ValueError as exc:
            raise UsageError(f"bad --precision {text!r}: {exc}") from exc
    raise UsageError(f"bad --precision {text!r} (machine | bits:<n> | exact)")


def _rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise UsageError(f"bad numeric literal {text!r}") from exc


def _rational_list(text: str) -> list[Fraction]:
    values = [_rational(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


def _int_range(text: str) -> list[int]:
    """\"a:b\" or \"a:b:step\" (inclusive), or a comma list."""
    try:
        if ":" in text:
            lo, hi, *step = (int(tok) for tok in text.split(":"))
            if len(step) > 1:
                raise ValueError("expected a:b or a:b:step")
            values = list(range(lo, hi + 1, *step))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty range {text!r}")
    return values


_MACHINE = PrecisionConfig("machine")


def _round_literal(
    cfg: PrecisionConfig, value: Fraction, option: str, literal: str | None = None
):
    """An input literal's value rounded once to cfg's scalars.

    A nonzero value that machine precision rounds to 0.0 is refused, naming
    the option and the literal (by default, the value to 6 digits). Computed
    values are not checked here: 0.0 is their correct rounding.
    """
    x = cfg.scalar(value)
    if value and not x:
        literal = literal or mpmath.nstr(mpmath.mpf(value.numerator) / value.denominator, 6)
        raise UsageError(
            f"bad {option} {literal!r}: a nonzero value rounds to 0.0 in machine precision"
        )
    return x


def _bracket(text: str) -> tuple:
    """\"lo:hi\", each end rounded to a float."""
    ends = text.split(":")
    if len(ends) != 2:
        raise UsageError(f"bad --bracket {text!r}: expected lo:hi")
    try:
        return tuple(_round_literal(_MACHINE, as_fraction(end), "--bracket", text) for end in ends)
    except ValueError as exc:
        raise UsageError(f"bad --bracket {text!r}: {exc}") from exc


def _tolerance(text: str) -> float:
    """A float literal; one that is nonzero and rounds to 0.0 is refused.

    nan, inf and negative values pass: the stabilization config and the
    iteration context refuse them with their own messages.
    """
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if x == 0 and _rational(text) != 0:
        raise argparse.ArgumentTypeError(
            f"bad literal {text!r}: a nonzero value rounds to 0.0 in machine precision"
        )
    return x


def _affine_input(args, cfg: PrecisionConfig, N: int, check_unity: bool = True):
    """The map of a size-N command: --series FILE, or b*(x+s) - s to degree max(N - 1, 1).

    ``check_unity`` refuses b**k == 1 for some k <= N, where the solution
    divides by 1 - b**k; matrix dumps skip it (assembly never divides).
    """
    if getattr(args, "series", None):
        with open(args.series, "r", encoding="utf-8") as fh:
            return from_json_dict(json.load(fh), cfg)
    p = AffineParams(_round_literal(cfg, args.b, "--b"), _round_literal(cfg, args.s, "--s"))
    if check_unity:
        p.ensure_order(N)
    return affine_series(p, max(N - 1, 1))


# ---------------------------------------------------------------------------
# output

def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """Rows of formatted cells as CSV, or as a JSON list of records keyed by the header."""
    if fmt == "json":
        return _json([dict(zip(header, row)) for row in rows])
    return _csv(header, rows)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

def _cmd_matrix(args) -> str:
    cfg = args.precision
    f = _affine_input(args, cfg, args.N, check_unity=False)
    if args.system:
        sysN = abel_system(f, args.N)
        rows = [
            [format_scalar(v, cfg.dps) for v in row] + [format_scalar(sysN.rhs[m], cfg.dps)]
            for m, row in enumerate(sysN.A)
        ]
        header = [f"a{n + 1}" for n in range(args.N)] + ["rhs"]
    else:
        bm = bell_matrix(f, args.N)
        rows = [[format_scalar(v, cfg.dps) for v in row] for row in bm.entries]
        header = [f"n{n}" for n in range(args.N + 1)]
    if args.format == "json":
        return _json({"N": args.N, "rows": rows})
    return _csv(header, rows)


def _cmd_solve(args) -> str:
    cfg = args.precision
    x = solve_truncated(abel_system(_affine_input(args, cfg, args.N), args.N))
    vals = [format_scalar(v, cfg.dps) for v in x]
    if args.format == "json":
        return _json({"N": args.N, "coefficients": vals})
    return _csv(["index", "value"], [[str(i + 1), v] for i, v in enumerate(vals)])


def _cmd_sweep(args) -> str:
    return _sweep(args, _affine_input(args, args.precision, max(args.Ns)), args.Ns)


def _sweep(args, f, Ns) -> str:
    """f swept over Ns, as CSV rows (index, N, value, verdict) or as JSON with the config."""
    cfg, fmt = args.precision, args.format
    stab = StabilizationConfig(args.tol_abs, args.tol_rel, args.window)
    report = intuitive_sweep(f, Ns, cfg, stab)
    if fmt == "csv":
        rows = []
        for n in sorted(report.trajectories):
            verdict = report.verdicts[n].kind
            relevant = [N for N in report.Ns if N >= n]
            for N, v in zip(relevant, report.trajectories[n]):
                rows.append(
                    [str(n), str(N), "" if v is None else format_scalar(v, cfg.dps), verdict]
                )
        return _csv(["index", "N", "value", "verdict"], rows)
    coefficients = {}
    for n in sorted(report.trajectories):
        v = report.verdicts[n]
        verdict: dict = {"kind": v.kind}
        if v.kind == "stabilized":
            verdict["limit"] = format_scalar(v.limit, cfg.dps)
            verdict["last_delta"] = format_scalar(v.last_delta, cfg.dps)
        if v.kind == "singular-at":
            verdict["Ns"] = list(v.singular_Ns)
        values = [None if x is None else format_scalar(x, cfg.dps) for x in report.trajectories[n]]
        coefficients[str(n)] = {"values": values, "verdict": verdict}
    config = {"mode": cfg.mode, "guard_bits": cfg.guard_bits}
    if cfg.mode == "bigfloat":
        config["bits"] = cfg.bits
    config.update(tol_abs=stab.tol_abs, tol_rel=stab.tol_rel, window=stab.window)
    return _json({"Ns": list(report.Ns), "coefficients": coefficients, "config": config})


def _cmd_affine(args) -> str:
    cfg = args.precision
    check_truncation_sizes((args.n,))
    p = AffineParams(args.b, args.s)  # exact; the system column solves the rounded map
    methods = ["direct", "recurrence", "system"] if args.method == "all" else [args.method]
    columns: dict[str, list] = {}
    for method in methods:
        if method == "system":
            vec = solve_truncated(abel_system(_affine_input(args, cfg, args.n), args.n))
        elif method == "direct":
            vec = [cfg.scalar(c) for c in beta_polynomial(p, args.n).coeffs[1:]]
        else:
            vec = [cfg.scalar(beta_recurrence(p, args.n, m)) for m in range(1, args.n + 1)]
        columns[method] = [format_scalar(v, cfg.dps) for v in vec]
    if args.format == "json":
        return _json({"n": args.n, "coefficients": columns})
    header = ["m"] + methods
    rows = [
        [str(m + 1)] + [columns[meth][m] for meth in methods] for m in range(args.n)
    ]
    return _csv(header, rows)


_LOG_HEADER = ["n", "x", "approx", "reference_log", "abs_error"]


def _log_table(b: Fraction, degrees: list[int], xs: list[Fraction], cfg: PrecisionConfig) -> list:
    """Rows of the log table; the error is the exact difference rounded once to the reference's bits."""
    ref_bits = max(degrees) + cfg.guard_bits + 64
    ref_cfg = PrecisionConfig("bigfloat", bits=ref_bits)
    rows = []
    for n in degrees:
        poly = log_poly_evaluator(b, n, xs, cfg)
        for x in xs:
            approx = poly(x)
            ref = reference_log(b, x, bits=ref_bits)
            err = ref_cfg.scalar(abs(as_fraction(approx) - as_fraction(ref)))
            rows.append(
                [
                    str(n),
                    format_scalar(x),
                    format_scalar(approx, cfg.dps),
                    format_scalar(ref, cfg.dps),
                    format_scalar(err, cfg.dps),
                ]
            )
    return rows


def _cmd_logapprox(args) -> str:
    return _table(_LOG_HEADER, _log_table(args.b, args.n, args.xs, args.precision), args.format)


def _cmd_invariance(args) -> str:
    cfg = args.precision
    p1 = AffineParams(args.b, args.s1)
    p2 = AffineParams(args.b, args.s2)
    report = s_invariance_gap(p1, p2, args.n, args.xs, cfg)
    if args.format == "csv":
        rows = [
            [format_scalar(x), format_scalar(g, cfg.dps)]
            for x, g in zip(report.xs, report.gaps)
        ]
        return _csv(["x", "gap"], rows)
    return _json(
        {
            "b": format_scalar(args.b),
            "s1": format_scalar(args.s1),
            "s2": format_scalar(args.s2),
            "n": args.n,
            "median_gap": format_scalar(report.median_gap, cfg.dps),
            "deviation": format_scalar(report.deviation, cfg.dps),
        }
    )


def _cmd_iterate(args) -> str:
    cfg = args.precision
    # exact b and s: P_n's coefficients come from the rational base, not its rounding
    p = AffineParams(args.b, args.s)
    if args.n is None:
        b, s = _round_literal(cfg, p.b, "--b"), _round_literal(cfg, p.s, "--s")
        ctx = exact_log_context(b, s, cfg, bracket=args.bracket, tol=args.tol)
    else:
        if args.bracket is None:
            raise UsageError("--bracket lo:hi is required with --n (polynomial inversion)")
        ctx = poly_abel_context(p, args.n, cfg, bracket=args.bracket, tol=args.tol)
    rows = []
    for t in args.t:
        for z in args.z:
            tv, zv = _round_literal(cfg, t, "--t"), _round_literal(cfg, z, "--z")
            w = fractional_iterate(ctx, tv, zv)
            rows.append(
                [format_scalar(t), format_scalar(z), format_scalar(w, cfg.dps)]
            )
    return _table(["t", "z", "value"], rows, args.format)


def _cmd_explore_exp(args) -> str:
    if (args.Ns is None) == (args.N_max is None):
        raise UsageError("give exactly one of --Ns or --N-max")
    Ns = args.Ns if args.Ns is not None else list(range(1, args.N_max + 1))
    check_truncation_sizes(Ns)
    s = _round_literal(args.precision, args.s, "--s")
    return _sweep(args, exp_shift_series(s, max(Ns) - 1, args.precision), Ns)


def _cmd_explore_bgt1(args) -> str:
    b = args.b
    if b <= 1:
        raise UsageError("explore-bgt1 expects a base b > 1")
    xs = args.xs or [b * (1 + Fraction(u, 10)) for u in range(-8, 9, 2)]
    return _table(_LOG_HEADER, _log_table(b, args.n, xs, args.precision), args.format)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="abelsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="csv", precision_default="bits:128"):
        p.add_argument("--precision", type=_precision, default=_precision(precision_default))
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        p.add_argument("--out", default=None)

    def affine_map(p):
        p.add_argument("--b", type=_rational, default=Fraction(2))
        p.add_argument("--s", type=_rational, default=Fraction(1))
        p.add_argument("--series", default=None, help="JSON series file instead of --b/--s")

    def stabilization(p):
        p.add_argument("--tol-abs", type=_tolerance, default=StabilizationConfig.tol_abs)
        p.add_argument("--tol-rel", type=_tolerance, default=StabilizationConfig.tol_rel)
        p.add_argument("--window", type=int, default=StabilizationConfig.window)

    p = sub.add_parser("matrix", help="dump the Bell matrix (or Abel system) of a map")
    affine_map(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--system", action="store_true", help="dump A|rhs instead of the Bell matrix")
    common(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("solve", help="solve one truncated Abel system")
    affine_map(p)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="solve truncations over increasing N and classify")
    affine_map(p)
    p.add_argument("--Ns", type=_int_range, required=True, help="e.g. 1:32 or 1,2,4,8")
    stabilization(p)
    common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("affine", help="closed-form solution coefficients")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("direct", "recurrence", "system", "all"), default="all")
    common(p, precision_default="exact")
    p.set_defaults(fn=_cmd_affine)

    p = sub.add_parser("logapprox", help="polynomial log approximation error table")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--n", type=_int_range, required=True, help="degree(s), e.g. 100,400")
    p.add_argument("--xs", type=_rational_list, required=True)
    common(p)
    p.set_defaults(fn=_cmd_logapprox)

    p = sub.add_parser("invariance", help="development-point invariance gap")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--s1", type=_rational, required=True)
    p.add_argument("--s2", type=_rational, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--xs", type=_rational_list, required=True)
    common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_invariance)

    p = sub.add_parser("iterate", help="fractional iterates: b*x by exact log, b*(x+s) - s by --n")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--t", type=_rational_list, required=True)
    p.add_argument("--z", type=_rational_list, required=True)
    p.add_argument("--n", type=int, default=None, help="polynomial degree (default: exact log)")
    p.add_argument("--bracket", type=_bracket, default=None)
    p.add_argument("--tol", type=_tolerance, default=IterationContext.tol)
    common(p)
    p.set_defaults(fn=_cmd_iterate)

    p = sub.add_parser("explore-exp", help="exploratory sweep for the exponential map")
    p.add_argument("--s", type=_rational, default=Fraction(0))
    p.add_argument("--Ns", type=_int_range, default=None)
    p.add_argument("--N-max", dest="N_max", type=int, default=None)
    stabilization(p)
    common(p, fmt_default="json", precision_default="bits:256")
    p.set_defaults(fn=_cmd_explore_exp)

    p = sub.add_parser("explore-bgt1", help="exploratory log table for b > 1 (no pass/fail)")
    p.add_argument("--b", type=_rational, default=Fraction(2))
    p.add_argument("--n", type=_int_range, default=[200])
    p.add_argument("--xs", type=_rational_list, default=None)
    common(p)
    p.set_defaults(fn=_cmd_explore_bgt1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with args.precision.workprec():
            text = args.fn(args)
        _emit(text, args.out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
