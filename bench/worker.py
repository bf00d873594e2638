"""One workload in one process: set up, run the timed loop, check, report.

Started by run.py. It prints ``READY`` once abelsweep is imported and the
job list is generated (the end of set-up), and, unless ``--setup-only``
is given, one JSON line with the run's raw results when it is done.

Untraced runs are a closed loop: one client, one thread, the next job starts
when the previous one has finished, until ``--seconds`` have passed. Traced
runs take a fixed prefix of the job list instead, so that every per-layer
count repeats exactly for a given seed; each job runs once untraced and
once traced, and the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))  # the checkout's own sources

import abelsweep  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, digest, run_cli  # noqa: E402


def attempt(fn, *args) -> Outcome:
    """``fn(*args)``; an exception becomes a failed outcome, not a crashed run."""
    try:
        return fn(*args)
    except Exception as exc:  # the boundary of one operation: record and go on
        return Outcome(-1, b"", f"{type(exc).__name__}: {exc}")


def timed(run, job, workdir):
    """(outcome, wall seconds, cpu seconds) of one job."""
    w0, c0 = time.perf_counter(), time.process_time()
    out = attempt(run, job, workdir)
    return out, time.perf_counter() - w0, time.process_time() - c0


def check(wl, job, out):
    """None if the job's outcome is right, else a one-line reason."""
    if out.rc != 0:
        return f"exit {out.rc}: {out.message}"
    try:
        return wl.check(job, out.output)
    except Exception as exc:  # a malformed output fails its job, the run goes on
        return f"oracle raised {type(exc).__name__}: {exc}"


def run_probes(wl, workdir) -> list:
    results = []
    for probe in wl.probes:
        out = attempt(run_cli, probe.argv, workdir)
        try:
            ok = bool(probe.ok(out))
        except Exception:  # malformed probe output means the probe failed
            ok = False
        results.append({
            "name": probe.name, "argv": list(probe.argv), "rc": out.rc,
            "rc_at_baseline": probe.rc_at_baseline, "ok": ok,
            "message": out.message.splitlines()[-1] if out.message else "",
            "defect": probe.defect,
        })
    return results


def untraced(wl, jobs, seconds, workdir) -> dict:
    records = []
    start = time.perf_counter()
    while True:
        job = jobs[len(records) % len(jobs)]
        out, wall, cpu = timed(wl.run, job, workdir)
        records.append((job, out, wall, cpu))
        if time.perf_counter() - start >= seconds:
            break
    loop_wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = []
    for i, (job, out, _, _) in enumerate(records):
        reason = check(wl, job, out)
        if reason:
            failures.append({"job": i, "reason": reason})
    return {
        "wall": [r[2] for r in records],
        "cpu": [r[3] for r in records],
        "loop_wall": loop_wall,
        "peak_rss_mb": rss_kb / 1024,
        "failures": failures,
        "output_digests": [hashlib.sha256(r[1].output).hexdigest() for r in records],
    }


def traced(wl, jobs, workdir) -> dict:
    tracer = Tracer(on_return=HOOKS)
    plain_wall, traced_wall, failures, digests = [], [], [], []
    for i, job in enumerate(jobs[: wl.trace_jobs]):
        tracer.job = i
        # alternate which of the pair runs first, so warm-up favours neither
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                with tracer.installed():
                    out_t, wall_t, _ = timed(wl.run, job, workdir)
            else:
                out, wall, _ = timed(wl.run, job, workdir)
        plain_wall.append(wall)
        traced_wall.append(wall_t)
        reason = check(wl, job, out)
        if not reason and out_t.output != out.output:
            reason = "traced output differs from untraced output"
        if reason:
            failures.append({"job": i, "reason": reason})
        digests.append(hashlib.sha256(out.output).hexdigest())
    return {
        "plain_wall": plain_wall,
        "traced_wall": traced_wall,
        "failures": failures,
        "output_digests": digests,
        "layers": per_layer(tracer, plain_wall, traced_wall),
        "functions": tracer.summary(),
    }


def _bell_entries(bell):
    return {"bell_entries": len(bell.entries) * len(bell.entries[0])}


def _coeff_bits(poly):
    """Numerator plus denominator bit lengths of the exact coefficients."""
    bits = 0
    for c in poly.coeffs:
        bits += abs(getattr(c, "numerator", 0)).bit_length()
        bits += getattr(c, "denominator", 1).bit_length()
    return {"coeff_bits": bits}


HOOKS = {"carleman.bell_matrix": _bell_entries, "affine.log_poly": _coeff_bits}

#: (name, unit) of the per-layer metrics. ``<layer>.<fn>.<calls|s|self_s>``
#: come straight from the spans; the others are derived in per_layer().
PER_LAYER = (
    ("carleman.bell_matrix.calls", "count"),
    ("carleman.bell_matrix.s", "s"),
    ("carleman.bell_entries", "count"),
    ("carleman.rebuild_ratio", "ratio"),
    ("carleman.abel_system.calls", "count"),
    ("carleman.abel_system.self_s", "s"),
    ("powerseries.series_mul.calls", "count"),
    ("powerseries.series_mul.s", "s"),
    ("powerseries.series_mul.self_s", "s"),
    ("solver.solve_truncated.calls", "count"),
    ("solver.solve_truncated.s", "s"),
    ("solver.solve_truncated.self_s", "s"),
    ("solver.singular", "count"),
    ("solver.intuitive_sweep.self_s", "s"),
    ("solver.classify_trajectory.calls", "count"),
    ("solver.classify_trajectory.s", "s"),
    ("scalars.format_scalar.calls", "count"),
    ("scalars.format_scalar.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("affine.log_poly.calls", "count"),
    ("affine.log_poly.s", "s"),
    ("affine.log_poly.coeff_bits", "bits"),
    ("affine.eval_log_poly.calls", "count"),
    ("affine.eval_log_poly.s", "s"),
    ("affine.eval_log_poly.self_s", "s"),
    ("affine.reference_log.calls", "count"),
    ("affine.reference_log.s", "s"),
    ("iterate.poly_abel_context.calls", "count"),
    ("iterate.poly_abel_context.s", "s"),
    ("iterate.fractional_iterate.calls", "count"),
    ("iterate.fractional_iterate.self_s", "s"),
    ("iterate.evals_per_iterate", "count"),
    ("trace.job_p50_s", "s"),
    ("trace.overhead_s", "s"),
)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer, plain_wall, traced_wall) -> dict:
    """Every PER_LAYER metric, from one traced pass over the job prefix."""
    fns = tracer.summary()
    entries = tracer.count_by_job("bell_entries").values()
    iterates = fns["iterate.fractional_iterate"]["calls"]
    derived = {
        "carleman.bell_entries": sum(sum(e) for e in entries),
        "carleman.rebuild_ratio": median_or_zero(sum(e) / max(e) for e in entries),
        "solver.singular": fns["solver.solve_truncated"]["raised"].get("SingularSystemError", 0),
        "affine.log_poly.coeff_bits": sum(
            sum(b) for b in tracer.count_by_job("coeff_bits").values()),
        "iterate.evals_per_iterate": (
            tracer.calls_within("affine.eval_log_poly", "iterate.fractional_iterate") / iterates
            if iterates else 0),
        "trace.job_p50_s": median_or_zero(traced_wall),
        "trace.overhead_s": median_or_zero(traced_wall) - median_or_zero(plain_wall),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            fn, _, field = name.rpartition(".")
            value = fns[fn][field]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    if not Path(abelsweep.__file__).resolve().is_relative_to(SRC):
        print(f"worker: abelsweep comes from {abelsweep.__file__}, not {SRC}", file=sys.stderr)
        return 3
    wl = WORKLOADS[args.workload]
    jobs = wl.jobs(args.seed)
    job_list_digest = digest(jobs)
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced(wl, jobs, str(workdir))
        else:
            result = untraced(wl, jobs, args.seconds, str(workdir))
        prefix = result.pop("output_digests")[: wl.trace_jobs]
        result["output_digest"] = digest(prefix)
        result["output_digest_jobs"] = len(prefix)
        result["probes"] = run_probes(wl, str(workdir))
        result["job_list_digest"] = job_list_digest
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
