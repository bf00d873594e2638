"""Benchmark of abelsweep's sweep, log-approximation and iteration paths.

Run from the root of a checkout:

    python3 bench/run.py --workload exp_sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Each workload runs in a worker process of its own (bench/worker.py), so
set-up time and peak memory belong to that workload. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: environment, digests, probe outcomes and, for a traced
run, every wrapped function's counts and times.

``attempted`` and ``failed`` count the seeded jobs. ``error_rate`` also
counts the known-defect probes (see bench/NOTES.md), so it stays above zero
until those defects are fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
    ("setup_s", "s"),
)

#: Set-up-only workers started before and again after the measuring worker.
#: setup_s is the median start-to-READY time of all of them and the measuring
#: worker, taken at both ends of the run so one slow stretch of the machine
#: does not set it.
SETUP_SPAWNS = 3

#: A workload run must end within this many seconds.
DEADLINE_S = 170


class RunError(Exception):
    pass


def spawn(argv: list, deadline: float):
    """Start a worker; return (seconds from start to READY, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != b"READY" or rc != 0:
        raise RunError(f"worker {' '.join(argv)} exited {rc}")
    return ready, rest


def environment() -> dict:
    import mpmath

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def tail(values: list):
    """(value, percentile): the highest nearest-rank percentile with at
    least ten samples above it, or the smallest sample when there are fewer
    than eleven."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(raw: dict, setup: list) -> tuple:
    walls = raw["wall"]
    failed = len(raw["failures"])
    probes_failed = sum(not p["ok"] for p in raw["probes"])
    tail_s, tail_pct = tail(walls)
    values = {
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "jobs_per_s": (len(walls) - failed) / raw["loop_wall"],
        "cpu_p50_s": statistics.median(raw["cpu"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "error_rate": (failed + probes_failed) / (len(walls) + len(raw["probes"])),
        "setup_s": statistics.median(setup),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    extra = {"samples": len(walls), "job_tail_pct": tail_pct,
             "probes_failed": probes_failed, "probes_run": len(raw["probes"])}
    return metrics, extra


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, detail) for one workload."""
    deadline = time.perf_counter() + DEADLINE_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setup_only = argv + ["--setup-only"]
    setup = [spawn(setup_only, deadline)[0] for _ in range(SETUP_SPAWNS)]
    ready, out = spawn(argv, deadline)
    setup.append(ready)
    setup += [spawn(setup_only, deadline)[0] for _ in range(SETUP_SPAWNS)]
    raw = json.loads(out.decode().strip().splitlines()[-1])
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples_s": setup,
        "job_list_sha256": raw["job_list_digest"],
        "output_sha256": raw["output_digest"],
        "output_sha256_jobs": raw["output_digest_jobs"],
        "failures": raw["failures"],
        "probes": raw["probes"],
    }
    if trace:
        metrics = raw["layers"]
        attempted = len(raw["traced_wall"])
        detail["counts_repeat_for_seed"] = True
        detail["functions"] = raw["functions"]
    else:
        metrics, extra = end_to_end(raw, setup)
        attempted = extra["samples"]
        detail.update(extra)
    failed = len(raw["failures"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so spawn() kills the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "abelsweep" / "__init__.py").is_file():
        print(f"bench: no abelsweep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    chosen = names if args.workload == "all" else [args.workload]
    if args.seconds < 1 or any(n not in names for n in chosen):
        ap.error(f"--workload must be one of {names} or all, --seconds at least 1")
    env = environment()
    results = []
    try:
        for name in chosen:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace)
            detail["env"] = env
            print(json.dumps({"detail": detail}), flush=True)
            results.append((name, result))
    except (RunError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0][1]), flush=True)
        return 0
    for name, result in results:
        for metric, m in result["metrics"].items():
            print(f"{name:<20} {metric:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
