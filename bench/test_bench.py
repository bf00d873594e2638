"""Tests of the benchmark itself: job lists, oracles, tracer arithmetic.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_list_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    assert wl.jobs(7) == wl.jobs(7)
    assert wl.jobs(7) != wl.jobs(8)
    assert len(wl.jobs(7)) == workloads.LIST_LENGTH


def test_every_prefix_of_the_size_sequence_is_balanced():
    import random

    draws = workloads.even_draws(range(20, 37), random.Random(1), 200)
    for length in range(17, 201):
        prefix = draws[:length]
        for N in range(20, 37):
            assert abs(prefix.count(N) - length / 17) <= 2


# --- oracles: each accepts the genuine output and rejects a corrupted one ---

def _corrupt_json_value(output: bytes, index: str, position: int) -> bytes:
    data = json.loads(output)
    values = data["coefficients"][index]["values"]
    v = values[position]
    values[position] = v[:-1] + ("1" if v[-1] != "1" else "2")
    return json.dumps(data).encode()


def test_exp_oracle(tmp_path):
    job = {"N": 8, "s": "1/3"}
    out = workloads.run_cli(workloads.exp_argv(job), str(tmp_path))
    assert out.rc == 0
    assert workloads.check_exp(job, out.output) is None
    data = json.loads(out.output)
    data["coefficients"]["2"]["values"][3] = "0.5"
    assert workloads.check_exp(job, json.dumps(data).encode()) is not None


def test_affine_oracle(tmp_path):
    job = {"N": 6, "b": "-5/3", "s": "2/5"}
    out = workloads.run_cli(workloads.affine_argv(job), str(tmp_path))
    assert out.rc == 0
    assert workloads.check_affine(job, out.output) is None
    bad = _corrupt_json_value(out.output, "3", 1)
    assert workloads.check_affine(job, bad) is not None


def test_logapprox_oracle(tmp_path):
    job = {"b": "1/2", "n": 30, "xs": ["1/10", "1/2", "9/10"]}
    out = workloads.run_cli(workloads.logapprox_argv(job), str(tmp_path))
    assert out.rc == 0
    assert workloads.check_logapprox(job, out.output) is None
    lines = out.output.decode().split("\n")
    n, x, approx, ref, err = lines[2].split(",")
    lines[2] = ",".join([n, x, str(Fraction(approx) + Fraction(1, 10**12)), ref, err])
    assert workloads.check_logapprox(job, "\n".join(lines).encode()) is not None


def test_iterate_oracle():
    job = {"b": "1/2", "ts": ["1/2"], "zs": ["3/10"]}
    exact = 0.5 ** 0.5 * 1.3 - 1
    assert workloads.check_iterate(job, f"1/2,3/10,{exact!r}\n".encode()) is None
    assert workloads.check_iterate(job, f"1/2,3/10,{exact + 0.01!r}\n".encode()) is not None


def test_failed_job_is_counted_not_raised(tmp_path):
    wl = WORKLOADS["iterate_poly"]
    out = Outcome(0, b"not,a,number\n")
    assert worker.check(wl, {"b": "1/2", "ts": ["1/2"], "zs": ["3/10"]}, out) is not None
    assert worker.check(wl, {}, Outcome(2, b"", "domain error")) == "exit 2: domain error"


# --- tracer ---

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _toy_tree(clock):
    """a(5 s own) -> b(2 s own) -> c(1 s), a -> c(3 s): a=11, b=3, c=1+3."""

    def c(d):
        clock.now += d

    def b():
        clock.now += 2
        toy.c(1)

    def a():
        clock.now += 5
        toy.b()
        toy.c(3)

    import types

    toy = types.ModuleType("toypkg.layer")
    toy.a, toy.b, toy.c = a, b, c
    return toy


def test_self_time_on_a_toy_call_tree(monkeypatch):
    import types

    clock = FakeClock()
    layer = _toy_tree(clock)
    pkg = types.ModuleType("toypkg")
    pkg.layer = layer
    monkeypatch.setitem(sys.modules, "toypkg", pkg)
    monkeypatch.setitem(sys.modules, "toypkg.layer", layer)
    tracer = Tracer(layers={"layer": ("a", "b", "c", "gone")}, package="toypkg", clock=clock)
    with tracer.installed():
        layer.a()
    s = tracer.summary()
    assert s["layer.a"] == {"calls": 1, "s": 11.0, "self_s": 5.0, "raised": {}}
    assert s["layer.b"] == {"calls": 1, "s": 3.0, "self_s": 2.0, "raised": {}}
    assert s["layer.c"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "raised": {}}
    assert tracer.calls_within("layer.c", "layer.b") == 1
    assert [sp.parent for sp in tracer.spans] == [None, 0, 1, 0]
    # the missing name reports zero counts instead of failing
    assert s["layer.gone"] == {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}}
    # wrappers are gone after the block
    assert layer.a.__name__ == "a" and not hasattr(layer.a, "__wrapped__")


def test_tracer_wraps_every_namespace_and_missing_names():
    import abelsweep
    from abelsweep import carleman, cli, solver

    layers = {"carleman": ("abel_system", "no_such_function"),
              "no_such_layer": ("anything",)}
    tracer = Tracer(layers=layers)
    with tracer.installed():
        assert cli.abel_system is carleman.abel_system is solver.abel_system
        assert abelsweep.abel_system is carleman.abel_system
        assert hasattr(solver.abel_system, "__wrapped__")
    assert not hasattr(solver.abel_system, "__wrapped__")
    s = tracer.summary()
    assert s["carleman.no_such_function"]["calls"] == 0
    assert s["no_such_layer.anything"]["calls"] == 0


def test_per_layer_metrics_without_any_calls():
    metrics = worker.per_layer(Tracer(), [], [])
    assert [name for name, _ in worker.PER_LAYER] == list(metrics)
    assert all(m["value"] == 0 for m in metrics.values())


# --- the benchmark's declared contract ---

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: w.why for name, w in WORKLOADS.items()}.items()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(worker.PER_LAYER)


def test_tail_percentile():
    values = list(range(1, 31))  # 30 samples: rank 20 leaves 10 above it
    assert run.tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert run.tail([3, 1, 2]) == (1, pytest.approx(100 / 3))
