"""Smoke test of the end-to-end benchmark at reduced size.

Runs every workload function in-process for one small rep, untraced and
traced, and checks what the benchmark's numbers rest on.  Run with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

from __future__ import annotations

import json
import re
import time

import pytest

import bench_diff
import run as bench
import workloads

#: Reduced sizes, passed as workload-function arguments.
SMALL = {
    "river-scalar": dict(population=8, generations=2),
    "river-vector": dict(population=8, generations=2),
    "river-network": dict(population=6, generations=1),
    "sir-campaign": dict(population=8, generations=3),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _rep(workload: str, traced: bool) -> dict:
    clock = workloads.GenerationClock(time.perf_counter())
    rep = workloads.WORKLOADS[workload]([3], clock, traced=traced, **SMALL[workload])
    # Round-trip through JSON, as the record travels between processes.
    return json.loads(json.dumps(rep))


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def reps(request):
    """A workload's untraced rep and its traced replay (one seed each)."""
    workload = request.param
    return workload, _rep(workload, traced=False), _rep(workload, traced=True)


def test_every_declared_metric_is_emitted(reps):
    workload, rep, replay = reps
    emitted = {**bench.end_to_end([rep]), **bench.per_layer([rep], rep, replay)}
    for section in ("end_to_end", "per_layer"):
        for metric in bench.SPEC[section]:
            assert NAME.match(metric["name"]), metric["name"]
            assert metric["name"] in emitted, (workload, metric["name"])
    for name in bench.SPEC["end_to_end"]:
        assert emitted[name["name"]] > 0, (workload, name)


def test_useful_fraction_is_a_fraction(reps):
    workload, rep, replay = reps
    assert 0.0 < replay["layers"]["integrate.useful_frac"] <= 1.0, workload


def test_self_times_fit_in_the_wall_time(reps):
    workload, rep, replay = reps
    # Self times telescope: their sum is the top-level spans' durations.
    top_level = sum(duration for __, parent, __, duration in replay["spans"] if parent == -1)
    assert 0.0 < top_level <= replay["wall_s"], workload


def test_traced_replay_reproduces_the_rep(reps):
    workload, rep, replay = reps
    assert replay["history"] == rep["history"], workload
    assert bench.check([rep], [replay]) == ([], 0)


def _payload(values: list[float], best: float = 1.0) -> dict:
    end_to_end = {
        metric["name"]: {"reps": values} for metric in bench.SPEC["end_to_end"]
    }
    end_to_end["best_rmse"] = {"value": best}
    end_to_end["failed_frac"] = {"value": 0.0}
    return {"seed": 0, "reps": len(values), "workloads": {"w": {"end_to_end": end_to_end}}}


def test_bench_diff_flags_regressions_only():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    __, regressions = bench_diff.diff(_payload(steady), _payload(steady), bench.SPEC)
    assert regressions == 0
    slower = [value * 1.5 for value in steady]
    lines, regressions = bench_diff.diff(_payload(slower), _payload(steady), bench.SPEC)
    # Each metric gets worse in its own direction: the lower-is-better
    # ones regress, evals_per_s improves.
    lower = [m for m in bench.SPEC["end_to_end"] if m["better"] == "lower"]
    assert regressions == len(lower)
    noisy = [0.5, 1.0, 1.5, 2.0, 2.5]
    lines, __ = bench_diff.diff(_payload(noisy), _payload(steady), bench.SPEC)
    assert any("unresolved" in line for line in lines)
    __, regressions = bench_diff.diff(_payload(steady, best=2.0), _payload(steady), bench.SPEC)
    assert regressions == 1
