"""Tests of the benchmark itself: its correctness checks and its tracer.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest silobench -q
"""

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spin(ns):
    """Busy-wait ``ns`` nanoseconds of wall clock."""
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_grid():
    from repro.core.systems import system_config
    from repro.sim.engine import RunEngine, RunRequest
    from repro.sim.sampling import SamplingPlan
    from repro.workloads.scaleout import SCALEOUT_WORKLOADS

    names, requests = [], []
    for sname in ("baseline", "silo"):
        names.append(sname + "/web_frontend")
        requests.append(RunRequest.point(
            system_config(sname, num_cores=4, scale=1024),
            SCALEOUT_WORKLOADS["web_frontend"], SamplingPlan(2000, 1000), 3))
    return names, RunEngine(jobs=1, cache=None).run(requests)


def test_recorded_digests_pass(small_grid):
    names, summaries = small_grid
    expected = {n: workload.point_digest(s)
                for n, s in zip(names, summaries)}
    assert workload.check_grid(names, summaries, expected) == (set(), [])


def test_perturbed_digest_fails(small_grid):
    names, summaries = small_grid
    expected = {n: workload.point_digest(s)
                for n, s in zip(names, summaries)}
    digest = expected[names[1]]
    expected[names[1]] = ("0" if digest[0] != "0" else "1") + digest[1:]
    failed, messages = workload.check_grid(names, summaries, expected)
    assert failed == {names[1]}
    assert "digest" in messages[0]


def test_digest_covers_latency_percentiles(small_grid):
    names, summaries = small_grid
    from repro.cores.perf_model import LEVEL_NAMES

    summary = summaries[0]
    before = workload.point_digest(summary)
    level = LEVEL_NAMES.index(sorted(summary.latency_percentiles())[0])
    hist = next(c.latency_hist[level] for c in summary.cores
                if c.latency_hist[level]["count"])
    hist["total"] += 1.0
    try:
        assert workload.point_digest(summary) != before
    finally:
        hist["total"] -= 1.0


def test_unrecorded_seed_still_checks_invariants(small_grid):
    names, summaries = small_grid
    summary = summaries[0]
    summary.cores[0].data_count[0] += 1
    try:
        failed, _messages = workload.check_grid(names, summaries, {})
    finally:
        summary.cores[0].data_count[0] -= 1
    assert failed == {names[0]}


def test_serve_responses_checked_against_estimates():
    from repro.analytic.estimator import estimate_to_summary

    pool = workload.PointPool("shared", seed=1)
    a, b = pool.new_point(), pool.new_point()

    def body(point):
        summary = estimate_to_summary(pool.requests[point])
        return json.dumps({"summary": summary.to_dict()}).encode()

    results = [(a, "cold", 0.01, 200, "none", body(a)),
               (a, "warm", 0.01, 200, "memo", body(a)),
               (b, "cold", 0.01, 200, "none", body(a)),   # wrong body
               (b, "warm", 0.01, 429, "", b""),           # refused
               (b, "warm", 0.01, 0, "", b"")]             # timed out
    failed, messages = workload.check_responses(pool, results)
    assert failed == 3
    assert any("differs" in m for m in messages)


def test_open_loop_schedule_mix():
    def schedule(seed):
        pool = workload.PointPool("private_vault", seed=seed)
        primed = [pool.new_point() for _ in range(3)]
        return primed, pool.schedule(600, workload.OPEN_RATE, primed)

    primed, sched = schedule(5)
    warm = [s for s in sched if s[2] == "warm"]
    assert len(warm) / len(sched) == 0.7
    first = dict.fromkeys(primed, -workload.REPEAT_AFTER_S)
    for due, point, kind in sched:
        if kind == "cold":
            assert point not in first
            first[point] = due
        else:
            assert due - first[point] >= workload.REPEAT_AFTER_S
    assert schedule(5) == (primed, sched)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


LAYERS = ("root", "mid", "leaf")


def make_tree(tracer):
    """root (2 ms self) -> 2 x mid (1 ms self) -> leaf (0.5 ms)."""
    def leaf():
        spin(500_000)

    def mid():
        spin(1_000_000)
        leaf()

    def root():
        spin(1_000_000)
        mid()
        mid()
        spin(1_000_000)

    leaf = tracer.wrap(leaf, "leaf")
    mid = tracer.wrap(mid, "mid")
    return tracer.wrap(root, "root")


def test_synthetic_tree_self_times():
    tracer = tracing.Tracer(layers=LAYERS)
    make_tree(tracer)()
    report = tracer.report()
    expected = {"root": 2_000_000, "mid": 2_000_000, "leaf": 1_000_000}
    calls = {"root": 1, "mid": 2, "leaf": 2}
    for name, want in expected.items():
        assert report[name]["calls"] == calls[name]
        assert abs(report[name]["raw_self_ns"] - want) < 0.1 * want + 2e5
    assert tracing.check_conservation(tracer) == 0
    assert tracing.check_nesting(tracer.spans) == []
    offline = tracing.self_times_from_spans(tracer.spans, LAYERS)
    assert offline == {n: report[n]["raw_self_ns"] for n in LAYERS}


def test_nesting_check_finds_escaped_child():
    spans = [(1, 0, 0, 0, 100, 200), (2, 1, 1, 0, 150, 250),
             (3, 1, 1, 1, 120, 130)]
    problems = tracing.check_nesting(spans)
    assert any("escapes" in p for p in problems)
    assert any("crosses threads" in p for p in problems)


def test_coroutine_suspension_not_charged():
    tracer = tracing.Tracer(layers=("server", "work"))
    work = tracer.wrap(lambda: spin(2_000_000), "work")

    async def handler():
        spin(1_000_000)
        await asyncio.sleep(0.05)
        work()

    traced = tracer.wrap(handler, "server")
    assert asyncio.iscoroutinefunction(traced)
    asyncio.run(traced())
    report = tracer.report()
    assert report["server"]["calls"] == 1
    assert report["server"]["spans"] >= 2
    assert report["server"]["raw_self_ns"] < 10_000_000   # not the 50 ms
    assert abs(report["work"]["raw_self_ns"] - 2_000_000) < 4e5
    assert tracing.check_conservation(tracer) == 0
    assert tracing.check_nesting(tracer.spans) == []


def test_calibration_removes_most_wrapper_cost():
    def child():
        return None

    def parent():
        for _ in range(20_000):
            child()

    t0 = time.perf_counter_ns()
    parent()
    untraced = time.perf_counter_ns() - t0
    inner, outer = tracing.calibrate()
    tracer = tracing.Tracer(layers=("parent", "child"), span_cap=0)
    child = tracer.wrap(child, "child")
    tracer.wrap(parent, "parent")()
    report = tracer.report(inner, outer)
    raw = sum(r["raw_self_ns"] for r in report.values())
    corrected = sum(r["self_ns"] for r in report.values())
    assert inner > 0 and outer > 0
    assert abs(corrected - untraced) < abs(raw - untraced) / 2


def test_install_restores_every_patch():
    from repro.caches.sram_cache import SetAssocCache
    from repro.sim import driver, engine

    lookup = SetAssocCache.lookup
    run_system = engine.run_system
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert SetAssocCache.lookup is not lookup
        assert engine.run_system is not run_system
        assert driver.run_system is engine.run_system
    finally:
        tracer.uninstall()
    assert SetAssocCache.lookup is lookup
    assert engine.run_system is run_system
    assert driver.run_system is run_system


# ---------------------------------------------------------------------------
# benchmark contract
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "silobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "silobench/run.py", "--workload", "shared_llc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
