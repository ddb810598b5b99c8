"""Run-provenance manifests and observation sessions."""

import json
import re

from repro.obs.manifest import (git_sha, write_manifest,
                                MANIFEST_SCHEMA)
from repro.obs.session import observe, current_session
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan

PLAN = SamplingPlan(1200, 600)
CFG = HierarchyConfig(name="man", num_cores=4, scale=512,
                      llc_kind="private_vault")


def run(seed=4):
    from repro.workloads.scaleout import WEB_SEARCH
    return simulate(CFG, WEB_SEARCH, PLAN, seed=seed)


def test_git_sha_shape():
    sha = git_sha()
    assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)


def test_git_sha_none_outside_repo(tmp_path):
    assert git_sha(str(tmp_path)) is None


def test_run_manifest_fields():
    m = run(seed=4).summary.manifest()
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["config"]["name"] == "man"
    assert m["config"]["llc_kind"] == "private_vault"
    assert m["scale"] == 512
    assert m["seed"] == 4
    assert m["sampling"] == {"warmup_events": 1200,
                             "measure_events": 600}
    assert m["wall_clock"]["warmup_s"] > 0
    assert m["wall_clock"]["measure_s"] > 0
    assert m["throughput"]["driven_events"] == 600 * 4
    assert m["throughput"]["events_per_sec"] > 0
    assert m["performance"] > 0
    pct = m["latency_percentiles"]
    assert pct, "some level saw exposed latency"
    for level in pct.values():
        assert level["p50"] <= level["p95"] <= level["p99"]
    assert "stats" not in m
    assert "trace" not in m  # no tracer attached


def test_manifest_is_json_serializable(tmp_path):
    path = write_manifest(run(seed=1).summary.manifest(), str(tmp_path),
                          "m")
    doc = json.loads(open(path).read())
    assert doc["seed"] == 1


def test_session_collects_runs_and_attaches_tracer():
    assert current_session() is None
    with observe(trace_capacity=256, collect_manifests=True) as s:
        assert current_session() is s
        run(seed=5)
        run(seed=6)
    assert current_session() is None
    assert [r["seed"] for r in s.runs] == [5, 6]
    assert s.last_tracer is not None
    assert s.runs[-1]["trace"]["emitted"] == s.last_tracer.emitted


def test_inactive_session_records_nothing():
    result = run()
    assert result.system.tracer is None
    with observe() as s:  # nothing requested
        assert not s.active
        run()
    assert s.runs == []


def test_live_and_replayed_manifests_match(tmp_path):
    """A point records the same manifest whether it ran in-process or
    was replayed from the run cache: same keys (the engine block, the
    fault plan) and same values outside the host-timing sections."""
    from repro.faults.plan import FaultPlan
    from repro.sim.engine import RunCache, RunEngine, RunRequest
    from repro.workloads.scaleout import WEB_SEARCH
    request = RunRequest.point(
        CFG, WEB_SEARCH, PLAN, seed=4,
        faults=FaultPlan(seed=3, data_flip_rate=0.01, tag_flip_rate=0.01))
    records = []
    for _ in range(2):
        engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
        with observe(collect_manifests=True) as s:
            engine.run([request])
        (record,) = s.runs
        records.append(record)
    assert engine.cache_hits == 1           # the second run replayed
    live, replayed = records
    assert set(live) == set(replayed)
    assert live["engine"]["request_key"]
    assert live["faults"]["plan"] == request.faults.canonical()
    for key in set(live) - {"wall_clock", "throughput"}:
        assert live[key] == replayed[key], key
