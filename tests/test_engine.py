"""Run-engine guarantees: serial, parallel and cache-replayed grids
produce bit-identical results; RunSummary round-trips losslessly; the
drive loop over pre-decoded event lanes matches the per-event
flag-decoding reference loop exactly; observation sessions still see
what they need.
"""

import json
import os
import pickle

import pytest

from repro.core.systems import system_config
from repro.obs import session as obs_session
from repro.sim.driver import _drive, _per_core_state
from repro.sim.engine import (RunCache, RunEngine, RunRequest, RunSummary,
                              cache_max_bytes_from_env, code_fingerprint,
                              engine_from_env, parse_size_bytes,
                              resolve_cache_dir, run_grid, use_engine)
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from repro.experiments.performance import fig10_scaleout

PLAN = SamplingPlan(1500, 800)
SCALE = 512
WORKLOADS = ("web_search", "data_serving")
SYSTEMS = ("baseline", "silo")


def _fig10(engine):
    with use_engine(engine):
        return fig10_scaleout(plan=PLAN, scale=SCALE, seed=7,
                              systems=SYSTEMS, workloads=WORKLOADS)


def _point(seed=7, workload="web_search", track_sharing=False):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS[workload], PLAN, seed,
        track_sharing=track_sharing)


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cache-replayed (exact equality)
# ---------------------------------------------------------------------------


def test_fig10_serial_parallel_cached_bit_identical(tmp_path):
    serial = _fig10(RunEngine(jobs=1))

    parallel_engine = RunEngine(jobs=4)
    parallel = _fig10(parallel_engine)
    assert parallel == serial          # exact float equality, no tolerance
    assert parallel_engine.executed > 0

    cold = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    assert _fig10(cold) == serial
    assert cold.cache_misses == cold.executed > 0

    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    assert _fig10(warm) == serial      # replayed entirely from cache
    assert warm.executed == 0
    assert warm.cache_hits == warm.unique_points > 0


def test_batch_dedup_simulates_duplicates_once():
    engine = RunEngine(jobs=1)
    a, b = engine.run([_point(), _point()])
    assert engine.requests == 2
    assert engine.unique_points == 1
    assert engine.executed == 1
    assert a is b


def test_run_grid_uses_env_default_engine(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    (summary,) = run_grid([_point()])
    assert summary.performance() > 0


# ---------------------------------------------------------------------------
# RunSummary fidelity and serialization
# ---------------------------------------------------------------------------


def test_summary_matches_live_result_exactly():
    req = _point(track_sharing=True)
    (summary,) = RunEngine(jobs=1).run([req])
    from repro.sim.driver import simulate
    live = simulate(req.config, req.placements[0][0], PLAN, seed=7,
                    track_sharing=True)
    assert summary.sharing == live.system.sharing_breakdown()
    assert summary.counters["llc_accesses"] == live.system.llc_accesses
    assert (summary.counters["memory_accesses"]
            == live.system.memory.accesses)


def test_summary_pickle_round_trip():
    (summary,) = RunEngine(jobs=1).run([_point()])
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.to_dict() == summary.to_dict()
    assert clone.performance() == summary.performance()


def test_summary_json_round_trip():
    (summary,) = RunEngine(jobs=1).run([_point(track_sharing=True)])
    clone = RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert clone.performance() == summary.performance()
    assert clone.latency_percentiles() == summary.latency_percentiles()
    assert clone.sharing == summary.sharing
    assert clone.manifest()["performance"] == \
        summary.manifest()["performance"]


# ---------------------------------------------------------------------------
# Request keying and cache invalidation
# ---------------------------------------------------------------------------


def test_request_key_is_stable_and_content_addressed():
    assert _point().key("fp") == _point().key("fp")
    assert _point().key("fp") != _point(seed=8).key("fp")
    assert _point().key("fp") != _point(workload="data_serving").key("fp")
    assert _point().key("fp") != _point(track_sharing=True).key("fp")
    # a code change (new fingerprint) invalidates every key
    assert _point().key("fp") != _point().key("fp2")
    assert len(code_fingerprint()) == 64


def test_fault_plan_is_part_of_the_request_key():
    from repro.faults.plan import FaultPlan, use_plan
    faulted = FaultPlan(seed=1, data_flip_rate=1e-3)
    assert (_point().key("fp")
            != _point_with(faults=faulted).key("fp"))
    # two different plans key differently too
    assert (_point_with(faults=faulted).key("fp")
            != _point_with(faults=FaultPlan(seed=2,
                                            data_flip_rate=1e-3)).key("fp"))
    # the ambient plan is resolved at request construction
    with use_plan(faulted):
        assert _point().key("fp") == _point_with(faults=faulted).key("fp")


def _point_with(**kwargs):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS["web_search"], PLAN, 7, **kwargs)


def test_cached_fault_free_summary_not_replayed_for_faulted_request(
        tmp_path):
    """Regression: a faulted request must never be served a fault-free
    cached summary (the plan is keyed, so it misses and simulates)."""
    from repro.faults.plan import FaultPlan
    cache = RunCache(str(tmp_path))
    warm_engine = RunEngine(jobs=1, cache=cache)
    (clean,) = warm_engine.run([_point()])           # cache fault-free
    assert warm_engine.executed == 1

    faulted_req = _point_with(faults=FaultPlan(
        seed=1, data_flip_rate=0.05, tag_flip_rate=0.05,
        double_bit_fraction=1.0))
    engine = RunEngine(jobs=1, cache=cache)
    (faulted,) = engine.run([faulted_req])
    assert engine.cache_hits == 0                    # keyed apart
    assert engine.executed == 1
    assert "faults" in faulted.counters
    assert faulted.counters["faults"]["injected"] > 0
    assert faulted.performance() != clean.performance()

    # and the faulted summary replays only for the same plan
    replay = RunEngine(jobs=1, cache=cache)
    (again,) = replay.run([faulted_req])
    assert replay.cache_hits == 1 and replay.executed == 0
    assert again.performance() == faulted.performance()


def test_fingerprint_covers_fault_sources():
    """The engine imports the fault model, so editing repro.faults
    invalidates cached summaries."""
    from repro.sim.engine import fingerprint_files
    files = fingerprint_files()
    assert any(f.endswith("faults/injector.py") for f in files)
    assert any(f.endswith("faults/ecc.py") for f in files)
    assert any(f.endswith("faults/plan.py") for f in files)
    assert any(f.endswith("sim/system.py") for f in files)


def test_fingerprint_follows_imports(tmp_path):
    """Only modules the engine imports are fingerprinted: in a copied
    tree, editing the experiment CLI or the job server keeps the key
    and editing the simulator changes it."""
    import shutil
    import subprocess
    import sys

    import repro
    from repro.sim.engine import fingerprint_files
    files = fingerprint_files()
    assert "experiments/cli.py" not in files
    assert "serve/client.py" not in files
    assert "serve/server.py" not in files
    assert "serve/proto.py" not in files
    assert "verify/__init__.py" in files    # runs on import

    def fingerprint_after(edit):
        root = tmp_path / edit.replace("/", "_")
        shutil.copytree(os.path.dirname(repro.__file__), root / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit != "none":
            with open(root / "repro" / edit, "a") as f:
                f.write("\n# edited\n")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.sim.engine import code_fingerprint; "
             "print(code_fingerprint())"],
            env=dict(os.environ, PYTHONPATH=str(root)),
            capture_output=True, text=True, check=True)
        return out.stdout.strip()

    base = fingerprint_after("none")
    code_fingerprint.cache_clear()
    assert base == code_fingerprint()       # the copy is faithful
    assert fingerprint_after("experiments/cli.py") == base
    assert fingerprint_after("serve/server.py") == base
    assert fingerprint_after("sim/system.py") != base


def test_fingerprint_ignores_the_commit(monkeypatch):
    """The cache key depends on inputs, not on commits: a commit that
    touches no package file (docs, benchmarks) must keep every cached
    run, so the fingerprint cannot move with the git sha."""
    from repro.obs import manifest
    fingerprints = []
    try:
        for sha in ("a" * 40, "b" * 40, None):
            monkeypatch.setattr(manifest, "git_sha",
                                lambda repo_dir=None, sha=sha: sha)
            code_fingerprint.cache_clear()
            fingerprints.append(code_fingerprint())
    finally:
        code_fingerprint.cache_clear()
    assert len(set(fingerprints)) == 1


def test_cache_tolerates_corruption(tmp_path):
    cache = RunCache(str(tmp_path))
    key = _point().key("fp")
    assert cache.get(key) is None
    path = cache.put(key, RunEngine(jobs=1).run([_point()])[0])
    with open(path, "wb") as f:
        f.write(b"not a pickle")
    assert cache.get(key) is None   # corrupt entry reads as a miss


def test_resolve_cache_dir_env_policy(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/silo-cache-test")
    assert resolve_cache_dir(default=None) == "/tmp/silo-cache-test"
    monkeypatch.setenv("REPRO_CACHE_DIR", "")   # empty disables
    assert resolve_cache_dir(default="~/.cache/silo-repro") is None
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert resolve_cache_dir(default=None) is None


# ---------------------------------------------------------------------------
# Observation sessions: live collection bypasses cache and pool
# ---------------------------------------------------------------------------


def test_stats_session_forces_live_execution(tmp_path):
    cache = RunCache(str(tmp_path))
    RunEngine(jobs=1, cache=cache).run([_point()])   # warm the cache
    engine = RunEngine(jobs=4, cache=cache)
    with obs_session.observe(collect_stats=True) as session:
        engine.run([_point()])
    assert session.last_system is not None   # a live System was built
    assert engine.cache_hits == 0
    assert engine.executed == 1


def test_manifest_session_records_cached_runs(tmp_path):
    cache = RunCache(str(tmp_path))
    RunEngine(jobs=1, cache=cache).run([_point()])
    with obs_session.observe(collect_manifests=True) as session:
        RunEngine(jobs=1, cache=cache).run([_point()])
    (record,) = session.runs
    assert record["seed"] == 7
    assert record["engine"]["request_key"]
    assert record["throughput"]["events_per_sec"] > 0


# ---------------------------------------------------------------------------
# Drive loop over decoded lanes: bit-identical to the reference loop
# ---------------------------------------------------------------------------


def _reference_state(system, traces):
    """The pre-optimization per-core state (flags decoded per event)."""
    out = []
    for tr in traces:
        p = system.cores[tr.core_id].params
        out.append((
            tr.core_id, tr.blocks, tr.flags,
            tr.instr_per_event * p.base_cpi,
            1.0 / p.mlp, p.ifetch_stall_factor,
        ))
    return out


def _reference_drive(system, per_core, starts, ends, times, chunk):
    """Verbatim copy of the pre-optimization ``_drive`` inner loop."""
    access = system.access
    positions = list(starts)
    remaining = sum(e - s for s, e in zip(starts, ends))
    while remaining > 0:
        for idx, (core, blocks, flags, cpi_ev, inv_mlp, iff) in \
                enumerate(per_core):
            pos = positions[idx]
            hi = min(pos + chunk, ends[idx])
            if pos >= hi:
                continue
            t = times[core]
            for i in range(pos, hi):
                fl = flags[i]
                lat = access(core, blocks[i], fl & 1, fl & 2, t)
                t += cpi_ev
                if lat:
                    t += lat * iff if fl & 2 else lat * inv_mlp
            times[core] = t
            remaining -= hi - pos
            positions[idx] = hi


@pytest.mark.parametrize("sys_name", ["baseline", "silo"])
def test_fast_drive_matches_reference_loop(sys_name):
    config = system_config(sys_name, num_cores=4, scale=SCALE)
    spec = SCALEOUT_WORKLOADS["web_search"]
    traces, layout = generate_traces(
        spec, num_cores=4, events_per_core=PLAN.total_events,
        scale=SCALE, seed=7)
    ends = [len(tr) for tr in traces]

    fast = System(config, [spec.core] * 4)
    fast.rw_shared_range = layout.rw_shared_range
    fast_times = [0.0] * 4
    _drive(fast, _per_core_state(fast, traces), [0] * 4, ends,
           fast_times, 200)

    ref = System(config, [spec.core] * 4)
    ref.rw_shared_range = layout.rw_shared_range
    ref_times = [0.0] * 4
    _reference_drive(ref, _reference_state(ref, traces), [0] * 4, ends,
                     ref_times, 200)

    assert fast_times == ref_times           # exact float equality
    assert fast.stats.snapshot() == ref.stats.snapshot()
    for fc, rc in zip(fast.cores, ref.cores):
        assert fc.data_latency == rc.data_latency
        assert fc.ifetch_latency == rc.ifetch_latency
        assert fc.rw_shared_latency == rc.rw_shared_latency


# ---------------------------------------------------------------------------
# Cache size cap: parse_size_bytes, LRU pruning, env plumbing
# ---------------------------------------------------------------------------


def test_parse_size_bytes_units_and_errors():
    assert parse_size_bytes("1048576") == 1024 ** 2
    assert parse_size_bytes("64k") == 64 * 1024
    assert parse_size_bytes("500m") == 500 * 1024 ** 2
    assert parse_size_bytes("2G") == 2 * 1024 ** 3
    assert parse_size_bytes(" 3m ") == 3 * 1024 ** 2
    for bad in ("abc", "-1", "0", "", "1.5m", "m"):
        with pytest.raises(ValueError):
            parse_size_bytes(bad)
    with pytest.raises(ValueError):
        RunCache("/tmp/never-used", max_bytes=0)


def _seed_cache(tmp_path, n_entries):
    """A real summary stored under ``n_entries`` synthetic keys with
    strictly ascending access times (index 0 = least recently used)."""
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)
    (summary,) = engine.run([_point()])
    keys = ["%064x" % i for i in range(n_entries)]
    base = os.stat(cache.path_for(_point().key(engine.fingerprint))).st_atime
    for i, key in enumerate(keys):
        path = cache.put(key, summary)
        # Backdate into the past so a get() touch (= now) outranks all.
        stamp = base - 10.0 * (n_entries - i)
        os.utime(path, (stamp, stamp))
    return cache, keys


def test_cache_prune_evicts_oldest_access_first(tmp_path):
    cache, keys = _seed_cache(tmp_path, 4)
    _atime, size, _path = cache.entries()[0]
    # 4 backdated synthetic entries + 1 real entry (most recent); a cap
    # of three entry-sizes evicts exactly the two oldest synthetics.
    removed = cache.prune(max_bytes=3 * size)
    assert removed == 2
    assert cache.pruned_entries == 2
    assert cache.get(keys[0]) is None       # oldest two gone
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None   # newest survive
    assert cache.get(keys[3]) is not None


def test_cache_get_refreshes_lru_order(tmp_path):
    cache, keys = _seed_cache(tmp_path, 3)
    assert cache.get(keys[0]) is not None   # touch the oldest entry
    _atime, size, _path = cache.entries()[0]
    cache.prune(max_bytes=2 * size)
    assert cache.get(keys[0]) is not None   # survived: recently touched
    assert cache.get(keys[1]) is None       # evicted instead


def test_cache_put_prunes_automatically_when_capped(tmp_path):
    unbounded = RunCache(str(tmp_path / "probe"))
    engine = RunEngine(jobs=1, cache=unbounded)
    (summary,) = engine.run([_point()])
    entry_size = unbounded.entries()[0][1]

    cache = RunCache(str(tmp_path / "capped"), max_bytes=2 * entry_size)
    for i in range(5):
        cache.put("%064x" % i, summary)
    assert cache.total_bytes() <= cache.max_bytes
    assert len(cache.entries()) <= 2
    assert cache.pruned_entries >= 3


def test_engine_snapshot_surfaces_cache_cap_and_pruning(tmp_path):
    cache = RunCache(str(tmp_path), max_bytes=8 * 1024 ** 2)
    engine = RunEngine(jobs=1, cache=cache)
    engine.run([_point()])
    snap = engine.snapshot()
    assert snap["cache_max_bytes"] == 8 * 1024 ** 2
    assert snap["cache_pruned_entries"] == 0
    cache.pruned_entries = 3
    assert engine.snapshot()["cache_pruned_entries"] == 3


def test_cache_max_bytes_env_flows_through_engine_from_env(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1m")
    engine = engine_from_env()
    assert engine.cache is not None
    assert engine.cache.max_bytes == 1024 ** 2

    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "")
    assert cache_max_bytes_from_env() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "junk")
    with pytest.raises(ValueError):
        cache_max_bytes_from_env()
