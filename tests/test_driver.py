"""Run driver: warmup/measure phases, results, re-evaluation helpers."""

import hashlib
import json

import pytest

from repro.core.systems import system_config
from repro.cores.perf_model import CoreParams
from repro.sim import driver
from repro.sim.config import HierarchyConfig
from repro.sim.system import System
from repro.sim.driver import _per_core_state, run_system, simulate
from repro.sim.sampling import SamplingPlan, PRESETS, from_env
from repro.workloads.base import CodeSpec, RegionSpec, WorkloadSpec
from repro.workloads.generator import CoreTrace, generate_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS, WEB_SEARCH


def tiny_system(cores=4):
    config = HierarchyConfig(
        name="drv", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind="shared", llc_size_bytes=64 * 1024, llc_ways=4,
        llc_latency=5, memory_queueing=False)
    return System(config, [CoreParams()] * cores)


def make_trace(core, n, start=0):
    return CoreTrace(core_id=core, blocks=list(range(start, start + n)),
                     flags=[0] * n, instr_per_event=3.0)


def test_run_system_counts_instructions():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    result = run_system(s, traces, warmup_events=40, measure_events=60)
    assert s.cores[0].instructions == 180  # 60 * 3.0
    assert result.summary.instructions() == 360  # only driven cores count


def test_warmup_not_measured():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    run_system(s, traces, warmup_events=40, measure_events=60)
    counts = sum(s.cores[0].data_count)
    assert counts == 60


def test_trace_too_short_raises():
    s = tiny_system()
    traces = [make_trace(0, 50), make_trace(1, 50, start=1000)]
    with pytest.raises(ValueError):
        run_system(s, traces, warmup_events=40, measure_events=60)


def test_prewarm_prefix_respected():
    s = tiny_system()
    t0 = CoreTrace(0, list(range(120)), [0] * 120, 3.0,
                   prewarm_events=20)
    t1 = make_trace(1, 100, start=1000)
    run_system(s, [t0, t1], warmup_events=40, measure_events=60)
    assert sum(s.cores[0].data_count) == 60
    assert sum(s.cores[1].data_count) == 60


def test_performance_is_sum_of_ipcs():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    summary = run_system(s, traces, 40, 60).summary
    assert [c.core_id for c in summary.cores] == [0, 1]
    expected = summary.cores[0].ipc() + summary.cores[1].ipc()
    assert summary.performance() == pytest.approx(expected)


def test_llc_scale_reevaluation_monotonic():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1).summary
    p1 = result.performance_with_llc_scale(1.0)
    p2 = result.performance_with_llc_scale(2.0)
    assert p2 < p1
    assert p1 == pytest.approx(result.performance())


def test_rw_multiplier_reevaluation():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1).summary
    assert result.performance_with_rw_multiplier(1.0) == pytest.approx(
        result.performance())
    assert (result.performance_with_rw_multiplier(4.0)
            <= result.performance_with_rw_multiplier(1.0))


def test_llc_breakdown_sums_to_post_l1_accesses():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1).summary
    local, remote, miss = result.llc_breakdown()
    counts = result.level_counts()
    assert local + remote + miss == sum(counts[2:])


def test_simulate_determinism():
    cfg = HierarchyConfig(name="t", num_cores=4, scale=512,
                          memory_queueing=False)
    a = simulate(cfg, WEB_SEARCH, SamplingPlan(500, 500), seed=5).summary
    b = simulate(cfg, WEB_SEARCH, SamplingPlan(500, 500), seed=5).summary
    assert a.performance() == pytest.approx(b.performance())
    assert a.level_counts() == b.level_counts()


def test_simulate_ignores_the_ambient_fault_plan():
    """``simulate`` takes its ``faults`` argument as given: an ambient
    plan from ``use_plan`` attaches no injector."""
    from repro.faults.plan import FaultPlan, use_plan
    cfg = HierarchyConfig(name="t", num_cores=4, scale=512)
    with use_plan(FaultPlan(seed=1, data_flip_rate=0.5)):
        result = simulate(cfg, WEB_SEARCH, SamplingPlan(200, 200), seed=5)
    assert result.system.faults is None


def test_sampling_presets():
    assert set(PRESETS) == {"quick", "standard", "full"}
    for p in PRESETS.values():
        assert p.measure_events > 0


def test_sampling_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "quick")
    assert from_env() == PRESETS["quick"]
    monkeypatch.setenv("REPRO_SAMPLING", "bogus")
    with pytest.raises(ValueError):
        from_env()
    monkeypatch.delenv("REPRO_SAMPLING")
    assert from_env("full") == PRESETS["full"]


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(-1, 10)
    with pytest.raises(ValueError):
        SamplingPlan(10, 0)
    assert SamplingPlan(10, 5).total_events == 15


def test_sampling_from_env_custom_pair(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "40000:15000")
    assert from_env() == SamplingPlan(40000, 15000)


def test_sampling_custom_pair_errors_are_not_chained(monkeypatch):
    for bad in ("4000:", "a:b", "1000:-5", ":"):
        monkeypatch.setenv("REPRO_SAMPLING", bad)
        with pytest.raises(ValueError) as exc:
            from_env()
        assert "warmup:measure" in str(exc.value)
        assert exc.value.__cause__ is None  # raise ... from None
    monkeypatch.setenv("REPRO_SAMPLING", "nope")
    with pytest.raises(ValueError) as exc:
        from_env()
    assert exc.value.__cause__ is None


def test_run_wall_clock_and_throughput():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    result = run_system(s, traces, warmup_events=40,
                        measure_events=60).summary
    assert result.warmup_wall_s > 0
    assert result.measure_wall_s > 0
    assert result.driven_events() == 120
    assert result.events_per_sec() > 0


# ---------------------------------------------------------------------------
# interleave grain and decoded lanes
# ---------------------------------------------------------------------------

SCALE = 64
PLAN = SamplingPlan(4_000, 2_000)

#: A small, mostly L1-resident instruction + heap footprint: quick to
#: simulate, with enough misses and writes to exercise the vault path.
HOT_SPEC = WorkloadSpec(
    name="driver_hot",
    code=CodeSpec(size_mb=0.125, alpha=1.2),
    regions=(
        RegionSpec("heap", 0.125, "zipf", "private", 1.0,
                   alpha=1.35, write_fraction=0.3),
    ),
    core=CoreParams(),
)


def _run(config_name, monkeypatch, *, chunk, num_cores=4, spec=HOT_SPEC):
    monkeypatch.setattr(driver, "CHUNK", chunk)
    config = system_config(config_name, num_cores=num_cores, scale=SCALE)
    return simulate(config, spec, PLAN, seed=7)


def test_decoded_lanes_are_reused_across_systems():
    config = system_config("silo", num_cores=4, scale=SCALE)
    traces, layout = generate_traces(
        HOT_SPEC, num_cores=4, events_per_core=PLAN.total_events,
        scale=SCALE, seed=7)
    sys_a = System(config, [HOT_SPEC.core] * 4)
    sys_a.rw_shared_range = layout.rw_shared_range
    lanes_a = _per_core_state(sys_a, traces)
    sys_b = System(config, [HOT_SPEC.core] * 4)
    sys_b.rw_shared_range = layout.rw_shared_range
    lanes_b = _per_core_state(sys_b, traces)
    for a, b in zip(lanes_a, lanes_b):
        assert a[2] is b[2]                   # the EventLanes object
        assert a[2].writes is b[2].writes     # and its decoded lanes
        assert a[2].ifetches is b[2].ifetches
        assert a[2].lat_mul is b[2].lat_mul


def test_single_core_results_are_chunk_invariant(monkeypatch):
    # With one core the interleave grain cannot change event order, so
    # results must be exactly identical across chunk sizes.
    runs = [_run("silo", monkeypatch, num_cores=1, chunk=chunk)
            for chunk in (50, 200, 800)]
    reference = runs[0]
    for r in runs[1:]:
        assert r.summary.performance() == reference.summary.performance()
        assert r.system.stats.snapshot() == \
            reference.system.stats.snapshot()
        assert (r.summary.latency_percentiles()
                == reference.summary.latency_percentiles())


def test_multi_core_chunk_drift_is_bounded(monkeypatch):
    # Chunk size changes multi-core interleaving, which legitimately
    # perturbs contention; the measured metric moves but stays close.
    # (HOT_SPEC never misses in the measure window, so it cannot move.)
    perf = {chunk: _run("silo", monkeypatch, chunk=chunk, spec=WEB_SEARCH)
            .summary.performance()
            for chunk in (50, 800)}
    assert perf[800] != perf[50]
    assert perf[800] == pytest.approx(perf[50], rel=0.10)


# ---------------------------------------------------------------------------
# golden metrics
# ---------------------------------------------------------------------------

GOLDEN_PLAN = SamplingPlan(2000, 1000)

#: sha256 of every run metric, recorded when these metrics were still
#: computed from the live CoreModels; the summary must reproduce them
#: bit for bit.
GOLDEN_METRICS = {
    "baseline/web_search":
        "d40861e56c2b2faf701b7cced2a034181855554ea0f24d4427cbac410ec3ef1d",
    "baseline/data_serving":
        "af4d17c802e1f669b6bd732922467b996fb29861ed7f2428617cca055016a1bf",
    "silo/web_search":
        "329dbecff94c7b6173dfe3f21c208075cddd423dc5ad7d9fae02ca98992da064",
    "silo/data_serving":
        "6a629ff5c809c3dba92a460bff1cfcb1dde2888cc969664c7b97462e674bd279",
    "3level_silo/web_search":
        "1754e766c4007e8f98c97259ba3f7e762a516e5841a279918565a8ae481c3dd4",
    "3level_silo/data_serving":
        "6fd266bee617ed7c3ce8ac70133031107044298032d189131543d2c0599cabff",
    "baseline_dram/web_search":
        "3697ae93354d089804d06bf5520dff9729e804998305fd8695b828364e7329bb",
    "baseline_dram/data_serving":
        "55fc79552a0a29d94689a577186ce3ec6703f90b33adb780fb96caca785e25f0",
    "silo_co/web_search":
        "cb4b8e6956d5a1cf69f390c51afe82e476d15873beb34d58eed58edf0a93735a",
    "silo_co/data_serving":
        "a0d2c4067a3414eb3fe1d77edca9df12ab89f31ffa57af0f4e37ec0917538561",
}


@pytest.mark.parametrize("case", list(GOLDEN_METRICS))
def test_run_metrics_golden(case):
    name, workload = case.split("/")
    summary = simulate(system_config(name, num_cores=4, scale=256),
                       SCALEOUT_WORKLOADS[workload], GOLDEN_PLAN,
                       seed=5).summary
    doc = {
        "performance": summary.performance(),
        "performance_with_llc_scale":
            summary.performance_with_llc_scale(1.5),
        "performance_with_rw_multiplier":
            summary.performance_with_rw_multiplier(3.0),
        "per_core_ipc": summary.per_core_ipc(),
        "level_counts": summary.level_counts(),
        "llc_breakdown": list(summary.llc_breakdown()),
        "llc_mpki": summary.llc_mpki(),
        "instructions": summary.instructions(),
        "latency_percentiles": summary.latency_percentiles(),
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_METRICS[case]
