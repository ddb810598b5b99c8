"""Property: observability is inert.

Enabling the stats registry, the event tracer, manifest collection or
any combination must not change simulation results: same config and
seed must give bit-identical performance and counters whether or not
anything is observing.  Observation only *reads* simulator state.
"""

import pytest

from repro.obs.session import observe
from repro.obs.trace import EventTracer
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH, DATA_SERVING

PLAN = SamplingPlan(1500, 800)


def config(kind):
    return HierarchyConfig(name="inert", num_cores=4, scale=512,
                           llc_kind=kind)


def fingerprint(result):
    """Every observable outcome of a run, as plain data."""
    s = result.system
    summary = result.summary
    return {
        "performance": summary.performance(),
        "per_core_ipc": summary.per_core_ipc(),
        "level_counts": summary.level_counts(),
        "instructions": summary.instructions(),
        "llc_accesses": s.llc_accesses,
        "invalidations": s.invalidations,
        "directory_lookups": s.directory_lookups,
        "remote_forwards": s.remote_forwards,
        "vault_evictions": s.vault_evictions,
        "l1_writebacks": s.l1_writebacks,
        "memory_reads": s.memory.reads,
        "memory_writes": s.memory.writes,
        "link_traversals": s.mesh.link_traversals,
    }


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
@pytest.mark.parametrize("seed", [3, 11])
def test_observability_is_inert(kind, seed):
    spec = WEB_SEARCH if kind == "shared" else DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=seed)
    baseline = fingerprint(plain)

    # observed run: tracing + stats + manifest collection all on
    with observe(trace_capacity=512, collect_manifests=True,
                 collect_stats=True) as session:
        watched = simulate(config(kind), spec, PLAN, seed=seed)
        watched.system.stats.snapshot()
        watched.system.stats.dump()
    assert session.runs, "manifest records collected"
    assert watched.system.tracer is not None
    if kind == "private_vault":
        assert watched.system.tracer.emitted > 0

    # bit-identical: exact equality, no tolerance
    assert fingerprint(watched) == baseline
    # The tracer's emit sites on the SILO miss path only read state:
    # the full stats registry and the latency histograms match the
    # untraced run.  (The tracer registers no stats group of its own.)
    assert watched.system.stats.snapshot() == plain.system.stats.snapshot()
    assert (watched.summary.latency_percentiles()
            == plain.summary.latency_percentiles())


def test_direct_tracer_attachment_is_inert():
    plain = simulate(config("private_vault"), WEB_SEARCH, PLAN, seed=9)
    traced_sys_cfg = config("private_vault")
    from repro.sim.system import System
    from repro.workloads.generator import generate_traces
    from repro.sim.driver import run_system
    system = System(traced_sys_cfg, [WEB_SEARCH.core] * 4)
    system.attach_tracer(EventTracer(capacity=64))
    traces, layout = generate_traces(
        WEB_SEARCH, num_cores=4, events_per_core=PLAN.total_events,
        scale=traced_sys_cfg.scale, seed=9)
    system.rw_shared_range = layout.rw_shared_range
    traced = run_system(system, traces, PLAN.warmup_events,
                        PLAN.measure_events)
    assert fingerprint(traced) == fingerprint(plain)


def test_snapshot_reading_does_not_mutate():
    result = simulate(config("shared"), WEB_SEARCH, PLAN, seed=2)
    before = fingerprint(result)
    a = result.system.stats.snapshot()
    result.system.stats.dump()
    b = result.system.stats.snapshot()
    assert a == b
    assert fingerprint(result) == before


# -- observability v2: telemetry + profiler ---------------------------------


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_telemetry_and_profiler_are_inert(kind):
    """v2 layers (windowed telemetry, self-profiler) only read state:
    every simulated observable stays bit-identical when both are on."""
    spec = WEB_SEARCH if kind == "shared" else DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=7)

    with observe(telemetry_every=400, profile=True) as session:
        watched = simulate(config(kind), spec, PLAN, seed=7)

    assert fingerprint(watched) == fingerprint(plain)
    assert watched.system.stats.snapshot() == plain.system.stats.snapshot()
    assert (watched.summary.latency_percentiles()
            == plain.summary.latency_percentiles())
    # ...and the observation actually happened
    assert watched.telemetry is not None and watched.telemetry.windows
    assert session.profiler.report()["driven_events"] \
        == watched.summary.driven_events()


def test_telemetry_only_grows_the_manifest():
    """With telemetry on, the manifest gains a "telemetry" section but
    every pre-existing key keeps its exact value."""
    plain = simulate(config("private_vault"), WEB_SEARCH, PLAN, seed=4)
    base = plain.summary.manifest()
    with observe(telemetry_every=500, collect_manifests=True) as session:
        simulate(config("private_vault"), WEB_SEARCH, PLAN, seed=4)
    (grown,) = session.runs
    assert "telemetry" not in base
    assert grown.pop("telemetry")["windows"] > 0
    # host wall-clock (and the throughput derived from it) is the one
    # legitimately non-deterministic section -- drop it on both sides
    for doc in (base, grown):
        doc.pop("wall_clock")
        doc["throughput"].pop("events_per_sec")
    assert grown == base
