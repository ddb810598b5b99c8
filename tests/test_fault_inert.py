"""Property: fault injection is inert when off.

Mirrors tests/test_obs_inert.py: a run with no fault plan, a run with
a rate-zero plan, and a run with a force-attached zero-rate injector
must all be bit-identical to the plain fault-free run.  The hooks may
only *read* simulator state until a fault actually fires.
"""

import pytest

from repro.cores.perf_model import CoreParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate, run_system
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import WEB_SEARCH, DATA_SERVING

PLAN = SamplingPlan(1500, 800)


def config(kind):
    return HierarchyConfig(name="fault_inert", num_cores=4, scale=512,
                           llc_kind=kind)


def fingerprint(result):
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
def test_rate_zero_plan_is_inert(kind, seed):
    """An all-zero plan is inactive: simulate() attaches no injector
    and the run is bit-identical to passing no plan at all."""
    spec = WEB_SEARCH if kind == "shared" else DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=seed)
    quiet = simulate(config(kind), spec, PLAN, seed=seed,
                     faults=FaultPlan(seed=99))
    assert quiet.system.faults is None
    assert fingerprint(quiet) == fingerprint(plain)


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_attached_zero_rate_injector_is_inert(kind):
    """Even with the injector physically attached (hooks running on
    every access), zero rates and no due events change nothing."""
    spec = DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=9)

    cfg = config(kind)
    system = System(cfg, [spec.core] * 4)
    # Active plan (a far-future event) so the hook paths all run, but
    # nothing ever fires inside the simulated window.
    system.attach_faults(FaultInjector(
        FaultPlan(seed=0, vault_events=((10 ** 12, 0, "offline"),)), 4))
    traces, layout = generate_traces(
        spec, num_cores=4, events_per_core=PLAN.total_events,
        scale=cfg.scale, seed=9)
    system.rw_shared_range = layout.rw_shared_range
    hooked = run_system(system, traces, PLAN.warmup_events,
                        PLAN.measure_events)
    assert system.faults.accesses > 0          # hooks did run
    assert system.faults.injected == 0
    assert fingerprint(hooked) == fingerprint(plain)
    # The injector's hooks on the miss path only read state until a
    # fault fires: every stat outside its own group must agree.
    snap = hooked.system.stats.snapshot()
    del snap["faults"]
    assert snap == plain.system.stats.snapshot()
    assert (hooked.summary.latency_percentiles()
            == plain.summary.latency_percentiles())


def test_active_plan_changes_something():
    """Sanity check on the property itself: a plan with real rates is
    *not* inert (otherwise the inertness assertions are vacuous)."""
    spec = DATA_SERVING
    plain = simulate(config("private_vault"), spec, PLAN, seed=3)
    noisy = simulate(config("private_vault"), spec, PLAN, seed=3,
                     faults=FaultPlan(seed=1, data_flip_rate=0.5,
                                      double_bit_fraction=1.0))
    assert noisy.system.faults is not None
    assert noisy.system.faults.uncorrectable > 0
    assert fingerprint(noisy) != fingerprint(plain)
