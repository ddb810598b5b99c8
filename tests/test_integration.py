"""End-to-end integration: whole-system properties at miniature scale."""

import pytest

from repro import (simulate, system_config, scaleout_workload,
                   SamplingPlan, System, CoreParams)
from repro.sim.driver import run_system
from repro.workloads.colocation import generate_colocation_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from repro.workloads.spec import SPEC_APPS

PLAN = SamplingPlan(4000, 2000)
SCALE = 512


@pytest.fixture(scope="module")
def ws_pair():
    base = simulate(system_config("baseline", scale=SCALE),
                    scaleout_workload("web_search"), PLAN, seed=2)
    silo = simulate(system_config("silo", scale=SCALE),
                    scaleout_workload("web_search"), PLAN, seed=2)
    return base, silo


def test_silo_outperforms_baseline(ws_pair):
    base, silo = ws_pair
    assert silo.summary.performance() > base.summary.performance()


def test_silo_reduces_offchip_misses(ws_pair):
    base, silo = ws_pair
    assert silo.summary.llc_mpki() < base.summary.llc_mpki()


def test_silo_hits_are_mostly_local(ws_pair):
    _, silo = ws_pair
    local, remote, _ = silo.summary.llc_breakdown()
    assert local > remote


def test_vault_capacity_bound(ws_pair):
    _, silo = ws_pair
    for vault in silo.system.vaults:
        assert vault.occupancy() <= vault.capacity_blocks


def test_per_core_ipcs_positive(ws_pair):
    base, _ = ws_pair
    assert all(ipc > 0 for ipc in base.summary.per_core_ipc())


def test_every_scaleout_workload_runs_on_every_system():
    for wname in SCALEOUT_WORKLOADS:
        for sname in ("baseline", "baseline_dram", "silo", "vaults_sh"):
            r = simulate(system_config(sname, scale=1024),
                         SCALEOUT_WORKLOADS[wname],
                         SamplingPlan(1000, 500), seed=0)
            assert r.summary.performance() > 0


def test_colocated_silo_isolation():
    """Under SILO, adding mcf to the other cores must barely move Web
    Search's performance (private vaults -> no LLC contention)."""
    ws = scaleout_workload("web_search")
    mcf = SPEC_APPS["mcf"]

    def ws_perf(colocated):
        config = system_config("silo", num_cores=4, scale=SCALE)
        params = [ws.core, ws.core,
                  mcf.core if colocated else CoreParams(),
                  mcf.core if colocated else CoreParams()]
        system = System(config, params)
        if colocated:
            assignments = [(ws, [0, 1]), (mcf, [2, 3])]
        else:
            assignments = [(ws, [0, 1])]
        traces, _ = generate_colocation_traces(
            assignments, events_per_core=PLAN.total_events, scale=SCALE,
            seed=3)
        result = run_system(system, traces, PLAN.warmup_events,
                            PLAN.measure_events)
        return result.summary.ipc_of((0, 1))

    alone = ws_perf(False)
    together = ws_perf(True)
    assert together > 0.9 * alone


def test_three_level_systems_run():
    r = simulate(system_config("3level_silo", scale=1024),
                 scaleout_workload("web_search"), SamplingPlan(1000, 500))
    assert r.summary.performance() > 0
    r2 = simulate(system_config("3level_sram", scale=1024),
                  scaleout_workload("web_search"), SamplingPlan(1000, 500))
    assert r2.summary.performance() > 0


def test_track_sharing_collects_classification():
    r = simulate(system_config("baseline", scale=SCALE),
                 scaleout_workload("data_serving"), PLAN, seed=1,
                 track_sharing=True)
    reads, w_nosh, w_rw = r.system.sharing_breakdown()
    assert reads > 0
    assert w_rw >= 0


def test_energy_accounting_nonzero(ws_pair):
    from repro import EnergyModel
    base, silo = ws_pair
    m = EnergyModel()
    assert m.breakdown(base.system).total_dynamic_nj > 0
    assert m.breakdown(silo.system).total_dynamic_nj > 0


def test_public_api_exports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
