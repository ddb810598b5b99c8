"""Ablation: MOESI vs MESI for SILO's private hierarchy (Sec. V-B).

The paper chooses MOESI because main memory is the point of coherence
in an all-private hierarchy: with MESI, every read of a remotely-dirty
block first writes it back to memory.  This ablation measures both the
writeback traffic and the performance cost of dropping the O state.
"""

from repro.core.systems import silo_config
from repro.sim.driver import simulate
from repro.experiments.common import resolve_plan, DEFAULT_SCALE, DEFAULT_SEED
from repro.workloads.scaleout import SCALEOUT_WORKLOADS, SCALEOUT_LABELS


def ablate_protocol(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                    workloads=("data_serving", "web_frontend")):
    """RW-sharing-heavy workloads show the O state's value."""
    plan = resolve_plan(plan)
    rows = []
    for wname in workloads:
        spec = SCALEOUT_WORKLOADS[wname]
        results = {}
        for proto in ("moesi", "mesi"):
            results[proto] = simulate(
                silo_config(scale=scale, protocol=proto), spec, plan,
                seed=seed)
        moesi, mesi = results["moesi"], results["mesi"]
        rows.append({
            "workload": SCALEOUT_LABELS.get(wname, wname),
            "mesi_vs_moesi_perf": (mesi.summary.performance()
                                   / moesi.summary.performance()),
            "moesi_mem_writes": moesi.system.memory.writes,
            "mesi_mem_writes": mesi.system.memory.writes,
        })
    return rows


def test_ablation_protocol(run_once, record_result):
    rows = run_once(ablate_protocol)
    record_result("ablation_protocol", rows,
                  title="Ablation: MESI vs MOESI under SILO")
    for r in rows:
        # dropping the O state can only add writebacks and lose (or
        # match) performance
        assert r["mesi_mem_writes"] >= r["moesi_mem_writes"]
        assert r["mesi_vs_moesi_perf"] <= 1.02
