"""Ablation: the optional L1-D stride prefetcher (Table II).

The workload models describe post-prefetch residual miss streams, so
the evaluated systems run without the prefetcher; this ablation turns
it on and checks it behaves sanely (never a large regression, extra
cache traffic accounted)."""

from repro.core.systems import baseline_config
from repro.sim.driver import simulate
from repro.experiments.common import resolve_plan, DEFAULT_SCALE, DEFAULT_SEED
from repro.workloads.scaleout import SCALEOUT_WORKLOADS


def ablate_prefetcher(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                      workloads=("mapreduce", "web_search")):
    plan = resolve_plan(plan)
    rows = []
    for wname in workloads:
        spec = SCALEOUT_WORKLOADS[wname]
        off = simulate(baseline_config(scale=scale), spec, plan,
                       seed=seed)
        on = simulate(baseline_config(scale=scale, l1_prefetcher=True),
                      spec, plan, seed=seed)
        rows.append({
            "workload": wname,
            "perf_ratio_on_vs_off": (on.summary.performance()
                                     / off.summary.performance()),
            "prefetch_fills": on.system.prefetch_fills,
            "extra_llc_accesses": (on.system.llc_accesses
                                   - off.system.llc_accesses),
        })
    return rows


def test_ablation_prefetcher(run_once, record_result):
    rows = run_once(ablate_prefetcher)
    record_result("ablation_prefetcher", rows,
                  title="Ablation: L1-D stride prefetcher")
    for r in rows:
        assert r["prefetch_fills"] > 0
        # timeliness is idealized, so it must not regress much; the
        # traces' residual-miss semantics mean gains are modest too
        assert r["perf_ratio_on_vs_off"] > 0.9
