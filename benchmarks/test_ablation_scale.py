"""Methodology validation: the scale divisor preserves relative
results.

The simulator divides cache capacities and workload footprints by the
same factor (DESIGN.md).  If that methodology is sound, SILO's speedup
must be stable across scale factors.  This ablation measures the
headline speedup at two scales.
"""

from repro.core.systems import baseline_config, silo_config
from repro.sim.driver import simulate
from repro.experiments.common import resolve_plan, DEFAULT_SEED
from repro.workloads.scaleout import SCALEOUT_WORKLOADS


def ablate_scale(plan=None, seed=DEFAULT_SEED,
                 workloads=("web_search", "mapreduce"),
                 scales=(64, 128)):
    plan = resolve_plan(plan)
    rows = []
    for wname in workloads:
        spec = SCALEOUT_WORKLOADS[wname]
        row = {"workload": wname}
        for scale in scales:
            base = simulate(baseline_config(scale=scale), spec, plan,
                            seed=seed).summary
            silo = simulate(silo_config(scale=scale), spec, plan,
                            seed=seed).summary
            row["speedup_scale%d" % scale] = (silo.performance()
                                              / base.performance())
        rows.append(row)
    return rows


def test_ablation_scale(run_once, record_result):
    rows = run_once(ablate_scale)
    record_result("ablation_scale", rows,
                  title="Ablation: SILO speedup across scale factors")
    for r in rows:
        a = r["speedup_scale64"]
        b = r["speedup_scale128"]
        # relative results stable within ~10% across a 2x scale change
        assert abs(a - b) / a < 0.12, r
