#!/usr/bin/env python
"""Model your own server workload and size its LLC.

Defines a synthetic in-memory key-value store: a hot object cache, a
sharded on-heap index (the secondary working set), per-core request
scratch space, a small lock table, and a cold multi-GB value store.
Then asks the two questions the paper's methodology answers:

1. How does the workload respond to shared-LLC capacity (a Fig. 1-style
   sweep)?
2. What does SILO buy it over the baseline and the DRAM-cache design?

Run:  python examples/custom_workload.py
"""

from repro import (WorkloadSpec, RegionSpec, CodeSpec, CoreParams,
                   simulate, system_config, SamplingPlan)
from repro.params import MB

KV_STORE = WorkloadSpec(
    name="kv_store",
    code=CodeSpec(size_mb=2.0, alpha=1.1),
    regions=(
        RegionSpec("object_cache", 2.0, "zipf", "shared", 0.03,
                   alpha=1.0, write_fraction=0.10),
        RegionSpec("index", 220.0, "scan", "partitioned", 0.04,
                   write_fraction=0.05, page_sparse=True),
        RegionSpec("scratch", 0.125, "zipf", "private", 0.870,
                   alpha=1.35, write_fraction=0.40),
        RegionSpec("locks", 0.3, "zipf", "shared", 0.01, alpha=0.6,
                   write_fraction=0.50),
        RegionSpec("values", 24000.0, "uniform", "shared", 0.05),
    ),
    core=CoreParams(base_cpi=0.8, mlp=3.5, data_refs_per_instr=0.26),
    rw_shared_region="locks",
)

PLAN = SamplingPlan(30_000, 12_000)


def main():
    print("== Capacity sensitivity (Fig. 1 methodology) ==")
    base_perf = None
    for cap_mb in (8, 64, 256, 512):
        config = system_config("baseline",
                               llc_size_bytes=cap_mb * MB)
        perf = simulate(config, KV_STORE, PLAN).summary.performance()
        if base_perf is None:
            base_perf = perf
        print("  %4d MB shared LLC: %.3f (normalized)"
              % (cap_mb, perf / base_perf))

    print()
    print("== Evaluated systems ==")
    base = simulate(system_config("baseline"), KV_STORE, PLAN).summary
    for name in ("baseline_dram", "vaults_sh", "silo"):
        r = simulate(system_config(name), KV_STORE, PLAN).summary
        local, remote, miss = r.llc_breakdown()
        total = local + remote + miss
        print("  %-14s speedup %.3f   (%.0f%% off-chip misses)"
              % (name, r.performance() / base.performance(),
                 100 * miss / total))
    print()
    print("If the index fits a private vault but not the shared LLC, "
          "SILO wins; the cold value store is irreducible for everyone.")


if __name__ == "__main__":
    main()
