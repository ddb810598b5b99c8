#!/usr/bin/env python
"""Technology scaling: what taller DRAM stacks buy SILO.

Sec. IV-D's "Technology Scaling" paragraph projects that wafer thinning
will allow tens of stacked layers.  This example sweeps the stack
height, re-runs the vault design-space exploration at each height,
checks the thermal budget, and reports the best latency-optimized vault
per generation -- then estimates what the added capacity is worth on
the Web Search model (whose secondary working set is the largest in the
suite).

Run:  python examples/stacking_roadmap.py
"""

from repro.params import MB
from repro.dram.stacking import StackConfig
from repro.dram.sweep import sweep_vault_designs, best_latency_at_capacity
from repro.core.systems import silo_config, baseline_config
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(30_000, 12_000)


def best_vault(layers):
    stack = StackConfig(layers=layers)
    points = sweep_vault_designs(stack=stack)
    # largest capacity reachable within +25% of the fastest design
    fastest = min(p.access_time_ns for p in points)
    feasible = [p for p in points if p.access_time_ns <= 1.25 * fastest]
    return max(feasible, key=lambda p: p.vault_capacity_bytes), stack


def main():
    print("%-7s %-10s %-12s %-10s %s"
          % ("layers", "thermal", "vault", "latency", "organization"))
    chosen = {}
    for layers in (2, 4, 8):
        point, stack = best_vault(layers)
        chosen[layers] = point
        print("%-7d +%.1fC %-4s %7.0f MB   %5.2f ns   %s"
              % (layers, stack.temperature_rise_celsius(),
                 "ok" if stack.is_thermally_feasible() else "HOT",
                 point.vault_capacity_mb, point.access_time_ns,
                 str(point.die.tile)))

    print()
    print("Web Search performance per stack generation "
          "(vs the 8MB shared-LLC baseline):")
    base = simulate(baseline_config(), WEB_SEARCH, PLAN).summary.performance()
    for layers, point in chosen.items():
        from repro.params import ns_to_cycles, SILO_SERIALIZATION_LATENCY
        from repro.params import SILO_CONTROLLER_LATENCY
        total_cycles = (ns_to_cycles(point.access_time_ns)
                        + SILO_SERIALIZATION_LATENCY
                        + SILO_CONTROLLER_LATENCY)
        config = silo_config(llc_size_bytes=point.vault_capacity_bytes,
                             llc_latency=total_cycles)
        perf = simulate(config, WEB_SEARCH, PLAN).summary.performance()
        print("  %d layers (%4.0f MB/vault @ %d cycles): speedup %.3f"
              % (layers, point.vault_capacity_mb, total_cycles,
                 perf / base))


if __name__ == "__main__":
    main()
