"""SILO reproduction: private die-stacked DRAM caches for servers.

Reproduces Shahab et al., "Farewell My Shared LLC! A Case for Private
Die-Stacked DRAM Caches for Servers" (MICRO 2018).

Quickstart::

    from repro import simulate, system_config, scaleout_workload, SamplingPlan

    base = simulate(system_config("baseline"), scaleout_workload("web_search"),
                    SamplingPlan(30_000, 15_000))
    silo = simulate(system_config("silo"), scaleout_workload("web_search"),
                    SamplingPlan(30_000, 15_000))
    print("SILO speedup:",
          silo.summary.performance() / base.summary.performance())
"""

from repro.sim import (HierarchyConfig, System, RunResult, run_system,
                       simulate, SamplingPlan)
from repro.obs import EventTracer, observe
from repro.core.systems import system_config, SYSTEM_LABELS
from repro.core.silo import SiloDesign
from repro.workloads import (scaleout_workload, enterprise_workload,
                             spec_app, spec_mix, generate_traces,
                             generate_colocation_traces,
                             WorkloadSpec, RegionSpec, CodeSpec)
from repro.energy import EnergyModel
from repro.cores.perf_model import CoreParams

__version__ = "1.0.0"

__all__ = [
    "HierarchyConfig", "System", "RunResult", "run_system", "simulate",
    "SamplingPlan", "system_config", "SYSTEM_LABELS", "SiloDesign",
    "scaleout_workload", "enterprise_workload", "spec_app", "spec_mix",
    "generate_traces", "generate_colocation_traces", "WorkloadSpec",
    "RegionSpec", "CodeSpec", "EnergyModel", "CoreParams",
    "EventTracer", "observe",
    "__version__",
]
